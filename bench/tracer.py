"""Out-of-program layer tracer.

Wraps public functions, methods and properties of the hyperval modules
from outside: every module-level name bound to a traced function is
replaced in every hyperval module that binds it (so ``is_prime`` is
traced whether it is called from ``numtheory``, ``padic``, ``hyperseq``
or ``polyq``).  Spans are not stored; each call updates per-name totals
of calls, inclusive time and self time (inclusive time minus the time
covered by traced calls it made).  Counters are read from public return
values.  A name that a later version of the package no longer has is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

PACKAGE = "hyperval"

# (module, attribute path) in the package; reported as "<layer>.<path>",
# with the private _fp module reported as layer "fp" (metric names must
# start with a letter).
TRACED = (
    ("numtheory", "is_prime"),
    ("numtheory", "sieve_primes"),
    ("numtheory", "legendre"),
    ("numtheory", "sqrt_mod"),
    ("numtheory", "weil_height_exact"),
    ("_fp", "pow_mod"),
    ("_fp", "gcd"),
    ("polyq", "factor"),
    ("polyq", "radical"),
    ("padic", "count_roots_mod_p"),
    ("padic", "is_hensel_prime"),
    ("padic", "reduce_mod_p"),
    ("padic", "hensel_lift"),
    ("padic", "valuation_at_prime_power"),
    ("hyperseq", "usable_prime"),
    ("hyperseq", "term"),
    ("hyperseq", "term_valuation"),
    ("hyperseq", "height_profile"),
    ("hyperseq", "valuation_profile"),
    ("hyperseq", "TermCursor.advance"),
    ("hyperseq", "TermCursor.value"),
    ("asymmetry", "root_counts"),
    ("asymmetry", "find_asymmetric_prime"),
    ("asymmetry", "make_certificate"),
    ("asymmetry", "slope_fit"),
    ("asymmetry", "Envelope.bound_index"),
    ("membership", "decide"),
    ("quadratic", "star_discrepancy"),
    ("quadratic", "equidistribution_sample"),
    ("quadratic", "find_condition_prime"),
    ("cli", "main"),
    ("cli", "parse_poly"),
)

# which of calls / ms / self_ms each traced name reports
_ALL = ("calls", "ms", "self_ms")
_FIELDS = {
    "hyperseq.height_profile": ("ms",),
    "hyperseq.valuation_profile": ("ms",),
    "asymmetry.slope_fit": ("ms",),
    "padic.valuation_at_prime_power": ("ms",),
    "quadratic.equidistribution_sample": ("ms",),
    "quadratic.find_condition_prime": ("ms",),
    "asymmetry.make_certificate": ("calls", "self_ms"),
    "membership.decide": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
}

# counters derived from return values, and the ratios built from them
COUNTERS = (
    "asymmetry.scan.tested",
    "asymmetry.scan.symmetric",
    "asymmetry.scan.unusable",
    "asymmetry.scan.excluded",
    "membership.n0_sum",
    "membership.outcome.yes",
    "membership.outcome.no",
    "membership.outcome.unsupported",
    "membership.exact_checks",
    "quadratic.samples",
    "quadratic.skipped",
    "cli.failed",
)
RATIOS = (
    "asymmetry.make_certificate.ok_ratio",
    "membership.exact_check_hit_ratio",
)


def metric_name(module: str, path: str) -> str:
    return f"{module.lstrip('_')}.{path}"


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, path in TRACED:
        name = metric_name(module, path)
        for field in _FIELDS.get(name, _ALL):
            out.append((f"{name}.{field}", "count" if field == "calls" else "ms"))
    out += [(c, "count") for c in COUNTERS]
    out += [(r, "ratio") for r in RATIOS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


class Tracer:
    """Per-name call/time totals collected through wrappers."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.ok: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [seconds in traced children]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[Any, str, Any]] = []

    # -- accounting ----------------------------------------------------

    def _span(self, name: str, fn: Callable, args, kwargs,
              on_result: Optional[Callable[[Any], None]]):
        frame = [0.0]
        self._stack.append(frame)
        self._active[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._active[name] -= 1
            self.calls[name] += 1
            self.self_[name] += dt - frame[0]
            if self._active[name] == 0:  # recursion counts once inclusively
                self.incl[name] += dt
            if self._stack:
                self._stack[-1][0] += dt
        self.ok[name] += 1
        if on_result is not None:
            on_result(result)
        return result

    def _wrap(self, name: str, fn: Callable, on_result=None,
              extra: Optional[str] = None) -> Callable:
        span = self._span
        counters = self.counters

        def traced(*args, **kwargs):
            if extra is not None:
                counters[extra] += 1
            return span(name, fn, args, kwargs, on_result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _on_result(self, name: str) -> Optional[Callable[[Any], None]]:
        c = self.counters
        if name == "asymmetry.find_asymmetric_prime":
            def scan(res):
                for key in ("tested", "symmetric", "unusable", "excluded"):
                    c[f"asymmetry.scan.{key}"] += getattr(res, key)
            return scan
        if name == "membership.decide":
            def verdict(v):
                c[f"membership.outcome.{v.outcome}"] += 1
                if v.bound_n0 is not None:
                    c["membership.n0_sum"] += v.bound_n0
            return verdict
        if name == "quadratic.equidistribution_sample":
            def report(r):
                c["quadratic.samples"] += r.samples
                c["quadratic.skipped"] += r.skipped_undefined
            return report
        if name == "cli.main":
            def code(rc):
                if rc != 0:
                    c["cli.failed"] += 1
            return code
        return None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))}
        for module, path in TRACED:
            name = metric_name(module, path)
            mod = mods.get(f"{PACKAGE}.{module}")
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if owner_path:  # a method or property on a class
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget))
                else:
                    wrapped = self._wrap(name, original)
                self._set(owner, attr, wrapped)
                continue
            on_result = self._on_result(name)
            for key, m in mods.items():
                for binding, value in list(vars(m).items()):
                    if value is not original:
                        continue
                    # hyperseq.term as bound in membership: exact re-checks
                    extra = ("membership.exact_checks"
                             if name == "hyperseq.term"
                             and key == f"{PACKAGE}.membership" else None)
                    self._set(m, binding,
                              self._wrap(name, original, on_result, extra))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Current totals as metric name → value (times in ms)."""
        out: dict[str, float] = {}
        for module, path in TRACED:
            name = metric_name(module, path)
            for field in _FIELDS.get(name, _ALL):
                if field == "calls":
                    out[f"{name}.calls"] = self.calls.get(name, 0)
                elif field == "ms":
                    out[f"{name}.ms"] = 1e3 * self.incl.get(name, 0.0)
                else:
                    out[f"{name}.self_ms"] = 1e3 * self.self_.get(name, 0.0)
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        out["asymmetry.make_certificate.calls_total"] = \
            self.calls.get("asymmetry.make_certificate", 0)
        out["asymmetry.make_certificate.ok_total"] = \
            self.ok.get("asymmetry.make_certificate", 0)
        return out


def difference(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def finish(totals: dict[str, float]) -> dict[str, float]:
    """Turn a snapshot difference into reported metrics (adds ratios)."""
    out = dict(totals)
    made = out.pop("asymmetry.make_certificate.calls_total")
    ok = out.pop("asymmetry.make_certificate.ok_total")
    out["asymmetry.make_certificate.ok_ratio"] = ok / made if made else 0.0
    checks = out["membership.exact_checks"]
    out["membership.exact_check_hit_ratio"] = (
        out["membership.outcome.yes"] / checks if checks else 0.0)
    return out
