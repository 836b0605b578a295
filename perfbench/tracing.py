"""Spans around the calls into each layer of the library, and the per-layer
metrics they give.

The tracer replaces the layer functions by wrappers in every ``lerchphi``
module that holds them, so a call is seen whichever module makes it: the
dispatcher's call to ``phi_series`` goes through the engine module, the
CLI's through ``engine.phi_series`` and the identity checks' ``phi`` through
the name they imported.  A span is [name, start_ns, end_ns, parent, op,
info]; spans stay in memory until the pass that made them is aggregated.
Self time is a span's duration minus the time its child spans cover.

``_CompensatedSum.add`` runs once per series term, up to 300k times a call;
it gets no span, and the terms it sums are counted as the routes' work.
"""

from __future__ import annotations

import cmath
import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

from lerchphi import engine
from lerchphi.errors import DomainError, ToleranceNotMet
from workloads import TOL

ROUTES = ("phi_series", "phi_inverse", "phi_integral", "phi_pv")
SPECIAL = ("_polylog_sum", "cot_pi_derivative", "hurwitz_zeta", "polygamma")
RESIDUALS = ("shift", "s_ladder", "pde", "symmetry", "hurwitz_reflection",
             "polygamma_reflection")

# (name, better, unit) of every per-layer metric, probes and trace overhead
# included; the same list in every workload.
_COUNT, _MS, _US, _SHARE = "count", "ms", "us", "share"
PROBES = ("series_r0.3", "series_r0.99", "series_r0.999", "integral_r0.999",
          "pv_n3", "inverse_r10", "integer_a_r10")


def metric_specs():
    specs = [("engine.phi.calls", "lower", _COUNT),
             ("engine.phi.self_ms", "lower", _MS),
             ("engine.phi.certified_share", "higher", _SHARE)]
    for route in ROUTES:
        specs += [(f"engine.{route}.{field}", "lower", unit) for field, unit in (
            ("calls", _COUNT), ("busy_ms", _MS), ("work", _COUNT),
            ("us_per_work", _US), ("refused", _COUNT),
            ("uncertified", _COUNT), ("capped", _COUNT))]
    specs += [(f"engine.phi_integer_a.{field}", "lower", unit) for field, unit in (
        ("calls", _COUNT), ("busy_ms", _MS), ("work", _COUNT),
        ("uncertified", _COUNT))]
    specs += [("series_algebra.calls", "lower", _COUNT),
              ("series_algebra.busy_ms", "lower", _MS)]
    for fn in ("integrate_ray", "pv_integrate_ray"):
        specs += [(f"quadrature.{fn}.{field}", "lower", unit) for field, unit in (
            ("calls", _COUNT), ("busy_ms", _MS), ("nodes", _COUNT),
            ("us_per_node", _US))]
    for fn in SPECIAL:
        specs += [(f"special_functions.{fn}.calls", "lower", _COUNT),
                  (f"special_functions.{fn}.busy_ms", "lower", _MS)]
    specs.append(("special_functions._polylog_sum.terms", "lower", _COUNT))
    for res in RESIDUALS:
        specs += [(f"identities.residual_{res}.{field}", "lower", unit) for field, unit in (
            ("calls", _COUNT), ("busy_ms", _MS), ("phi_calls", _COUNT))]
    specs += [("cli.main.calls", "lower", _COUNT),
              ("cli.main.self_ms", "lower", _MS)]
    for probe in PROBES:
        specs += [(f"probe.{probe}.us", "lower", _US),
                  (f"probe.{probe}.work", "lower", _COUNT)]
    specs += [("trace.ops_per_s_untraced", "higher", "1/s"),
              ("trace.ops_per_s_traced", "higher", "1/s"),
              ("trace.overhead_share", "lower", _SHARE)]
    return specs


def _tol(args, kwargs):
    return kwargs.get("tol", args[3] if len(args) > 3 else TOL)


def _route_info(args, kwargs, result, exc):
    """(outcome, work) of a route call."""
    if exc is None:
        target = _tol(args, kwargs) * max(1.0, abs(result.value))
        outcome = "ok" if result.err_estimate <= target else "uncertified"
        return outcome, result.terms_or_nodes
    if isinstance(exc, ToleranceNotMet):
        return "capped", exc.result.terms_or_nodes if exc.result else 0
    if isinstance(exc, DomainError):
        return "refused", 0
    return "error", 0


def _phi_info(args, kwargs, result, exc):
    if exc is not None or result.method.endswith("(degraded)"):
        return False
    return result.err_estimate <= _tol(args, kwargs) * max(1.0, abs(result.value))


def _nodes_info(args, kwargs, result, exc):
    if exc is None:
        return result.terms_or_nodes
    return exc.result.terms_or_nodes if getattr(exc, "result", None) else 0


def _terms_info(args, kwargs, result, exc):
    return result[2] if exc is None else 0


def _targets():
    """(span name, function, info, owner) for every layer function present;
    owner is the class of a method, None for a module-level function."""
    mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("lerchphi.")}
    found = []

    def add(mod_name, attr, info=None):
        fn = getattr(mods.get(mod_name), attr, None)
        if callable(fn):
            found.append((f"{mod_name}.{attr}", fn, info, None))

    add("engine", "phi", _phi_info)
    for route in ROUTES + ("phi_integer_a",):
        add("engine", route, _route_info)
    add("quadrature", "integrate_ray", _nodes_info)
    add("quadrature", "pv_integrate_ray", _nodes_info)
    add("special_functions", "_polylog_sum", _terms_info)
    for fn in SPECIAL[1:]:
        add("special_functions", fn)
    for res in RESIDUALS:
        add("identities", f"residual_{res}")
    add("cli", "main")
    sa = mods.get("series_algebra")
    for attr, obj in vars(sa).items() if sa is not None else ():
        if getattr(obj, "__module__", None) != sa.__name__:
            continue
        if inspect.isfunction(obj):
            add("series_algebra", attr)
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and not meth.startswith("__"):
                    found.append((f"series_algebra.{attr}.{meth}", fn, None, obj))
    return found


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter_ns()
                if info is not None:
                    span[5] = info(args, kwargs, None, exc)
                raise
            finally:
                stack.pop()
            span[2] = perf_counter_ns()
            if info is not None:
                span[5] = info(args, kwargs, result, None)
            return result

        return traced

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "lerchphi" or name.startswith("lerchphi.")]
        for name, fn, info, cls in _targets():
            wrapper = self._wrap(name, fn, info)
            if cls is not None:
                owners = [(cls, fn.__name__)]
            else:
                owners = [(mod, attr) for mod in modules
                          for attr, val in list(vars(mod).items()) if val is fn]
            for owner, attr in owners:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def take(self):
        """The spans recorded so far; the tracer starts a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def aggregate(spans):
    """Per-layer counts and times of one pass: (counts, times)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    counts = defaultdict(int)
    times = defaultdict(float)
    certified = 0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur_ms = (end - start) / 1e6
        if name.startswith("series_algebra."):
            if parent < 0 or not spans[parent][0].startswith("series_algebra."):
                counts["series_algebra.calls"] += 1
                times["series_algebra.busy_ms"] += dur_ms
            continue
        counts[f"{name}.calls"] += 1
        times[f"{name}.busy_ms"] += dur_ms
        times[f"{name}.self_ms"] += dur_ms - child_ns[i] / 1e6
        if name == "engine.phi":
            certified += bool(info)
            ancestor = parent
            while ancestor >= 0 and not spans[ancestor][0].startswith("identities."):
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                counts[f"{spans[ancestor][0]}.phi_calls"] += 1
        elif name.startswith("engine."):
            outcome, work = info
            counts[f"{name}.work"] += work
            if outcome != "ok":
                counts[f"{name}.{'refused' if outcome == 'refused' else 'uncertified'}"] += 1
            if outcome == "capped":
                counts[f"{name}.capped"] += 1
        elif name.startswith("quadrature."):
            counts[f"{name}.nodes"] += info
        elif name == "special_functions._polylog_sum":
            counts[f"{name}.terms"] += info
    calls = counts["engine.phi.calls"]
    times["engine.phi.certified_share"] = certified / calls if calls else 0.0
    return dict(counts), dict(times)


def layer_metrics(counts, pass_times):
    """Per-layer metric values from exact counts and per-pass times (the
    median over passes)."""
    def t(key):
        values = [times.get(key, 0.0) for times in pass_times]
        return statistics.median(values)

    def per(numer_ms, denom):
        return 1e3 * t(numer_ms) / denom if denom else 0.0

    out = {}
    for name, _, unit in metric_specs():
        if name.startswith(("probe.", "trace.")):
            continue
        layer, field = name.rsplit(".", 1)
        if unit == _COUNT:
            out[name] = counts.get(name, 0)
        elif field == "us_per_work":
            out[name] = per(f"{layer}.busy_ms", counts.get(f"{layer}.work", 0))
        elif field == "us_per_node":
            out[name] = per(f"{layer}.busy_ms", counts.get(f"{layer}.nodes", 0))
        else:
            out[name] = t(name)
    return out


def _probe_calls():
    """The roadmap's fixed route points: a = 0.3+0.1i, n = 2, arg z = 0.7
    unless named otherwise; pv at z = 0.5 e^(0.7i), n = 3, a = 0.75."""
    a = 0.3 + 0.1j

    def z(r):
        return r * cmath.exp(0.7j)

    return {
        "series_r0.3": lambda: engine.phi_series(z(0.3), 2, a, TOL),
        "series_r0.99": lambda: engine.phi_series(z(0.99), 2, a, TOL),
        "series_r0.999": lambda: engine.phi_series(z(0.999), 2, a, TOL),
        "integral_r0.999": lambda: engine.phi_integral(z(0.999), 2, a, TOL),
        "pv_n3": lambda: engine.phi_pv(z(0.5), 3, 0.75, TOL),
        "inverse_r10": lambda: engine.phi_inverse(z(10.0), 2, a, TOL),
        "integer_a_r10": lambda: engine.phi_integer_a(z(10.0), 2, 1, TOL),
    }


def run_probes(repeats: int):
    """probe.<name>.us (best over repeats) and probe.<name>.work."""
    out = {}
    for name, call in _probe_calls().items():
        call()
        times, works = [], set()
        for _ in range(repeats):
            start = perf_counter_ns()
            res = call()
            times.append((perf_counter_ns() - start) / 1e3)
            works.add(res.terms_or_nodes)
        if len(works) != 1:
            raise RuntimeError(f"probe {name}: work differs between calls {works}")
        out[f"probe.{name}.us"] = min(times)
        out[f"probe.{name}.work"] = works.pop()
    return out
