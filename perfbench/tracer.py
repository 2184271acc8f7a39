"""Outside-in tracer: wraps the public functions of the program's modules from
the benchmark's own files, without changing anything under ``src/``.

Every wrapped call records a span (name, parent, start, end) in flat arrays
kept in memory; ``summary()`` reduces them once the job has returned.  Span
clocks read process CPU time, like the job times they are compared with.  A span
nested inside a span of the same name (``__rsub__`` calling ``__sub__``, a
method delegating to the same method of another class) counts towards self
time but not towards calls or inclusive seconds, so those count the calls
made into the layer.  Counters that need the arguments or the result (den_ops,
pairs, points, classes, fit failures) are taken inside the span, at the
outermost call only.

A wrapper replaces the original object wherever the program holds it: the
defining module, every module that imported the name directly, and class
attribute aliases such as ``__radd__ = __add__``.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from collections import Counter

MODULES = ("scalar", "ratfun", "lambdaring", "monoids", "ehrhart", "stacky", "cli")

# Names other modules import directly; the self-check requires each to be a
# wrapper in the importing module.
DIRECT_IMPORTS = {
    "stacky": ("pleth_log", "log_direct", "pleth_sym", "fit_rational",
               "delta_count", "gl_order"),
    "ehrhart": ("fit_rational",),
}

SCALAR_OPS = ("scalar.add", "scalar.sub", "scalar.mul", "scalar.div",
              "scalar.neg", "scalar.pow")


# -- counter hooks: (counters, args, kwargs[, result or exception]) -----------

def _den_ops(counters, args, kwargs):
    for x in args[:2]:
        is_laurent = getattr(x, "is_laurent", None)
        if is_laurent is not None and not is_laurent():
            counters["scalar.den_ops"] += 1
            return


def _convolve_pairs(counters, args, kwargs):
    per_level = []
    for f in args[:2]:
        sizes = Counter(n for _, n, _ in f.support())
        per_level.append(sizes)
    counters["lambdaring.convolve.pairs"] += sum(
        c * per_level[1].get(n, 0) for n, c in per_level[0].items())


def _dilation_points(counters, args, kwargs, out):
    polytope, r = args[0], args[1]
    counters["ehrhart.count_dilation.points"] += out
    box = 1
    for lo, hi in polytope.box:
        box *= max(0, math.floor(hi * r) - math.ceil(lo * r) + 1)
    counters["ehrhart.count_dilation.box_points"] += box


def _fit_coeffs(counters, args, kwargs):
    counters["ratfun.fit.coeffs"] += len(args[0].coeffs)


def _fit_failed(counters, exc):
    if type(exc).__name__ == "NoRationalFit":
        counters["ratfun.fit.no_fit"] += 1


def _inertia_points(counters, args, kwargs, out):
    counters["stacky.inertia_points.points"] += len(out)


def _bruteforce_classes(counters, args, kwargs, out):
    counters["stacky.bruteforce.classes"] += len(out[1])


def _cli_name(args, kwargs):
    return f"cli.{args[0][0]}"


def _delta_count_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "differences")
    return f"ehrhart.delta_count.{mode}"


# (module, qualified name, span name or namer, hooks)
TARGETS = [
    ("scalar", "ExactScalar.__add__", "scalar.add", {"before": _den_ops}),
    ("scalar", "ExactScalar.__sub__", "scalar.sub", {}),
    ("scalar", "ExactScalar.__rsub__", "scalar.sub", {}),
    ("scalar", "ExactScalar.__mul__", "scalar.mul", {"before": _den_ops}),
    ("scalar", "ExactScalar.__truediv__", "scalar.div", {"before": _den_ops}),
    ("scalar", "ExactScalar.__rtruediv__", "scalar.div", {"before": _den_ops}),
    ("scalar", "ExactScalar.__neg__", "scalar.neg", {}),
    ("scalar", "ExactScalar.__pow__", "scalar.pow", {}),
    ("scalar", "ExactScalar.__eq__", "scalar.eq", {}),
    ("scalar", "ExactScalar.eval_numeric", "scalar.eval_numeric", {}),
    ("scalar", "eval_numeric", "scalar.eval_numeric", {}),
    ("scalar", "ExactScalar.substitute_q", "scalar.substitute_q", {}),
    ("scalar", "ExactScalar.to_json", "scalar.to_json", {}),
    ("scalar", "ExactScalar.from_json", "scalar.from_json", {}),
    ("scalar", "ExactScalar.__str__", "scalar.str", {}),
    ("scalar", "ExactScalar.root_of_unity", "scalar.root_of_unity", {}),
    ("scalar", "root_of_unity", "scalar.root_of_unity", {}),
    ("scalar", "q_power", "scalar.q_power", {}),
    ("scalar", "half_l_level", "scalar.half_l_level", {}),
    ("scalar", "half_l_power", "scalar.half_l_power", {}),

    ("ratfun", "fit_rational", "ratfun.fit",
     {"before": _fit_coeffs, "error": _fit_failed}),
    ("ratfun", "RationalFunctionFit.limit_at_infinity", "ratfun.limit", {}),
    ("ratfun", "limit_at_infinity", "ratfun.limit", {}),
    ("ratfun", "RationalFunctionFit.expand", "ratfun.expand", {}),
    ("ratfun", "RationalFunctionFit.to_json", "ratfun.to_json", {}),

    ("lambdaring", "convolve", "lambdaring.convolve", {"before": _convolve_pairs}),
    ("lambdaring", "conv_power", "lambdaring.conv_power", {}),
    ("lambdaring", "adams", "lambdaring.adams", {}),
    ("lambdaring", "exp_conv", "lambdaring.exp_conv", {}),
    ("lambdaring", "log_conv", "lambdaring.log_conv", {}),
    ("lambdaring", "pleth_sym", "lambdaring.pleth_sym", {}),
    ("lambdaring", "pleth_log", "lambdaring.pleth_log", {}),
    ("lambdaring", "log_direct", "lambdaring.log_direct", {}),
    ("lambdaring", "pushforward", "lambdaring.pushforward", {}),
    ("lambdaring", "pullback", "lambdaring.pullback", {}),
    ("lambdaring", "CountingFunction.unit", "lambdaring.function_build", {}),
    ("lambdaring", "CountingFunction.from_callable", "lambdaring.function_build", {}),
    ("lambdaring", "CountingFunction.restricted", "lambdaring.function_ops", {}),
    ("lambdaring", "CountingFunction.__add__", "lambdaring.function_ops", {}),
    ("lambdaring", "CountingFunction.__sub__", "lambdaring.function_ops", {}),
    ("lambdaring", "CountingFunction.__neg__", "lambdaring.function_ops", {}),
    ("lambdaring", "CountingFunction.scale", "lambdaring.function_ops", {}),
    ("lambdaring", "CountingFunction.differences", "lambdaring.function_compare", {}),
    ("lambdaring", "CountingFunction.to_json", "lambdaring.function_json", {}),

    ("monoids", "affine_line_census", "monoids.census", {}),
    ("monoids", "gl_order", "monoids.gl_order", {}),
    ("monoids", "GradedGaloisMonoid.trace", "monoids.trace", {}),
    ("monoids", "DiscreteLattice.trace", "monoids.trace", {}),
    ("monoids", "LinearObjectsMonoid.trace", "monoids.trace", {}),
    ("monoids", "GradedGaloisMonoid.fixed_elements", "monoids.fixed_elements", {}),
    ("monoids", "DiscreteLattice.fixed_elements", "monoids.fixed_elements", {}),
    ("monoids", "FreeOrbitMonoid.fixed_elements", "monoids.fixed_elements", {}),
    ("monoids", "LinearObjectsMonoid.fixed_elements", "monoids.fixed_elements", {}),
    ("monoids", "FreeOrbitMonoid.atoms", "monoids.atoms", {}),
    ("monoids", "GradedGaloisMonoid.trace_fibers", "monoids.trace_fibers", {}),
    ("monoids", "DiscreteLattice.trace_fibers", "monoids.trace_fibers", {}),
    ("monoids", "LinearObjectsMonoid.trace_fibers", "monoids.trace_fibers", {}),
    ("monoids", "LinearObjectsMonoid.stacky_value", "monoids.stacky_value", {}),
    ("monoids", "LinearObjectsMonoid.aut_order", "monoids.aut_order", {}),

    ("ehrhart", "RationalPolytope.__init__", "ehrhart.polytope", {}),
    ("ehrhart", "RationalPolytope.from_vertices", "ehrhart.polytope", {}),
    ("ehrhart", "count_dilation", "ehrhart.count_dilation",
     {"after": _dilation_points}),
    ("ehrhart", "ehrhart_series", "ehrhart.series", {}),
    ("ehrhart", "ehrhart_limit", "ehrhart.limit", {}),
    ("ehrhart", "fiber_polytope", "ehrhart.fiber_polytope", {}),
    ("ehrhart", "positive_functional_exists", "ehrhart.positive_functional", {}),
    ("ehrhart", "delta_count", _delta_count_name, {}),
    ("ehrhart", "delta_limit", "ehrhart.delta_limit", {}),

    ("stacky", "ToricStackDatum.__init__", "stacky.datum", {}),
    ("stacky", "ToricStackDatum.fiber_orbits", "stacky.fiber_orbits", {}),
    ("stacky", "inertia_points", "stacky.inertia_points", {"after": _inertia_points}),
    ("stacky", "volume_series", "stacky.volume_series", {}),
    ("stacky", "volume_fit", "stacky.volume_fit", {}),
    ("stacky", "orbifold_volume", "stacky.orbifold_volume", {}),
    ("stacky", "dm_orbifold_sum", "stacky.dm_orbifold_sum", {}),
    ("stacky", "stacky_counting_function", "stacky.stacky_counting_function", {}),
    ("stacky", "weighted_inertia_coefficient", "stacky.weighted_inertia", {}),
    ("stacky", "weighted_inertia_series", "stacky.weighted_inertia_series", {}),
    ("stacky", "weighted_inertia_coefficient_bruteforce", "stacky.bruteforce",
     {"after": _bruteforce_classes}),
    ("stacky", "GF.__init__", "stacky.gf", {}),
    ("stacky", "bps_counting_function", "stacky.bps_counting_function", {}),
    ("stacky", "plethystic_identity_residual", "stacky.plethystic_identity_residual", {}),
    ("stacky", "IdentityResidualReport.to_json", "stacky.residual_report", {}),
    ("stacky", "quiver_bps", "stacky.quiver_bps", {}),
    ("stacky", "verify_sym_roundtrip", "stacky.verify_sym_roundtrip", {}),
    ("stacky", "delta_report", "stacky.delta_report", {}),

    ("cli", "run", _cli_name, {}),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.span_name = array("i")    # name id, or ~id when nested in the same name
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list = []
        self._originals: list = []
        self.missing: list[str] = []
        self.problems: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _wrap(self, fn, name, hooks):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, depth, counters = self._stack, self._depth, self.counters
        perf = time.process_time
        before, after, on_error = hooks.get("before"), hooks.get("after"), hooks.get("error")
        fixed = None if callable(name) else self._name_id(name)
        name_id = self._name_id

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(name(args, kwargs))
            d = depth[nid]
            idx = len(names)
            names.append(nid if d == 0 else ~nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            depth[nid] = d + 1
            starts.append(perf())
            try:
                if before is not None and d == 0:
                    before(counters, args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None and d == 0:
                    after(counters, args, kwargs, out)
            except BaseException as exc:
                if on_error is not None and d == 0:
                    on_error(counters, exc)
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
                depth[nid] = d
            return out

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = True
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _holders(self):
        """(owner, attribute, value) for every module global and class
        attribute of the program."""
        for mod_name in MODULES:
            mod = importlib.import_module(f"stacky_volumes.{mod_name}")
            for attr, value in list(vars(mod).items()):
                yield mod, attr, value
                if isinstance(value, type) and value.__module__.startswith("stacky_volumes"):
                    for cattr, cvalue in list(vars(value).items()):
                        yield value, cattr, cvalue

    def install(self):
        wrappers = {}
        for mod_name, qualname, name, hooks in TARGETS:
            owner = importlib.import_module(f"stacky_volumes.{mod_name}")
            *path, attr = qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.missing.append(f"{mod_name}.{qualname}")
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn, name, hooks))
        for owner, attr, value in list(self._holders()):
            fn = value.__func__ if isinstance(value, staticmethod) else value
            hit = wrappers.get(id(fn))
            if hit is None or hit[0] is not fn:
                continue
            new = staticmethod(hit[1]) if isinstance(value, staticmethod) else hit[1]
            setattr(owner, attr, new)
            self._patches.append((owner, attr, value))
        self._originals = [fn for fn, _ in wrappers.values()]
        self.problems = self.self_check()

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def self_check(self) -> list[str]:
        """Problems with the installation: originals still reachable, or a
        direct import that is not a wrapper."""
        problems = []
        originals = {id(fn) for fn in self._originals}
        for owner, attr, value in self._holders():
            fn = value.__func__ if isinstance(value, staticmethod) else value
            if id(fn) in originals:
                problems.append(f"unwrapped {getattr(owner, '__name__', owner)}.{attr}")
        for mod_name, attrs in DIRECT_IMPORTS.items():
            mod = importlib.import_module(f"stacky_volumes.{mod_name}")
            for attr in attrs:
                value = getattr(mod, attr, None)
                if value is not None and not getattr(value, "__perfbench_span__", False):
                    problems.append(f"direct import {mod_name}.{attr} is not wrapped")
        return problems

    def summary(self) -> dict:
        """Reduce the spans of this process to per-name totals."""
        names, parents = self.span_name, self.span_parent
        n = len(names)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        per_name = [[0, 0.0, 0.0] for _ in self.names]   # calls, seconds, self seconds
        ops = {self._ids[k] for k in SCALAR_OPS if k in self._ids}
        fit_id = self._ids.get("ratfun.fit")
        volume_fit_id = self._ids.get("stacky.volume_fit")
        counters = Counter(self.counters)
        ops_s = 0.0
        for i in range(n):
            raw = names[i]
            nid = raw if raw >= 0 else ~raw
            row = per_name[nid]
            row[2] += dur[i] - child[i]
            if raw >= 0:
                row[0] += 1
                row[1] += dur[i]
            p = parents[i]
            pid = -1
            if p >= 0:
                praw = names[p]
                pid = praw if praw >= 0 else ~praw
            if nid in ops and pid not in ops:
                ops_s += dur[i]
            if nid == fit_id and pid == volume_fit_id:
                counters["stacky.volume_fit.attempts"] += 1
        return {
            "spans": {name: row for name, row in zip(self.names, per_name) if row[0] or row[2]},
            "counters": dict(counters),
            "scalar_ops_s": ops_s,
            "n_spans": n,
            "missing": self.missing,
            "problems": self.problems,
        }
