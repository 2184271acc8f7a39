"""Command-line front end.

One job per invocation: a command plus a JSON parameter object (from --input
or inline defaults), producing a deterministic JSON (or TSV) report.  Exact
scalars are printed symbolically and, when the job carries a q, numerically.

Exit codes: 0 success, 2 validation failure (unknown command, schema
violation), 1 computation failure (module errors, wrapped with their origin).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import ehrhart as eh
from . import lambdaring as lr
from . import monoids as mo
from . import ratfun as rf
from . import stacky as st
from .scalar import ExactScalar, HalfLConvention, factor

COMMANDS = ("ehrhart", "volume", "bps", "delta", "plid-check", "plethystic")
# q only sizes finite-field tables (capped far lower) and numeric display;
# the bound keeps the trial-division prime-power check instant.
_Q_MAX = 2**31
# ehrhart: prefix-grid points count_dilation may sweep over r = 1..order,
# each dilation charged at least _DILATION_MIN for its fixed cost.  The
# benchmark's tetrahedra sweep 2.8 million; 10^8 is a few seconds of numpy.
_PREFIX_BUDGET = 10**8
_DILATION_MIN = 2**10


class SchemaViolation(Exception):
    pass


def _scalar_report(s: ExactScalar, q0=None):
    out = {"exact": s.to_json(), "display": str(s)}
    if q0 is not None:
        z = s.eval_numeric(q0)
        out["value_at_q"] = z.real if abs(z.imag) < 1e-12 else [z.real, z.imag]
    return out


def _require(params, key, types, what):
    if key not in params:
        raise SchemaViolation(f"missing required field {key!r} for {what}")
    v = params[key]
    if types and not isinstance(v, types):
        raise SchemaViolation(f"field {key!r} has wrong type for {what}")
    return v


def _int(params, keys, default, minimum=1):
    """The first of the fields `keys` present in params, which must be an
    integer >= minimum; `default` when none is present."""
    keys = (keys,) if isinstance(keys, str) else keys
    key = next((k for k in keys if k in params), None)
    if key is None:
        return default
    v = params[key]
    if type(v) is not int or v < minimum:
        raise SchemaViolation(f"field {key!r} must be an integer >= {minimum}")
    return v


def _prime_power(params) -> int:
    q = _int(params, "q", 2, 2)
    if q > _Q_MAX:
        raise SchemaViolation(f"field 'q' must be at most 2^31 = {_Q_MAX}")
    if len(factor(q)) != 1:
        raise SchemaViolation("field 'q' must be a prime power")
    return q


def _parse_convention(params) -> HalfLConvention:
    bits = params.get("half_l", "1,1")
    if isinstance(bits, str):
        try:
            bits = [int(b) for b in bits.split(",")]
        except ValueError:
            bits = None
    if (not isinstance(bits, list) or len(bits) != 2
            or not all(type(b) is int and b in (0, 1) for b in bits)):
        raise SchemaViolation("half_l must be two bits 'b1,b2' or [b1, b2], each 0 or 1")
    return HalfLConvention(*bits)


def _cmd_ehrhart(params):
    key = "vertices" if "vertices" in params else "A"
    rows = _require(params, key, list, "ehrhart")
    rhs = _require(params, "b", list, "ehrhart") if key == "A" else []
    if (not rows or not all(isinstance(v, list) and v and len(v) == len(rows[0]) for v in rows)
            or (key == "A" and len(rhs) != len(rows))):
        raise SchemaViolation(f"{key!r} must be a nonempty list of nonempty rows of one length"
                              " ('A' with one entry of 'b' per row)")
    try:
        rows = [[Fraction(str(c)) for c in v] for v in rows]
        rhs = [Fraction(str(c)) for c in rhs]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaViolation(f"malformed rational in {key!r} or 'b': {exc}") from exc
    poly = (eh.RationalPolytope.from_vertices(rows) if key == "vertices"
            else eh.RationalPolytope(rows, rhs))
    delta = poly.vertex_denominator_lcm() if not poly.is_empty else 1
    big_d = poly.dim + 1
    order = _int(params, "truncation", delta * big_d + delta + 2)
    _ehrhart_preflight(poly, order)
    series = eh.ehrhart_series(poly, order)
    report = {
        "polytope": poly.to_json(),
        "empty": poly.is_empty,
        "counts": [int(c.as_rational()) for c in series.coeffs],
    }
    if poly.is_empty:
        report["limit"] = _scalar_report(ExactScalar.zero())
        return report
    fit = rf.fit_rational(series, delta, big_d)
    report["fit"] = fit.to_json()
    report["limit"] = _scalar_report(fit.limit_at_infinity())
    return report


def _ehrhart_preflight(poly, order):
    """Refuse, before counting, a count that int64 cannot hold or that sweeps
    more prefix-grid points than _PREFIX_BUDGET."""
    if poly.dim >= 2 and not poly.is_empty and eh.dilation_bound(poly, order) >= eh.INT64_LIMIT:
        raise SchemaViolation(
            f"counting dilation {order} needs integers beyond the int64 limit 2^63;"
            " use smaller coordinates, denominators or 'truncation'")
    work = order * _DILATION_MIN
    for r in range(1, order + 1):
        if work > _PREFIX_BUDGET:
            break
        work += max(eh.prefix_points(poly, r) - _DILATION_MIN, 0)
    if work > _PREFIX_BUDGET:
        raise SchemaViolation(
            f"counting dilations 1..{order} sweeps more than the prefix-grid budget"
            f" of {_PREFIX_BUDGET:,} points; use a smaller polytope or 'truncation'")


def _cmd_volume(params):
    for key in ("n", "torusRank", "q"):
        _require(params, key, None, "volume")
    n = _int(params, "n", None, 0)
    k = _int(params, "torusRank", None, 0)
    finite = params.get("finiteOrders", [])
    weights = _require(params, "weights", list, "volume")
    q = _prime_power(params)
    if not isinstance(finite, list) or not all(type(d) is int and d >= 1 for d in finite):
        raise SchemaViolation("field 'finiteOrders' must be a list of integers >= 1")
    if not all(isinstance(row, list) and all(type(c) is int for c in row)
               for row in weights):
        raise SchemaViolation("weights must be a matrix of integers")
    if len(weights) != k + len(finite) or any(len(row) != n for row in weights):
        raise SchemaViolation(
            "weights must have torusRank + #finiteOrders rows and n columns"
        )
    fbar = params.get("fbar", "one")
    if fbar not in ("one", "gerbe"):
        raise SchemaViolation("fbar must be 'one' or 'gerbe'")
    if params.get("fiber", "origin") != "origin":
        raise SchemaViolation("field 'fiber' must be 'origin', the only supported fibre")
    datum = st.ToricStackDatum(n, k, finite, weights, q)
    order = _int(params, ("R", "truncation"), 12)
    # "gerbe" is an alias of "one": plain toric data carry no gerbe
    series = st.volume_series(datum, order)
    fit = st.volume_fit(datum)
    return {
        "coefficients": [_scalar_report(c, q) for c in series.coeffs],
        "fit": fit.to_json(),
        "volume": _scalar_report(-fit.limit_at_infinity(), q),
    }


def _cmd_bps(params):
    for key in ("vertices", "q"):
        _require(params, key, None, "bps")
    vertices = _int(params, "vertices", None)
    arrows = params.get("arrows", [])
    if not isinstance(arrows, list) or not all(
            isinstance(a, list) and len(a) == 3 and all(type(c) is int for c in a)
            and 0 <= a[0] < vertices and 0 <= a[1] < vertices and a[2] >= 0
            for a in arrows):
        raise SchemaViolation(
            f"each arrow must be three integers [source, target, count] with "
            f"source and target in 0..{vertices - 1} and count >= 0")
    quiver = mo.Quiver.from_json({"vertices": vertices, "arrows": arrows})
    q = _prime_power(params)
    gamma_bound = _int(params, ("gammaBound", "grade"), 4)
    levels = _int(params, "levels", 1)
    conv = _parse_convention(params)
    result = st.quiver_bps(quiver, q, gamma_bound, levels, conv)
    table = []
    for gamma, ve in sorted(result.per_gamma.items()):
        table.append(
            {"gamma": list(gamma),
             "omega": [_scalar_report(v, q) for v in ve.levels]}
        )
    return {"gamma_bound": gamma_bound, "levels": levels, "invariants": table}


def _cmd_delta(params):
    if "m" in params or "s" in params:
        for key in ("m", "s"):
            _require(params, key, None, "delta")
        m, s = _int(params, "m", None), _int(params, "s", None)
        region = eh.DeltaRegion(m, s)
        r_max = _int(params, ("r", "truncation"), 24)
        modes = ("differences", "orbits")
        mode = params.get("delta_mode") or params.get("mode")
        if mode:
            if mode not in modes:
                raise SchemaViolation("mode must be differences|orbits")
            modes = (mode,)
        out = {"m": m, "s": s, "r_max": r_max}
        for md in modes:
            out[md] = {
                "counts": [eh.delta_count(region, r, md) for r in range(1, r_max + 1)],
                "limit": str(eh.delta_limit(region, md)),
            }
        return out
    return st.delta_report(
        _int(params, "max_m", 3), _int(params, "max_s", 3), _int(params, "max_r", 24)
    )


def _cmd_plid_check(params):
    grade = _int(params, ("gradeBound", "grade"), 2)
    levels = _int(params, ("levelBound", "levels"), 2)
    q = _prime_power(params)
    mode = params.get("delta_mode") or params.get("mode") or "differences"
    if mode not in ("differences", "orbits"):
        raise SchemaViolation("mode must be differences|orbits")
    conv = _parse_convention(params)
    monoid = mo.LinearObjectsMonoid.vect(q, conv)
    report = st.plethystic_identity_residual(monoid, grade, levels, mode)
    return report.to_json()


def _cmd_plethystic(params):
    rank = _int(params, "rank", 1)
    op = _require(params, "op", str, "plethystic")
    if op not in ("sym", "log", "log_direct"):
        raise SchemaViolation("op must be sym|log|log_direct")
    grade = _int(params, "grade", 4)
    levels = _int(params, "levels", 1)
    lattice = mo.DiscreteLattice(rank)
    budget = grade * levels
    f = lr.CountingFunction(lattice, grade, budget)
    for entry in _require(params, "values", list, "plethystic"):
        if not isinstance(entry, dict) or not {"element", "level", "value"} <= entry.keys():
            raise SchemaViolation("each entry of 'values' needs element, level and value")
        el = entry["element"]
        if (not isinstance(el, list) or len(el) != rank
                or not all(type(c) is int and c >= 0 for c in el)):
            raise SchemaViolation(f"element {el!r} is not {rank} nonnegative integers")
        lev = _int(entry, "level", None)
        try:
            value = ExactScalar.from_json(entry["value"])
        except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"malformed value {entry['value']!r}: {exc}") from exc
        if lev <= budget:
            f.set(tuple(el), lev, value)
    if op == "sym":
        result = lr.pleth_sym(f)
    else:
        unit = lr.CountingFunction.unit(lattice, grade, budget)
        big = unit + f
        result = lr.pleth_log(big) if op == "log" else lr.log_direct(big)
    entries = [
        {"element": list(x), "level": n, "value": v.to_json(), "display": str(v)}
        for x, n, v in sorted(result.support(), key=lambda t: (t[1], t[0]))
    ]
    return {"op": op, "grade": result.grade_bound, "levels": result.level_bound,
            "values": entries}


_HANDLERS = {
    "ehrhart": _cmd_ehrhart,
    "volume": _cmd_volume,
    "bps": _cmd_bps,
    "delta": _cmd_delta,
    "plid-check": _cmd_plid_check,
    "plethystic": _cmd_plethystic,
}

_MODULE_ERRORS = (
    (rf.RatfunError, "ratfun"),
    (lr.LambdaRingError, "lambdaring"),
    (mo.MonoidError, "monoids"),
    (eh.EhrhartError, "ehrhart"),
    (st.StackyError, "stacky"),
)
_MODULE_ERROR_CLASSES = tuple(cls for cls, _ in _MODULE_ERRORS)


def _tsv(report) -> str:
    """Lossy flat view: one key<TAB>value line per scalar leaf."""
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix}\t{obj}")

    walk("", report)
    return "\n".join(lines) + "\n"


def run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="stacky-volumes",
        description="exact orbifold volumes, plethystic operations, BPS invariants",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="JSON parameter file")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--levels", type=int)
    parser.add_argument("--grade", type=int)
    parser.add_argument("--truncation", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--half-l", dest="half_l")
    parser.add_argument("--delta-mode", dest="delta_mode", choices=("differences", "orbits"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    threads = os.environ.get("STACKY_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        _emit({"error": {"kind": "SchemaViolation",
                         "message": "STACKY_THREADS must be a positive integer"}},
              args, force_json=True)
        return 2

    params = {}
    if args.input:
        try:
            with open(args.input) as handle:
                params = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            _emit({"error": {"kind": "SchemaViolation", "message": str(exc)}}, args,
                  force_json=True)
            return 2
        if not isinstance(params, dict):
            _emit({"error": {"kind": "SchemaViolation",
                             "message": "parameter file must hold a JSON object"}},
                  args, force_json=True)
            return 2
    for key in ("levels", "grade", "truncation", "q", "half_l", "delta_mode"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val

    try:
        report = _HANDLERS[args.command](params)
    except SchemaViolation as exc:
        _emit({"error": {"kind": "SchemaViolation", "message": str(exc)}}, args,
              force_json=True)
        return 2
    except _MODULE_ERROR_CLASSES as exc:
        origin = next(name for cls, name in _MODULE_ERRORS if isinstance(exc, cls))
        _emit({"error": {"kind": type(exc).__name__, "module": origin,
                         "message": str(exc)}}, args, force_json=True)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, args,
              force_json=True)
        return 1
    _emit(report, args)
    return 0


def _emit(report, args, force_json=False):
    if args.format == "tsv" and not force_json:
        text = _tsv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
