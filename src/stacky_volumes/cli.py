"""Command-line front end.

One job per invocation: a command plus a JSON parameter object (from --input
or inline defaults), producing a deterministic JSON (or TSV) report.  Exact
scalars are printed symbolically and, when the job carries a q, numerically.

Exit codes: 0 success, 2 validation failure (unknown command, schema
violation), 1 computation failure (a module error, wrapped with its origin, or
a float overflow).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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
# ehrhart: prefix-grid points of the dilated bounding boxes over r = 1..order,
# an upper bound of the points count_dilation sweeps (only those of the
# projection), each dilation charged at least _DILATION_MIN for its fixed
# cost.  The budget charges the box; 10^8 is a few seconds of numpy.
_PREFIX_BUDGET = 10**8
_DILATION_MIN = 2**10
# bps: work of the plethystic logarithm on the slots it reads, charged per
# level N with grade cap c (lambdaring.log_demand) as c * P(c)^2 pairs,
# P(c) = C(c + vertices, vertices), times the exponent span
# N * c^2 * (arrow count + 2) of a level-N value of grade c; coherent bits
# read level 1 only (_bps_preflight).  Without the span, 10,000 loops at
# gammaBound 6 (2 levels) were admitted and still running at 60 s.  Measured
# in process on one core, the slowest jobs at the edge take 3.9 s (no arrows,
# gammaBound 19, 1 level) and 3.0 s (mixed bits, no arrows, gammaBound 1,
# 1,224 levels); coherent bits admit 29,412 levels at gammaBound 1 (1.0 s)
# and 5,555 for 3 arrowless vertices at gammaBound 2 (1.0 s).  The 2-loop
# quiver is admitted up to gammaBound 16 at 1 level (1.7 s) and 13 at 2 (0.4 s).
_BPS_BUDGET = 6 * 10**6
# plethystic: three guards checked before any value becomes a scalar.  With
# no values the operations cost about 35 us per slot of grade * levels
# (10^4: 0.45 s; 10^6: 40 s).  Coefficient products over Z[zeta_M] cost up
# to phi(M)^2 basis products, M the lcm of the roots' orders: the benchmark
# has M = 12, and values zeta_113^112 at every point of grade <= 6 of N^2,
# 2 levels, take 17 s.  A cyclotomic denominator is cleared by its norm, of
# phi(M) times its degree: with the bound lifted, 1/(q + zeta_113^112) at
# grade 2 takes 20 s (0.2 s by Euclid over Q(zeta)[t]) and, at grade 4,
# 1/(q^1250 - zeta_12) 1.2 s (0.01 s).  A rational den's gcd costs about
# (grade * span)^2, span the exponent range in steps of q^(1/N): den q^S - 1
# at grade 4 takes 0.3 s at S = 10^3, 1.9 s at 10^4 and 142 s at 10^5.
_LEVEL_BUDGET = 10**4
_CONDUCTOR_MAX = 120
_CONDUCTOR_DEN_MAX = 2
_SPAN_BUDGET = 2 * 10**4
# delta, plid-check and volume: estimated microseconds on one core, checked
# before any counting; each estimate is within about 3x of measured times.
# delta: a count term costs about 2, a fitted term 4 per factor of
# (1 - T^delta)^D, and in orbits mode each multiple r of m adds a Burnside
# loop of r/m steps at about 1/6 each.  Each region is charged r counts per
# mode plus the three rungs of delta_limit's ladder, the last of which always
# fits.  At m = 1 and r = 24, s = 7 is charged 2.65 million (1.1 s) and
# s = 8 11.9 million (refused; 6 s).  The largest admitted jobs measured:
# s = 3 with r = 1,490,000 in differences mode 3.6 s, r = 5,900 in both 3.6 s.
_DELTA_BUDGET = 3 * 10**6
# plid-check: per grade a and level n, 0.7 (4 + n) (a + 2)^2 per composition
# of a class mass; in orbits mode, per a, the Burnside loops of delta_limit
# for the region (1, a), as in delta; per level N the logarithms read with
# grade cap c, c^3 (c + 1)^2 N.  Admitted at the edge (q = 3): gradeBound 12
# at 1 level (2.8 million, 3.0 s), 11 at 2 (3.0 s), 3 at 100 (1.1 s); in
# orbits mode 7 at 10 (2.1 s).  Refused: 13 at 1 level (7.0 s), 8 in orbits
# mode (6.8 s).
_PLID_BUDGET = 3 * 10**6
# volume, in measured us: 2 per fibre point, coordinate and group factor;
# then, up to the larger of R and volume_fit's first order, 150 per
# coefficient, 15 per twisted point and 7 per term a point puts into that
# fit's printed numerator.  Admitted at the edge (q = 3): the (1, -1)
# quotient at R = 620 (1.7 s), torus rank 2 at R = 82 (2.4 s), torus and
# mu_2 at R = 507 (1.9 s), mu_2 alone at R = 17,390 (1.6 s).  Refused: mu_4095
# at q = 4096, R = 2 (4.8 s, a fit of order 12,289).  Only the first rung of
# volume_fit's ladder is charged; a torus row with a nonzero sum (weights
# (1, -2), or all 1), whose series has no rational fit and would climb the
# whole ladder, is refused before any fibre is enumerated.
_VOLUME_BUDGET = 3 * 10**6
# a decimal exponent past Python's int-string digit limit (4300) would make
# Fraction build a number of that many digits
_EXPONENT = re.compile(r"[eE]([+-]?\d+)")


class SchemaViolation(Exception):
    pass


def _scalar_report(s: ExactScalar, q0=None):
    out = {"exact": s.to_json(), "display": str(s)}
    if q0 is not None:
        z = s.eval_numeric(q0)
        out["value_at_q"] = z.real if s.is_real() else [z.real, z.imag]
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


def _mode(params, default):
    """The first of the fields 'delta_mode' and 'mode' present in params,
    which must be 'differences' or 'orbits'; `default` when neither is."""
    key = next((k for k in ("delta_mode", "mode") if k in params), None)
    if key is None:
        return default
    if params[key] not in ("differences", "orbits"):
        raise SchemaViolation(f"field {key!r} must be 'differences' or 'orbits'")
    return params[key]


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
        rows = [[_fraction(str(c)) for c in v] for v in rows]
        rhs = [_fraction(str(c)) for c in rhs]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaViolation(f"malformed rational in {key!r} or 'b': {exc}") from exc
    try:
        poly = (eh.RationalPolytope.from_vertices(rows) if key == "vertices"
                else eh.RationalPolytope(rows, rhs))
    except eh.EhrhartError as exc:  # an unbounded body, or a hull of the wrong dimension
        raise SchemaViolation(f"{key!r}: {exc}") from exc
    delta = poly.vertex_denominator_lcm() if not poly.is_empty else 1
    big_d = poly.dim + 1
    need = rf.min_order(delta, big_d)
    order = _int(params, "truncation", need)
    _ehrhart_preflight(poly, order)
    if order < need and not poly.is_empty:
        raise SchemaViolation(f"'truncation' {order} is below the {need} counts its fit needs")
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
    """Refuse, before counting, a count that int64 cannot hold or whose
    bounding boxes hold more prefix-grid points than _PREFIX_BUDGET."""
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
            f"the bounding boxes of dilations 1..{order} hold more than the prefix-grid budget"
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
    # q^64 >= 2^64 points are over the budget already
    fibre = 2 * q ** min(n, 64) * n * (k + len(finite) + 1)
    if fibre > _VOLUME_BUDGET:
        raise SchemaViolation(
            f"enumerating the {q}^{n} fibre points is over the volume budget of"
            f" {_VOLUME_BUDGET:,}; use a smaller 'n' or 'q'")
    # the origin is fixed by the whole torus, so a torus row summing to s != 0
    # gives the coefficient of T^r, at each prime r > |s|, a q-exponent of
    # denominator r, which no rational function over Q(q^(1/delta)) has
    for i, row in enumerate(weights[:k]):
        if sum(row):
            raise SchemaViolation(
                f"torus row {i} of 'weights' sums to {sum(row)}, not 0, so its volume series"
                " has no rational fit; use torus weights that sum to 0")
    datum = st.ToricStackDatum(n, k, finite, weights, q)
    order = _int(params, ("R", "truncation"), 12)
    _volume_preflight(datum, order, fibre)
    # "gerbe" is an alias of "one": plain toric data carry no gerbe
    series = st.volume_series(datum, order)
    fit = st.volume_fit(datum)
    return {
        "coefficients": [_scalar_report(c, q) for c in series.coeffs],
        "fit": fit.to_json(),
        "volume": _scalar_report(-fit.limit_at_infinity(), q),
    }


def _volume_preflight(datum, order, steps):
    """Refuse, before the series, a job whose fibre (charged `steps`) and
    series cost more than _VOLUME_BUDGET.  A twisted point is a character of
    a fibre orbit's stabilizer; at order r it enters the coefficients of
    T^(r + j delta) of the first fit's numerator, up to T^(delta D)."""
    delta, big_d, first = st.volume_ladder(datum)[0]
    supports = [supp for _, _, supp in datum.fiber_orbits()]
    for r in range(1, max(order, first) + 1):
        points = sum(st.character_count(datum, supp, r) for supp in supports)
        steps += 150 + points * (15 + 7 * max(0, (delta * big_d - r) // delta + 1))
        if steps > _VOLUME_BUDGET:
            raise SchemaViolation(
                f"the twisted-point series up to r = {r} is over the volume budget of"
                f" {_VOLUME_BUDGET:,}; use a smaller 'R', 'n' or 'finiteOrders'")


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
    q = _prime_power(params)
    gamma_bound = _int(params, ("gammaBound", "grade"), 4)
    levels = _int(params, "levels", 1)
    conv = _parse_convention(params)
    _bps_preflight(vertices, sum(a[2] for a in arrows), gamma_bound, levels, conv)
    quiver = mo.Quiver.from_json({"vertices": vertices, "arrows": arrows})
    if not quiver.is_symmetric():
        raise SchemaViolation("'arrows' must give a symmetric quiver, with as many arrows i -> j"
                              " as j -> i")
    invariants = st.quiver_bps(quiver, q, gamma_bound, levels, conv)
    table = [{"gamma": list(gamma), "omega": [_scalar_report(v, q) for v in ve.levels]}
             for gamma, ve in sorted(invariants.items())]
    return {"gamma_bound": gamma_bound, "levels": levels, "invariants": table}


def _bps_preflight(vertices, arrow_count, gamma_bound, levels, conv):
    """Refuse, before any value, a job whose plethystic logarithm costs more
    than _BPS_BUDGET: each level N it reads, with grade cap c, is charged
    c * P(c)^2 pairs times the span N * c^2 * (arrow_count + 2).  Coherent
    bits read level 1 only; each value of a further level is charged its
    span plus 100, for its substitution and report."""
    def charge(n, c):
        return c * math.comb(c + vertices, vertices) ** 2 * n * c * c * (arrow_count + 2)

    log_levels, span = 1 if conv.b1 == conv.b2 else levels, gamma_bound**2 * (arrow_count + 2)
    # levels 1..log_levels alone have cap gammaBound, and P(gammaBound) exceeds
    # both gammaBound and vertices
    p = max(gamma_bound, vertices) + 1
    work = gamma_bound * p**2 * span * log_levels * (log_levels + 1) // 2
    if work <= _BPS_BUDGET:
        caps = lr.log_demand(gamma_bound, gamma_bound * log_levels)
        work = sum(charge(n, c) for n, c in caps.items())
        p = math.comb(gamma_bound + vertices, vertices)
    if work + p * (levels - log_levels) * (span + 100) > _BPS_BUDGET:
        raise SchemaViolation(
            f"the plethystic logarithm is over the bps budget of {_BPS_BUDGET:,};"
            f" use a smaller 'gammaBound', 'levels', 'vertices' or arrow count")


def _cmd_delta(params):
    if "m" in params or "s" in params:
        for key in ("m", "s"):
            _require(params, key, None, "delta")
        m, s = _int(params, "m", None), _int(params, "s", None)
        r_max = _int(params, ("r", "truncation"), 24)
        mode = _mode(params, None)
        modes = (mode,) if mode else ("differences", "orbits")
        _delta_preflight([(m, s)], r_max, modes)
        region = eh.DeltaRegion(m, s)
        out = {"m": m, "s": s, "r_max": r_max}
        for md in modes:
            out[md] = {
                "counts": [eh.delta_count(region, r, md) for r in range(1, r_max + 1)],
                "limit": str(eh.delta_limit(region, md)),
            }
        return out
    max_m, max_s = _int(params, "max_m", 3), _int(params, "max_s", 3)
    max_r = _int(params, "max_r", 24)
    regions = ((m, s) for m in range(1, max_m + 1) for s in range(1, max_s + 1))
    _delta_preflight(regions, max_r, ("differences", "orbits"))
    return st.delta_report(max_m, max_s, max_r)


def _delta_preflight(regions, r_max, modes):
    """Refuse, before any count, regions whose r_max counts and fitted ladder
    rungs cost more than _DELTA_BUDGET in all."""
    steps = 0
    for m, s in regions:
        # lcm(1..64) is past 10^26, so a larger s is over the budget already
        ladder = eh.delta_ladder(eh.DeltaRegion(m, min(s, 64)))
        for order, factors in [(r_max, 0)] + [(o, big_d + 1) for _, big_d, o in ladder]:
            steps += len(modes) * order * (2 + 4 * factors)
            if "orbits" in modes:
                steps += (order // m) ** 2 // 12
        if steps > _DELTA_BUDGET:
            raise SchemaViolation(
                f"counting and fitting region (m, s) = ({m}, {s}) brings the estimate over"
                f" the delta budget of {_DELTA_BUDGET:,}; use a smaller 's', 'm' or 'r'")


def _cmd_plid_check(params):
    grade = _int(params, ("gradeBound", "grade"), 2)
    levels = _int(params, ("levelBound", "levels"), 2)
    q = _prime_power(params)
    mode = _mode(params, "differences")
    conv = _parse_convention(params)
    _plid_preflight(grade, levels, mode)
    monoid = mo.LinearObjectsMonoid.vect(q, conv)
    report = st.plethystic_identity_residual(monoid, grade, levels, mode)
    return report.to_json()


def _plid_preflight(grade, levels, mode):
    """Refuse, before any count, a job whose class masses, region limits and
    plethystic logarithms cost more than _PLID_BUDGET."""
    steps = 0
    for a in range(1, grade + 1):
        compositions = sum(2 ** (a // m - 1) for m in range(1, a + 1)
                           if a % m == 0 and lr.mobius(m))
        steps += compositions * (a + 2) ** 2 * (4 * levels + levels * (levels + 1) // 2) * 7 // 10
        if mode == "orbits":  # the necklace count of (1, a) fits on the second rung
            steps += eh.delta_ladder(eh.DeltaRegion(1, a))[1][2] ** 2 // 12
        if steps > _PLID_BUDGET:
            break
    else:
        caps = lr.log_demand(grade, grade * levels)
        steps += sum(c**3 * (c + 1) ** 2 * n for n, c in caps.items())
    if steps > _PLID_BUDGET:
        raise SchemaViolation(
            f"gradeBound {grade} and levelBound {levels} are over the plid-check budget of"
            f" {_PLID_BUDGET:,}; use a smaller 'gradeBound' or 'levelBound'")


def _cmd_plethystic(params):
    rank = _int(params, "rank", 1)
    op = _require(params, "op", str, "plethystic")
    if op not in ("sym", "log", "log_direct"):
        raise SchemaViolation("op must be sym|log|log_direct")
    grade = _int(params, "grade", 4)
    levels = _int(params, "levels", 1)
    values = _require(params, "values", list, "plethystic")
    _plethystic_preflight(grade, levels, values)
    lattice = mo.DiscreteLattice(rank)
    budget = grade * levels
    f = lr.CountingFunction(lattice, grade, budget)
    for entry in values:
        if not isinstance(entry, dict) or not {"element", "level", "value"} <= entry.keys():
            raise SchemaViolation("each entry of 'values' needs element, level and value")
        el = entry["element"]
        if (not isinstance(el, list) or len(el) != rank
                or not all(type(c) is int and c >= 0 for c in el)):
            raise SchemaViolation(f"element {el!r} is not {rank} nonnegative integers")
        if sum(el) > grade:
            raise SchemaViolation(f"element {el!r} has grade {sum(el)}, over 'grade' = {grade}")
        lev = _int(entry, "level", None)
        try:
            value = ExactScalar.from_json(entry["value"])
        except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"malformed value {entry['value']!r}: {exc}") from exc
        if lev <= budget:
            f.set(tuple(el), lev, value)
    if any(not any(x) for x, _, _ in f.support()):
        raise SchemaViolation("'values' must vanish at the zero element, as sym and log need")
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


def _fraction(x) -> Fraction:
    if isinstance(x, str) and (m := _EXPONENT.search(x)) and abs(int(m.group(1))) > 4300:
        raise ValueError(f"decimal exponent of {x!r} is past 4300")
    return Fraction(x)


def _plethystic_preflight(grade, levels, values):
    """Refuse, before any value becomes a scalar, a job past the level
    budget, a root-of-unity conductor past its bound, or, when some value has
    a denominator of more than one term, grade times the exponent span past
    the span budget."""
    if grade * levels > _LEVEL_BUDGET:
        raise SchemaViolation(
            f"grade * levels = {grade * levels:,} is over the plethystic level budget of"
            f" {_LEVEL_BUDGET:,}; use a smaller 'grade' or 'levels'")
    values = [e["value"] for e in values if isinstance(e, dict) and "value" in e]
    polys = [(p, i == 1) for v in values
             for i, p in enumerate([v.get("num"), v.get("den")] if isinstance(v, dict) else [v])]
    try:
        terms = [(_fraction(t["zeta"]), _fraction(t["qexp"]),
                  [_fraction(c) for c in t["coeff"]], den)
                 for p, den in polys if isinstance(p, list) for t in p]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaViolation(f"malformed value term: {exc}") from exc
    # a denominator of one term divides out; of more, it needs a gcd
    has_den = sum(len(cs) for _, _, cs, den in terms if den) > 1
    conductor = math.lcm(*(z.denominator for z, _, _, _ in terms))
    bound = _CONDUCTOR_DEN_MAX if has_den else _CONDUCTOR_MAX
    if conductor > bound:
        raise SchemaViolation(
            f"the roots of unity have orders of lcm {conductor}, over the conductor bound of"
            f" {bound}" + (" for values with denominators" if has_den else ""))
    if has_den:
        n = math.lcm(*(e.denominator for _, e, _, _ in terms))
        span = n * (max(e for _, e, _, _ in terms) - min(e for _, e, _, _ in terms))
        if grade * span > _SPAN_BUDGET:
            raise SchemaViolation(
                f"grade * exponent span = {grade} * {span} is over the span budget of"
                f" {_SPAN_BUDGET:,} (span in steps of q^(1/{n})); use fewer or closer exponents")


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
# with the module errors that the volume input alone decides
_REFUSALS = (SchemaViolation, st.NonSplitFiniteGroup, st.NotGenericallyRepresentable)


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


class _Parser(argparse.ArgumentParser):
    """Argument errors are refusals like any other, not argparse's usage exit."""

    def error(self, message):
        raise SchemaViolation(message)


def run(argv) -> int:
    parser = _Parser(
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
    args = None  # refusals go to stdout until --output is known to be writable
    try:
        parsed = parser.parse_args(argv)
        if parsed.output:
            try:
                open(parsed.output, "a").close()
            except OSError as exc:
                raise SchemaViolation(f"cannot write --output: {exc}") from exc
        args = parsed
        report = _HANDLERS[args.command](_params(args))
    except SystemExit:  # --help, printed by argparse
        return 0
    except _REFUSALS as exc:
        code, error = 2, {"kind": "SchemaViolation", "message": str(exc)}
    except _MODULE_ERROR_CLASSES as exc:
        origin = next(name for cls, name in _MODULE_ERRORS if isinstance(exc, cls))
        code, error = 1, {"kind": type(exc).__name__, "module": origin, "message": str(exc)}
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        code, error = 1, {"kind": type(exc).__name__, "message": str(exc)}
    else:
        _emit(report, args)
        return 0
    _emit({"error": error}, args, force_json=True)
    return code


def _params(args) -> dict:
    """The job's parameters: the --input object, overridden by the flags."""
    threads = os.environ.get("STACKY_THREADS")
    if threads is not None and (not threads.isdecimal() or int(threads) < 1):
        raise SchemaViolation("STACKY_THREADS must be a positive integer")
    params = {}
    if args.input:
        try:
            with open(args.input) as handle:
                params = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or past the int digit limit
            raise SchemaViolation(str(exc)) from exc
        if not isinstance(params, dict):
            raise SchemaViolation("parameter file must hold a JSON object")
    for key in ("levels", "grade", "truncation", "q", "half_l", "delta_mode"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    return params


def _emit(report, args, force_json=False):
    if args and args.format == "tsv" and not force_json:
        text = _tsv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args and args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
