"""Library-level jobs: the parts of the lambda-ring layer that no CLI command
reaches (free orbit monoids, where Frobenius acts non-trivially).

Each job is a pair of functions: ``<name>(params)`` makes the calls into the
program and is the timed region; ``<name>_report(result)`` serializes the
result for the golden comparison and ``<name>_check(result)`` returns the
names of failed invariants.  Both run after the timing stops.  The program is
reached through module attributes, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stacky_volumes import lambdaring as lr
from stacky_volumes import monoids as mo
from stacky_volumes import scalar as sc


def _random_value(rng, i):
    """c q^(e/2) zeta_b^k with random c, e, k; the order b cycles with the
    index i, so that every seed mixes the same cyclotomic fields."""
    b = (2, 3, 4, 6)[i % 4]
    return (sc.q_power(Fraction(rng.randint(-2, 2), 2)) * rng.randint(1, 3)
            * sc.root_of_unity(Fraction(rng.randint(1, b - 1), b)))


def galois_lambda(params):
    """Dense counting function on FreeOrbitMonoid(affine_line_census(q, G)) at
    every level up to G*N, pushed through Log, the direct Moebius formula,
    Sym, Adams operations and the grading pushforward; plus a function on
    three elements per level with level budget G*G*N, for the Sym-Log round
    trip at N levels."""
    q, g, n_levels = params["q"], params["grade"], params["levels"]
    rng = random.Random(params["seed"])
    mon = mo.FreeOrbitMonoid(mo.affine_line_census(q, g))
    budget = g * n_levels
    f = lr.CountingFunction(mon, g, budget)
    for n in range(1, budget + 1):
        for i, x in enumerate(mon.fixed_elements(n, g)):
            if mon.grade(x):
                f.set(x, n, _random_value(rng, i))
    big = lr.CountingFunction.unit(mon, g, budget) + f
    log = lr.pleth_log(big)
    direct = lr.log_direct(big)
    phi = mo.GradingMorphism(mon)
    push_log = lr.pushforward(phi, log)
    log_push = lr.pleth_log(lr.pushforward(phi, big))
    adams2 = lr.adams(f, 2)
    adams3 = lr.adams(f, 3)
    sym_log = lr.pleth_sym(log)

    wide = g * g * n_levels
    h = lr.CountingFunction(mon, g, wide)
    for n in range(1, wide + 1):
        elems = [x for x in mon.fixed_elements(n, g) if mon.grade(x)]
        for i, x in enumerate(elems[:3]):
            h.set(x, n, _random_value(rng, i))
    big_h = lr.CountingFunction.unit(mon, g, wide) + h
    round_trip = lr.pleth_sym(lr.pleth_log(big_h))
    return {"grade": g, "levels": n_levels, "big": big, "log": log, "direct": direct,
            "push_log": push_log, "log_push": log_push, "adams2": adams2,
            "adams3": adams3, "sym_log": sym_log, "big_h": big_h,
            "round_trip": round_trip}


def galois_lambda_report(result):
    # log_direct is left out: the check requires it to equal the logarithm.
    keys = ("log", "push_log", "adams2", "adams3", "sym_log", "round_trip")
    return {k: result[k].to_json() for k in keys}


def galois_lambda_check(result):
    g, n = result["grade"], result["levels"]
    failed = []
    if not result["direct"].agrees_with(result["log"], g, n):
        failed.append("log_direct_equals_pleth_log")
    if not result["push_log"].agrees_with(result["log_push"], g, n):
        failed.append("pushforward_commutes_with_log")
    big = result["big"]
    if not result["sym_log"].agrees_with(big.restricted(level_bound=1), g, 1):
        failed.append("sym_log_round_trip")
    big_h = result["big_h"]
    if not result["round_trip"].agrees_with(big_h.restricted(level_bound=n), g, n):
        failed.append("sym_log_round_trip_sparse")
    return failed
