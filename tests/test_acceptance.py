"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time
from fractions import Fraction as F

from helpers import (
    oracle_one_loop_omega,
    oracle_zero_arrow_omega,
    random_counting_function,
)

from stacky_volumes.ehrhart import (
    RationalPolytope,
    Unbounded,
    ehrhart_limit,
    fiber_polytope,
    solve_square,
)
from stacky_volumes.lambdaring import (
    CountingFunction,
    adams,
    convolve,
    log_direct,
    pleth_log,
    pleth_sym,
    pushforward,
)
from stacky_volumes.monoids import (
    DiscreteLattice,
    FreeOrbitMonoid,
    GradingMorphism,
    LinearObjectsMonoid,
    Quiver,
    affine_line_census,
)
from stacky_volumes.scalar import ExactScalar, half_l_power, q_power
from stacky_volumes.stacky import (
    ToricStackDatum,
    delta_report,
    dm_orbifold_sum,
    orbifold_volume,
    plethystic_identity_residual,
    quiver_bps,
    volume_series,
    weighted_inertia_coefficient,
    weighted_inertia_coefficient_bruteforce,
)


class Criterion:
    def __init__(self, number, summary, budget_seconds):
        self.number = number
        self.summary = summary
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number}: {status} [{elapsed:.1f}s] {self.summary}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_worked_volume_example():
    with Criterion(1, "volume of the weight-(1,-1) torus quotient is q^-1 "
                      "with the documented series coefficients", 5):
        q = q_power(1)
        for qv in (3, 5, 7):
            datum = ToricStackDatum(2, 1, [], [[1, -1]], qv)
            series = volume_series(datum, 10)
            for r in range(1, 11):
                expected = (2 * q_power(-1) + q_power(-1) / (q - 1)
                            + (r - 1) / (q - 1))
                assert series.coeff(r) == expected, (qv, r)
            assert orbifold_volume(datum) == q_power(-1), qv


def test_criterion_2_dm_orbifold_formula():
    with Criterion(2, "finite quotients reproduce the orbifold sum and the "
                      "geometric-series oracle", 5):
        for qv in (3, 5, 7):
            datum = ToricStackDatum(1, 0, [2], [[1]], qv)
            vol = orbifold_volume(datum)
            assert vol == dm_orbifold_sum(datum)
            assert vol == q_power(-1) / 2 + q_power(F(-1, 2)) / 2
            oracle = (q_power(F(-1, 2)) / 2) * (1 - q_power(-1)) / (1 - q_power(F(-1, 2)))
            assert vol == oracle
        datum3 = ToricStackDatum(2, 0, [3], [[1, 1]], 7)
        assert orbifold_volume(datum3) == dm_orbifold_sum(datum3)


def _random_full_dim_points(rng, d):
    while True:
        pts = [tuple(F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(d))
               for _ in range(d + 2)]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        if any(solve_square(sub, [F(0)] * d) is not None
               for sub in itertools.combinations(diffs, d)):
            return pts


def test_criterion_3_ehrhart_limit_law():
    with Criterion(3, "Ehrhart limit is exactly -1 on random bounded rational "
                      "polytopes and fiber polytopes", 60):
        rng = random.Random(2024)
        for d in (1, 2, 3):
            for _ in range(25):
                poly = RationalPolytope.from_vertices(_random_full_dim_points(rng, d))
                assert ehrhart_limit(poly) == -1
        bounded = 0
        while bounded < 20:
            k = rng.choice([1, 2])
            n = rng.randint(k + 1, 4)
            weights = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            vals = [F(rng.randint(-2, 4), rng.randint(1, 2)) for _ in range(n)]
            try:
                poly = fiber_polytope(weights, vals)
            except Unbounded:
                continue
            if poly.is_empty:
                continue
            assert ehrhart_limit(poly) == -1
            bounded += 1


def test_criterion_4_lambda_ring_suite():
    with Criterion(4, "Adams homomorphism/composition, Sym/Log inversion, and "
                      "the direct Moebius formula, grade 4 levels 4, 10 random "
                      "functions per monoid", 120):
        rng = random.Random(777)
        G, N = 4, 4
        monoids = [
            DiscreteLattice(2),
            FreeOrbitMonoid(affine_line_census(2, G)),
            LinearObjectsMonoid.vect(2),
        ]
        for mon in monoids:
            for _ in range(10):
                # Adams: ring homomorphism and composition, exact at levels <= N
                f = random_counting_function(mon, rng, G, 4 * N, per_level=2)
                g = random_counting_function(mon, rng, G, 4 * N, per_level=2)
                for m in (2, 3):
                    lhs = adams(convolve(f, g), m)
                    rhs = convolve(adams(f, m), adams(g, m))
                    assert lhs.agrees_with(rhs, G, N)
                assert adams(adams(f, 2), 2).agrees_with(adams(f, 4), G, N)

                # Sym/Log mutual inversion at (grade, level) = (4, 4)
                h = random_counting_function(mon, rng, G, G * G * N, per_level=1)
                sym = pleth_sym(h)
                assert pleth_log(sym).agrees_with(
                    h.restricted(level_bound=N), G, N
                )
                big = CountingFunction.unit(mon, G, G * G * N) + h
                lg = pleth_log(big)
                assert pleth_sym(lg).agrees_with(
                    big.restricted(level_bound=N), G, N
                )

                # direct Moebius formula equals the Adams-twisted logarithm
                w = random_counting_function(mon, rng, G, G * N, per_level=2,
                                             with_roots=True)
                big_w = CountingFunction.unit(mon, G, G * N) + w
                assert log_direct(big_w).agrees_with(pleth_log(big_w), G, N)


def test_criterion_5_pushforward_lambda_morphism():
    with Criterion(5, "grading pushforward commutes with the plethystic "
                      "logarithm, grade 3 levels 3", 60):
        rng = random.Random(555)
        G, N = 3, 3
        fo = FreeOrbitMonoid(affine_line_census(2, G))
        phi = GradingMorphism(fo)
        for _ in range(10):
            f = random_counting_function(fo, rng, G, G * N, per_level=2)
            big = CountingFunction.unit(fo, G, G * N) + f
            lhs = pushforward(phi, pleth_log(big))
            rhs = pleth_log(pushforward(phi, big))
            assert lhs.agrees_with(rhs, G, N)


def test_criterion_6_plethystic_identity_end_to_end():
    with Criterion(6, "limit-formula counting function satisfies the "
                      "plethystic-log identity (differences mode), with the "
                      "projective brute-force cross-check", 600):
        for qv in (2, 3):
            mon = LinearObjectsMonoid.vect(qv)
            report = plethystic_identity_residual(mon, 3, 3, "differences")
            assert report.is_zero(), f"nonzero residual at q={qv}"
        mon3 = LinearObjectsMonoid.vect(3)
        brute, _ = weighted_inertia_coefficient_bruteforce(mon3, (2,), 1, 2)
        param = weighted_inertia_coefficient(mon3, (2,), 1, 2, "differences")
        assert brute.substitute_q(3) == param.substitute_q(3)


def _uniform_half_shift(levels, conv_parity_guess=None):
    """Infer the exponent parity (0 or 1/2 shift) of a volume element."""
    for parity in (0, 1):
        ok = True
        for n, v in enumerate(levels, start=1):
            if v.is_zero():
                continue
            w = v * half_l_power(-parity, n)
            if not w.is_laurent():
                ok = False
                break
            if any(e.denominator != 1 for e in (*w.num, *w.den)):
                ok = False
                break
        if ok:
            return parity
    return None


def _integer_laurent_report(omega, n_levels):
    """(is integral, all coefficients nonnegative) for an invariant."""
    parity = _uniform_half_shift(omega.levels)
    if parity is None:
        return False, False
    nonneg = True
    for n in range(1, n_levels + 1):
        v = omega.get(n) * half_l_power(-parity, n)
        if v.is_zero():
            continue
        if not v.is_laurent():
            return False, False
        for e, c in v.num.items():
            if e.denominator != 1 or not c.is_rational():
                return False, False
            r = c.as_rational()
            if r.denominator != 1:
                return False, False
            if r < 0:
                nonneg = False
    return True, nonneg


def test_criterion_7_bps_desk_results():
    with Criterion(7, "quiver BPS invariants match the Euler-product oracles; "
                      "loop quivers satisfy the integrality property", 600):
        for qv in (2, 3):
            res0 = quiver_bps(Quiver(1), qv, 6, 2)
            assert res0[(1,)].levels == [ExactScalar.one()] * 2
            for a in range(2, 7):
                assert all(v.is_zero() for v in res0[(a,)].levels), (qv, a)
            res1 = quiver_bps(Quiver(1, [(0, 0, 1)]), qv, 6, 2)
            assert res1[(1,)].levels == [half_l_power(1, 1), half_l_power(1, 2)]
            for a in range(2, 7):
                assert all(v.is_zero() for v in res1[(a,)].levels), (qv, a)
            # independent truncated Euler-product oracle, computed up front
            for a in range(1, 7):
                for n in (1, 2):
                    assert res0[(a,)].get(n) == oracle_zero_arrow_omega(a, n)
                    assert res1[(a,)].get(n) == oracle_one_loop_omega(a, n)
        positivity = []
        for loops in (2, 3):
            res = quiver_bps(Quiver(1, [(0, 0, loops)]), 2, 6, 2)
            for a in range(1, 7):
                integral, nonneg = _integer_laurent_report(res[(a,)], 2)
                assert integral, (loops, a)
                positivity.append(((loops, a), nonneg))
        # positivity is recorded, not asserted
        failures = [key for key, flag in positivity if not flag]
        print("        positivity record:",
              "all nonnegative" if not failures else f"violations at {failures}")


def test_criterion_8_delta_count_report():
    with Criterion(8, "weight-region count table with fitted limits and the "
                      "mode determination", 600):
        report = delta_report(3, 3, 24)
        cells = {(row["m"], row["s"]): row for row in report["table"]}
        assert set(cells) == {(m, s) for m in (1, 2, 3) for s in (1, 2, 3)}
        for row in report["table"]:
            assert len(row["counts"]["differences"]) == 24
            assert len(row["counts"]["orbits"]) == 24
        assert cells[(1, 1)]["limits"]["differences"] == "-1"
        assert cells[(1, 1)]["limits"]["orbits"] == "-1"
        verdict = report["verdict"]
        assert verdict["differences"]["bruteforce_match"]
        assert verdict["differences"]["identity_residual_zero"]
        assert not (verdict["orbits"]["bruteforce_match"]
                    and verdict["orbits"]["identity_residual_zero"])
        assert "differences" in report["determination"]
        print("        determination:", report["determination"])
