import math
import random
import signal
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from helpers import (
    conjugacy_classes,
    ev,
    fitted_bps_counting_function,
    full_walk_gf_tables,
    gl_matrices,
    is_scalar_matrix,
    mat_mul,
    mat_pow,
    oracle_m_loop_dt,
    oracle_one_loop_omega,
    oracle_zero_arrow_omega,
    projective_canon,
    projective_classes,
    reference_quiver_bps,
    reference_stab_homs,
    reference_twist_weight,
    reference_volume_series,
    reference_weighted_inertia_coefficient,
    reference_weighted_inertia_coefficient_bruteforce,
    weighted_inertia_series,
)

from stacky_volumes.lambdaring import pleth_log, pleth_sym
from stacky_volumes.monoids import LinearObjectsMonoid, Quiver
from stacky_volumes.ratfun import min_order
from stacky_volumes import stacky
from stacky_volumes.scalar import (ExactScalar, HalfLConvention, factor, half_l_adams, half_l_level,
                                   q_power)
from stacky_volumes.stacky import (
    GF,
    BruteForceClass,
    BruteForceTooLarge,
    NonSplitFiniteGroup,
    NotGenericallyRepresentable,
    ToricStackDatum,
    UnsupportedAutGroup,
    _stab_homs,
    _twist_weight,
    bps_counting_function,
    delta_report,
    dm_orbifold_sum,
    inertia_points,
    orbifold_volume,
    plethystic_identity_residual,
    quiver_bps,
    smith_form,
    smith_invariants,
    stacky_counting_function,
    volume_fit,
    volume_ladder,
    volume_series,
    weighted_inertia_coefficient,
    weighted_inertia_coefficient_bruteforce,
)


def gm_on_a2(q=3):
    return ToricStackDatum(2, 1, [], [[1, -1]], q)


def mu2_on_a1(q=3):
    return ToricStackDatum(1, 0, [2], [[1]], q)


# ---------------------------------------------------------------------------
# Smith form and finite fields.


def test_smith_invariants():
    assert smith_invariants([], 2) == (2, [])
    assert smith_invariants([[2, 0], [0, 3]], 2) == (0, [2, 3])
    assert smith_invariants([[1, -1]], 1) == (0, [])
    assert smith_invariants([[2]], 1) == (0, [2])
    free, finite = smith_invariants([[2, 0]], 2)
    assert free == 1 and finite == [2]


def test_gf_arithmetic():
    f9 = GF(3, 2)
    assert f9.size == 9
    for x in range(1, 9):
        assert f9.mul(x, f9.inv(x)) == 1
        assert f9.pow(x, 8) == 1
    # Frobenius fixes exactly the prime field
    assert sorted(f9.subfield_elements(3)) == [0, 1, 2]
    f16 = GF(2, 4)
    assert len(f16.subfield_elements(4)) == 4
    assert f16.mult_order(f16.generator) == 15


def _digitwise_sum(x, y, p):
    """Oracle for GF.add: polynomials over F_p add coefficient by coefficient."""
    out, place = 0, 1
    while x or y:
        out += (x + y) % p * place
        x, y, place = x // p, y // p, place * p
    return out


SMALL_FIELDS = [(p, e) for p in range(2, 257) if all(p % d for d in range(2, p))
                for e in range(1, 9) if p**e <= 256]


@pytest.mark.parametrize("p, e", SMALL_FIELDS + [(2, 12), (7, 4)])
def test_gf_is_a_field(p, e):
    f = GF(p, e)
    # skipping the moduli with a root in F_p keeps the first primitive modulus
    assert (f.exp, f.log, f.zech, f.generator) == full_walk_gf_tables(p, e)
    order = f.size - 1
    assert f.size == p**e
    # exp and log are inverse bijections between Z/(p^e - 1) and the units
    assert sorted(f.exp[:order]) == list(range(1, f.size))
    assert all(f.log[f.exp[k]] == k for k in range(order))
    assert f.mult_order(f.generator) == order
    for x in range(1, f.size):
        assert f.mul(x, f.inv(x)) == 1
    rng = random.Random(p**e)
    triples = [tuple(rng.randrange(f.size) for _ in range(3)) for _ in range(300)]
    for x, y, z in triples + [(0, 0, 0), (0, 1, order), (1, f.neg(1), 0)]:
        assert f.add(x, y) == _digitwise_sum(x, y, p)
        assert f.add(f.sub(x, y), y) == x
        assert f.add(x, f.neg(x)) == 0
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        # the Frobenius x -> x^p is additive
        assert f.pow(f.add(x, y), p) == f.add(f.pow(x, p), f.pow(y, p))
        if x:
            k = f.mult_order(x)
            assert f.pow(x, k) == 1 and all(f.pow(x, k // l) != 1 for l, _ in factor(k))
    for d in range(1, e + 1):
        if e % d == 0:
            assert len(f.subfield_elements(p**d)) == p**d


def test_gf_above_the_table_cap():
    with pytest.raises(BruteForceTooLarge):
        GF(3, 8)


# ---------------------------------------------------------------------------
# Toric inertia and volumes.


def test_datum_validation():
    with pytest.raises(NonSplitFiniteGroup):
        ToricStackDatum(1, 0, [2], [[1]], 4)  # 2 does not divide 3
    with pytest.raises(NotGenericallyRepresentable):
        ToricStackDatum(1, 1, [], [[2]], 5)  # generic mu_2 stabilizer
    with pytest.raises(ValueError):
        ToricStackDatum(2, 1, [], [[1]], 3)  # wrong number of columns


def test_gm_inertia_r1_three_classes():
    pts = inertia_points(gm_on_a2(3), 1)
    assert len(pts) == 3
    by_rep = {p.rep: p for p in pts}
    assert all(p.weight == 1 for p in pts)
    origin = by_rep[(0, 0)]
    assert origin.aut_order(1) == q_power(1) - 1
    free = by_rep[(1, 0)]
    assert free.aut_order(1) == ExactScalar.one()


def test_gm_inertia_r3_nontrivial_characters():
    pts = inertia_points(gm_on_a2(3), 3)
    origin_pts = [p for p in pts if p.rep == (0, 0)]
    assert len(origin_pts) == 3
    weights = sorted(p.weight for p in origin_pts)
    assert weights == [0, 0, 1]


def test_gm_volume_series_matches_display():
    q = q_power(1)
    for qv in (3, 5, 7):
        series = volume_series(gm_on_a2(qv), 8)
        for r in range(1, 9):
            expected = 2 * q_power(-1) + q_power(-1) / (q - 1) + (r - 1) / (q - 1)
            assert series.coeff(r) == expected


def test_gm_volume():
    for qv in (3, 5, 7):
        assert orbifold_volume(gm_on_a2(qv)) == q_power(-1)


def test_volume_series_stable_under_enlarging_order():
    datum = gm_on_a2(3)
    s1 = volume_series(datum, 6)
    s2 = volume_series(gm_on_a2(3), 12)
    assert s1.coeffs == s2.coeffs[:6]
    # the datum keeps its coefficients; any later prefix reads from them
    assert volume_series(datum, 12).coeffs == s2.coeffs
    assert volume_series(datum, 4).coeffs == s2.coeffs[:4]


def test_mu2_inertia_classes():
    pts = inertia_points(mu2_on_a1(5), 2)
    assert len(pts) == 2
    assert sorted(p.weight for p in pts) == [F(1, 2), 1]
    assert all(p.aut_order(1) == 2 for p in pts)


def test_mu2_volume_series_and_limit():
    for qv in (3, 5, 7):
        datum = mu2_on_a1(qv)
        series = volume_series(datum, 8)
        for r in range(1, 9):
            expected = q_power(-1) / 2
            if r % 2 == 0:
                expected = expected + q_power(F(-1, 2)) / 2
            assert series.coeff(r) == expected
        vol = orbifold_volume(datum)
        assert vol == q_power(-1) / 2 + q_power(F(-1, 2)) / 2
        # geometric-series oracle: (1/2) sum_{k>=1} (1 - q^-1) q^(-k/2), summed
        # in closed form
        oracle = (q_power(F(-1, 2)) / 2) * (1 - q_power(-1)) / (1 - q_power(F(-1, 2)))
        assert vol == oracle
        # tame quotient: the finite orbifold sum gives the same number
        assert dm_orbifold_sum(datum) == vol


def test_mu3_on_a2_dm_volume():
    datum = ToricStackDatum(2, 0, [3], [[1, 1]], 7)
    vol = orbifold_volume(datum)
    assert vol == dm_orbifold_sum(datum)
    assert vol == q_power(-2) / 3 + q_power(F(-2, 3)) / 3 + q_power(F(-4, 3)) / 3


def test_twisted_sector_sum_by_character_order():
    # the r-th coefficient only picks up characters of order dividing r
    datum = mu2_on_a1(3)
    series = volume_series(datum, 8)
    terms = {1: q_power(-1) / 2, 2: q_power(F(-1, 2)) / 2}
    for r in range(1, 9):
        expected = sum(
            (v for order, v in terms.items() if r % order == 0), ExactScalar.zero()
        )
        assert series.coeff(r) == expected


def test_representable_datum_ball_volume():
    # trivial group: volume q^(-n) per fibre point
    datum = ToricStackDatum(1, 0, [], [], 5)
    assert orbifold_volume(datum) == q_power(-1)
    pts = inertia_points(datum, 4)
    assert len(pts) == 1 and pts[0].weight == 1


# ---------------------------------------------------------------------------
# Weighted inertia of vector spaces.


def test_weighted_inertia_dimension_one():
    mon = LinearObjectsMonoid.vect(3)
    for n in (1, 2, 3):
        for r in (1, 2, 3, 5):
            assert weighted_inertia_coefficient(mon, (1,), n, r) == -q_power(n)


def test_weighted_inertia_zero_object():
    mon = LinearObjectsMonoid.vect(3)
    assert weighted_inertia_coefficient(mon, (0,), 1, 4).is_zero()


def test_bruteforce_matches_parametrized_pgl2_f3():
    mon = LinearObjectsMonoid.vect(3)
    brute, classes = weighted_inertia_coefficient_bruteforce(mon, (2,), 1, 2)
    param = weighted_inertia_coefficient(mon, (2,), 1, 2)
    assert brute.substitute_q(3) == param.substitute_q(3)
    assert brute.substitute_q(3) == ExactScalar.from_rational(F(27, 2))
    # the three involution classes of PGL_2(F_3) with their centralizer orders
    cents = sorted(c.centralizer_order for c in classes)
    assert cents == [4, 8, 24]
    # gerbe-order divisibility: o^2 | (x, x) for every class
    for c in classes:
        assert c.euler % (c.alpha_order ** 2) == 0
    assert sorted(c.alpha for c in classes) == [0, 0, F(1, 2)]


def test_bruteforce_matches_parametrized_odd_order():
    # order-3 twists in PGL_2(F_7): one nontrivial class, centralizer the torus
    mon = LinearObjectsMonoid.vect(7)
    brute, classes = weighted_inertia_coefficient_bruteforce(mon, (2,), 1, 3)
    param = weighted_inertia_coefficient(mon, (2,), 1, 3, "differences")
    assert brute.substitute_q(7) == param.substitute_q(7)
    assert sorted(c.centralizer_order for c in classes) == [6, 336]


def test_bruteforce_matches_parametrized_at_level_two():
    # sigma is the Frobenius of the level-2 field; PGL_2(F_9) has 720 elements
    mon = LinearObjectsMonoid.vect(3)
    brute, classes = weighted_inertia_coefficient_bruteforce(mon, (2,), 2, 2)
    param = weighted_inertia_coefficient(mon, (2,), 2, 2, "differences")
    assert brute.substitute_q(3) == param.substitute_q(3)
    assert sorted(c.centralizer_order for c in classes) == [16, 20, 720]


def test_bruteforce_r4_discriminates_modes():
    mon = LinearObjectsMonoid.vect(5)
    brute, _ = weighted_inertia_coefficient_bruteforce(mon, (2,), 1, 4)
    diff = weighted_inertia_coefficient(mon, (2,), 1, 4, "differences")
    orb = weighted_inertia_coefficient(mon, (2,), 1, 4, "orbits")
    assert brute.substitute_q(5) == diff.substitute_q(5)
    assert brute.substitute_q(5) != orb.substitute_q(5)


def test_bruteforce_preconditions():
    mon = LinearObjectsMonoid.vect(3)
    with pytest.raises(ValueError):
        weighted_inertia_coefficient_bruteforce(mon, (2,), 1, 3)  # 3 does not divide 2
    with pytest.raises(UnsupportedAutGroup):
        weighted_inertia_coefficient(LinearObjectsMonoid(Quiver(1, [(0, 0, 1)]), 2), (1,), 1, 1)


def test_weighted_inertia_series_paths_agree():
    mon = LinearObjectsMonoid.vect(3)
    par = weighted_inertia_series(mon, (2,), 1, 2)
    for r in (1, 2):
        brute, _ = weighted_inertia_coefficient_bruteforce(mon, (2,), 1, r)
        assert par.coeff(r).substitute_q(3) == brute.substitute_q(3)


@pytest.mark.parametrize("bits", [(0, 0), (1, 1)])
@pytest.mark.parametrize("mode", ["differences", "orbits"])
def test_weighted_inertia_series_matches_per_r_oracle(mode, bits):
    # class masses are built once per series; every coefficient must equal the
    # per-r sum in its printed form, its JSON and every bit of eval_numeric
    mon = LinearObjectsMonoid.vect(3, HalfLConvention(*bits))
    for a in range(1, 5):
        delta = math.lcm(*[m for m in range(1, a + 1) if a % m == 0])
        order = min_order(delta, a + 1)  # the order fitted_bps_counting_function fits
        for n in (1, 2):
            series = weighted_inertia_series(mon, (a,), n, order, mode)
            for r in range(1, order + 1):
                got = series.coeff(r)
                want = reference_weighted_inertia_coefficient(mon, (a,), n, r, mode)
                assert str(got) == str(want)
                assert got.to_json() == want.to_json()
                for q0 in (3, 5):
                    assert got.eval_numeric(q0) == want.eval_numeric(q0)


@pytest.mark.parametrize("q, r", [(3, 2), (5, 4)])
def test_bruteforce_class_equation(q, r):
    # PGL_2(F_q) inside the field the brute force builds for r-torsion
    field = GF(q, r)
    proj = projective_classes(field, gl_matrices(field, field.subfield_elements(q), 2))
    assert len(proj) == q * (q * q - 1)
    torsion = [g for g in proj if is_scalar_matrix(mat_pow(field, g, r))]
    classes = conjugacy_classes(field, proj, torsion)
    assert sum(size for _, size in classes) == len(torsion)
    for rep, size in classes:
        cent = sum(projective_canon(field, mat_mul(field, z, rep))
                   == projective_canon(field, mat_mul(field, rep, z)) for z in proj)
        assert size * cent == len(proj)
    _, infos = weighted_inertia_coefficient_bruteforce(LinearObjectsMonoid.vect(q), (2,), 1, r)
    assert sorted(c.centralizer_order for c in infos) == sorted(len(proj) // size
                                                                for _, size in classes)
    assert sum(len(proj) // c.centralizer_order for c in infos) == len(torsion)


# (q, n, r, a): a <= 2 with every twist order r | q^n - 1 whose degree-n*r
# field fits the table cap up to q^n = 5, and one r above (the oracle's cost
# grows as q^(4n)): the trivial twist at q = 9, r = 2 at level 2 over q = 3,
# r = 3 at q = 7; and PGL_3(F_2)
BRUTEFORCE_GRID = [(q, n, r, a) for q, n, rs in [(3, 1, (1, 2)), (4, 1, (1, 3)), (5, 1, (1, 2, 4)),
                                                 (7, 1, (3,)), (9, 1, (1,)), (3, 2, (2,))]
                   for r in rs for a in range(3)] + [(2, 1, 1, 3)]


@pytest.mark.parametrize("q, n, r, a", BRUTEFORCE_GRID)
def test_bruteforce_matches_the_generic_oracle(q, n, r, a):
    # the subfield tables give the generic path's classes, in its order
    mon = LinearObjectsMonoid.vect(q)
    got, infos = weighted_inertia_coefficient_bruteforce(mon, (a,), n, r)
    want, want_infos = reference_weighted_inertia_coefficient_bruteforce(mon, (a,), n, r)
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()
    slots = BruteForceClass.__slots__
    assert ([[getattr(c, k) for k in slots] for c in infos]
            == [[getattr(c, k) for k in slots] for c in want_infos])


def test_bps_counting_function_values():
    mon = LinearObjectsMonoid.vect(3)
    f0 = bps_counting_function(mon, (0,), 2)
    assert all(v.is_zero() for v in f0.levels)
    f1 = bps_counting_function(mon, (1,), 3)
    assert f1.levels == [ExactScalar.one()] * 3
    f2 = bps_counting_function(mon, (2,), 3)
    assert all(v.is_zero() for v in f2.levels)


@pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_bps_counting_function_matches_the_fitted_limit(bits):
    # the limit by linearity against the fit of the whole weighted inertia
    # series, in its printed form, its JSON and every bit of eval_numeric
    for q in (3, 5):
        mon = LinearObjectsMonoid.vect(q, HalfLConvention(*bits))
        for a in range(1, 6):
            got = bps_counting_function(mon, (a,), 2).levels
            want = fitted_bps_counting_function(mon, (a,), 2).levels
            for x, y in zip(got, want, strict=True):
                assert str(x) == str(y)
                assert x.to_json() == y.to_json()
                for q0 in (3, 5):
                    assert x.eval_numeric(q0) == y.eval_numeric(q0)


def test_bps_counting_function_orbits_matches_a_widened_fit():
    # the orbit count of the region (m, s) has period lcm(1..s) in r/m, so the
    # series of grade a fits on delta = lcm(1..a), D = a + 1, but from a = 3
    # on not on the lcm of the divisors of a
    mon = LinearObjectsMonoid.vect(3)
    for a in range(1, 5):
        got = bps_counting_function(mon, (a,), 2, "orbits").levels
        want = fitted_bps_counting_function(mon, (a,), 2, "orbits",
                                            math.lcm(*range(1, a + 1)), a + 1).levels
        for x, y in zip(got, want, strict=True):
            assert str(x) == str(y)
            assert x.to_json() == y.to_json()
            assert x.eval_numeric(3) == y.eval_numeric(3)


def test_identity_residual_zero_differences():
    for qv in (2, 3):
        mon = LinearObjectsMonoid.vect(qv)
        report = plethystic_identity_residual(mon, 2, 2, "differences")
        assert report.is_zero()


def test_identity_residual_nonzero_orbits():
    mon = LinearObjectsMonoid.vect(3)
    report = plethystic_identity_residual(mon, 2, 1, "orbits")
    assert not report.is_zero()
    data = report.to_json()
    assert data["identically_zero"] is False


def test_identity_grade_one_closed_form():
    mon = LinearObjectsMonoid.vect(2)
    report = plethystic_identity_residual(mon, 1, 2, "differences")
    assert report.is_zero()
    (x, n, lhs, lg, lgd) = report.entries[0]
    assert lhs == half_l_level(1) / (q_power(1) - 1)


# ---------------------------------------------------------------------------
# Quiver BPS invariants.


def test_quiver_bps_zero_arrow():
    res = quiver_bps(Quiver(1), 2, 4, 2)
    assert res[(1,)].levels == [ExactScalar.one()] * 2
    for a in range(2, 5):
        assert all(v.is_zero() for v in res[(a,)].levels)


def test_quiver_bps_one_loop():
    res = quiver_bps(Quiver(1, [(0, 0, 1)]), 2, 4, 2)
    assert res[(1,)].levels == [half_l_level(1), half_l_level(2)]
    for a in range(2, 5):
        assert all(v.is_zero() for v in res[(a,)].levels)


def test_quiver_bps_matches_euler_product_oracles():
    for qv in (2, 3):
        res0 = quiver_bps(Quiver(1), qv, 4, 2)
        res1 = quiver_bps(Quiver(1, [(0, 0, 1)]), qv, 4, 2)
        for a in range(1, 5):
            for n in (1, 2):
                assert res0[(a,)].get(n) == oracle_zero_arrow_omega(a, n)
                assert res1[(a,)].get(n) == oracle_one_loop_omega(a, n)


# dimensions d <= bound per loop count m: 30 numerical DT invariants
REINEKE_RANGES = {1: 6, 2: 9, 3: 6, 4: 5, 5: 4}


@pytest.mark.parametrize("bits, changed", [((1, 1), 0), ((1, 0), 6)])
def test_m_loop_bps_at_q_one_match_reineke(bits, changed):
    # the refined invariants at q^(1/2) = 1, evaluated exactly, are Reineke's
    # numerical DT invariants under the default sign bits; with the
    # half-Lefschetz sign bit b2 flipped, 6 of the 30 values change (at m = 2,
    # d = 3 to (q^7 + q^6 + q^5 + 2/3 q^4)/(q^2 + q + 1), 11/9 at q = 1)
    got, want = [], []
    for m, d_max in REINEKE_RANGES.items():
        res = quiver_bps(Quiver(1, [(0, 0, m)]), 3, d_max, 1, HalfLConvention(*bits))
        for d in range(1, d_max + 1):
            got.append(ev(res[(d,)].get(1), 1).as_rational())
            want.append(oracle_m_loop_dt(m, d))
    assert len(got) == 30
    assert sum(g != w for g, w in zip(got, want)) == changed
    # the 1-loop and 2-loop values of the formula
    assert want[:15] == [1, 0, 0, 0, 0, 0, 1, 1, 1, 2, 5, 13, 35, 100, 300]


def test_quiver_bps_two_vertex_additivity():
    res = quiver_bps(Quiver(2), 2, 3, 2)
    assert res[(1, 0)].levels == [ExactScalar.one()] * 2
    assert res[(0, 1)].levels == [ExactScalar.one()] * 2
    for gamma in [(1, 1), (2, 0), (2, 1), (1, 2), (3, 0)]:
        assert all(v.is_zero() for v in res[gamma].levels)


def test_quiver_bps_sym_roundtrip():
    # Sym of the plethystic log reproduces the stacky counting function
    for quiver, q, gamma_bound, level_bound in ((Quiver(1, [(0, 0, 1)]), 2, 3, 2),
                                                (Quiver(1, [(0, 0, 2)]), 2, 3, 1),
                                                (Quiver(2), 3, 2, 2)):
        monoid = LinearObjectsMonoid(quiver, q)
        big_n = gamma_bound * gamma_bound * level_bound
        shifted = stacky_counting_function(monoid, gamma_bound, big_n)
        back = pleth_sym(pleth_log(shifted))
        assert back.agrees_with(shifted.restricted(level_bound=back.level_bound),
                                gamma_bound, level_bound), quiver


def test_two_loop_known_small_values():
    res = quiver_bps(Quiver(1, [(0, 0, 2)]), 2, 3, 1)
    assert res[(1,)].get(1) == q_power(1)
    assert res[(2,)].get(1) == q_power(F(5, 2))
    assert res[(3,)].get(1) == q_power(5)


@st.composite
def _symmetric_quivers(draw):
    """A symmetric quiver on at most 3 vertices: at most 3 loops at each
    vertex and at most 2 arrows each way between two of them."""
    vertices = draw(st.integers(1, 3))
    arrows = [(i, i, draw(st.integers(0, 3))) for i in range(vertices)]
    for i in range(vertices):
        for j in range(i + 1, vertices):
            c = draw(st.integers(0, 2))
            arrows += [(i, j, c), (j, i, c)]
    return Quiver(vertices, arrows)


def _bits_of(x: ExactScalar):
    z = x.eval_numeric(3)
    return str(x), x.to_json(), z.real.hex(), z.imag.hex()


def _same_invariants(got: dict, want: dict):
    assert list(got) == list(want)
    for gamma, ve in want.items():
        assert [_bits_of(v) for v in got[gamma].levels] == [_bits_of(v) for v in ve.levels], gamma


# the largest grade bound per vertex count that keeps an example under 50 ms
_BPS_GRADES = {1: 6, 2: 3, 3: 2}


@settings(max_examples=25)
@given(quiver=_symmetric_quivers(), bits=st.sampled_from([(1, 1), (0, 0)]),
       levels=st.integers(2, 3), data=st.data())
def test_quiver_bps_by_adams_matches_every_level_logarithm(quiver, bits, levels, data):
    """Under coherent bits the invariants of levels >= 2 are the Adams
    images of level 1: equal to the logarithm run at every level in str,
    to_json and eval_numeric bits."""
    gamma_bound = data.draw(st.integers(1, _BPS_GRADES[quiver.vertices]))
    conv = HalfLConvention(*bits)
    _same_invariants(quiver_bps(quiver, 3, gamma_bound, levels, conv),
                     reference_quiver_bps(quiver, 3, gamma_bound, levels, conv))


def test_mixed_bits_take_the_every_level_path(monkeypatch):
    """(1, 0) and (0, 1) run the logarithm at every level, where the Adams
    substitution would be wrong; the default bits substitute every value
    of levels 2 and 3."""
    calls = []

    def counted(x, n, conv):
        calls.append(n)
        return half_l_adams(x, n, conv)

    monkeypatch.setattr(stacky, "half_l_adams", counted)
    quiver = Quiver(1, [(0, 0, 2)])
    for bits in ((1, 0), (0, 1)):
        conv = HalfLConvention(*bits)
        got = quiver_bps(quiver, 3, 4, 3, conv)
        _same_invariants(got, reference_quiver_bps(quiver, 3, 4, 3, conv))
        assert any(half_l_adams(ve.get(1), n, conv) != ve.get(n)
                   for ve in got.values() for n in (2, 3)), bits
    assert calls == []
    quiver_bps(quiver, 3, 4, 3)
    assert calls == [2, 3] * 4


def _integral(x: ExactScalar) -> bool:
    """Whether x is a Laurent polynomial in q^(1/2) with integer coefficients."""
    return x.is_laurent() and all((2 * e).denominator == 1 and c.is_rational()
                                  and c.as_rational().denominator == 1
                                  for e, c in x.num.items())


@settings(max_examples=25)
@given(quiver=_symmetric_quivers(), data=st.data())
def test_default_bits_give_integral_bps_invariants(quiver, data):
    """Under the default bits every invariant at every level is a Laurent
    polynomial in q^(1/2) over Z (Meinhardt-Reineke), and at level 1, with
    q^(1/2) sent to -q^(1/2), its coefficients have one sign (Efimov)."""
    gamma_bound = data.draw(st.integers(1, _BPS_GRADES[quiver.vertices]))
    for ve in quiver_bps(quiver, 3, gamma_bound, 3).values():
        assert all(_integral(v) for v in ve.levels)
        twisted = {c.as_rational() * (-1) ** int(2 * e) for e, c in ve.get(1).num.items()}
        assert all(c > 0 for c in twisted) or all(c < 0 for c in twisted)


# the 0- to 3-loop quivers at grade bound 4 and the 2-vertex quivers with no
# arrow and with one each way at grade bound 2, at levels 1-3: 78 values
_INTEGRALITY_CORPUS = [(Quiver(1, [(0, 0, m)]), 4) for m in (0, 1, 2, 3)] + [
    (Quiver(2, [(0, 1, c), (1, 0, c)]), 2) for c in (0, 1)]


@pytest.mark.parametrize("bits, non_integral", [((1, 1), 0), ((0, 0), 18), ((1, 0), 2),
                                                ((0, 1), 20)])
def test_only_the_default_bits_are_integral(bits, non_integral):
    values = [v for quiver, gamma_bound in _INTEGRALITY_CORPUS
              for ve in quiver_bps(quiver, 3, gamma_bound, 3, HalfLConvention(*bits)).values()
              for v in ve.levels]
    assert len(values) == 78
    assert sum(not _integral(v) for v in values) == non_integral


def test_stacky_counting_function_unit_value():
    mon = LinearObjectsMonoid.vect(2)
    f = stacky_counting_function(mon, 2, 2)
    assert f.value((0,), 1) == 1
    assert f.value((1,), 1) == half_l_level(1) / (q_power(1) - 1)


# ---------------------------------------------------------------------------
# Delta report.


def test_delta_report_structure_and_verdict():
    report = delta_report(2, 2, 8)
    assert report["verdict"]["differences"]["bruteforce_match"]
    assert report["verdict"]["differences"]["identity_residual_zero"]
    assert not report["verdict"]["orbits"]["identity_residual_zero"]
    assert "differences" in report["determination"]
    cells = {(row["m"], row["s"]): row for row in report["table"]}
    assert cells[(1, 1)]["limits"]["differences"] == "-1"
    assert cells[(1, 1)]["limits"]["orbits"] == "-1"


class _TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise _TooSlow


@st.composite
def _admitted_volume_data(draw, qs=(2, 3, 4, 5, 7)):
    """Data the volume command admits: torus rows summing to 0, with entries
    in [-2, 2], and at most one mu_d with d | q - 1."""
    q = draw(st.sampled_from(qs))
    n, k = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rows = []
    for _ in range(k):
        head = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        if abs(sum(head)) > 2:
            reject()
        rows.append(head + [-sum(head)])
    orders = [d for d in range(2, q) if (q - 1) % d == 0]
    finite = draw(st.lists(st.sampled_from(orders), max_size=1)) if orders else []
    rows += [draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)) for d in finite]
    try:
        return ToricStackDatum(n, k, finite, rows, q)
    except NotGenericallyRepresentable:
        reject()


@settings(max_examples=40)
@given(datum=_admitted_volume_data())
def test_admitted_volume_data_fit(datum):
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        volume_fit(datum)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# The volume series against its point-by-point oracle.

# the volume jobs of perfbench geometry, then mu_d on other weights, the
# order-94 fit (5, -2, -3) and tori with finite factors
_VOLUME_DATA = [
    *[(1, 0, [2], [[1]], q) for q in (3, 5, 7, 9)],
    (2, 0, [3], [[1, 1]], 4), (2, 0, [3], [[1, 1]], 7), (2, 0, [4], [[1, 1]], 5),
    (2, 0, [6], [[1, 1]], 7),
    *[(2, 1, [], [[1, -1]], q) for q in (3, 5, 7)],
    *[(2, 1, [2], [[1, -1], [1, 0]], q) for q in (3, 5, 7)],
    *[(3, 2, [], [[1, -1, 0], [0, 1, -1]], q) for q in (3, 5, 7)],
    (2, 0, [3], [[1, 5]], 7), (2, 0, [6], [[1, 5]], 7), (2, 0, [4], [[1, 3]], 5),
    (2, 0, [4], [[1, 5]], 5), (3, 1, [], [[5, -2, -3]], 3), (3, 1, [], [[1, 1, -2]], 3),
    (2, 1, [3], [[1, -1], [1, 0]], 7), (3, 0, [2], [[1, 1, 1]], 3),
]


def _rendered(series, q0):
    """Each coefficient's printed form, JSON, eval_numeric bits and integer
    form with its term order, which every later result reads."""
    return [(str(c), c.to_json(), c.eval_numeric(q0).real.hex(), c.eval_numeric(q0).imag.hex(),
             c._n, [*c._num.items()], c._nd, [*c._den.items()], c._dd) for c in series.coeffs]


@pytest.mark.parametrize("data", _VOLUME_DATA, ids=str)
def test_volume_series_matches_point_by_point_sum(data):
    """To the first fitted order, or 12: every coefficient is the point-by-
    point sum in its printed form, its JSON, every bit of eval_numeric and
    the term order of its integer form."""
    datum = ToricStackDatum(*data)
    order = max(12, volume_ladder(datum)[0][2])
    assert _rendered(volume_series(datum, order), datum.q) == _rendered(
        reference_volume_series(datum, order), datum.q)


@settings(max_examples=80)
@given(datum=_admitted_volume_data(qs=(3, 4, 5, 7, 9)))
def test_volume_series_matches_point_by_point_sum_on_random_data(datum):
    assert _rendered(volume_series(datum, 12), datum.q) == _rendered(
        reference_volume_series(datum, 12), datum.q)


def test_twist_weight_matches_column_by_column_sum():
    for data in _VOLUME_DATA:
        datum = ToricStackDatum(*data)
        for supp in {supp for _, _, supp in datum.fiber_orbits()}:
            for r in range(1, 13):
                for psi in _stab_homs(datum, supp, r):
                    assert _twist_weight(datum, psi, r) == reference_twist_weight(datum, psi, r)


@settings(max_examples=60)
@given(datum=_admitted_volume_data(qs=(3, 4, 5, 7, 9, 13)))
def test_stab_homs_from_the_smith_form_match_the_candidate_loop(datum):
    """The characters listed from U equal the r^(k+l) candidate loop, order
    included; U is unimodular, and U·M is D·V^-1: row i divisible by d_i,
    zero past the rank."""
    for supp in {supp for _, _, supp in datum.fiber_orbits()}:
        cols = datum._relations(supp)
        _, _, diag, u = smith_form(cols, datum.k + datum.l)
        assert sympy.Matrix(u).det() in (1, -1)
        for i, row in enumerate(u):
            d = diag[i] if i < len(diag) else 0
            assert all(sum(a * c for a, c in zip(row, col)) % d == 0 if d
                       else not sum(a * c for a, c in zip(row, col)) for col in cols)
        for r in range(1, 13):
            assert _stab_homs(datum, supp, r) == reference_stab_homs(datum, supp, r)


def test_stab_homs_past_the_candidate_cap():
    """Torus with mu_2 at r = 3,163, where r^(k+l) > 10^7 candidates: the
    origin's r gcd(2, r) characters, sorted, each killing every relation
    column mod r."""
    datum, r = ToricStackDatum(2, 1, [2], [[1, -1], [1, 0]], 3), 3163
    assert r ** (datum.k + datum.l) > 10**7
    origin = frozenset()
    homs = _stab_homs(datum, origin, r)
    assert len(set(homs)) == len(homs) == r * math.gcd(2, r)
    assert homs == sorted(homs)
    for psi in homs:
        assert all(sum(p * c for p, c in zip(psi, col)) % r == 0
                   for col in datum._relations(origin))
