import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from helpers import (
    ScalarSums,
    add_fiber,
    ev,
    galois_scalar,
    moebius_sum,
    point,
    pointwise_mul,
    random_counting_function,
    random_scalar,
    reference_adams,
    reference_convolve,
    reference_log_conv,
    reference_log_direct,
    reference_pleth_log,
    reference_pushforward,
    trace_fiber,
    view,
)

from stacky_volumes import lambdaring
from stacky_volumes.lambdaring import (
    CountingFunction,
    MonoidMismatch,
    NotAugmented,
    NotSigmaFinite,
    TruncationExceeded,
    adams,
    convolve,
    exp_conv,
    log_conv,
    log_demand,
    log_direct,
    mobius,
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
from stacky_volumes.scalar import ExactScalar, HalfLConvention, q_power
from stacky_volumes.stacky import stacky_counting_function


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_unit_is_convolution_identity():
    lat = DiscreteLattice(1)
    u = CountingFunction.unit(lat, 3, 3)
    assert convolve(u, u).agrees_with(u, 3, 3)
    f = random_counting_function(lat, random.Random(1), 3, 3)
    assert convolve(u, f).agrees_with(f, 3, 3)


def test_delta_convolution():
    lat = DiscreteLattice(1)
    d1 = CountingFunction(lat, 4, 4, [((1,), n, 1) for n in range(1, 5)])
    d2 = convolve(d1, d1)
    assert d2.value((2,), 2) == 1
    assert d2.value((1,), 1).is_zero()
    assert d2.value((3,), 1).is_zero()


def test_vect_convolution_worked_example():
    mon = LinearObjectsMonoid.vect(2)
    sid = CountingFunction.from_callable(mon, 3, 2, lambda x, n: mon.stacky_value(x, n))
    sq = convolve(sid, sid)
    q = q_power(1)
    expect = q / (q - 1) ** 2 + 2 * q_power(2) / ((q_power(2) - 1) * (q_power(2) - q))
    assert sq.value((2,), 1) == expect


def test_ring_axioms_on_random_functions():
    rng = random.Random(2)
    lat = DiscreteLattice(2)
    for _ in range(4):
        f = random_counting_function(lat, rng, 3, 2)
        g = random_counting_function(lat, rng, 3, 2)
        h = random_counting_function(lat, rng, 3, 2)
        assert convolve(f, g).agrees_with(convolve(g, f), 3, 2)
        assert convolve(f, convolve(g, h)).agrees_with(convolve(convolve(f, g), h), 3, 2)
        lhs = convolve(f, g + h)
        rhs = convolve(f, g) + convolve(f, h)
        assert lhs.agrees_with(rhs, 3, 2)


def test_adams_identity_and_level_shift():
    lat = DiscreteLattice(1)
    f = CountingFunction(lat, 4, 8, [((1,), n, 1) for n in range(1, 9)])
    assert adams(f, 1) is f
    a2 = adams(f, 2)
    assert a2.level_bound == 4
    assert a2.value((2,), 1) == 1 and a2.value((2,), 3) == 1
    assert a2.value((1,), 1).is_zero()


def test_adams_free_orbit_degree_two():
    fo = FreeOrbitMonoid(affine_line_census(2, 2))
    taut = CountingFunction(fo, 2, 4)
    for n in range(1, 5):
        for x in fo.fixed_elements(n, 1):
            if fo.grade(x) == 1:
                taut.set(x, n, 1)
    a2 = adams(taut, 2)
    closed_pt = fo.add(point(2, 0, 0), point(2, 0, 1))
    # two geometric points at level 2 trace onto the closed point
    assert a2.value(closed_pt, 1) == 2


def test_adams_is_ring_homomorphism():
    rng = random.Random(3)
    for mon in (DiscreteLattice(1), FreeOrbitMonoid(affine_line_census(2, 3)),
                LinearObjectsMonoid.vect(2)):
        for _ in range(3):
            f = random_counting_function(mon, rng, 3, 6)
            g = random_counting_function(mon, rng, 3, 6)
            for m in (2, 3):
                lhs = adams(convolve(f, g), m)
                rhs = convolve(adams(f, m), adams(g, m))
                assert lhs.agrees_with(rhs, 3, 6 // m)


def test_adams_composition():
    rng = random.Random(4)
    for mon in (DiscreteLattice(2), FreeOrbitMonoid(affine_line_census(2, 3))):
        f = random_counting_function(mon, rng, 3, 12)
        assert adams(adams(f, 2), 3).agrees_with(adams(f, 6), 3, 2)
        assert adams(adams(f, 3), 2).agrees_with(adams(f, 6), 3, 2)


def test_convolve_matches_fiber_definition():
    rng = random.Random(15)
    for mon in (DiscreteLattice(1), FreeOrbitMonoid(affine_line_census(2, 3))):
        f = random_counting_function(mon, rng, 3, 2)
        g = random_counting_function(mon, rng, 3, 2)
        conv = convolve(f, g)
        for n in (1, 2):
            for x in mon.fixed_elements(n, 3):
                direct = ExactScalar.zero()
                for a, b in add_fiber(mon, x, n):
                    direct = direct + f.value(a, n) * g.value(b, n)
                assert conv.value(x, n) == direct, (mon, x, n)


def _shuffled_function(mon, rng, grade_bound, level_bound):
    """Dense function whose support is set in shuffled order, not by grade."""
    f = CountingFunction(mon, grade_bound, level_bound)
    for n in range(1, level_bound + 1):
        els = mon.fixed_elements(n, grade_bound)
        rng.shuffle(els)
        for x in els:
            f.set(x, n, random_scalar(rng, with_roots=True))
    return f


def _terms(h):
    return [(x, n, *(list(p.items()) for p in view(v))) for x, n, v in h.support()]


@pytest.mark.parametrize("mon", [FreeOrbitMonoid(affine_line_census(2, 3)), DiscreteLattice(2)],
                         ids=["free-orbit", "lattice-2"])
def test_convolve_keeps_all_pairs_order(mon):
    rng = random.Random(21)
    f = _shuffled_function(mon, rng, 3, 2)
    g = _shuffled_function(mon, rng, 3, 2)
    for h in (f, g):
        grades = [mon.grade(x) for x, _, _ in h.support()]
        assert grades != sorted(grades)
    got, ref = convolve(f, g), reference_convolve(f, g)
    assert list(got.support()) == list(ref.support())
    assert _terms(got) == _terms(ref)


@pytest.mark.parametrize("mon", [FreeOrbitMonoid(affine_line_census(2, 3)), DiscreteLattice(2)],
                         ids=["free-orbit", "lattice-2"])
def test_adams_and_pushforward_keep_support_order(mon):
    """adams and pushforward add into each slot in support order, so every
    value's terms come out in the order of the all-support loop."""
    f = _shuffled_function(mon, random.Random(22), 3, 6)
    for m in (2, 3):
        got, ref = adams(f, m), reference_adams(f, m)
        assert list(got.support()) == list(ref.support()), m
        assert _terms(got) == _terms(ref), m
    phi = GradingMorphism(mon)
    got, ref = pushforward(phi, f), reference_pushforward(phi, f)
    assert list(got.support()) == list(ref.support())
    assert _terms(got) == _terms(ref)


_MIXED_MONOIDS = {"free-orbit": FreeOrbitMonoid(affine_line_census(2, 3)),
                  "lattice-2": DiscreteLattice(2)}


def _galois_function(mon, rng, grade, level_bound, fractions):
    """Values c q^(e/2) zeta_b^k, b cycling through 2, 3, 4, 6 as in the
    lambda-galois benchmark, on about half of the nonzero fixed elements of
    each level in shuffled order; with fractions, about one in six is
    divided by q + 1 or q + 2, so that it is not a Laurent polynomial."""
    f = CountingFunction(mon, grade, level_bound)
    for n in range(1, level_bound + 1):
        els = [x for x in mon.fixed_elements(n, grade) if mon.grade(x)]
        rng.shuffle(els)
        for i, x in enumerate(els):
            if rng.random() < 0.5:
                v = galois_scalar(rng, (2, 3, 4, 6)[i % 4])
                if fractions and rng.random() < 1 / 6:
                    v = v / (q_power(1) + rng.choice([1, 2]))
                f.set(x, n, v)
    return f


def _mixed_cases(name, seed, fractions):
    mon = _MIXED_MONOIDS[name]
    rng = random.Random(seed)
    grade, levels = 3, 2
    f, g = (_galois_function(mon, rng, grade, grade * levels, fractions) for _ in range(2))
    big = CountingFunction.unit(mon, grade, grade * levels) + f
    return mon, grade, levels, f, g, big, log_demand(grade, grade * levels)


def _log_direct_by_scalars(big):
    with mock.patch.object(lambdaring, "Sums", ScalarSums):
        return log_direct(big)


@settings(max_examples=8)
@given(name=st.sampled_from(sorted(_MIXED_MONOIDS)), seed=st.integers(0, 2**32 - 1),
       fractions=st.booleans())
def test_mixed_fields_match_the_one_scalar_at_a_time_sums(name, seed, fractions):
    """On values from the fields Q(zeta_b)(q^(1/2)), b in 2, 3, 4, 6, with
    and without values that are not Laurent polynomials, every operation
    that adds in place keeps the support order and term order of its
    oracle, which adds one ExactScalar at a time.  log_direct's oracle is
    its own enumeration with ScalarSums in place of Sums; its values also
    equal the ordered-tuple sum's."""
    mon, grade, levels, f, g, big, caps = _mixed_cases(name, seed, fractions)
    assert f.field == (2, 12)
    phi = GradingMorphism(mon)
    pairs = [(convolve(f, g), reference_convolve(f, g)),
             (pushforward(phi, f), reference_pushforward(phi, f)),
             (log_conv(big), reference_log_conv(big)),
             (log_conv(big, caps), reference_log_conv(big, caps)),
             (log_direct(big), _log_direct_by_scalars(big))]
    pairs += [(adams(f, m), reference_adams(f, m)) for m in (2, 3)]
    for got, ref in pairs:
        assert list(got.support()) == list(ref.support())
        assert _terms(got) == _terms(ref)
    assert not pairs[4][0].differences(reference_log_direct(big), grade, levels)


def _snapshot(f):
    return [(x, n, *([(e, list(c.terms.items())) for e, c in p.items()] for p in view(v)))
            for x, n, v in f.support()]


@pytest.mark.parametrize("fractions", [False, True])
def test_operations_do_not_mutate_their_inputs(fractions):
    """The in-place sums copy a value before adding into it: no operation,
    f + f included, changes a value of its inputs."""
    mon, grade, levels, f, g, big, caps = _mixed_cases("free-orbit", 40, fractions)
    phi = GradingMorphism(mon)
    before = [_snapshot(h) for h in (f, g, big)]
    for op in (lambda: convolve(f, g), lambda: log_conv(big), lambda: log_conv(big, caps),
               lambda: log_direct(big), lambda: pushforward(phi, f), lambda: adams(f, 2),
               lambda: adams(f, 3), lambda: f + f, lambda: big + big):
        op()
        assert [_snapshot(h) for h in (f, g, big)] == before


_LOG_MONOIDS = {
    "free-orbit": FreeOrbitMonoid(affine_line_census(2, 3)),
    "lattice-2": DiscreteLattice(2),
    "vect": LinearObjectsMonoid.vect(2),
    "two-vertex": LinearObjectsMonoid(Quiver(2), 2),
}


@settings(max_examples=25)
@given(name=st.sampled_from(sorted(_LOG_MONOIDS)), seed=st.integers(0, 2**32 - 1),
       grade=st.integers(1, 4), levels=st.integers(1, 2))
def test_pleth_log_matches_the_full_log_conv(name, seed, grade, levels):
    """pleth_log convolves only on the slots its Moebius sum reads, and keeps
    the values, support order and term order of the full convolution
    logarithm."""
    mon = _LOG_MONOIDS[name]
    big = _shuffled_function(mon, random.Random(seed), grade, grade * levels)
    for n in range(1, grade * levels + 1):
        big.set(mon.zero(), n, 1)
    got, ref = pleth_log(big), reference_pleth_log(big)
    assert list(got.support()) == list(ref.support())
    assert _terms(got) == _terms(ref)


@pytest.mark.parametrize("name", ["lattice-2", "vect", "free-orbit"])
def test_log_conv_keeps_the_forms_of_the_unit_start(name):
    """log_conv starts at f and adds each power into the sum in place; it
    keeps the support order, keys and term order of the loop that starts at
    the unit, with and without the caps pleth_log passes, in any key order.
    On Vect the values are the stacky counts, rational functions of q."""
    mon = _LOG_MONOIDS[name]
    grade, levels = (3, 2) if name == "free-orbit" else (4, 2)
    if name == "vect":
        big = stacky_counting_function(mon, grade, grade * levels)
    else:
        big = _shuffled_function(mon, random.Random(31), grade, grade * levels)
        for n in range(1, grade * levels + 1):
            big.set(mon.zero(), n, 1)
    assert any(not v.is_laurent() for _, _, v in big.support()) == (name == "vect")
    caps = log_demand(grade, grade * levels)
    for caps in (None, caps, dict(reversed(caps.items()))):
        got, ref = log_conv(big, caps), reference_log_conv(big, caps)
        assert list(got.support()) == list(ref.support())
        assert _terms(got) == _terms(ref)


@pytest.mark.parametrize("mon, grade, levels", [
    (DiscreteLattice(1), 6, 1),
    (DiscreteLattice(1), 4, 3),
    (DiscreteLattice(2), 4, 2),
    (FreeOrbitMonoid(affine_line_census(2, 3)), 3, 1),
    (FreeOrbitMonoid(affine_line_census(2, 3)), 2, 3),
], ids=["lattice-1-g6", "lattice-1-g4", "lattice-2-g4", "free-orbit-g3", "free-orbit-g2"])
def test_log_demand_is_what_the_moebius_sum_reads(mon, grade, levels):
    """A slot is in log_demand exactly when dropping it from a dense function
    changes the Moebius sum of Adams operations that pleth_log applies."""
    budget = grade * levels
    dense = [(x, n, k + 1) for k, (n, x) in enumerate(
        (n, x) for n in range(1, budget + 1) for x in mon.fixed_elements(n, grade))]
    full = moebius_sum(CountingFunction(mon, grade, budget, dense), levels)
    read = set()
    for slot in dense:
        rest = CountingFunction(mon, grade, budget, [e for e in dense if e is not slot])
        if moebius_sum(rest, levels).differences(full, grade, levels):
            read.add(slot[:2])
    caps = log_demand(grade, budget)
    assert read == {(x, n) for x, n, _ in dense if mon.grade(x) <= caps.get(n, -1)}


def test_adams_matches_trace_fiber_definition():
    rng = random.Random(16)
    for mon in (DiscreteLattice(1), FreeOrbitMonoid(affine_line_census(2, 3))):
        # dense enough that some level-2 elements are not fixed at level 1
        f = random_counting_function(mon, rng, 3, 4, per_level=6)
        for m in (2,):
            am = adams(f, m)
            for n in (1, 2):
                for x in mon.fixed_elements(n, 3):
                    direct = ExactScalar.zero()
                    for y in trace_fiber(mon, x, n, m):
                        direct = direct + f.value(y, n * m)
                    assert am.value(x, n) == direct, (mon, x, n)


def test_exp_log_inverse_pair():
    rng = random.Random(5)
    lat = DiscreteLattice(1)
    for _ in range(4):
        f = random_counting_function(lat, rng, 4, 3)
        big = CountingFunction.unit(lat, 4, 3) + f
        assert log_conv(exp_conv(f)).agrees_with(f, 4, 3)
        assert exp_conv(log_conv(big)).agrees_with(big, 4, 3)


def test_pleth_sym_geometric_example():
    # Sym of the grade-one delta with value 1 is constant 1 (1/(1-x))
    lat = DiscreteLattice(1)
    G = 6
    d1 = CountingFunction(lat, G, G, [((1,), n, 1) for n in range(1, G + 1)])
    s = pleth_sym(d1)
    for k in range(G + 1):
        assert s.value((k,), 1) == 1


def test_pleth_sym_log_inverse_pair():
    rng = random.Random(6)
    G, N = 3, 2
    for mon in (DiscreteLattice(1), FreeOrbitMonoid(affine_line_census(2, 3)),
                LinearObjectsMonoid.vect(3)):
        for _ in range(3):
            f = random_counting_function(mon, rng, G, G * G * N)
            sym = pleth_sym(f)
            back = pleth_log(sym)
            assert back.agrees_with(f.restricted(level_bound=back.level_bound), G, N)
            big = CountingFunction.unit(mon, G, G * G * N) + f
            lg = pleth_log(big)
            fwd = pleth_sym(lg)
            assert fwd.agrees_with(big.restricted(level_bound=fwd.level_bound), G, N)


def test_log_direct_equals_pleth_log():
    rng = random.Random(7)
    G, N = 3, 2
    for mon in (DiscreteLattice(1), DiscreteLattice(2),
                FreeOrbitMonoid(affine_line_census(2, 3)),
                LinearObjectsMonoid.vect(2)):
        for _ in range(3):
            f = random_counting_function(mon, rng, G, G * N, with_roots=True)
            big = CountingFunction.unit(mon, G, G * N) + f
            lg = pleth_log(big)
            lgd = log_direct(big)
            assert lgd.agrees_with(lg, G, N), mon


@settings(max_examples=25)
@given(name=st.sampled_from(sorted(_LOG_MONOIDS)), seed=st.integers(0, 2**32 - 1),
       grade=st.integers(1, 4), levels=st.integers(1, 2))
def test_log_direct_matches_the_ordered_tuple_sum(name, seed, grade, levels):
    """log_direct sums over multisets with their multinomial weights; it has
    the values and the support of the sum over every ordering of every
    tuple.  One value carries a denominator."""
    mon = _LOG_MONOIDS[name]
    rng = random.Random(seed)
    big = _shuffled_function(mon, rng, grade, grade * levels)
    x0, n0, v0 = next(big.support())
    big.set(x0, n0, v0 / (q_power(1) + rng.choice([1, 2])))
    for n in range(1, grade * levels + 1):
        big.set(mon.zero(), n, 1)
    got, ref = log_direct(big), reference_log_direct(big)
    assert {(x, n) for x, n, _ in got.support()} == {(x, n) for x, n, _ in ref.support()}
    assert not got.differences(ref, grade, levels)


def test_log_direct_multiset_weight_closed_form():
    """Log F at level 1 by hand, on N^2 with F = 1 + a[e1] + b[e2] at level 1
    and a2[e1] at level 2: the multiset {e1, e2} has weight (2-1)!/(1! 1!)
    = 1, {e1, e1} has weight (2-1)!/2! = 1/2, both with sign -1, and psi_2
    of a2 enters with mu(2)/2 = -1/2."""
    a, b, a2 = q_power(1) + 2, q_power(F(1, 2)) * 3, q_power(-1) - 5
    mon = DiscreteLattice(2)
    big = CountingFunction.unit(mon, 2, 2) + CountingFunction(
        mon, 2, 2, [((1, 0), 1, a), ((0, 1), 1, b), ((1, 0), 2, a2)])
    lg = log_direct(big)
    assert lg.value((1, 1), 1) == -a * b
    assert lg.value((2, 0), 1) == -(a * a + a2) / 2


def test_log_direct_of_unit_is_zero():
    lat = DiscreteLattice(1)
    u = CountingFunction.unit(lat, 3, 6)
    assert not list(log_direct(u).support())


def test_log_direct_shifted_identity_grade_one():
    from stacky_volumes.scalar import half_l_level

    mon = LinearObjectsMonoid.vect(2)
    sid = CountingFunction.from_callable(mon, 1, 2, lambda x, n: mon.stacky_value(x, n))
    lg = log_direct(sid)
    # only the (m, s) = (1, 1) term contributes at grade 1
    assert lg.value((1,), 1) == half_l_level(1) / (q_power(1) - 1)
    assert lg.value((1,), 2) == half_l_level(2) / (q_power(2) - 1)


def test_gerbe_twist_property():
    # Log(1 + f g) = g Log(1 + f) for multiplicative g compatible with traces
    rng = random.Random(8)
    lat = DiscreteLattice(1)
    G, N = 3, 9
    gfun = CountingFunction.from_callable(
        lat, G, N, lambda x, n: q_power(F(x[0] * n, 2))
    )
    for _ in range(3):
        f = random_counting_function(lat, rng, G, N)
        unit = CountingFunction.unit(lat, G, N)
        lhs = log_direct(unit + pointwise_mul(f, gfun))
        rhs_full = log_direct(unit + f)
        rhs = pointwise_mul(rhs_full, gfun.restricted(level_bound=rhs_full.level_bound))
        assert lhs.agrees_with(rhs, G, lhs.level_bound)


class _Identity:
    sigma_finite = True

    def __init__(self, monoid):
        self.source = self.target = monoid

    def map(self, x):
        return x


def test_pushforward_identity_and_point_count():
    fo = FreeOrbitMonoid(affine_line_census(2, 6))
    rng = random.Random(9)
    f = random_counting_function(fo, rng, 3, 3)
    assert pushforward(_Identity(fo), f).agrees_with(f, 3, 3)

    phi = GradingMorphism(fo)
    taut = CountingFunction(fo, 2, 6)
    for n in range(1, 7):
        for x in fo.fixed_elements(n, 1):
            if fo.grade(x) == 1:
                taut.set(x, n, 1)
    push = pushforward(phi, taut)
    for n in range(1, 7):
        assert push.value((1,), n) == 2 ** n


def test_pushforward_is_lambda_morphism():
    rng = random.Random(10)
    fo = FreeOrbitMonoid(affine_line_census(2, 3))
    phi = GradingMorphism(fo)
    G, N = 3, 2
    for _ in range(3):
        f = random_counting_function(fo, rng, G, G * N)
        g = random_counting_function(fo, rng, G, G * N)
        # ring homomorphism
        assert pushforward(phi, convolve(f, g)).agrees_with(
            convolve(pushforward(phi, f), pushforward(phi, g)), G, G * N
        )
        # commutes with Adams
        assert pushforward(phi, adams(f, 2)).agrees_with(
            adams(pushforward(phi, f), 2), G, (G * N) // 2
        )
        # commutes with the plethystic logarithm
        big = CountingFunction.unit(fo, G, G * N) + f
        assert pushforward(phi, pleth_log(big)).agrees_with(
            pleth_log(pushforward(phi, big)), G, N
        )


def test_pushforward_commutes_with_log_to_grade_four():
    rng = random.Random(13)
    fo = FreeOrbitMonoid(affine_line_census(2, 4))
    phi = GradingMorphism(fo)
    G, N = 4, 1
    f = random_counting_function(fo, rng, G, G * N, per_level=2)
    big = CountingFunction.unit(fo, G, G * N) + f
    assert pushforward(phi, pleth_log(big)).agrees_with(
        pleth_log(pushforward(phi, big)), G, N
    )


def test_counting_function_json_round_trip():
    rng = random.Random(14)
    for mon in (DiscreteLattice(2), FreeOrbitMonoid(affine_line_census(2, 2))):
        f = random_counting_function(mon, rng, 2, 3, with_roots=True)
        import json

        text = json.dumps(f.to_json())
        g = CountingFunction.from_json(mon, 2, 3, json.loads(text))
        assert g.agrees_with(f, 2, 3)


def test_error_conditions():
    lat = DiscreteLattice(1)
    lat2 = DiscreteLattice(2)
    u = CountingFunction.unit(lat, 2, 4)
    with pytest.raises(NotAugmented):
        pleth_sym(u)
    with pytest.raises(NotAugmented):
        pleth_log(CountingFunction(lat, 2, 4))
    f = CountingFunction.unit(lat2, 2, 4)
    with pytest.raises(MonoidMismatch):
        convolve(u, f)
    with pytest.raises(MonoidMismatch):
        convolve(u, CountingFunction.unit(lat, 3, 4))
    # a vector-space monoid is a rank-1 lattice, but not the plain lattice
    v = CountingFunction.unit(LinearObjectsMonoid.vect(2), 2, 4)
    with pytest.raises(MonoidMismatch):
        convolve(u, v)
    with pytest.raises(MonoidMismatch):
        convolve(v, u)
    with pytest.raises(TruncationExceeded):
        adams(u, 5)
    with pytest.raises(TruncationExceeded):
        u.value((1,), 9)

    class NoFibers:
        sigma_finite = False
        source = lat
        target = lat2

    with pytest.raises(NotSigmaFinite):
        pushforward(NoFibers(), u)


def test_restricted_to_zero_bounds():
    """A zero bound cuts to zero, not to the function's own bound."""
    lat = DiscreteLattice(1)
    big = CountingFunction.unit(lat, 3, 2) + random_counting_function(lat, random.Random(5), 3, 2)
    low = big.restricted(grade_bound=0)
    assert low.grade_bound == 0 and low.level_bound == 2
    assert [(x, n) for x, n, _ in low.support()] == [((0,), 1), ((0,), 2)]
    none = big.restricted(level_bound=0)
    assert none.level_bound == 0 and not list(none.support())
    assert list(big.restricted().support()) == list(big.support())


def test_truncation_bookkeeping():
    lat = DiscreteLattice(1)
    f = random_counting_function(lat, random.Random(12), 3, 12)
    assert adams(f, 2).level_bound == 6
    assert pleth_sym(f).level_bound == 4
    big = CountingFunction.unit(lat, 3, 12) + f
    assert pleth_log(big).level_bound == 4
    assert log_direct(big).level_bound == 4


# -- evaluation at q^(1/2) = t0 commutes with the lambda-ring operations ------


def _evaluated_stacky_function(monoid, grade_bound, level_bound, t0):
    """The stacky counting function with q^(1/2) sent to t0, from integer
    point counts: over the level-n field the half Lefschetz class is
    s_n t0^n, where s_n = -1 exactly when n > 1 and b1 + b2 n is odd."""
    conv, arrows = monoid.conv, monoid.quiver.arrows.items()

    def value(x, n):
        half = F(-t0 ** n if n > 1 and (conv.b1 + conv.b2 * n) % 2 else t0 ** n)
        qn = t0 ** (2 * n)
        loops = sum(c * x[i] * x[j] for (i, j), c in arrows)
        aut = 1
        for a in x:
            aut *= qn ** (a * (a - 1) // 2)
            for i in range(1, a + 1):
                aut *= qn ** i - 1
        return half ** (sum(a * a for a in x) - loops) * F(qn ** loops, aut)

    return CountingFunction.from_callable(monoid, grade_bound, level_bound, value)


@st.composite
def _symmetric_quivers(draw):
    vertices = draw(st.integers(1, 2))
    arrows = [(i, i, draw(st.integers(0, 2))) for i in range(vertices)]
    if vertices == 2:
        c = draw(st.integers(0, 2))
        arrows += [(0, 1, c), (1, 0, c)]
    return Quiver(vertices, arrows)


@settings(max_examples=15)
@given(quiver=_symmetric_quivers(), t0=st.integers(2, 5),
       bits=st.sampled_from([(1, 1), (0, 0), (1, 0), (0, 1)]),
       grade=st.integers(1, 3), levels=st.integers(1, 2))
# the 2-loop quiver up to dimension 10 at 2 levels: the logarithm reads 50 of
# the 220 slots within truncation
@example(quiver=Quiver(1, [(0, 0, 2)]), t0=2, bits=(1, 1), grade=10, levels=2)
def test_evaluation_commutes_with_pleth_log(quiver, t0, bits, grade, levels):
    """ev(pleth_log F) = pleth_log(ev F) for the stacky counting function F of
    a symmetric quiver, with ev F computed independently from integer counts."""
    monoid = LinearObjectsMonoid(quiver, 2, HalfLConvention(*bits))
    budget = grade * levels
    f = stacky_counting_function(monoid, grade, budget)
    f_ev = _evaluated_stacky_function(monoid, grade, budget, t0)
    lg, lg_ev = pleth_log(f), pleth_log(f_ev)
    try:
        for x in monoid.fixed_elements(1, grade):
            for n in range(1, budget + 1):
                assert ev(f.value(x, n), t0) == f_ev.value(x, n)
            for n in range(1, levels + 1):
                assert ev(lg.value(x, n), t0) == lg_ev.value(x, n)
    except ZeroDivisionError:
        reject()
