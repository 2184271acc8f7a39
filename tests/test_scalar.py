import math
import operator
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ZERO, CycNumber, dict_fraction, dict_scalar, euclid_normalize, ev,
                     form_scalar, padd, pmul, reference_arith, view)

from stacky_volumes import scalar
from stacky_volumes.scalar import (
    ExactScalar,
    HalfLConvention,
    format_rat,
    half_l_adams,
    half_l_level,
    q_power,
    root_of_unity,
)


def test_rat_serialization():
    assert format_rat(F(3, 4)) == "3/4"
    assert format_rat(F(-5, 1)) == "-5"
    for x in (F(7, 2), F(-3), F(0)):
        assert F(format_rat(x)) == x


def test_roots_of_unity_basics():
    assert root_of_unity(0) == ExactScalar.one()
    assert root_of_unity(F(1, 2)) == ExactScalar.from_rational(-1)
    assert root_of_unity(F(1, 3)) + root_of_unity(F(2, 3)) == ExactScalar.from_rational(-1)


def test_root_multiplicativity():
    for a, b in [(F(1, 3), F(1, 3)), (F(1, 4), F(1, 2)), (F(2, 5), F(4, 5)), (F(1, 6), F(1, 6))]:
        assert root_of_unity(a) * root_of_unity(b) == root_of_unity(a + b)


def _ordered_form(x):
    """x's integer form with every dict, nested ones included, as its list of
    items, so that comparing two forms compares key order too."""
    def ordered(p):
        return [(k, ordered(v)) for k, v in p.items()] if isinstance(p, dict) else p
    return [ordered(p) for p in (x._n, x._m, x._num, x._nd, x._den, x._dd)]


def test_root_of_unity_form_matches_the_cyc_number_path():
    """root_of_unity builds its integer form from the basis expansion; it is
    the form the general constructor makes from CycNumber.root, key order
    included."""
    for d in range(1, 61):
        for j in range(-d, 2 * d):
            a = F(j, d)
            ref = form_scalar({ZERO: CycNumber.root(a)})
            got = root_of_unity(a)
            assert _ordered_form(got) == _ordered_form(ref), a


def test_zeta_reduction_all_denominators_up_to_24():
    for d in range(1, 25):
        for k in range(d):
            assert root_of_unity(F(k, d)) ** d == ExactScalar.one()


def test_q_power_group_law():
    assert q_power(0) == ExactScalar.one()
    assert q_power(F(1, 2)) * q_power(F(1, 2)) == q_power(1)
    assert q_power(F(-1, 2)) * q_power(F(3, 2)) == q_power(1)


def test_eval_numeric_examples():
    assert abs(root_of_unity(F(1, 2)).eval_numeric(5) - (-1.0)) < 1e-12
    assert abs(q_power(-1).eval_numeric(3) - (1 / 3)) < 1e-12
    assert abs(q_power(F(-1, 2)).eval_numeric(9) - (1 / 3)) < 1e-12
    assert abs((q_power(F(1, 2)) - q_power(F(-1, 2))).eval_numeric(4) - 1.5) < 1e-12


def test_eval_numeric_is_a_ring_homomorphism():
    rng = random.Random(11)
    pool = [
        q_power(F(1, 2)),
        q_power(-1),
        root_of_unity(F(1, 3)),
        ExactScalar.from_rational(F(2, 3)),
        q_power(2) + root_of_unity(F(1, 4)),
    ]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        q0 = rng.choice([2.0, 3.0, 5.5])
        lhs = (a * b).eval_numeric(q0)
        rhs = a.eval_numeric(q0) * b.eval_numeric(q0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        lhs = (a + b).eval_numeric(q0)
        rhs = a.eval_numeric(q0) + b.eval_numeric(q0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_field_division_and_normal_form():
    q = q_power(1)
    v = 2 * q_power(-1) + (q_power(-1) - 1) / (q - 1)
    assert v == q_power(-1)
    x = (q ** 2 - 1) / (q - 1)
    assert x == q + 1
    y = (q_power(F(1, 2)) - q_power(F(-1, 2)))
    assert ExactScalar.one() / y == q_power(F(1, 2)) / (q - 1)
    with pytest.raises(ZeroDivisionError):
        ExactScalar.one() / ExactScalar.zero()


def test_canonical_form_vs_numeric_probe():
    # structural equality must coincide with agreement at three numeric points
    rng = random.Random(5)
    atoms = [
        ExactScalar.from_rational(F(1, 2)),
        q_power(1),
        q_power(F(-1, 2)),
        root_of_unity(F(1, 3)),
        q_power(1) - 1,
    ]
    for _ in range(40):
        parts = [rng.choice(atoms) for _ in range(4)]
        e1 = (parts[0] + parts[1]) * (parts[2] + parts[3])
        shuffled = parts[:]
        rng.shuffle(shuffled)
        e2 = (shuffled[0] + shuffled[1]) * (shuffled[2] + shuffled[3])
        same_numeric = all(
            abs(e1.eval_numeric(q0) - e2.eval_numeric(q0)) < 1e-8
            for q0 in (2.0, 3.0, 4.7)
        )
        assert (e1 == e2) == same_numeric


def test_ring_laws_randomized():
    rng = random.Random(21)
    pool = [
        ExactScalar.from_rational(F(-2, 3)),
        q_power(F(1, 2)),
        q_power(-1) + 1,
        root_of_unity(F(1, 3)),
        (q_power(1) - 1) / (q_power(1) + 2),
    ]
    for _ in range(30):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_half_l_levels_default_convention():
    assert half_l_level(1) == q_power(F(1, 2))
    assert half_l_level(2) == -q_power(1)
    assert half_l_level(3) == q_power(F(3, 2))
    assert half_l_level(4) == -q_power(2)


def test_half_l_adams_relation_for_coherent_bits():
    for conv in (HalfLConvention(1, 1), HalfLConvention(0, 0)):
        for m in range(1, 5):
            for n in range(1, 4):
                sign = (-1) ** ((conv.b1 + conv.b2 * m) % 2)
                assert half_l_level(m * n, conv) == half_l_level(n, conv) ** m * sign


def test_half_l_square_is_lefschetz_any_bits():
    for b1 in (0, 1):
        for b2 in (0, 1):
            conv = HalfLConvention(b1, b2)
            for n in range(1, 7):
                assert half_l_level(n, conv) ** 2 == q_power(n)


@pytest.mark.parametrize("bits", [(1, 1), (0, 0), (1, 0), (0, 1)])
def test_half_l_adams_substitutes_the_level_n_half_lefschetz(bits):
    """psi_n is the ring map q^(1/2) -> half_l_level(n), on the numerator and
    the denominator alike, and keeps the form's term order."""
    conv = HalfLConvention(*bits)
    t = q_power(F(1, 2))
    x = (t**3 * 2 - 1 + t * F(1, 3)) / (t * 3 + t**4 - 5)
    for n in range(1, 5):
        h = half_l_level(n, conv)
        assert half_l_adams(t, n, conv) == h
        y = half_l_adams(x, n, conv)
        assert y == (h**3 * 2 - 1 + h * F(1, 3)) / (h * 3 + h**4 - 5)
        assert [k // n for k in y._num] == list(x._num)
    for bad in (q_power(F(1, 3)), root_of_unity(F(1, 3)) * t):
        with pytest.raises(ValueError):
            half_l_adams(bad, 2, conv)


def test_convention_bit_validation():
    with pytest.raises(ValueError):
        HalfLConvention(2, 0)


def test_json_round_trip():
    values = [
        ExactScalar.zero(),
        ExactScalar.one(),
        q_power(F(-5, 3)) * 7,
        root_of_unity(F(1, 3)) * q_power(F(1, 2)) + 2,
        (q_power(1) + 1) / (q_power(2) - q_power(1) + 3),
    ]
    for v in values:
        assert ExactScalar.from_json(v.to_json()) == v


def test_hash_consistency():
    a = (q_power(2) - 1) / (q_power(1) - 1)
    b = q_power(1) + 1
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_zero_key_lookups_whatever_made_the_key():
    """The int 0 finds a zero Fraction key however the key was made."""
    half = F(1, 2)
    c = CycNumber({half - half: F(3, 2)})
    made = {
        "from_json": ExactScalar.from_json([{"zeta": "0", "qexp": "0", "coeff": ["3/2"]}]),
        "arithmetic": form_scalar({half - half: c}),
        "product": q_power(half) * q_power(-half) * F(3, 2),
        "normalize": dict_scalar({F(1): c, F(0): c}, {F(1): CycNumber({ZERO: F(1)}),
                                                     F(0): CycNumber({ZERO: F(1)})}),
    }
    three_halves = ExactScalar.from_rational(F(3, 2))
    for how, s in made.items():
        assert all(type(e) is F for p in (s.num, s.den) for e in p), how
        assert s.is_laurent(), how
        assert s.as_rational() == F(3, 2), how
        (cyc,) = s.num.values()
        assert cyc.is_rational() and cyc.as_rational() == F(3, 2), how
        assert str(s) == str(three_halves) and hash(s) == hash(three_halves), how
    for s in (root_of_unity(F(1, 3)), q_power(half), (q_power(1) + 1) / (q_power(1) + 2)):
        with pytest.raises(ValueError):
            s.as_rational()
    assert not root_of_unity(F(1, 3)).num[ZERO].is_rational()
    assert not ((q_power(1) + 1) / (q_power(1) + 2)).is_laurent()


def test_cyc_number_drops_zero_coefficients():
    half = F(1, 2)
    assert CycNumber({ZERO: F(0), F(1, 3): F(2)}).terms == {F(1, 3): F(2)}
    assert CycNumber({half - half: F(0)}).is_zero()
    assert CycNumber({half - half: F(0)}).as_rational() == 0
    r = CycNumber.root(F(1, 3))
    assert (r - r).terms == {} and (r + (-r)).is_zero()
    assert (CycNumber.from_rational(2) + CycNumber.from_rational(-2)).terms == {}
    terms = {F(1, 3): F(2)}
    assert CycNumber(terms).terms is terms


def test_pow_negative_exponent():
    x = q_power(1) - 1
    assert x ** -2 == ExactScalar.one() / (x * x)
    assert (q_power(F(1, 2)) ** 4) == q_power(2)


def test_substitute_q():
    v = q_power(F(5, 2)) + q_power(2) / (q_power(1) - 1)
    w = v.substitute_q(3)
    # 9 q^(1/2) + 9/2: integer exponents substituted, half power stays formal
    assert w == 9 * q_power(F(1, 2)) + ExactScalar.from_rational(F(9, 2))
    assert abs(w.eval_numeric(3) - v.eval_numeric(3)) < 1e-10


# -- the normal-form kernel against the Euclid oracle and sympy ---------------

T = sympy.Symbol("t")
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _qpoly(coeffs, n):
    """{k: c} in t = q^(1/n) as a scalar polynomial {k/n: c}, keys in order."""
    return {F(k, n): CycNumber.from_rational(c) for k, c in coeffs.items() if c}


def _sympy(p, n):
    """(f, v) with p = t^v f(t), f a sympy polynomial with f(0) != 0."""
    terms = {int(e * n): sympy.Rational(c.as_rational()) for e, c in p.items()}
    v = min(terms)
    return sympy.Poly.from_dict({(k - v,): c for k, c in terms.items()}, T, domain="QQ"), v


def _no_fallback(*_):
    raise AssertionError("GCDHEU gave up on rational coefficients")


def _normalize(num, den):
    """The normal form of num / den as dict_scalar makes it, as dicts."""
    return view(dict_scalar(num, den))


def _check_normal_form(num, den, n):
    """_normalize(num, den) against the Euclid oracle (values and key order)
    and against sympy's cancel (the same reduced fraction)."""
    out = _normalize(num, den)
    ref = euclid_normalize(num, den)
    for got, want in zip(out, ref):
        assert list(got.items()) == list(want.items())
    (fn, vn), (fd, vd) = _sympy(num, n), _sympy(den, n)
    (on, von), (od, vod) = _sympy(out[0], n), _sympy(out[1], n)
    assert von - vod == vn - vd and vod == 0
    assert on * fd == od * fn
    p, q = fn.cancel(fd)[-2:]
    assert (on.degree(), od.degree()) == (p.degree(), q.degree())
    return out


@st.composite
def _rational_fractions(draw, n, rat=None):
    if rat is None:
        coeff = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12)).filter(bool)
        rat = st.builds(F, coeff, st.integers(1, 12))

    def poly():
        terms = draw(st.dictionaries(st.integers(-3, 3 * n), rat, min_size=1, max_size=5))
        return _qpoly(terms, n)

    num, den = poly(), poly()
    for k in draw(st.lists(st.integers(1, 2 * n), max_size=3)):
        shared = _qpoly({k: 1, 0: draw(st.sampled_from([-1, 1]))}, n)
        num, den = pmul(num, shared), pmul(den, shared)
    return num, den


@pytest.mark.parametrize("n", [2, 6])
@settings(max_examples=100)
@given(data=st.data())
def test_normalize_matches_euclid_and_sympy(n, data):
    num, den = data.draw(_rational_fractions(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "_zz_prsgcd", _no_fallback)
        _check_normal_form(num, den, n)


def test_normalize_gcd_one_keeps_key_order(monkeypatch):
    monkeypatch.setattr(scalar, "_zz_prsgcd", _no_fallback)
    num = _qpoly({1: 3, 0: 10**7, 5: -2}, 2)
    den = _qpoly({2: 1, 0: -2}, 2)
    out_num, out_den = _check_normal_form(num, den, 2)
    assert list(out_num) == [F(1, 2), 0, F(5, 2)]
    assert list(out_den.items()) == list(_qpoly({2: F(-1, 2), 0: 1}, 2).items())


def test_normalize_cancels_cyclotomic_gcd_large_coefficients(monkeypatch):
    monkeypatch.setattr(scalar, "_zz_prsgcd", _no_fallback)
    # t = q^(1/6); gcd = Phi_3(t) * Phi_4(t) * Phi_12(t)
    a = _qpoly({0: -7, 1: 3, 2: 10**6}, 6)
    b = _qpoly({3: 2, 0: -5 * 10**6 + 1}, 6)
    g = pmul(pmul(_qpoly({2: 1, 1: 1, 0: 1}, 6), _qpoly({0: 1, 2: 1}, 6)),
             _qpoly({4: 1, 2: -1, 0: 1}, 6))
    out_num, out_den = _check_normal_form(pmul(a, g), pmul(b, g), 6)
    assert list(out_num) == [F(2, 6), F(1, 6), 0]
    assert list(out_den) == [F(3, 6), 0]
    assert out_den[0] == CycNumber.from_rational(1)


def test_normalize_huge_coefficients_and_shift(monkeypatch):
    monkeypatch.setattr(scalar, "_zz_prsgcd", _no_fallback)
    big = 10**40 + 7
    g = _qpoly({0: -1, 3: 1}, 2)
    num = pmul(_qpoly({-1: big, 4: F(1, big)}, 2), g)
    den = pmul(_qpoly({1: 3, 2: -big}, 2), g)
    _check_normal_form(num, den, 2)


def test_normalize_cyclotomic_denominator_by_its_norm():
    one = CycNumber.from_rational(1)
    z3 = CycNumber.root(F(1, 3))
    # (q - zeta_3) / (q^2 - zeta_3^2) = 1 / (q + zeta_3) = (q + zeta_3^2) / (q^2 - q + 1)
    num = {F(1): one, F(0): -z3}
    den = {F(2): one, F(0): -CycNumber.root(F(2, 3))}
    out = _normalize(num, den)
    assert [list(p.items()) for p in out] == [
        [(F(1), one), (F(0), CycNumber.from_rational(-1) - z3)],
        list(_qpoly({2: 1, 1: -1, 0: 1}, 1).items())]
    assert dict_scalar(num, den) == ExactScalar.one() / (q_power(1) + root_of_unity(F(1, 3)))


def test_normalize_falls_back_to_prs_when_gcdheu_gives_up(monkeypatch):
    monkeypatch.setattr(scalar, "_zz_heugcd", lambda f, g: None)
    g = _qpoly({0: 1, 1: 1, 2: 1}, 2)
    _check_normal_form(pmul(_qpoly({0: 5, 3: 1}, 2), g), pmul(_qpoly({1: 2, 0: -3}, 2), g), 2)


def test_normalize_cyclotomic_numerator_when_gcdheu_gives_up(monkeypatch):
    monkeypatch.setattr(scalar, "_zz_heugcd", lambda f, g: None)
    # a rational gcd Phi_3(q^(1/2)) under a numerator over Q(zeta_3): the
    # Euclid oracle's form, keys and basis terms in its order
    g = _qpoly({0: 1, 1: 1, 2: 1}, 2)
    z3 = {F(1, 2): CycNumber.root(F(1, 3)).scale(3), F(0): CycNumber.from_rational(-2)}
    num, den = pmul(pmul(_qpoly({0: 5, 3: 1}, 2), z3), g), pmul(_qpoly({1: 2, 0: -3}, 2), g)
    out = _normalize(num, den)
    assert _terms_in_order(form_scalar(*out)) == _terms_in_order(
        form_scalar(*euclid_normalize(num, den)))
    assert len(out[1]) == 2


@pytest.mark.parametrize("case", ["fractions", "unit_coefficients", "laurent", "root_of_unity",
                                  "gcdheu_gives_up"])
@settings(max_examples=40)
@given(data=st.data())
def test_arithmetic_matches_dict_path(case, data):
    """+, -, * and / against the dict path (reference_arith): equal values,
    and, where the oracle's denominator is rational, the same form with the
    same key order in numerator and denominator."""
    # The oracle's Euclid swells coefficients, over Q(zeta_3)[t] the most: keep
    # degrees low in the root_of_unity and gcdheu_gives_up cases, and
    # coefficients small at the higher degrees of t = q^(1/6) and over
    # Q(zeta_3).  Coefficients +-1 make running sums cancel and come back
    # within a product.
    low_degree = case in ("root_of_unity", "gcdheu_gives_up")
    n = 2 if low_degree else data.draw(st.sampled_from([2, 6]))
    rat = {"unit_coefficients": st.sampled_from([F(-1), F(1)]),
           "root_of_unity": st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 4))}
    small = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 12))
    fractions = _rational_fractions(n, rat.get(case, small if n == 6 else None))
    a, b = (dict_scalar(*data.draw(fractions)) for _ in range(2))
    if case == "laurent":
        b = dict_scalar(view(b)[0])
    elif case == "root_of_unity":
        b = b * root_of_unity(F(1, 3))
    if data.draw(st.booleans()):
        a, b = b, a
    op = data.draw(st.sampled_from("+-*/"))
    with pytest.MonkeyPatch.context() as mp:
        if case == "gcdheu_gives_up":
            mp.setattr(scalar, "_zz_heugcd", lambda f, g: None)
        got = _OPS[op](a, b)
        want = reference_arith(op, a, b)
    (gn, gd), (wn, wd) = view(got), view(want)
    if _rational_den(want):
        assert got == want
        assert list(gn.items()) == list(wn.items())
        assert list(gd.items()) == list(wd.items())
    else:
        assert pmul(gn, wd) == pmul(wn, gd)


def test_arithmetic_reinserts_cancelled_keys_last():
    # (q^-1 + 1 + q)(q - 1 + q^2) in that term order: the q^1 sum cancels at
    # the second row and comes back at the third, so it goes last
    a = dict_scalar(_qpoly({0: 1, 1: 1, -1: 1}, 1), _qpoly({1: 1, 0: -2}, 1))
    b = dict_scalar(_qpoly({1: 1, 0: -1, 2: 1}, 1))
    got, want = a * b, reference_arith("*", a, b)
    assert got == want and list(view(got)[0].items()) == list(view(want)[0].items())
    assert list(got.num) == [F(2), F(3), F(-1), F(1)]


# -- the integer form against the dict path ---------------------------------------

_CONDUCTORS = [1, 2, 3, 4, 5, 8, 12, 15]


@st.composite
def _mixed_scalars(draw, conductors):
    """A value with roots of unity of the given orders, exponents in (1/n)Z
    for one n in 1, 2, 3, and, at times, a rational denominator.  Exponents
    and coefficients are few, so that running sums cancel and come back."""
    n = draw(st.sampled_from([1, 2, 3]))
    terms = [{F(k, n): CycNumber.root(F(j, m)).scale(c)}
             for k, c, m, j in draw(st.lists(st.tuples(
                 st.integers(-2, 2), st.sampled_from([-1, 1]), st.sampled_from(conductors),
                 st.integers(0, 14)), min_size=1, max_size=4))]
    num = {}
    for t in terms:
        num = padd(num, t)
    if draw(st.integers(0, 3)):
        return dict_scalar(num)
    n = draw(st.sampled_from([1, 2, 3]))
    return dict_scalar(num, _qpoly({n: 1, 0: draw(st.sampled_from([-1, 1, 2]))}, n))


def _reference_pow(a, k):
    """a ** k by reference_arith, in the square-and-multiply order of __pow__."""
    if k < 0:
        return _reference_pow(reference_arith("/", ExactScalar.one(), a), -k)
    out, base = ExactScalar.one(), a
    while k:
        if k & 1:
            out = reference_arith("*", out, base)
        base = reference_arith("*", base, base)
        k >>= 1
    return out


def _terms_in_order(x):
    return [[(e, list(c.terms.items())) for e, c in p.items()] for p in view(x)]


def _rational_den(x):
    return all(c.is_rational() for c in x.den.values())


@settings(max_examples=150)
@given(op=st.sampled_from(["+", "-", "*", "/", "**"]), k=st.integers(-2, 3), data=st.data())
def test_integer_form_matches_dict_path_mixed_conductors(op, k, data):
    """+, -, *, / and ** over mixed conductors and exponent denominators
    against the dict path: equal values, and, where the oracle's denominator
    is rational, the same q-exponent keys in the same order, and every
    coefficient's basis terms in the same order."""
    conductors = data.draw(st.sampled_from([[1, 2], [3], [4, 8], [5], _CONDUCTORS]))
    a, b = data.draw(_mixed_scalars(conductors)), data.draw(_mixed_scalars(conductors))
    if op == "**":
        if k < 0 and a.is_zero():
            return
        got, want = a ** k, _reference_pow(a, k)
    else:
        if op == "/" and b.is_zero():
            return
        got = _OPS[op](a, b)
        want = reference_arith(op, a, b)
    if _rational_den(want):
        assert got == want and str(got) == str(want) and hash(got) == hash(want)
        assert _terms_in_order(got) == _terms_in_order(want)
    else:
        (gn, gd), (wn, wd) = view(got), view(want)
        assert pmul(gn, wd) == pmul(wn, gd)


@st.composite
def _laurent_forms(draw, n, m):
    """A Laurent polynomial at exponent denominator n and conductor m: random
    integer coefficients on the basis roots of Q(zeta_m), over a random
    integer denominator, in _laurent's normal form."""
    basis = [j for j in range(m) if scalar._expansion(j, m) == ((j, 1),)]
    num = {}
    for k in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True)):
        c = {j: draw(st.integers(-3, 3).filter(bool)) for j in draw(
            st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))}
        num[k] = c if m > 1 else c[0]
    return scalar._new(scalar._laurent(n, m, num, draw(st.integers(1, 6))))


def _form(x):
    """The integer form of x with every key and basis term in its order."""
    return (x._n, x._m, [(k, list(c.items()) if x._m > 1 else c) for k, c in x._num.items()],
            x._nd, [(k, list(c.items()) if x._m > 1 else c) for k, c in x._den.items()], x._dd)


@settings(max_examples=100)
@given(data=st.data(), n=st.sampled_from([1, 2]), m=st.sampled_from([1, 3, 4, 12]),
       c=st.fractions(-5, 5, max_denominator=6))
def test_rational_times_laurent_matches_the_lift_path(data, n, m, c):
    """A rational constant times a Laurent polynomial, on either side, skips
    the lift and the product of polynomials, and builds the form they build."""
    x, r = data.draw(_laurent_forms(n, m)), ExactScalar.from_rational(c)
    for a, b in ((r, x), (x, r)):
        nn, mm, an, _, bn, _ = scalar._lifted(a, b)
        want = scalar._laurent(nn, mm, scalar._zz_mul(an, bn, scalar._ring(mm)), a._nd * b._nd)
        assert _form(a * b) == _form(scalar._new(want))


@st.composite
def _cyclotomic_fractions(draw):
    """A value over Q(zeta_m), m in 3, 4, 5, 12, in t = q^(1/n), n in 1, 2,
    whose denominator has a primitive m-th root of unity among its
    coefficients and at least two terms; at times num and den share a
    factor t + zeta_m^j."""
    m, n = draw(st.sampled_from([3, 4, 5, 12])), draw(st.sampled_from([1, 2]))
    roots = st.sampled_from([j for j in range(m) if math.gcd(j, m) == 1])

    def poly(k):
        out = {}
        for e, c, j in draw(st.lists(st.tuples(st.integers(0, 2 * n), st.integers(-3, 3).filter(
                bool), st.integers(0, m - 1)), min_size=1, max_size=3)):
            out = padd(out, {F(e - k, n): CycNumber.root(F(j, m)).scale(c)})
        return out

    num = poly(draw(st.integers(0, 2)))
    den = padd(poly(0), {F(draw(st.integers(1, 2 * n)), n): CycNumber.from_rational(1),
                         ZERO: CycNumber.root(F(draw(roots), m)).scale(draw(st.sampled_from([-2, 1])))})
    if len(den) < 2 or all(c.is_rational() for c in den.values()):
        den = {F(1, n): CycNumber.from_rational(1), ZERO: CycNumber.root(F(draw(roots), m))}
    if num and draw(st.booleans()):
        shared = {F(1, n): CycNumber.from_rational(1), ZERO: CycNumber.root(F(draw(roots), m))}
        num, den = pmul(num, shared), pmul(den, shared)
    return dict_scalar(num, den)


@settings(max_examples=20)
@given(data=st.data(), t0=st.integers(2, 5))
def test_cyclotomic_denominators_reduce_over_the_integers(data, t0):
    """Values with cyclotomic coefficients and denominators of more than one
    term: the operands of test_arithmetic_matches_dict_path at full size
    (coefficients up to 10^12/12, t = q^(1/2) or q^(1/6)) with one of them
    times zeta_3, and values over mixed conductors 3, 4, 5 and 12 with
    cyclotomic denominators.  The result's denominator is rational with
    lowest term 1, the form is stable, and the value agrees with the dict
    path's unreduced fraction and, for t = q^(1/2), under ev."""
    if data.draw(st.booleans()):
        n = data.draw(st.sampled_from([2, 6]))
        a, b = (dict_scalar(*data.draw(_rational_fractions(n))) for _ in range(2))
        b = b * root_of_unity(F(1, 3))
    else:
        a, b = data.draw(_cyclotomic_fractions()), data.draw(_cyclotomic_fractions())
    if data.draw(st.booleans()):
        a, b = b, a
    op = data.draw(st.sampled_from("+-*/"))
    if op == "/" and b.is_zero():
        return
    got = _OPS[op](a, b)
    assert _rational_den(got) and got.den[ZERO] == 1
    assert dict_scalar(*view(got)) == got
    num, den = dict_fraction(op, a, b)
    assert pmul(view(got)[0], den) == pmul(num, view(got)[1])
    try:
        want = _OPS[op](ev(a, t0), ev(b, t0))
    except (ValueError, ZeroDivisionError):  # an exponent not in Z/2, or a pole
        return
    assert ev(got, t0) == want


def test_cyclotomic_arithmetic_reinserts_cancelled_keys_last():
    # the q^1 sum cancels at the second row and comes back at the third, as
    # in test_arithmetic_reinserts_cancelled_keys_last, with coefficients in
    # Z[zeta_12]; the zeta_4 zeta_3 products expand over two basis roots
    z3, z4 = root_of_unity(F(1, 3)), root_of_unity(F(1, 4))
    a = dict_scalar(_qpoly({0: 1, 1: 1, -1: 1}, 1)) * z3
    b = dict_scalar(_qpoly({1: 1, 0: -1, 2: 1}, 1)) * (z4 + z3 * z3)
    got, want = a * b, reference_arith("*", a, b)
    assert got == want and _terms_in_order(got) == _terms_in_order(want)
    assert list(got.num) == [F(2), F(3), F(-1), F(1)]


def test_equal_values_from_different_histories_encode_alike():
    one = ExactScalar.one()
    pairs = [
        (root_of_unity(F(1, 4)) * root_of_unity(F(1, 4)), -one),
        (q_power(F(1, 2)) * q_power(F(1, 2)), q_power(1)),
        (root_of_unity(F(1, 12)) ** 4, root_of_unity(F(1, 3))),
        (root_of_unity(F(1, 6)) ** 3, -one),
        ((q_power(F(1, 2)) * root_of_unity(F(1, 12)) ** 4 + 1) * q_power(F(1, 2)),
         q_power(1) * root_of_unity(F(1, 3)) + q_power(F(1, 2))),
    ]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b) and a.to_json() == b.to_json()
        assert str(a) == str(b)
    assert len({a for pair in pairs for a in pair}) == 4


def test_forms_are_not_kept_least():
    # equal values at different (n, m) hash, render and serialize alike
    z3, z4 = root_of_unity(F(1, 3)), root_of_unity(F(1, 4))
    for a, b, form in [(q_power(F(1, 2)) ** 2, q_power(1), (2, 1)),
                       (z3 * z4 * (1 / z4), z3, (1, 12))]:
        assert (a._n, a._m) == form != (b._n, b._m)
        assert a == b and hash(a) == hash(b) and str(a) == str(b) and a.to_json() == b.to_json()


@settings(max_examples=100)
@given(data=st.data(), k=st.integers(1, 6), j=st.sampled_from([1, 3, 4, 5, 8]))
def test_equal_values_at_larger_forms_hash_and_render_alike(data, k, j):
    """x and x lifted to a larger (n, m) by q^(1/k) q^(-1/k) zeta_j / zeta_j:
    equal, with equal hash, str and to_json, and from_json of either
    rendering reads back the value."""
    x = data.draw(st.one_of(_mixed_scalars(_CONDUCTORS), _cyclotomic_fractions()))
    z = root_of_unity(F(1, j))
    y = x * q_power(F(1, k)) * q_power(F(-1, k)) * z / z
    assert y == x and hash(y) == hash(x) and str(y) == str(x) and y.to_json() == x.to_json()
    assert ExactScalar.from_json(y.to_json()) == x


def _view_eval(x, q0):
    """x at q0 through the dict view: each CycNumber's basis terms summed,
    then the terms, in the view's order."""
    num, den = (sum((c.eval_complex() * math.exp(e * math.log(q0)) for e, c in p.items()), 0j)
                for p in view(x))
    return num / den


@settings(max_examples=150)
@given(data=st.data(), op=st.sampled_from("+-*/"), q0=st.sampled_from([2, 3, 5, 0.5, 7.25]))
def test_eval_numeric_matches_the_dict_view_bit_for_bit(data, op, q0):
    scalars = st.one_of(_mixed_scalars(_CONDUCTORS), _cyclotomic_fractions())
    a, b = data.draw(scalars), data.draw(scalars)
    if op == "/" and b.is_zero():
        return
    x = _OPS[op](a, b)
    try:
        want = _view_eval(x, q0)
    except ZeroDivisionError:  # a pole at q0
        with pytest.raises(ZeroDivisionError):
            x.eval_numeric(q0)
        return
    assert repr(x.eval_numeric(q0)) == repr(want)
