import random
import pytest

from helpers import expand

from stacky_volumes.ratfun import (
    DegreePositive,
    InsufficientCoefficients,
    NoRationalFit,
    RationalFunctionFit,
    Series,
    fit_first,
    fit_rational,
)
from stacky_volumes.scalar import ExactScalar, q_power


def test_geometric_series_fit():
    fit = fit_rational(Series([1] * 10), 1, 1)
    assert fit.numerator == [ExactScalar.zero(), ExactScalar.one()]
    assert fit.limit_at_infinity() == -1


def test_shifted_linear_fit():
    fit = fit_rational(Series([r + 1 for r in range(1, 13)]), 1, 2)
    assert fit.numerator == [ExactScalar.zero(), ExactScalar.from_rational(2),
                             ExactScalar.from_rational(-1)]
    assert fit.limit_at_infinity() == -1


def test_half_point_series_fit():
    fit = fit_rational(Series([0, 1] * 6), 2, 1)
    assert fit.numerator == [ExactScalar.zero(), ExactScalar.zero(), ExactScalar.one()]
    assert fit.limit_at_infinity() == -1


def test_limit_positive_leading_ratio():
    fit = fit_rational(Series([r - 1 for r in range(1, 14)]), 1, 2)
    assert fit.limit_at_infinity() == 1


def test_zero_series():
    fit = fit_rational(Series([0] * 8), 1, 1)
    assert fit.numerator == []
    assert fit.limit_at_infinity() == 0
    assert expand(fit, 5) == Series([0] * 5)


def test_no_rational_fit():
    with pytest.raises(NoRationalFit):
        fit_rational(Series([2 ** r for r in range(1, 12)]), 1, 1)


def test_insufficient_coefficients():
    with pytest.raises(InsufficientCoefficients):
        fit_rational(Series([1, 1, 1]), 2, 3)


def test_degree_positive():
    bad = RationalFunctionFit([0, 0, 1], 1, 1, 0)  # T^2/(1-T)
    with pytest.raises(DegreePositive):
        bad.limit_at_infinity()


def test_round_trip_random_numerators():
    rng = random.Random(3)
    for _ in range(15):
        delta = rng.choice([1, 2, 3])
        big_d = rng.choice([0, 1, 2])
        deg = delta * big_d
        num = [ExactScalar.from_rational(rng.randint(-4, 4)) for _ in range(deg + 1)]
        num[0] = ExactScalar.zero()  # series have no constant term
        fit0 = RationalFunctionFit(num, delta, big_d, 0)
        order = delta * big_d + delta + 4
        series = expand(fit0, order)
        fit = fit_rational(series, delta, big_d)
        assert expand(fit, order) == series
        padded = list(fit.numerator) + [ExactScalar.zero()] * (len(num) - len(fit.numerator))
        trimmed = list(num)
        while trimmed and trimmed[-1].is_zero():
            trimmed.pop()
        assert fit.numerator == trimmed or padded == num


def test_shift_robustness_larger_big_d():
    series = Series([r + 1 for r in range(1, 20)])
    fit2 = fit_rational(series, 1, 2)
    fit3 = fit_rational(series, 1, 3)
    assert expand(fit2, 19) == expand(fit3, 19)
    assert fit2.limit_at_infinity() == fit3.limit_at_infinity()


def test_limit_invariant_under_common_factor():
    # multiply numerator and denominator by (1 - T^delta)
    series = Series([1] * 12)
    fit = fit_rational(series, 1, 1)
    num2 = [ExactScalar.zero()] * (len(fit.numerator) + 1)
    for k, c in enumerate(fit.numerator):
        num2[k] = num2[k] + c
        num2[k + 1] = num2[k + 1] - c
    fit2 = RationalFunctionFit(num2, 1, 2, fit.witnessed_order)
    assert fit2.limit_at_infinity() == fit.limit_at_infinity()


def test_symbolic_coefficient_fit():
    q = q_power(1)
    series = Series([2 * q_power(-1) + q_power(-1) / (q - 1) + (r - 1) / (q - 1)
                     for r in range(1, 10)])
    fit = fit_rational(series, 1, 2)
    assert -fit.limit_at_infinity() == q_power(-1)


def test_series_accessors():
    s = Series([5, 7])
    assert s.coeff(1) == 5 and s.coeff(2) == 7
    with pytest.raises(IndexError):
        s.coeff(3)
    with pytest.raises(IndexError):
        s.coeff(0)


def _recorded(series_of):
    """series_of, and the list of the orders it is called with."""
    calls = []

    def wrapped(order):
        calls.append(order)
        return series_of(order)

    return wrapped, calls


def test_fit_first_fits_on_the_second_rung():
    series_of, calls = _recorded(lambda order: Series([r + 1 for r in range(1, order + 1)]))
    fit = fit_first([(1, 1, 7), (1, 2, 9), (1, 3, 11)], series_of)
    assert (fit.delta, fit.big_d, fit.witnessed_order) == (1, 2, 9)
    assert fit.limit_at_infinity() == -1
    assert calls == [7, 9]


def test_fit_first_reraises_the_last_no_rational_fit():
    series_of, calls = _recorded(lambda order: Series([2 ** r for r in range(1, order + 1)]))
    with pytest.raises(NoRationalFit, match=r"delta=2, D=1"):
        fit_first([(1, 1, 8), (1, 2, 9), (2, 1, 10)], series_of)
    assert calls == [8, 9, 10]
