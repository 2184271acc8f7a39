"""Truncated power series over ExactScalar and rational-function fitting with
denominators (1 - T^delta)^D, plus the exact limit at T -> infinity.

The fit is interpolation followed by verification: multiplying the series by
the denominator must truncate to a polynomial of degree <= delta*D, and every
further coefficient up to the truncation order must vanish.  Any mismatch is
reported, never smoothed over.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import ExactScalar


class RatfunError(Exception):
    pass


class NoRationalFit(RatfunError):
    """Verification coefficients disagree: wrong (delta, D) ansatz or a
    non-rational series."""


class InsufficientCoefficients(RatfunError):
    """Fewer series coefficients than needed to solve and verify."""


class DegreePositive(RatfunError):
    """deg(numerator) > delta*D: no limit at infinity."""


def _coerce(x) -> ExactScalar:
    return x if isinstance(x, ExactScalar) else ExactScalar.from_rational(x)


class Series:
    """Power series truncation: coefficients of T^1 .. T^R (no constant term)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [_coerce(c) for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, r: int) -> ExactScalar:
        if not 1 <= r <= len(self.coeffs):
            raise IndexError(f"coefficient T^{r} beyond truncation {len(self.coeffs)}")
        return self.coeffs[r - 1]

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"Series([{head}{tail}] to order {len(self.coeffs)})"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


class RationalFunctionFit:
    """g(T) / (1 - T^delta)^D with the fit witnessed against a series prefix."""

    __slots__ = ("numerator", "delta", "big_d", "witnessed_order")

    def __init__(self, numerator, delta: int, big_d: int, witnessed_order: int):
        numerator = [_coerce(c) for c in numerator]
        while numerator and numerator[-1].is_zero():
            numerator.pop()
        self.numerator = numerator
        self.delta = delta
        self.big_d = big_d
        self.witnessed_order = witnessed_order

    def degree(self) -> int:
        """Degree of the numerator, -1 for the zero numerator."""
        return len(self.numerator) - 1

    def limit_at_infinity(self) -> ExactScalar:
        """lim_{T->inf}: 0 if deg < delta*D, signed leading ratio if equal."""
        d = self.degree()
        top = self.delta * self.big_d
        if d < top:
            return ExactScalar.zero()
        if d > top:
            raise DegreePositive(
                f"numerator degree {d} exceeds delta*D = {top}; series grows too fast"
            )
        sign = 1 if self.big_d % 2 == 0 else -1
        return self.numerator[-1] * sign

    def __str__(self):
        terms = []
        for k, c in enumerate(self.numerator):
            if c.is_zero():
                continue
            cs = str(c)
            if " " in cs or cs.startswith("-"):
                cs = f"({cs})"
            terms.append(cs if k == 0 else (f"{cs}*T^{k}" if cs != "1" else f"T^{k}"))
        num = " + ".join(terms) if terms else "0"
        return f"({num}) / (1 - T^{self.delta})^{self.big_d}"

    def to_json(self):
        return {
            "numerator": [c.to_json() for c in self.numerator],
            "delta": self.delta,
            "D": self.big_d,
            "witnessed_order": self.witnessed_order,
            "display": str(self),
        }


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def min_order(delta: int, big_d: int) -> int:
    """The fewest series coefficients fit_rational accepts for (delta, D)."""
    return delta * big_d + delta + 2


def fit_rational(series: Series, delta: int, big_d: int) -> RationalFunctionFit:
    """Fit series = g(T)/(1-T^delta)^D with deg g <= delta*D, verifying every
    coefficient of the given truncation."""
    if delta < 1 or big_d < 0:
        raise ValueError("need delta >= 1 and D >= 0")
    r_max = series.order
    need = min_order(delta, big_d)
    if r_max < need:
        raise InsufficientCoefficients(
            f"need at least {need} coefficients for delta={delta}, D={big_d}; got {r_max}"
        )
    # g = series * (1 - T^delta)^D, computed to full order.
    den = {j * delta: Fraction((-1) ** j * _binom(big_d, j)) for j in range(big_d + 1)}
    g = [ExactScalar.zero()] * (r_max + 1)
    for r in range(1, r_max + 1):
        acc = ExactScalar.zero()
        for k, c in den.items():
            if k >= r:  # series has no T^0 term
                continue
            acc = acc + series.coeff(r - k) * c
        g[r] = acc
    top = delta * big_d
    for r in range(top + 1, r_max + 1):
        if not g[r].is_zero():
            raise NoRationalFit(
                f"coefficient of T^{r} does not match the (delta={delta}, D={big_d}) ansatz"
            )
    return RationalFunctionFit(g[: top + 1], delta, big_d, r_max)


def fit_first(ladder, series_of) -> RationalFunctionFit:
    """Fit series_of(order) on the first (delta, D, order) of the ladder that
    fits; re-raise the last NoRationalFit when none does."""
    for delta, big_d, order in ladder:
        series = series_of(order)
        try:
            return fit_rational(series, delta, big_d)
        except NoRationalFit as exc:
            last = exc
    raise last
