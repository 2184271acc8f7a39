"""Shared test utilities: random scalars, random counting functions, the
brute-force addition and trace fibres that define convolution and Adams
operations, the all-pairs reference convolution, the independent truncated
Euler-product oracle for quiver BPS invariants, the Taylor expansion of a
rational-function fit, the Euclid-only scalar normal form, evaluation at
q^(1/2) = t0, and the per-prefix dilated lattice-point count."""

import itertools
import math
from fractions import Fraction

import numpy as np

from stacky_volumes.lambdaring import CountingFunction, mobius
from stacky_volumes.monoids import FreeOrbitMonoid
from stacky_volumes.ratfun import Series
from stacky_volumes.scalar import (
    DEFAULT_CONVENTION,
    ZERO,
    CycNumber,
    ExactScalar,
    _int_poly,
    _poly_divmod,
    _poly_gcd,
    half_l_level,
    half_l_power,
    q_power,
    root_of_unity,
)

_CYC_ONE = CycNumber.from_rational(1)


def random_scalar(rng, with_roots=False) -> ExactScalar:
    c = rng.randint(-3, 3)
    if c == 0:
        c = 1
    e = rng.choice([0, 1, -1, Fraction(1, 2)])
    out = ExactScalar.from_rational(c) * q_power(e)
    if with_roots and rng.random() < 0.3:
        out = out * root_of_unity(Fraction(1, rng.choice([2, 3, 4])))
    return out


def random_fixed_element(monoid, rng, n, grade_bound):
    if isinstance(monoid, FreeOrbitMonoid):
        atoms = monoid.atoms(n, grade_bound)
        x = monoid.zero()
        budget = grade_bound
        for _ in range(rng.randint(1, grade_bound)):
            options = [a for a in atoms if monoid.grade(a) <= budget]
            if not options:
                break
            a = rng.choice(options)
            x = monoid.add(x, a)
            budget -= monoid.grade(a)
        return x
    rank = len(monoid.zero())
    total = rng.randint(1, grade_bound)
    out = [0] * rank
    for _ in range(total):
        out[rng.randrange(rank)] += 1
    return tuple(out)


def random_counting_function(monoid, rng, grade_bound, level_bound,
                             per_level=3, with_roots=False) -> CountingFunction:
    """Sparse random function vanishing at the zero element."""
    f = CountingFunction(monoid, grade_bound, level_bound)
    for n in range(1, level_bound + 1):
        for _ in range(per_level):
            x = random_fixed_element(monoid, rng, n, grade_bound)
            if monoid.grade(x) == 0:
                continue
            f.set(x, n, random_scalar(rng, with_roots))
    return f


def point(d: int, i: int, o: int = 0):
    """The geometric point (orbit size d, orbit index i, offset o) of a free
    orbit monoid, as a singleton multiset."""
    return (((d, i, o % d), 1),)


def add_fiber(monoid, x, n) -> list:
    """All ordered pairs (a, b) of level-n fixed elements with a + b = x, by
    brute force over the fixed elements: the fibre convolution sums over."""
    k = monoid.key(x)
    els = monoid.fixed_elements(n, monoid.grade(x))
    return [(a, b) for a in els for b in els if monoid.key(monoid.add(a, b)) == k]


def trace_fiber(monoid, x, n, m) -> list:
    """All level-nm fixed elements y with Tr_{nm/n}(y) = x, by brute force
    over the fixed elements: the fibre psi_m sums over."""
    k = monoid.key(x)
    return [y for y in monoid.fixed_elements(n * m, monoid.grade(x))
            if monoid.key(monoid.trace(y, n, m)) == k]


def reference_convolve(f: CountingFunction, g: CountingFunction) -> CountingFunction:
    """Convolution by the all-pairs loop: every pair of same-level support
    elements in support order, skipping the pairs past the grade bound.
    convolve must accumulate in this order, so keys and term order match."""
    mon = f.monoid
    out = CountingFunction(mon, f.grade_bound, f.level_bound)
    by_level: dict[int, list] = {}
    for y, n, w in g.support():
        by_level.setdefault(n, []).append((y, w))
    for x, n, v in f.support():
        for y, w in by_level.get(n, ()):
            if mon.grade(x) + mon.grade(y) <= f.grade_bound:
                out._accumulate(mon.add(x, y), n, v * w)
    return out


def pointwise_mul(f: CountingFunction, g: CountingFunction) -> CountingFunction:
    """The other multiplication of counting functions: values multiplied
    place by place."""
    out = CountingFunction(f.monoid, f.grade_bound, f.level_bound)
    for x, n, v in f.support():
        out.set(x, n, v * g.value(x, n))
    return out


def _divisors(a):
    return [m for m in range(1, a + 1) if a % m == 0]


def oracle_zero_arrow_omega(a: int, level: int, conv=DEFAULT_CONVENTION) -> ExactScalar:
    """BPS invariant of the arrowless one-vertex quiver from the Euler product
    prod_{k>=1} (1 + z q^(1/2-k)): plethystic log with closed-form k-sums.

    Levelwise, log of the product has z^s-coefficient
    (-1)^(s-1)/s * (L^(1/2))^s / (L^s - 1); Adams twists dilate the level and
    raise z-degree, and the Moebius sum assembles the plethystic log.
    """
    acc = ExactScalar.zero()
    for m in _divisors(a):
        s = a // m
        sign = mobius(m) * (-1) ** (s - 1)
        term = half_l_power(s, m * level, conv) / (q_power(a * level) - 1)
        acc = acc + term * Fraction(sign, a)
    return acc * (half_l_level(level, conv) - half_l_power(-1, level, conv))


def oracle_one_loop_omega(a: int, level: int, conv=DEFAULT_CONVENTION) -> ExactScalar:
    """BPS invariant of the one-loop quiver from the Euler product
    prod_{k>=0} (1 - z q^(-k))^(-1)."""
    acc = ExactScalar.zero()
    for m in _divisors(a):
        term = q_power(a * level) / (q_power(a * level) - 1)
        acc = acc + term * Fraction(mobius(m), a)
    return acc * (half_l_level(level, conv) - half_l_power(-1, level, conv))


def expand(fit, order: int) -> Series:
    """Taylor coefficients of T^1..T^order of the fitted g(T) / (1 - T^delta)^D:
    the coefficient of U^j in (1 - U)^-D is C(j + D - 1, j)."""
    d = fit.big_d
    out = []
    for r in range(1, order + 1):
        acc = ExactScalar.zero()
        for k, g in enumerate(fit.numerator[: r + 1]):
            j, rest = divmod(r - k, fit.delta)
            if not rest:
                acc = acc + g * (math.comb(j + d - 1, j) if d else int(j == 0))
        out.append(acc)
    return Series(out)


def euclid_normalize(num: dict, den: dict):
    """The scalar normal form by Euclid over Q(zeta)[t] alone, as the kernel
    computed it before its integer fast path: the oracle for
    `scalar._normalize`, values and key order both."""
    num = {e: c for e, c in num.items() if not c.is_zero()}
    den = {e: c for e, c in den.items() if not c.is_zero()}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {ZERO: _CYC_ONE}
    if len(den) == 1:
        (ed, cd), = den.items()
        inv = cd.inv()
        return {e - ed: c * inv for e, c in num.items()}, {ZERO: _CYC_ONE}
    n = 1
    for e in itertools.chain(num, den):
        n = n * e.denominator // math.gcd(n, e.denominator)
    ni = _int_poly(num, n)
    di = _int_poly(den, n)
    vn, vd = min(ni), min(di)
    ni = {e - vn: c for e, c in ni.items()}
    di = {e - vd: c for e, c in di.items()}
    g = _poly_gcd(ni, di)
    if max(g) > 0:
        ni, r = _poly_divmod(ni, g)
        assert not r
        di, r = _poly_divmod(di, g)
        assert not r
    c0 = di[min(di)].inv()
    shift = Fraction(vn - vd, n)
    num_out = {Fraction(e, n) + shift: c * c0 for e, c in ni.items()}
    den_out = {Fraction(e, n): c * c0 for e, c in di.items()}
    return num_out, den_out


def ev(x: ExactScalar, t0: int) -> ExactScalar:
    """The image of x under the ring map q^(1/2) -> t0, an integer >= 2, as a
    constant.  Raises ZeroDivisionError at a pole and ValueError when x has a
    q-exponent outside (1/2)Z."""
    def sub(p: dict) -> CycNumber:
        acc = CycNumber()
        for e, c in p.items():
            if (2 * e).denominator != 1:
                raise ValueError(f"q-exponent {e} is not a half-integer")
            acc = acc + c.scale(Fraction(t0) ** int(2 * e))
        return acc

    d = sub(x.den)
    if d.is_zero():
        raise ZeroDivisionError(f"pole at q^(1/2) = {t0}")
    return ExactScalar({ZERO: sub(x.num) * d.inv()})


def reference_count_dilation(polytope, r: int) -> int:
    """Points of (1/r)Z^d in the polytope by a Python loop over every prefix
    of all but the last two coordinates, vectorized over the second-to-last,
    as count_dilation computed it before its chunked broadcast: the oracle for
    `ehrhart.count_dilation` at d >= 2."""
    if polytope.is_empty:
        return 0
    lcm = 1
    for row, rhs in zip(polytope.rows, polytope.rhs):
        for x in itertools.chain(row, [rhs]):
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    rows = [[int(c * lcm) for c in row] for row in polytope.rows]
    rhs = [int(b * lcm) * r for b in polytope.rhs]
    ranges = []
    for lo, hi in polytope.box:
        zlo, zhi = math.ceil(lo * r), math.floor(hi * r)
        if zlo > zhi:
            return 0
        ranges.append((zlo, zhi))
    y_lo, y_hi = ranges[-2]
    ys = np.arange(y_lo, y_hi + 1, dtype=np.int64)
    total = 0
    prefix_ranges = [range(lo, hi + 1) for lo, hi in ranges[:-2]]
    z_lo, z_hi = ranges[-1]
    for prefix in itertools.product(*prefix_ranges):
        lo = np.full(ys.shape, z_lo, dtype=np.int64)
        hi = np.full(ys.shape, z_hi, dtype=np.int64)
        ok = np.ones(ys.shape, dtype=bool)
        for row, b in zip(rows, rhs):
            rest = b - sum(c * p for c, p in zip(row[:-2], prefix)) - row[-2] * ys
            a = row[-1]
            if a > 0:
                np.maximum(lo, -((-rest) // a), out=lo)
            elif a < 0:
                np.minimum(hi, rest // a, out=hi)
            else:
                ok &= rest <= 0
        width = hi - lo + 1
        np.maximum(width, 0, out=width)
        total += int(width[ok].sum())
    return total
