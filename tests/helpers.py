"""Shared test utilities: random scalars, random counting functions, the
brute-force addition and trace fibres that define convolution and Adams
operations, the all-pairs reference convolution, the convolution logarithm
from the unit, the plethystic logarithm from the full convolution logarithm
and by the ordered-tuple Moebius sum,
the independent truncated Euler-product oracle for quiver BPS invariants,
quiver BPS invariants with the logarithm run at every level, Reineke's
numerical DT invariants of the m-loop quiver,
the Taylor expansion of a rational-function fit, the dict view of a scalar
(CycNumber coefficients) and its conversion to the integer form, the
dict-path scalar arithmetic (with its own cyclotomic product, Galois action
and inverse) and the normal form by Euclid over Q(zeta)[t], evaluation at
q^(1/2) = t0, the per-prefix dilated lattice-point count, the weighted
inertia mass rebuilt from every class mass at each twist order r, the
weighted inertia series with the counting function from its fitted limit,
the toric volume series summed point by point with twist weights from
representatives in (0, 1], and the generic brute force over projective
linear groups: the full-walk modulus search of GF, and PGL_a as the
projective classes of every invertible matrix over the big field, with
conjugacy classes from explicit inverses."""

import cmath
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from stacky_volumes.ehrhart import DeltaRegion, delta_count
from stacky_volumes.lambdaring import (CountingFunction, VolumeElem, adams, convolve, log_demand,
                                      mobius, pleth_log)
from stacky_volumes.monoids import FreeOrbitMonoid, LinearObjectsMonoid, _compositions, gl_order
from stacky_volumes.ratfun import Series, fit_rational, min_order
from stacky_volumes.scalar import (
    DEFAULT_CONVENTION,
    ExactScalar,
    _expansion,
    _new,
    _normal,
    _vmul,
    factor,
    format_rat,
    half_l_level,
    half_l_power,
    q_power,
    root_of_unity,
)
from stacky_volumes.stacky import (
    GF,
    BruteForceClass,
    _class_masses,
    _vect_dimension,
    inertia_points,
    stacky_counting_function,
)

ZERO = Fraction(0)


# -- the dict view: the oracle's representation of a scalar --------------------


class CycNumber:
    """Element of the union of the cyclotomic fields Q(zeta_M), exact.

    Stored as a map {basis root exponent in [0,1) -> rational coefficient}.
    The constructor keeps the dict it is given when no coefficient is zero,
    so callers pass a fresh dict they do not touch again.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        if terms is None:
            terms = {}
        elif not all(terms.values()):
            terms = {a: c for a, c in terms.items() if c}
        self.terms = terms

    @staticmethod
    def from_rational(c) -> "CycNumber":
        c = Fraction(c)
        return CycNumber({ZERO: c} if c else {})

    @staticmethod
    def root(a) -> "CycNumber":
        a = Fraction(a)
        return CycNumber({Fraction(j, a.denominator): Fraction(s)
                          for j, s in _expansion(a.numerator, a.denominator)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def as_rational(self) -> Fraction:
        if not self.terms:
            return ZERO
        if self.is_rational():
            return self.terms[0]
        raise ValueError(f"not a rational number: {self}")

    def __add__(self, other: "CycNumber") -> "CycNumber":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, ZERO) + c
        return CycNumber(out)

    def __neg__(self) -> "CycNumber":
        return CycNumber({a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "CycNumber") -> "CycNumber":
        return self + (-other)

    def _vec(self, m: int) -> dict:
        return {a.numerator * (m // a.denominator): c for a, c in self.terms.items()}

    def scale(self, c) -> "CycNumber":
        c = Fraction(c)
        return CycNumber({a: c * d for a, d in self.terms.items()})

    def eval_complex(self) -> complex:
        return sum((float(c) * cmath.exp(2j * math.pi * float(a))
                    for a, c in self.terms.items()), 0j)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycNumber) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            format_rat(c) if a == 0 else f"z[{format_rat(a)}]" if c == 1
            else f"{format_rat(c)}*z[{format_rat(a)}]" for a, c in sorted(self.terms.items()))


_CYC_ONE = CycNumber.from_rational(1)
_DEN_ONE = {ZERO: _CYC_ONE}


def int_form(num: dict, den: dict | None = None):
    """(n, m, num, nd, den, dd) for dicts on Fraction keys and CycNumber
    coefficients (den None means 1), zero coefficients dropped, n and m the
    least that hold them."""
    num = {e: c for e, c in num.items() if not c.is_zero()}
    den = _DEN_ONE if den is None else {e: c for e, c in den.items() if not c.is_zero()}
    if not den:
        raise ZeroDivisionError("zero denominator")
    n = math.lcm(*(e.denominator for p in (num, den) for e in p))
    m = math.lcm(*(a.denominator for p in (num, den) for c in p.values() for a in c.terms))
    out = [n, m]
    for p in (num, den):
        d = math.lcm(*(v.denominator for c in p.values() for v in c.terms.values()))
        vecs = [{j: v.numerator * (d // v.denominator) for j, v in c._vec(m).items()}
                for c in p.values()]
        out += [{e.numerator * (n // e.denominator): v[0] if m == 1 else v
                 for e, v in zip(p, vecs)}, d]
    return tuple(out)


def dict_scalar(num: dict, den: dict | None = None) -> ExactScalar:
    """The normal form of num / den, dicts on Fraction keys and CycNumber
    coefficients (den None means 1)."""
    return _new(_normal(*int_form(num, den)))


def view(x: ExactScalar) -> tuple[dict, dict]:
    """x's numerator and denominator as dicts {q-exponent Fraction:
    CycNumber}, keys and basis terms in the order of x's integer form."""
    n, m = x._n, x._m
    return tuple({Fraction(k, n): CycNumber({Fraction(j, m): Fraction(v, d) for j, v in (
        c.items() if m > 1 else ((0, c),))}) for k, c in p.items()}
        for p, d in ((x._num, x._nd), (x._den, x._dd)))


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
    els = monoid.fixed_elements(n, monoid.grade(x))
    return [(a, b) for a in els for b in els if monoid.add(a, b) == x]


def trace_fiber(monoid, x, n, m) -> list:
    """All level-nm fixed elements y with Tr_{nm/n}(y) = x, by brute force
    over the fixed elements: the fibre psi_m sums over."""
    return [y for y in monoid.fixed_elements(n * m, monoid.grade(x))
            if monoid.trace(y, n, m) == x]


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


def reference_adams(f: CountingFunction, m: int) -> CountingFunction:
    """psi_m by the all-support loop: every support entry in support order,
    skipping the levels not divisible by m and the traces past the bounds.
    adams must accumulate in this order, so keys and term order match."""
    mon = f.monoid
    n_out = f.level_bound // m
    out = CountingFunction(mon, f.grade_bound, n_out)
    for y, lev, v in f.support():
        if lev % m:
            continue
        n = lev // m
        x = mon.trace(y, n, m)
        if n <= n_out and mon.grade(x) <= f.grade_bound:
            out._accumulate(x, n, v)
    return out


def moebius_sum(lg: CountingFunction, n_out: int) -> CountingFunction:
    """sum over squarefree m <= the grade bound of mu(m)/m psi_m(lg), cut at
    level n_out, added up in pleth_log's order."""
    out = lg.restricted(level_bound=n_out)
    for m in range(2, lg.grade_bound + 1):
        mu = mobius(m)
        if mu:
            out = out + adams(lg, m).restricted(level_bound=n_out).scale(Fraction(mu, m))
    return out


def reference_log_conv(big_f: CountingFunction, caps=None) -> CountingFunction:
    """The convolution logarithm by the loop that starts at the unit: power
    s is the unit convolved with f = F - 1 s times, and each power is scaled
    by (-1)^(s-1)/s and added to a fresh copy of the sum.  log_conv, which
    starts at f and adds in place, must keep its forms, term order
    included."""
    g, levels = big_f.grade_bound, big_f.level_bound
    if caps is None:
        caps = dict.fromkeys(range(1, levels + 1), g)
    f = big_f - CountingFunction.unit(big_f.monoid, g, levels)
    out = CountingFunction(big_f.monoid, g, levels)
    power = CountingFunction.unit(big_f.monoid, g, levels)
    for s in range(1, max(caps.values(), default=0) + 1):
        caps = {n: c for n, c in caps.items() if c >= s}
        power = convolve(power, f, caps)
        out = out + power.scale(Fraction((-1) ** (s - 1), s))
    return out


def reference_pleth_log(big_f: CountingFunction) -> CountingFunction:
    """The plethystic logarithm from the unit-start convolution logarithm on
    every slot within truncation, as pleth_log computed it before it kept
    only the slots its Moebius sum reads: the oracle for values, support
    order and term order."""
    return moebius_sum(reference_log_conv(big_f), big_f.level_bound // big_f.grade_bound)


def reference_log_direct(big_f: CountingFunction) -> CountingFunction:
    """The closed Moebius formula for the plethystic logarithm by the
    ordered-tuple sum, as log_direct computed it before it enumerated
    multisets: every ordering of every tuple of level-nm support elements
    within the grade bound, each with coefficient (-1)^(s-1) mu(m)/(ms).
    The oracle for log_direct's values and support."""
    mon = big_f.monoid
    g = big_f.grade_bound
    n_out = big_f.level_bound // g
    f = big_f - CountingFunction.unit(mon, g, big_f.level_bound)
    out = CountingFunction(mon, g, n_out)
    for n in range(1, n_out + 1):
        for m in range(1, g + 1):
            mu = mobius(m)
            if not mu:
                continue
            pool = [(mon.trace(y, n, m), mon.grade(y) * m, v)
                    for y, v in f.values.get(n * m, {}).items()
                    if 1 <= mon.grade(y) <= g // m]

            def rec(trace_sum, budget, prod, s):
                if s >= 1:
                    out._accumulate(trace_sum, n,
                                    prod * Fraction((-1) ** (s - 1) * mu, m * s))
                for tr, gy, v in pool:
                    if gy <= budget:
                        nxt = tr if trace_sum is None else mon.add(trace_sum, tr)
                        rec(nxt, budget - gy, prod * v, s + 1)

            rec(None, g, ExactScalar.one(), 0)
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


def reference_quiver_bps(quiver, q: int, gamma_bound: int, level_bound: int,
                         conv=DEFAULT_CONVENTION) -> dict:
    """quiver_bps with the plethystic logarithm run on every level up to
    level_bound, at budget gamma_bound * level_bound, for any bits: the path
    that mixed bits still take in src, and the oracle of the Adams
    substitution that coherent bits take."""
    monoid = LinearObjectsMonoid(quiver, q, conv)
    budget = gamma_bound * level_bound
    shifted = stacky_counting_function(monoid, gamma_bound, budget,
                                       log_demand(gamma_bound, budget))
    lg = pleth_log(shifted)
    out = {}
    for gamma in monoid.fixed_elements(1, gamma_bound):
        if sum(gamma) == 0:
            continue
        levels = []
        for n in range(1, level_bound + 1):
            denom = half_l_power(1, n, conv) - half_l_power(-1, n, conv)
            levels.append(lg.value(gamma, n) * denom)
        out[gamma] = VolumeElem(levels)
    return out


def oracle_m_loop_dt(m: int, d: int) -> Fraction:
    """Reineke's numerical DT invariant of the m-loop quiver in dimension d,
    (1/d^2) sum_{e | d} mu(d/e) (-1)^((m-1)(d-e)) C(me - 1, e - 1)
    (Reineke, arXiv:1102.3978), with its own Moebius function."""
    def mu(k):
        sign = 1
        for p in range(2, k + 1):
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
        return sign

    return Fraction(sum(mu(d // e) * (-1) ** ((m - 1) * (d - e)) * math.comb(m * e - 1, e - 1)
                        for e in _divisors(d)), d * d)


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


def padd(p1: dict, p2: dict) -> dict:
    """The dict path's sum of polynomials on Fraction keys and CycNumber
    coefficients: a key whose sum cancels is deleted."""
    out = dict(p1)
    for e, c in p2.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def pneg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


@functools.lru_cache(maxsize=None)
def root_basis_expansion(a: Fraction) -> tuple:
    """The root of unity with exponent a (mod 1) over the prime-power product
    basis, ((basis exponent, +-1), ...) increasing: the Fraction-keyed
    expansion the dict path used, independent of `scalar._expansion`."""
    a = a % 1
    d, k = a.denominator, a.numerator
    parts = []
    for p, ap in factor(d):
        pp = p**ap
        j = (k * pow(d // pp, -1, pp)) % pp
        phi = pp - pp // p
        if j < phi:
            parts.append(((Fraction(j, pp), 1),))
        else:
            parts.append(tuple((Fraction(j - phi + i * (pp // p), pp), -1) for i in range(p - 1)))
    acc: dict = {}
    for combo in itertools.product(*parts):
        e = sum((c for c, _ in combo), ZERO) % 1
        acc[e] = acc.get(e, 0) + math.prod(s for _, s in combo)
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def cyc_mul(x: CycNumber, y: CycNumber) -> CycNumber:
    """The dict path's CycNumber product: a rational factor keeps the other's
    term order; else terms in the order they first appear over y's terms,
    then x's, then each expansion, and zero sums dropped at the end."""
    if x.is_rational():
        return CycNumber({a: x.as_rational() * c for a, c in y.terms.items()})
    if y.is_rational():
        return cyc_mul(y, x)
    out: dict = {}
    for b, cb in y.terms.items():
        for a, ca in x.terms.items():
            for e, s in root_basis_expansion(a + b):
                out[e] = out.get(e, ZERO) + ca * cb * s
    return CycNumber(out)


def pmul(p1: dict, p2: dict) -> dict:
    """The dict path's product: every pair in order, accumulated as in padd."""
    out: dict = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = e1 + e2
            c = cyc_mul(c1, c2)
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def cyc_times(x: CycNumber, y: CycNumber) -> CycNumber:
    """x * y through `scalar._vmul` on integer basis vectors, in the term
    order `CycNumber` multiplied in (scaling by positive integers moves no
    zero sum): the fast product of the Euclid oracle below."""
    for r, v in ((y, x), (x, y)):  # a rational factor keeps the other's order
        if r.is_rational():
            return v.scale(r.as_rational())
    m = math.lcm(*(a.denominator for a in itertools.chain(x.terms, y.terms)))
    d = [math.lcm(*(c.denominator for c in z.terms.values())) for z in (x, y)]
    v = [{j: c.numerator * (dz // c.denominator) for j, c in z._vec(m).items()}
         for z, dz in zip((x, y), d)]
    return CycNumber({Fraction(j, m): Fraction(c, d[0] * d[1])
                      for j, c in _vmul(*v, m).items()})


def cyc_galois(x: CycNumber, j: int) -> CycNumber:
    """The automorphism zeta -> zeta^j (j coprime to the conductor) applied
    to x, basis terms in the order they first appear."""
    m = math.lcm(*(a.denominator for a in x.terms))
    out: dict = {}
    for a, c in x._vec(m).items():
        for e, s in _expansion(j * a, m):
            out[e] = out.get(e, ZERO) + c * s
    return CycNumber({Fraction(e, m): c for e, c in out.items()})


def cyc_inv(x: CycNumber) -> CycNumber:
    """1 / x as the product of the other conjugates over the norm."""
    if x.is_zero():
        raise ZeroDivisionError("cyclotomic division by zero")
    if x.is_rational():
        return CycNumber.from_rational(1 / x.as_rational())
    m = math.lcm(*(a.denominator for a in x.terms))
    prod = _CYC_ONE
    for j in range(2, m):
        if math.gcd(j, m) == 1:
            prod = cyc_times(prod, cyc_galois(x, j))
    return prod.scale(1 / cyc_times(x, prod).as_rational())


def poly_divmod(num: dict, den: dict):
    """Long division over Q(zeta) of polynomials {exponent >= 0: CycNumber}."""
    dd = max(den)
    lc_inv = cyc_inv(den[dd])
    rem = dict(num)
    quo: dict = {}
    while rem and max(rem) >= dd:
        dn = max(rem)
        f = cyc_times(rem[dn], lc_inv)
        quo[dn - dd] = f
        for e, c in den.items():
            k = e + dn - dd
            s = rem.get(k, CycNumber()) - cyc_times(f, c)
            if s.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = s
    return quo, rem


def poly_gcd(a: dict, b: dict) -> dict:
    """The monic gcd over Q(zeta)[t] by Euclid's algorithm."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    lc = cyc_inv(a[max(a)])
    return {e: cyc_times(c, lc) for e, c in a.items()}


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
        inv = cyc_inv(cd)
        return {e - ed: cyc_times(c, inv) for e, c in num.items()}, {ZERO: _CYC_ONE}
    n = 1
    for e in itertools.chain(num, den):
        n = n * e.denominator // math.gcd(n, e.denominator)
    ni = {e.numerator * (n // e.denominator): c for e, c in num.items()}
    di = {e.numerator * (n // e.denominator): c for e, c in den.items()}
    vn, vd = min(ni), min(di)
    ni = {e - vn: c for e, c in ni.items()}
    di = {e - vd: c for e, c in di.items()}
    g = poly_gcd(ni, di)
    if max(g) > 0:
        ni, r = poly_divmod(ni, g)
        assert not r
        di, r = poly_divmod(di, g)
        assert not r
    c0 = cyc_inv(di[min(di)])
    shift = Fraction(vn - vd, n)
    num_out = {Fraction(e, n) + shift: cyc_times(c, c0) for e, c in ni.items()}
    den_out = {Fraction(e, n): cyc_times(c, c0) for e, c in di.items()}
    return num_out, den_out


def dict_fraction(op: str, a: ExactScalar, b: ExactScalar):
    """a op b for op in "+-*/" as the dict path's (num, den) before any
    reduction: padd, pneg and pmul over CycNumber coefficients."""
    (an, ad), (bn, bd) = view(a), view(b)
    bn = pneg(bn) if op == "-" else bn
    if op in "+-":
        return padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)
    if op == "*":
        return pmul(an, bn), pmul(ad, bd)
    return pmul(an, bd), pmul(ad, bn)


def reference_arith(op: str, a: ExactScalar, b: ExactScalar) -> ExactScalar:
    """a op b for op in "+-*/" by the dict path alone: dict_fraction, then
    euclid_normalize, as the arithmetic computed it before its integer form.
    The oracle for values, key order and every coefficient's term order."""
    if op != "/" and a.is_laurent() and b.is_laurent():
        an, bn = view(a)[0], view(b)[0]
        bn = pneg(bn) if op == "-" else bn
        return form_scalar(padd(an, bn) if op in "+-" else pmul(an, bn))
    return form_scalar(*euclid_normalize(*dict_fraction(op, a, b)))


def form_scalar(num: dict, den: dict | None = None) -> ExactScalar:
    """The scalar whose integer form is that of num/den as given, with no
    normal form taken (den None means 1): how the oracles turn a reduced dict
    fraction, with no zero coefficient, into a scalar."""
    return _new(int_form(num, den))


def ev(x: ExactScalar, t0: int) -> ExactScalar:
    """The image of x under the ring map q^(1/2) -> t0, a positive integer, as
    a constant.  Raises ZeroDivisionError at a pole and ValueError when x has a
    q-exponent outside (1/2)Z."""
    def sub(p: dict) -> CycNumber:
        acc = CycNumber()
        for e, c in p.items():
            if (2 * e).denominator != 1:
                raise ValueError(f"q-exponent {e} is not a half-integer")
            acc = acc + c.scale(Fraction(t0) ** int(2 * e))
        return acc

    num, den = view(x)
    d = sub(den)
    if d.is_zero():
        raise ZeroDivisionError(f"pole at q^(1/2) = {t0}")
    return dict_scalar({ZERO: cyc_times(sub(num), cyc_inv(d))})


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


def reference_weighted_inertia_coefficient(monoid, x, n: int, r: int,
                                           mode: str = "differences") -> ExactScalar:
    """The weighted inertia mass at twist order r, every class mass rebuilt
    for this r alone: the same scalar operations, in the same order, as each
    coefficient of weighted_inertia_series."""
    a = _vect_dimension(monoid, x)
    conv = monoid.conv
    if a == 0:
        return ExactScalar.zero()
    xx = monoid.euler_form((a,), (a,))
    total = ExactScalar.zero()
    for m in range(1, a + 1):
        if r % m or a % m:
            continue
        mu = mobius(m)
        if mu == 0:
            continue
        assert xx % (m * m) == 0
        sign = (-1) ** ((conv.b1 * xx // (m * m)) % 2)
        w = a // m
        for s in range(1, w + 1):
            n_delta = delta_count(DeltaRegion(m, s), r, mode)
            if n_delta == 0:
                continue
            tuple_sum = ExactScalar.zero()
            # the compositions of w into s positive parts, in lexicographic order
            for zs in _compositions(w - s, s):
                ys = [z + 1 for z in zs]
                e = Fraction(n * xx, 2) + Fraction(n * m * sum(y * y for y in ys), 2)
                mass = q_power(e)
                for y in ys:
                    mass = mass / gl_order(y, n * m)
                tuple_sum = tuple_sum + mass
            total = total + tuple_sum * Fraction(mu * sign * n_delta, m * s)
    return total * (q_power(n) - 1)


def weighted_inertia_series(monoid, x, n: int, order: int,
                            mode: str = "differences") -> Series:
    """The weighted inertia masses at r = 1..order, the class masses built
    once: each coefficient is weighted_inertia_coefficient's sum."""
    masses = _class_masses(monoid, x, n)
    out = []
    for r in range(1, order + 1):
        total = ExactScalar.zero()
        for m, s, mu_sign, tuple_sum in masses:
            n_delta = 0 if r % m else delta_count(DeltaRegion(m, s), r, mode)
            if n_delta:
                total = total + tuple_sum * Fraction(mu_sign * n_delta, m * s)
        out.append(total * (q_power(n) - 1))
    return Series(out)


def fitted_bps_counting_function(monoid, x, level_bound: int, mode: str = "differences",
                                 delta=None, big_d=None) -> VolumeElem:
    """bps_counting_function by fitting the weighted inertia series as a
    rational function and taking its limit at T -> infinity.  The ansatz
    defaults to delta = lcm of the divisors of a and D = a + 1, which fits in
    differences mode; orbits mode needs a wider one."""
    a = _vect_dimension(monoid, x)
    conv = monoid.conv
    if a == 0:
        return VolumeElem([0] * level_bound)
    xx = monoid.euler_form((a,), (a,))
    delta = delta or math.lcm(*[m for m in range(1, a + 1) if a % m == 0])
    big_d = big_d or a + 1
    order = min_order(delta, big_d)
    sign = -((-1) ** ((conv.b2 * xx) % 2))
    levels = []
    for n in range(1, level_bound + 1):
        series = weighted_inertia_series(monoid, (a,), n, order, mode)
        lim = fit_rational(series, delta, big_d).limit_at_infinity()
        levels.append(sign * half_l_power(-xx - 1, n, conv) * lim)
    return VolumeElem(levels)


def rep01(a: Fraction) -> Fraction:
    """Representative of a in Q/Z inside (0, 1]; the trivial class maps to 1."""
    r = a % 1
    return r if r else Fraction(1)


def reference_twist_weight(datum, psi, r: int) -> Fraction:
    """The twist weight of the character psi of mu_r, column by column in
    Fraction arithmetic: the oracle for `stacky._twist_weight`."""
    w = -Fraction(datum.k)
    for j in range(datum.n):
        c = sum(psi[row] * datum.weights[row][j] for row in range(datum.k + datum.l)) % r
        w += rep01(Fraction(c, r))
    return w


def reference_volume_series(datum, order: int) -> Series:
    """The volume series summed point by point: q^{-w(y)} / |Aut(y)(F_q)|
    divided and added once per inertia point y, in the order inertia_points
    lists them; the oracle for `stacky.volume_series`, which divides once per
    support."""
    coeffs = []
    for r in range(1, order + 1):
        acc = ExactScalar.zero()
        for pt in inertia_points(datum, r):
            acc = acc + q_power(-pt.weight) / pt.aut_order(1)
        coeffs.append(acc)
    return Series(coeffs)


# -- the generic brute force: the oracle of GF's modulus search and of
# -- weighted_inertia_coefficient_bruteforce ---------------------------------


def full_walk_gf_tables(p: int, e: int):
    """(exp, log, zech, generator) of F_{p^e} modulo the first modulus, its
    lower coefficients in product order, under which x has order p^e - 1,
    found by walking the powers of x for every candidate."""
    size, order = p**e, p**e - 1
    one = [1] + [0] * (e - 1)
    for tail in itertools.product(range(p), repeat=e):
        if not tail[0]:
            continue
        cycle = []
        cur = one
        while True:
            cycle.append(cur)
            top = cur[-1]
            cur = [(c - top * t) % p for c, t in zip([0] + cur[:-1], tail)]
            if cur == one:
                break
        if len(cycle) == order:
            break
    powers = [sum(d * p**i for i, d in enumerate(c)) for c in cycle]
    log = [None] * size
    for k, x in enumerate(powers):
        log[x] = k
    zech = [log[x - x % p + (x + 1) % p] for x in powers]
    exp = powers + powers
    return exp, log, zech, exp[1]


def row_reduce(field, m):
    """Gauss-Jordan elimination over the field: (rank, reduced row echelon
    form).  On an invertible a x a matrix augmented by the identity, the
    right half of the result is the inverse."""
    rows = [list(r) for r in m]
    a = len(rows)
    cols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < a and col < cols:
        piv = next((i for i in range(rank, a) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, c) for c in rows[rank]]
        for i in range(a):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(c, field.mul(f, d)) for c, d in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank, rows


def gl_matrices(field, entries, a: int):
    """The invertible a x a matrices with the given entries, in product order."""
    out = []
    for flat in itertools.product(entries, repeat=a * a):
        m = tuple(tuple(flat[i * a + j] for j in range(a)) for i in range(a))
        if row_reduce(field, m)[0] == a:
            out.append(m)
    return out


def projective_canon(field, m):
    """The multiple of m whose first nonzero entry is 1."""
    lead = next(c for row in m for c in row if c)
    inv = field.inv(lead)
    return tuple(tuple(field.mul(inv, c) for c in row) for row in m)


def projective_classes(field, mats):
    """The distinct projective_canon of the matrices, in first-seen order."""
    seen = set()
    out = []
    for m in mats:
        canon = projective_canon(field, m)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def field_sum(field, xs):
    out = 0
    for x in xs:
        out = field.add(out, x)
    return out


def mat_mul(field, x, y):
    a = len(x)
    return tuple(tuple(field_sum(field, [field.mul(x[i][t], y[t][j]) for t in range(a)])
                       for j in range(a)) for i in range(a))


def mat_pow(field, m, k: int):
    a = len(m)
    out = tuple(tuple(1 if i == j else 0 for j in range(a)) for i in range(a))
    while k:
        if k & 1:
            out = mat_mul(field, out, m)
        m = mat_mul(field, m, m)
        k >>= 1
    return out


def is_scalar_matrix(m) -> bool:
    return all(c == (m[0][0] if i == j else 0) for i, row in enumerate(m) for j, c in enumerate(row))


def conjugacy_classes(field, group, subset):
    """The conjugacy classes of group met by subset, as (least element, size),
    conjugating by every element of group with its inverse by Gauss-Jordan."""
    a = len(group[0])
    identity = [[1 if i == j else 0 for j in range(a)] for i in range(a)]
    inverses = []
    for z in group:
        _, reduced = row_reduce(field, [list(r) + e for r, e in zip(z, identity)])
        inverses.append(tuple(tuple(row[a:]) for row in reduced))
    remaining = set(subset)
    out = []
    while remaining:
        rep = min(remaining)
        orbit = {projective_canon(field, mat_mul(field, mat_mul(field, z, rep), zi))
                 for z, zi in zip(group, inverses)}
        remaining -= orbit
        out.append((rep, len(orbit)))
    return out


def reference_weighted_inertia_coefficient_bruteforce(monoid, x, n: int, r: int):
    """weighted_inertia_coefficient_bruteforce with every group operation in
    the degree-n*r field: PGL_a(F_{q^n}) from all invertible matrices over the
    subfield, its r-torsion and conjugacy classes by method calls on GF."""
    a = _vect_dimension(monoid, x)
    q, p, e0 = monoid.q, *factor(monoid.q)[0]
    qn = q**n
    if a == 0:
        return ExactScalar.zero(), []
    field = GF(p, e0 * n * r)
    zeta_r = field.pow(field.generator, (field.size - 1) // r)
    xx = monoid.euler_form((a,), (a,))
    proj = projective_classes(field, gl_matrices(field, field.subfield_elements(qn), a))
    torsion = [g for g in proj if is_scalar_matrix(mat_pow(field, g, r))]
    total = ExactScalar.zero()
    infos = []
    for rep, size in conjugacy_classes(field, proj, torsion):
        c_scalar = mat_pow(field, rep, r)[0][0]
        s = next(t for t in range(field.size) if t and field.pow(t, r) == field.inv(c_scalar))
        h = [[field.mul(s, c) for c in row] for row in rep]
        dims = {}
        for c in range(r):
            lam = field.pow(zeta_r, c)
            shifted = [[field.sub(v, lam if i == j else 0) for j, v in enumerate(row)]
                       for i, row in enumerate(h)]
            d = a - row_reduce(field, shifted)[0]
            if d:
                dims[c] = d
        w = Fraction(-sum(d1 * d2 * ((c1 - c2) % r or r)
                          for c1, d1 in dims.items() for c2, d2 in dims.items()), r)
        t = field.mul(field.pow(s, qn), field.inv(s))
        alpha = Fraction(next(c for c in range(r) if field.pow(zeta_r, c) == t), r) % 1
        o_alpha = alpha.denominator if alpha else 1
        sign = (-1) ** ((monoid.conv.b1 * xx // (o_alpha * o_alpha)) % 2)
        cent = len(proj) // size
        total = total + root_of_unity(alpha) * sign * q_power(-n * w) / cent
        infos.append(BruteForceClass(rep, alpha, o_alpha, w, cent, xx))
    return total, infos
