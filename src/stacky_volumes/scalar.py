"""Exact arithmetic in the coefficient field generated by roots of unity and
rational powers of a formal variable q.

Values are fractions of Laurent "polynomials" in q^(1/N) whose coefficients
are cyclotomic numbers, on the prime-power product basis: the roots of unity
zeta^(k/d) whose component exponent at every prime power p^a dividing d is
< phi(p^a).  The basis of Q(zeta_d) sits inside that of Q(zeta_M) for d | M,
so the normal form never depends on the conductor history.  A scalar keeps
one integer form (see "The integer form" below), every value reduces over
the integers, and output, parsing and hashing read the form directly.

q never gets a numeric value during exact computation; `eval_numeric`
substitutes q -> q0 (positive real root for fractional exponents) and
zeta^a -> exp(2*pi*i*a) at the very end.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial


def format_rat(x: Fraction) -> str:
    """Serialize a rational as "p/q" in lowest terms, "p" when q = 1."""
    return _rat(x.numerator, x.denominator)


def _rat(a: int, b: int) -> str:
    """format_rat(Fraction(a, b)) for b > 0."""
    g = math.gcd(a, b)
    return str(a // g) if b == g else f"{a // g}/{b // g}"


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, a), ...) of n by trial division, p increasing;
    () for n <= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _expansion(k: int, m: int) -> tuple[tuple[int, int], ...]:
    """zeta_m^k over the basis: ((j, +-1), ...) for basis roots zeta_m^j,
    j increasing.  At each prime power p^a exactly dividing m, the relation
    1 + x^{p^{a-1}} + ... + x^{(p-1)p^{a-1}} = 0 for x = zeta_{p^a} rewrites
    exponents >= phi(p^a); a single pass lands in the basis."""
    parts = []
    for p, a in factor(m):
        pp, c = p**a, m // p**a
        j, phi, step = k * pow(c, -1, pp) % pp, pp - pp // p, pp // p
        parts.append([(j * c, 1)] if j < phi
                     else [((j - phi + i * step) * c, -1) for i in range(p - 1)])
    acc: dict[int, int] = {}
    for combo in itertools.product(*parts):
        e = sum(j for j, _ in combo) % m
        acc[e] = acc.get(e, 0) + math.prod(s for _, s in combo)
    return tuple(sorted((e, s) for e, s in acc.items() if s))


def _zz_eval(f: list[int], x: int) -> int:
    v = 0
    for a in reversed(f):
        v = v * x + a
    return v


def _zz_div(f: list[int], h: list[int]):
    """f / h in Z[t], or None when h does not divide f."""
    dh = len(h) - 1
    r = list(f)
    quo = [0] * (len(f) - dh)
    for i in reversed(range(len(quo))):
        c, m = divmod(r[i + dh], h[-1])
        if m:
            return None
        if c:
            quo[i] = c
            for j, b in enumerate(h):
                r[i + j] -= c * b
    return None if any(r[:dh]) else quo


def _zz_heugcd(f: list[int], g: list[int]):
    """(h, f/h, g/h) for h = gcd(f, g) of primitive f, g in Z[t] by GCDHEU
    (Char, Geddes, Gonnet, J. Symbolic Comput. 7 (1989)): for xi >= 2 min(|f|,
    |g|) + 2, the primitive part of the balanced base-xi digits of
    gcd(f(xi), g(xi)) is gcd(f, g) once it divides both.  None after six xi."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(6):
        gamma = math.gcd(_zz_eval(f, xi), _zz_eval(g, xi))
        h = []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            h.append(d)
            gamma = (gamma - d) // xi
        content = math.gcd(*h)
        h = [a // content for a in h]
        if len(h) == 1:
            return h, f, g
        cf = _zz_div(f, h)
        cg = None if cf is None else _zz_div(g, h)
        if cg is not None:
            return h, cf, cg
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _zz_prsgcd(f: list[int], g: list[int]):
    """(h, f/h, g/h) for h = gcd(f, g) of primitive f, g in Z[t] by the
    primitive pseudo-remainder sequence: the fallback when GCDHEU gives up."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, r = r[-1], [x * b[-1] for x in r]
            for i, y in enumerate(b, len(r) - len(b)):
                r[i] -= c * y
            while r and not r[-1]:
                r.pop()
        content = math.gcd(*r)
        a, b = b, [x // content for x in r]
    return a, _zz_div(f, a), _zz_div(g, a)


# ---------------------------------------------------------------------------
# The integer form.  num and den are zz polys over t = q^(1/n) and Z[zeta_m]:
# dicts {exponent k of t: nonzero coefficient} for sum c t^k / d, with one
# positive integer d each, coprime to the content.  A coefficient is an int
# when m = 1, else a dict {j: nonzero int} for sum c_j zeta_m^j over basis
# roots.  A form may sit at a non-least n and m (a counting function holds
# all its values at one (n, m)).  Lifting to N or M multiplies keys by N/n or
# M/m, keeping their order.  The kernel replays the dict path (tests/helpers.py): a key is
# inserted when it first appears, updated in place, deleted when its sum
# cancels and put back at the end if it returns, so keys and coefficient
# terms come out in its order.

_ZZ = (operator.mul, operator.add, int)  # Z: (mul, add, the int k as a coefficient)
_ZZ_ONE = {0: 1}
_CYC_ZZ_ONE = {0: {0: 1}}
_ZERO_FORM = (1, 1, {}, 1, _ZZ_ONE, 1)


def _zz_mul(p1: dict, p2: dict, ring=_ZZ) -> dict:
    """p1 * p2 over the coefficient ring (mul, add, _)."""
    mul, add = ring[0], ring[1]
    out: dict = {}
    get = out.get
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = e1 + e2
            s = get(e)
            s = mul(c1, c2) if s is None else add(s, mul(c1, c2))
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _zz_add(p1: dict, p2: dict, ring=_ZZ, copy=True) -> dict:
    """p1 + p2 over the coefficient ring, into p1 itself when not copy; over
    Z it is also the sum of two coefficients of Z[zeta_m], on their basis
    vectors."""
    add = ring[1]
    out = dict(p1) if copy else p1
    get = out.get
    for e, c in p2.items():
        s = get(e)
        s = c if s is None else add(s, c)
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _scaled(p: dict, k: int, ring) -> dict:
    return p if k == 1 else _zz_mul(p, {0: ring[2](k)}, ring)


def _vmul(x: dict, y: dict, m: int) -> dict:
    """The product of two elements of Q(zeta_m) on their basis vectors,
    replaying the dict path: terms in the order they first appear, basis
    products expanded through _expansion, zero sums dropped at the end."""
    for r, v in ((y, x), (x, y)):  # an integer factor keeps the other's order
        if len(r) == 1 and 0 in r:
            return {j: c * r[0] for j, c in v.items()}
    out: dict = {}
    get = out.get
    for b, vb in y.items():
        for a, va in x.items():
            c = va * vb
            for j, s in _expansion(a + b, m):
                out[j] = get(j, 0) + c * s
    return {j: v for j, v in out.items() if v}


@lru_cache(maxsize=None)
def _ring(m: int):
    """(mul, add, const) on the coefficients over Z[zeta_m]."""
    return _ZZ if m == 1 else (partial(_vmul, m=m), _zz_add, lambda k: {0: k})


def _rational(p: dict, m: int) -> bool:
    """Whether every Z[zeta_m] coefficient of p is an integer."""
    return m == 1 or all(len(c) == 1 and 0 in c for c in p.values())


def _ints(p: dict, m: int) -> dict:
    """p over Z: its coefficients, integers of Z[zeta_m], as ints."""
    return p if m == 1 else {e: c[0] for e, c in p.items()}


def _reduced(p: dict, d: int, m: int):
    """(p / g, d / g) for g the gcd of d and every integer of p."""
    g = math.gcd(d, *(p.values() if m == 1 else (v for c in p.values() for v in c.values())))
    if g == 1:
        return p, d
    if m == 1:
        return {e: c // g for e, c in p.items()}, d // g
    return {e: {j: v // g for j, v in c.items()} for e, c in p.items()}, d // g


def _lift(p: dict, a: int, b: int, m0: int) -> dict:
    """p, a zz poly over m0, with keys times a and basis indices times b."""
    if b == 1:
        return p if a == 1 else {k * a: c for k, c in p.items()}
    if m0 == 1:
        return {k * a: {0: c} for k, c in p.items()}
    return {k * a: {j * b: v for j, v in c.items()} for k, c in p.items()}


def join(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The least field (n, m) holding the fields a and b."""
    return math.lcm(a[0], b[0]), math.lcm(a[1], b[1])


def lift(x: "ExactScalar", field: tuple[int, int]) -> "ExactScalar":
    """x with its form at field = (n, m), multiples of x's own n and m."""
    if x._n == field[0] and x._m == field[1]:
        return x
    (n, m), m0 = field, x._m
    a, b = n // x._n, m // m0
    den = _lift(x._den, a, b, m0) if len(x._den) > 1 else _ZZ_ONE if m == 1 else _CYC_ZZ_ONE
    return _new((n, m, _lift(x._num, a, b, m0), x._nd, den, x._dd))


def _lifted(x: "ExactScalar", y: "ExactScalar"):
    """[n, m, x num, x den, y num, y den] over the lcm of their n and m."""
    if x._n != y._n or x._m != y._m:
        field = join(x.field, y.field)
        x, y = lift(x, field), lift(y, field)
    return x._n, x._m, x._num, x._den, y._num, y._den


def _laurent(n: int, m: int, num: dict, d: int):
    """The form of the Laurent polynomial num / d, kept at (n, m)."""
    if d > 1:
        num, d = _reduced(num, d, m)
    return n, m, num, d, _ZZ_ONE if m == 1 else _CYC_ZZ_ONE, 1


def _zz_dense(p: dict, v: int, k: int):
    """(f, content) with p = content * t^v f(t^k), f a primitive coefficient
    list in ascending degree."""
    f = [0] * ((max(p) - v) // k + 1)
    for e, c in p.items():
        f[(e - v) // k] = c
    content = math.gcd(*f)
    return [a // content for a in f], content


def _zz_normalize(n: int, num: dict, den: dict, s: Fraction):
    """The form of s * num / den for integer-coefficient num and den, den of
    more than one term: the denominator's lowest term becomes 1, and terms
    keep the caller's order when the gcd is 1, else come in descending
    order.  The gcd is GCDHEU's, or the PRS fallback's when it gives up."""
    vn, vd = min(num), min(den)
    k = math.gcd(n, *num, *den)
    (f, cf), (g, cg) = _zz_dense(num, vn, k), _zz_dense(den, vd, k)
    h, qf, qg = _zz_heugcd(f, g) or _zz_prsgcd(f, g)
    if len(h) > 1:
        s = s * cf / cg
        num = {vn + i * k: c for i, c in reversed(list(enumerate(qf))) if c}
        den = {vd + i * k: c for i, c in reversed(list(enumerate(qg))) if c}
    low = den[vd]
    s /= low
    sign = 1 if low > 0 else -1
    return (n, 1, *_reduced({e - vd: c * s.numerator for e, c in num.items()}, s.denominator, 1),
            *_reduced({e - vd: c * sign for e, c in den.items()}, abs(low), 1))


def _exquo(p: dict, h: list[int], k: int, ring) -> dict:
    """p / h(t^k) for h in Z[t] dividing the zz poly p over Z[zeta_m], by
    long division from the top term as the dict path divided: quotient keys
    descending, and each coefficient's terms in its order."""
    hp = {i * k: {0: -b} for i, b in enumerate(h) if b}
    dh, quo = (len(h) - 1) * k, {}
    while p:
        top = max(p)
        f = quo[top - dh] = {j: v // h[-1] for j, v in p[top].items()}
        p = _zz_add(p, _zz_mul(hp, {top - dh: f}, ring), ring)
    return quo


def _cyc_normalize(n: int, m: int, num: dict, den: dict, s: Fraction):
    """_zz_normalize for num over Z[zeta_m]: the gcd is that of den and
    every basis component of num, taken in turn, and num is divided by it
    in the dict path's order."""
    ring = _ring(m)
    vn, vd = min(num), min(den)
    k = math.gcd(n, *num, *den)
    g, cg = _zz_dense(den, vd, k)
    h = g
    for j in {j for c in num.values() for j in c}:
        f = _zz_dense({e: c[j] for e, c in num.items() if j in c}, vn, k)[0]
        h = (_zz_heugcd(h, f) or _zz_prsgcd(h, f))[0]
    if len(h) > 1:
        s /= cg
        num = _exquo(num, h, k, ring)
        den = {vd + i * k: c for i, c in reversed(list(enumerate(_zz_div(g, h)))) if c}
    low = den[vd]
    s /= low
    return (n, m, *_reduced(_zz_mul(num, {-vd: {0: s.numerator}}, ring), s.denominator, m),
            *_reduced({e - vd: {0: c if low > 0 else -c} for e, c in den.items()}, abs(low), m))


def _conj(c: dict, k: int, m: int) -> dict:
    """sigma_k(c): zeta_m -> zeta_m^k on the basis vector c of Z[zeta_m]."""
    out: dict = {}
    for j, v in c.items():
        for e, s in _expansion(j * k, m):
            out[e] = out.get(e, 0) + v * s
    return {e: v for e, v in out.items() if v}


def _conjugates(p: dict, m: int) -> dict:
    """The product of sigma_k(p) over k in (Z/c)^x, k != 1, in increasing
    order, c the conductor of p's coefficients: p times it is p's norm."""
    c = m // math.gcd(m, *(j for v in p.values() for j in v))
    out = _CYC_ZZ_ONE
    for k in range(2, c):
        if math.gcd(k, c) == 1:
            out = _zz_mul(out, {e: _conj(v, k, m) for e, v in p.items()}, _ring(m))
    return out


def _normal(n: int, m: int, num: dict, nd: int, den: dict, dd: int):
    """The normal form of (num / nd) / (den / dd), over the integers.  A
    cyclotomic den is made rational by its conjugates, both sides times
    them; when it is one number c times a rational polynomial, num / (den /
    c) is reduced first and then multiplied by 1 / c, as the dict path did."""
    if not num:
        return _ZERO_FORM
    ring = _ring(m)
    if m > 1:
        if not _rational(den, m):
            conj = _conjugates({0: den[min(den)]}, m)
            if _rational(d := _zz_mul(den, conj, ring), m):
                n, k, num, nd, den, dd = _normal(n, m, num, nd, d, dd)
                return _normal(n, m, _zz_mul(_lift(num, 1, m // k, k), conj, ring), nd,
                               _lift(den, 1, m // k, k), dd)
            num, den = _zz_mul(num, conj := _conjugates(den, m), ring), _zz_mul(den, conj, ring)
        den = _ints(den, m)
        if _rational(num, m):
            num, m, ring = _ints(num, m), 1, _ZZ
    if len(den) == 1:
        (vd, c), = den.items()
        s = Fraction(dd, nd * c)
        return _laurent(n, m, _zz_mul(num, {-vd: ring[2](s.numerator)}, ring), s.denominator)
    if m == 1:
        return _zz_normalize(n, num, den, Fraction(dd, nd))
    return _cyc_normalize(n, m, num, den, Fraction(dd, nd))


def _new(form) -> "ExactScalar":
    s = object.__new__(ExactScalar)
    s._n, s._m, s._num, s._nd, s._den, s._dd = form
    return s


class ExactScalar:
    """Element of the field Q(roots of unity)(q^(1/N)), canonically normalized.

    Normal form: value = num/den where den is the least polynomial with
    rational coefficients, in a fractional power t of q, that clears the
    value, with lowest term t^0 normalized to 1.  The numerator absorbs any
    overall q-power shift as fractional exponents.  Uniqueness of the normal
    form makes == and hash mathematically meaningful.

    The value is kept in the integer form only, at an (n, m) that need not
    be the least (q_power(1/2)**2 keeps n = 2); str, to_json and hash render
    reduced fractions.  `num` and `den` are views built on each use:
    {q-exponent Fraction: constant ExactScalar}.
    """

    __slots__ = ("_n", "_m", "_num", "_nd", "_den", "_dd")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(c) -> "ExactScalar":
        c = Fraction(c)
        return _new((1, 1, {0: c.numerator} if c else {}, c.denominator, _ZZ_ONE, 1))

    @staticmethod
    def zero() -> "ExactScalar":
        return _ES_ZERO

    @staticmethod
    def one() -> "ExactScalar":
        return _ES_ONE

    num = property(lambda self: _coefficients(self._num, self._n, self._m, self._nd))
    field = property(lambda self: (self._n, self._m))  # (n, m) of the form
    den = property(lambda self: _coefficients(self._den, self._n, self._m, self._dd))

    # -- ring/field structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, m, an, ad, bn, bd = _lifted(self, other)
        ring = _ring(m)
        da, dad, db, dbd = self._nd, self._dd, other._nd, other._dd
        if len(ad) == 1 and len(bd) == 1:
            d = da if da == db else math.lcm(da, db)
            num = _zz_add(_scaled(an, d // da, ring), _scaled(bn, d // db, ring), ring)
            return _new(_laurent(n, m, num, d))
        num = _zz_add(_scaled(_zz_mul(an, bd, ring), db * dad, ring),
                      _scaled(_zz_mul(bn, ad, ring), da * dbd, ring), ring)
        return _new(_normal(n, m, num, da * db * dad * dbd, _zz_mul(ad, bd, ring), dad * dbd))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return _new((self._n, self._m, _scaled(self._num, -1, _ring(self._m)), self._nd,
                     self._den, self._dd))

    def __sub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExactScalar":
        return _coerce(other) - self

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        for r, s in ((other, self), (self, other)):
            if r._n == r._m == 1 == len(r._num) == len(r._den) == len(s._den) and 0 in r._num:
                # rational p / d times a Laurent polynomial: the form built below
                p, m = r._num[0], s._m
                num = {e: {j: v * p for j, v in c.items()} if m > 1 else c * p
                       for e, c in s._num.items()}
                return _new(_laurent(s._n, m, num, s._nd * r._nd))
        n, m, an, ad, bn, bd = _lifted(self, other)
        ring = _ring(m)
        num, nd = _zz_mul(an, bn, ring), self._nd * other._nd
        if len(ad) == 1 and len(bd) == 1:
            return _new(_laurent(n, m, num, nd))
        return _new(_normal(n, m, num, nd, _zz_mul(ad, bd, ring), self._dd * other._dd))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("ExactScalar division by zero")
        n, m, an, ad, bn, bd = _lifted(self, other)
        ring = _ring(m)
        return _new(_normal(n, m, _zz_mul(an, bd, ring), self._nd * other._dd,
                            _zz_mul(ad, bn, ring), self._dd * other._nd))

    def __rtruediv__(self, other) -> "ExactScalar":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (ExactScalar.one() / self) ** (-n)
        out, base = ExactScalar.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        # the normal form over common n and m is unique: compare integers
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _, _, an, ad, bn, bd = _lifted(self, other)
        return (self._nd, self._dd) == (other._nd, other._dd) and an == bn and ad == bd

    def __hash__(self):
        # the rendering is canonical, and equal values may differ in (n, m)
        return hash(str(self))

    # -- evaluation, substitution, display ------------------------------------

    def eval_numeric(self, q0) -> complex:
        """Substitute q -> q0 > 0 (real positive roots) and zeta^a -> e^{2 pi i a},
        summing basis terms, then terms, in the form's order."""
        q0 = float(q0)
        if q0 <= 0:
            raise ValueError("q0 must be positive")
        n, m, lq = self._n, self._m, math.log(q0)
        num, den = (sum((sum((v / d * cmath.exp(2j * math.pi * (j / m)) for j, v in _basis(c, m)),
                             0j) * math.exp(k / n * lq) for k, c in p.items()), 0j)
                    for p, d in ((self._num, self._nd), (self._den, self._dd)))
        return num / den

    def is_real(self) -> bool:
        """True when the value is fixed by zeta -> zeta^-1, the complex
        conjugation: real at every q > 0.  Its den is rational, so num is."""
        return self._m == 1 or all(_conj(c, -1, self._m) == c for c in self._num.values())

    def substitute_q(self, q0) -> "ExactScalar":
        """Exactly substitute the integer part of every q-power by q0 ** int.

        Fractional parts of exponents stay formal, so q^(5/2) at q0 = 3 becomes
        9 * q^(1/2).  Exact rational arithmetic throughout.
        """
        q0 = Fraction(q0)
        # at q0 = 0 the terms of degree >= 1 vanish
        num, den = (sum((c * q0 ** math.floor(e) * q_power(e % 1) for e, c in p.items()
                         if q0 or e < 1), _ES_ZERO) for p in (self.num, self.den))
        return num / den

    def is_rational(self) -> bool:
        """True when the value is a rational constant, at any m."""
        return not self._num or (self.is_laurent() and list(self._num) == [0]
                                 and _rational(self._num, self._m))

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(sum(_ints(self._num, self._m).values()), self._nd)

    def is_laurent(self) -> bool:
        """True when the denominator is trivial (value is a q-Laurent polynomial)."""
        return len(self._den) == 1

    def __str__(self):
        if self.is_zero():
            return "0"
        n, m = self._n, self._m
        if self.is_laurent():
            return _poly_str(self._num, n, m, self._nd, 1)
        lead = self._den[max(self._den)]
        sign = -1 if (lead if m == 1 else lead[0]) < 0 else 1
        return (f"({_poly_str(self._num, n, m, self._nd, sign)})"
                f" / ({_poly_str(self._den, n, m, self._dd, sign)})")

    __repr__ = __str__

    # -- serialization --------------------------------------------------------

    def to_json(self):
        num = _poly_json(self._num, self._n, self._m, self._nd)
        if self.is_laurent():
            return num
        return {"num": num, "den": _poly_json(self._den, self._n, self._m, self._dd)}

    @staticmethod
    def from_json(obj) -> "ExactScalar":
        """The value of to_json's output, or of any such terms, each with a
        list of coefficients: all added in order into one form, normalized once."""
        polys = [[(Fraction(t["qexp"]), Fraction(t["zeta"]), [Fraction(c) for c in t["coeff"]])
                  for t in p] for p in ((obj["num"], obj["den"]) if isinstance(obj, dict)
                                        else (obj, [{"qexp": 0, "zeta": 0, "coeff": [1]}]))]
        n = math.lcm(*(e.denominator for p in polys for e, _, _ in p))
        m = math.lcm(*(z.denominator for p in polys for _, z, _ in p))
        form, ring = [n, m], _ring(m)
        for p in polys:
            d, acc = math.lcm(*(c.denominator for _, _, cs in p for c in cs)), {}
            for e, z, cs in p:
                k, b = e.numerator * (n // e.denominator), m // z.denominator
                root = [(j * b, u) for j, u in _expansion(z.numerator, z.denominator)]
                for v in filter(None, (c.numerator * (d // c.denominator) for c in cs)):
                    _zz_add(acc, {k: v if m == 1 else {j: u * v for j, u in root}}, ring, False)
            form += [acc, d]
        if not form[4]:
            raise ZeroDivisionError("zero denominator")
        return _new(_normal(*form))


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar.from_rational(x) if isinstance(x, (int, Fraction)) else NotImplemented


class Sums:
    """Sums of scalars at one field (n, m), one per level and key, added in
    place with the keys and forms of repeated +.  A Laurent sum is one
    numerator over one integer denominator, each term a product on the
    integer forms added in by _zz_add's insert/delete rule, and is reduced
    once, in `result`.  A value added alone is kept, and copied when a second
    term comes; a sum that meets a denominator polynomial is summed by +."""

    __slots__ = ("field", "ring", "levels")

    def __init__(self, field: tuple[int, int]):
        self.field, self.ring, self.levels = field, _ring(field[1]), {}

    def add(self, level, key, v: ExactScalar, w: ExactScalar | None = None):
        """Add v, or v * w, into the sum at (level, key); both at this field."""
        levels, ring = self.levels, self.ring
        slots = levels[level] if level in levels else levels.setdefault(level, {})
        s = slots.get(key)
        if s is None and w is None:
            slots[key] = v
        elif (len(v._den) > 1 or w is not None and len(w._den) > 1
              or type(s) is ExactScalar and len(s._den) > 1):
            t = v if w is None else v * w
            t = t if s is None else self._value(s) + t
            if t.is_zero():
                del slots[key]
            else:
                slots[key] = lift(t, self.field)
        else:
            num, d = (v._num, v._nd) if w is None else (_zz_mul(v._num, w._num, ring), v._nd * w._nd)
            if s is None:
                slots[key] = [num, d]
                return
            if type(s) is ExactScalar:
                s = slots[key] = [dict(s._num), s._nd]
            if s[1] != d:
                k = math.lcm(s[1], d)
                s[0], num, s[1] = _scaled(s[0], k // s[1], ring), _scaled(num, k // d, ring), k
            if not _zz_add(s[0], num, ring, False):
                del slots[key]

    def _value(self, s) -> ExactScalar:
        return s if type(s) is ExactScalar else _new(_laurent(*self.field, *s))

    def result(self) -> dict:
        """{level: {key: its nonzero sum at this field}}, each in the order
        of its first term."""
        value = self._value
        return {n: {x: value(s) for x, s in slots.items()} for n, slots in self.levels.items()}


# Output of the integer form: q-exponents k / n, basis roots zeta^(j/m) and
# coefficients v / d, each rendered as a reduced fraction.

def _basis(c, m: int):
    """The basis terms (j, v) of a zz poly coefficient over Z[zeta_m]."""
    return c.items() if m > 1 else ((0, c),)


def _coefficients(p: dict, n: int, m: int, d: int) -> dict:
    """The zz poly p / d as {q-exponent Fraction: constant ExactScalar}."""
    return {Fraction(k, n): _new(_laurent(1, m, {0: c}, d)) for k, c in p.items()}


def _poly_str(p: dict, n: int, m: int, d: int, sign: int) -> str:
    """sign * p / d, terms by descending q-exponent."""
    bits = []
    for k in sorted(p, reverse=True):
        e = _rat(k, n)
        qs = "" if k == 0 else "q" if e == "1" else f"q^({e})" if "/" in e else f"q^{e}"
        (j, v), *more = terms = sorted((j, sign * v) for j, v in _basis(p[k], m))
        if j == 0 and not more:
            r = _rat(abs(v), d)
            bits.append(("-" if v < 0 else "+", r if not qs else qs if r == "1" else f"{r}*{qs}"))
        else:
            cyc = " + ".join(_rat(v, d) if j == 0 else f"z[{_rat(j, m)}]" if v == d
                             else f"{_rat(v, d)}*z[{_rat(j, m)}]" for j, v in terms)
            bits.append(("+", f"({cyc})*{qs}" if qs else f"({cyc})"))
    (head, body), rest = bits[0], bits[1:]
    return (body if head == "+" else f"-{body}") + "".join(f" {s} {b}" for s, b in rest)


def _poly_json(p: dict, n: int, m: int, d: int) -> list:
    return [{"zeta": _rat(j, m), "qexp": e, "coeff": [_rat(v, d)]}
            for k in sorted(p) for e in (_rat(k, n),) for j, v in sorted(_basis(p[k], m))]


_ES_ZERO = _new(_ZERO_FORM)
_ES_ONE = _new((1, 1, _ZZ_ONE, 1, _ZZ_ONE, 1))


# ---------------------------------------------------------------------------
# Public operations.


def root_of_unity(a) -> ExactScalar:
    """The root of unity zeta^a for a in Q/Z; root_of_unity(a)*root_of_unity(b)
    equals root_of_unity(a+b) on the nose."""
    a = Fraction(a)
    d, terms = a.denominator, _expansion(a.numerator, a.denominator)
    m = math.lcm(*(d // math.gcd(j, d) for j, _ in terms))
    c = terms[0][1] if m == 1 else {j * m // d: s for j, s in terms}
    return _new((1, m, {0: c}, 1, _ZZ_ONE if m == 1 else _CYC_ZZ_ONE, 1))


def q_power(e) -> ExactScalar:
    """The formal power q^e, e rational."""
    e = Fraction(e)
    return _new((e.denominator, 1, {e.numerator: 1}, 1, _ZZ_ONE, 1))


@dataclass(frozen=True, slots=True)
class HalfLConvention:
    """Sign convention bits (b1, b2) for the square root of the Lefschetz class.

    The induced level sequence satisfies a_{mn} = (-1)^{b1 + b2*m} * a_n^m.
    Taking m = 1 forces b1 = b2: (0,0) and (1,1) are Adams-coherent, and
    quiver_bps builds their levels n >= 2 by half_l_adams.  Mixed bits hold
    it for m >= 2 only.  Default (1,1) gives a_n = (-1)^(n+1) * q^(n/2): all
    higher symmetric powers of the square root vanish, and it alone gives
    integral BPS invariants (README, "Half-Lefschetz sign bits").
    """

    b1: int = 1
    b2: int = 1

    def __post_init__(self):
        if self.b1 not in (0, 1) or self.b2 not in (0, 1):
            raise ValueError("convention bits must be 0 or 1")


DEFAULT_CONVENTION = HalfLConvention(1, 1)


def half_l_level(n: int, conv: HalfLConvention = DEFAULT_CONVENTION) -> ExactScalar:
    """Level-n component of the half Lefschetz class: sign * q^(n/2).

    Level 1 is pinned to q^(1/2); higher levels carry (-1)^(b1 + b2*n).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    return q_power(Fraction(n, 2)) * _half_l_sign(n, conv)


def _half_l_sign(n: int, conv: HalfLConvention) -> int:
    return -1 if n > 1 and (conv.b1 + conv.b2 * n) % 2 else 1


def half_l_power(j: int, n: int, conv: HalfLConvention = DEFAULT_CONVENTION) -> ExactScalar:
    """(half Lefschetz class)^j at level n, j any integer."""
    return half_l_level(n, conv) ** j


def half_l_adams(x: ExactScalar, n: int, conv: HalfLConvention = DEFAULT_CONVENTION) -> ExactScalar:
    """The Adams image psi_n(x): q^(1/2) sent to half_l_level(n, conv) in x, a
    rational function of q^(1/2) over Q.  It maps each term to one term in
    the same place and, as an injective ring map, keeps num and den coprime:
    the form stays normal, term order included."""
    a, s, m = x._n, _half_l_sign(n, conv), x._m
    if not _rational(x._num, m) or any(2 * k % a for p in (x._num, x._den) for k in p):
        raise ValueError(f"not a rational function of q^(1/2) over Q: {x}")
    num, den = ({k * n: -c if s < 0 and 2 * k // a % 2 else c for k, c in _ints(p, m).items()}
                for p in (x._num, x._den))
    return _new((a, 1, num, x._nd, den, x._dd))
