"""Exact arithmetic in the coefficient field generated by roots of unity and
rational powers of a formal variable q.

Values are fractions of Laurent "polynomials" in q^(1/N) whose coefficients
are cyclotomic numbers.  Cyclotomic numbers are stored on the prime-power
product basis: the roots of unity zeta^(k/d) whose component exponent at every
prime power p^a dividing d is < phi(p^a).  That basis is compatible across
conductors (the basis of Q(zeta_d) sits inside the basis of Q(zeta_M) for
d | M), so the normal form of a value never depends on the conductor history
and structural equality coincides with mathematical equality.

q never gets a numeric value during exact computation; `eval_numeric`
substitutes q -> q0 (positive real root for fractional exponents) and
zeta^a -> exp(2*pi*i*a) at the very end.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)


def format_rat(x: Fraction) -> str:
    """Serialize a rational as "p/q" in lowest terms, "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
def _root_basis_expansion(a: Fraction) -> tuple[tuple[Fraction, int], ...]:
    """Expand the root of unity with exponent a (mod 1) over the basis.

    Returns ((basis exponent, +-1), ...).  The relation used at each prime
    power p^a is 1 + x^{p^{a-1}} + ... + x^{(p-1)p^{a-1}} = 0 for x = zeta_{p^a}
    restricted to exponents >= phi(p^a); a single pass lands in the basis.
    """
    a = a % 1
    d = a.denominator
    k = a.numerator
    parts = []
    for p, ap in factor(d):
        pp = p**ap
        j = (k * pow(d // pp, -1, pp)) % pp
        phi = pp - pp // p
        if j < phi:
            parts.append(((Fraction(j, pp), 1),))
        else:
            t = j - phi
            step = pp // p
            parts.append(tuple((Fraction(t + i * step, pp), -1) for i in range(p - 1)))
    acc: dict[Fraction, int] = {}
    for combo in itertools.product(*parts):
        e = sum((c for c, _ in combo), ZERO) % 1
        s = 1
        for _, sg in combo:
            s *= sg
        acc[e] = acc.get(e, 0) + s
    return tuple(sorted((e, c) for e, c in acc.items() if c))


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
        terms: dict[Fraction, Fraction] = {}
        for e, s in _root_basis_expansion(Fraction(a)):
            terms[e] = terms.get(e, ZERO) + s
        return CycNumber(terms)

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

    def conductor(self) -> int:
        m = 1
        for a in self.terms:
            m = m * a.denominator // math.gcd(m, a.denominator)
        return m

    def __add__(self, other: "CycNumber") -> "CycNumber":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, ZERO) + c
        return CycNumber(out)

    def __neg__(self) -> "CycNumber":
        return CycNumber({a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "CycNumber") -> "CycNumber":
        return self + (-other)

    def _times_root(self, b: Fraction, coeff: Fraction) -> dict[Fraction, Fraction]:
        out: dict[Fraction, Fraction] = {}
        for a, c in self.terms.items():
            for e, s in _root_basis_expansion(a + b):
                key = e
                out[key] = out.get(key, ZERO) + c * coeff * s
        return out

    def __mul__(self, other: "CycNumber") -> "CycNumber":
        if self.is_rational():
            c = self.as_rational()
            return CycNumber({a: c * d for a, d in other.terms.items()})
        if other.is_rational():
            return other * self
        out: dict[Fraction, Fraction] = {}
        for b, cb in other.terms.items():
            for a, contrib in self._times_root(b, cb).items():
                out[a] = out.get(a, ZERO) + contrib
        return CycNumber(out)

    def scale(self, c) -> "CycNumber":
        c = Fraction(c)
        return CycNumber({a: c * d for a, d in self.terms.items()})

    def galois(self, j: int) -> "CycNumber":
        """Apply the automorphism zeta -> zeta^j (j coprime to the conductor)."""
        out: dict[Fraction, Fraction] = {}
        for a, c in self.terms.items():
            for e, s in _root_basis_expansion(j * a):
                out[e] = out.get(e, ZERO) + c * s
        return CycNumber(out)

    def inv(self) -> "CycNumber":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return CycNumber.from_rational(1 / self.as_rational())
        m = self.conductor()
        prod = CycNumber.from_rational(1)
        for j in range(2, m):
            if math.gcd(j, m) == 1:
                prod = prod * self.galois(j)
        norm = (self * prod).as_rational()
        return prod.scale(Fraction(1) / norm)

    def eval_complex(self) -> complex:
        return sum(
            (float(c) * cmath.exp(2j * math.pi * float(a)) for a, c in self.terms.items()),
            0j,
        )

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, CycNumber) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, c in sorted(self.terms.items()):
            if a == 0:
                bits.append(format_rat(c))
            elif c == 1:
                bits.append(f"z[{format_rat(a)}]")
            else:
                bits.append(f"{format_rat(c)}*z[{format_rat(a)}]")
        return " + ".join(bits)


_CYC_ONE = CycNumber.from_rational(1)
# Copied, not rebuilt: dict.copy reuses the stored hash of the Fraction key.
_DEN_ONE = {ZERO: _CYC_ONE}

# ---------------------------------------------------------------------------
# Laurent-polynomial helpers.  A "poly" is a dict {q-exponent Fraction: CycNumber}.


def _padd(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for e, c in p2.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _pneg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def _pmul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = e1 + e2
            c = c1 * c2
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _poly_divmod(num: dict[int, CycNumber], den: dict[int, CycNumber]):
    """Long division of genuine (non-negative exponent) polynomials."""
    dd = max(den)
    lc_inv = den[dd].inv()
    rem = dict(num)
    quo: dict[int, CycNumber] = {}
    while rem and max(rem) >= dd:
        dn = max(rem)
        f = rem[dn] * lc_inv
        quo[dn - dd] = f
        for e, c in den.items():
            k = e + dn - dd
            s = rem.get(k, CycNumber()) - f * c
            if s.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = s
    return quo, rem


def _poly_gcd(a: dict[int, CycNumber], b: dict[int, CycNumber]) -> dict[int, CycNumber]:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lc = a[max(a)].inv()
    return {e: c * lc for e, c in a.items()}


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


# ---------------------------------------------------------------------------
# Rational coefficients over integer terms.  A "zz poly" is a dict
# {exponent k of t = q^(1/n): nonzero int} standing for sum c t^k / d with
# one positive integer d per polynomial, its keys in the scalar's key order.


def _zz_form(*polys):
    """(n, [(p, d), ...]) with every scalar poly equal to p(q^(1/n)) / d, or
    None when a coefficient is not rational."""
    n = math.lcm(*(e.denominator for p in polys for e in p))
    out = []
    for p in polys:
        cs = [c.terms.get(0) if len(c.terms) == 1 else None for c in p.values()]
        if not all(cs):  # coefficients are nonzero: None marks a cyclotomic one
            return None
        d = math.lcm(*(c.denominator for c in cs))
        out.append(({e.numerator * (n // e.denominator): c.numerator * (d // c.denominator)
                     for e, c in zip(p, cs)}, d))
    return n, out


def _zz_mul(p1: dict, p2: dict) -> dict:
    """_pmul on zz polys.  A key whose sum cancels is deleted, and goes to the
    end if it comes back, so keys come out in the order _pmul gives."""
    out: dict = {}
    get = out.get
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = e1 + e2
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _zz_add(p1: dict, p2: dict, k1: int, k2: int) -> dict:
    """k1 p1 + k2 p2 for positive k1, k2, keys in the order _padd gives:
    positive factors leave the zero pattern of every sum unchanged."""
    out = {e: c * k1 for e, c in p1.items()} if k1 != 1 else dict(p1)
    for e, c in p2.items():
        s = out.get(e, 0) + c * k2
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _zz_dense(p: dict, v: int, k: int):
    """(f, content) with p = content * t^v f(t^k), f a primitive coefficient
    list in ascending degree."""
    f = [0] * ((max(p) - v) // k + 1)
    for e, c in p.items():
        f[(e - v) // k] = c
    content = math.gcd(*f)
    return [a // content for a in f], content


def _zz_normalize(n: int, num: dict, den: dict, s: Fraction):
    """The normal form of s * num / den for zz polys num and den over
    t = q^(1/n): the denominator's lowest term becomes 1, and terms keep the
    caller's order when the gcd is 1, else come in descending order.  The gcd
    is GCDHEU's; Euclid runs only when it gives up."""
    res = None
    if num and len(den) > 1:
        vn, vd = min(num), min(den)
        k = math.gcd(n, *num, *den)
        (f, cf), (g, cg) = _zz_dense(num, vn, k), _zz_dense(den, vd, k)
        res = _zz_heugcd(f, g)
    if res is None:
        # no gcd to take (zero numerator, one-term denominator), or GCDHEU gave up
        return _euclid_normal(
            {Fraction(e, n): CycNumber.from_rational(s * c) for e, c in num.items()},
            {Fraction(e, n): CycNumber.from_rational(c) for e, c in den.items()})
    h, qf, qg = res
    if len(h) > 1:
        s = s * cf / cg
        num = {vn + i * k: c for i, c in reversed(list(enumerate(qf))) if c}
        den = {vd + i * k: c for i, c in reversed(list(enumerate(qg))) if c}
    low = den[vd]
    s /= low
    return ({Fraction(e - vd, n): CycNumber({ZERO: s * c}) for e, c in num.items()},
            {Fraction(e - vd, n): CycNumber({ZERO: Fraction(c, low)}) for e, c in den.items()})


def _euclid_normal(num: dict, den: dict):
    """The normal form of num / den on Fraction keys and CycNumber
    coefficients: directly for a zero numerator or a one-term denominator,
    else with the gcd by Euclid over Q(zeta)[t], for cyclotomic coefficients
    and when GCDHEU gives up."""
    if not num:
        return {}, _DEN_ONE.copy()
    if len(den) == 1:
        (ed, cd), = den.items()
        inv = cd.inv()
        return {e - ed: c * inv for e, c in num.items()}, _DEN_ONE.copy()
    n = math.lcm(*(e.denominator for e in itertools.chain(num, den)))
    vn, vd = min(num), min(den)
    ni = {int((e - vn) * n): c for e, c in num.items()}
    di = {int((e - vd) * n): c for e, c in den.items()}
    if max(g := _poly_gcd(ni, di)) > 0:
        ni, r = _poly_divmod(ni, g)
        assert not r
        di, r = _poly_divmod(di, g)
        assert not r
    c0 = di[min(di)].inv()
    return ({Fraction(e, n) + vn - vd: c * c0 for e, c in ni.items()},
            {Fraction(e, n): c * c0 for e, c in di.items()})


class ExactScalar:
    """Element of the field Q(roots of unity)(q^(1/N)), canonically normalized.

    Normal form: value = num/den where den is a polynomial in the smallest
    fractional power of q occurring, with nonzero lowest term normalized to 1,
    and gcd(num shifted to valuation 0, den) = 1.  The numerator absorbs any
    overall q-power shift as fractional exponents.  Uniqueness of the normal
    form makes == and hash mathematically meaningful.
    """

    __slots__ = ("num", "den", "_key")

    def __init__(self, num: dict, den: dict | None = None, _normalized: bool = False):
        if den is None:
            den = _DEN_ONE.copy()
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._key = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(c) -> "ExactScalar":
        c = Fraction(c)
        num = {ZERO: CycNumber.from_rational(c)} if c else {}
        return ExactScalar(num, None, _normalized=True)

    @staticmethod
    def zero() -> "ExactScalar":
        return _ES_ZERO

    @staticmethod
    def one() -> "ExactScalar":
        return _ES_ONE

    # -- ring/field structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def _den_is_one(self) -> bool:
        # the int 0 hashes to 0 and equals Fraction(0): no Fraction hash
        return len(self.den) == 1 and 0 in self.den and self.den[0] == _CYC_ONE

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den_is_one() and other._den_is_one():
            return ExactScalar(_padd(self.num, other.num), None, _normalized=True)
        z = _zz_form(self.num, self.den, other.num, other.den)
        if z:
            n, ((an, da), (ad, dad), (bn, db), (bd, dbd)) = z
            num = _zz_add(_zz_mul(an, bd), _zz_mul(bn, ad), db * dad, da * dbd)
            num, den = _zz_normalize(n, num, _zz_mul(ad, bd), Fraction(1, da * db))
            return ExactScalar(num, den, _normalized=True)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return ExactScalar(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(_pneg(self.num), self.den, _normalized=True)

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
        if self._den_is_one() and other._den_is_one():
            return ExactScalar(_pmul(self.num, other.num), None, _normalized=True)
        z = _zz_form(self.num, self.den, other.num, other.den)
        if z:
            n, ((an, da), (ad, dad), (bn, db), (bd, dbd)) = z
            s = Fraction(dad * dbd, da * db)
            num, den = _zz_normalize(n, _zz_mul(an, bn), _zz_mul(ad, bd), s)
            return ExactScalar(num, den, _normalized=True)
        return ExactScalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("ExactScalar division by zero")
        z = _zz_form(self.num, self.den, other.num, other.den)
        if z:
            n, ((an, da), (ad, dad), (bn, db), (bd, dbd)) = z
            s = Fraction(dad * db, da * dbd)
            num, den = _zz_normalize(n, _zz_mul(an, bd), _zz_mul(ad, bn), s)
            return ExactScalar(num, den, _normalized=True)
        return ExactScalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "ExactScalar":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "ExactScalar":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (ExactScalar.one() / self) ** (-n)
        out = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def key(self):
        if self._key is None:
            self._key = (
                tuple(sorted((e, c.key()) for e, c in self.num.items())),
                tuple(sorted((e, c.key()) for e, c in self.den.items())),
            )
        return self._key

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- evaluation, substitution, display ------------------------------------

    def eval_numeric(self, q0) -> complex:
        """Substitute q -> q0 > 0 (real positive roots) and zeta^a -> e^{2 pi i a}."""
        q0 = float(q0)
        if q0 <= 0:
            raise ValueError("q0 must be positive")

        def ev(p: dict) -> complex:
            return sum(
                (c.eval_complex() * math.exp(e * math.log(q0)) for e, c in p.items()),
                0j,
            )

        return ev(self.num) / ev(self.den)

    def substitute_q(self, q0) -> "ExactScalar":
        """Exactly substitute the integer part of every q-power by q0 ** int.

        Fractional parts of exponents stay formal, so q^(5/2) at q0 = 3 becomes
        9 * q^(1/2).  Exact rational arithmetic throughout.
        """
        q0 = Fraction(q0)

        def sub(p: dict) -> dict:
            out: dict = {}
            for e, c in p.items():
                k = math.floor(e)
                frac = e - k
                cc = c.scale(q0**k)
                s = out.get(frac)
                s = cc if s is None else s + cc
                if s.is_zero():
                    out.pop(frac, None)
                else:
                    out[frac] = s
            return out

        return ExactScalar(sub(self.num), sub(self.den))

    def as_rational(self) -> Fraction:
        if self.is_zero():
            return ZERO
        if self._den_is_one() and len(self.num) == 1 and 0 in self.num:
            return self.num[0].as_rational()
        raise ValueError(f"not a rational constant: {self}")

    def is_laurent(self) -> bool:
        """True when the denominator is trivial (value is a q-Laurent polynomial)."""
        return self._den_is_one()

    def __str__(self):
        if self.is_zero():
            return "0"
        num, den = self.num, self.den
        if not self._den_is_one():
            lead = den[max(den)]
            if lead.is_rational() and lead.as_rational() < 0:
                num = {e: -c for e, c in num.items()}
                den = {e: -c for e, c in den.items()}
        ns = _poly_str(num)
        if self._den_is_one():
            return ns
        return f"({ns}) / ({_poly_str(den)})"

    __repr__ = __str__

    # -- serialization --------------------------------------------------------

    def to_json(self):
        if self._den_is_one():
            return _poly_json(self.num)
        return {"num": _poly_json(self.num), "den": _poly_json(self.den)}

    @staticmethod
    def from_json(obj) -> "ExactScalar":
        if isinstance(obj, dict):
            return ExactScalar(_poly_from_json(obj["num"]), _poly_from_json(obj["den"]))
        return ExactScalar(_poly_from_json(obj))


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar.from_rational(x)
    return NotImplemented


def _normalize(num: dict, den: dict):
    num = {e: c for e, c in num.items() if not c.is_zero()}
    den = {e: c for e, c in den.items() if not c.is_zero()}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if num and len(den) > 1 and (z := _zz_form(num, den)):
        n, ((pn, dn), (pd, dd)) = z
        return _zz_normalize(n, pn, pd, Fraction(dd, dn))
    return _euclid_normal(num, den)


def _poly_str(p: dict) -> str:
    bits = []
    for e, c in sorted(p.items(), reverse=True):
        if e == 0:
            qs = ""
        elif e == 1:
            qs = "q"
        else:
            es = format_rat(e) if e.denominator == 1 else f"({format_rat(e)})"
            qs = f"q^{es}"
        if c.is_rational():
            r = c.as_rational()
            sign = "-" if r < 0 else "+"
            r = abs(r)
            if not qs:
                body = format_rat(r)
            elif r == 1:
                body = qs
            else:
                body = f"{format_rat(r)}*{qs}"
        else:
            sign = "+"
            body = f"({c!r})*{qs}" if qs else f"({c!r})"
        bits.append((sign, body))
    out = ""
    for i, (sign, body) in enumerate(bits):
        if i == 0:
            out = body if sign == "+" else f"-{body}"
        else:
            out += f" {sign} {body}"
    return out


def _poly_json(p: dict):
    out = []
    for e, c in sorted(p.items()):
        for a, coef in sorted(c.terms.items()):
            out.append({"zeta": format_rat(a), "qexp": format_rat(e), "coeff": [format_rat(coef)]})
    return out


def _poly_from_json(entries) -> dict:
    out: dict = {}
    for entry in entries:
        e = Fraction(entry["qexp"])
        a = Fraction(entry["zeta"])
        for cs in entry["coeff"]:
            c = CycNumber.root(a).scale(Fraction(cs))
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


_ES_ZERO = ExactScalar({}, None, _normalized=True)
_ES_ONE = ExactScalar({ZERO: _CYC_ONE}, None, _normalized=True)


# ---------------------------------------------------------------------------
# Public operations.


def root_of_unity(a) -> ExactScalar:
    """The root of unity zeta^a for a in Q/Z; root_of_unity(a)*root_of_unity(b)
    equals root_of_unity(a+b) on the nose."""
    c = CycNumber.root(a)
    return ExactScalar({ZERO: c} if not c.is_zero() else {}, None, _normalized=True)


def q_power(e) -> ExactScalar:
    """The formal power q^e, e rational."""
    return ExactScalar({Fraction(e): _CYC_ONE}, None, _normalized=True)


class HalfLConvention:
    """Sign convention bits (b1, b2) for the square root of the Lefschetz class.

    The induced level sequence satisfies a_{mn} = (-1)^{b1 + b2*m} * a_n^m.
    Taking m = 1 forces b1 = b2, so only (0,0) and (1,1) are coherent for all
    m; mixed bits are accepted but satisfy the relation for m >= 2 only.
    Default (1,1) gives a_n = (-1)^(n+1) * q^(n/2), the convention under which
    all higher symmetric powers of the square root vanish.
    """

    __slots__ = ("b1", "b2")

    def __init__(self, b1: int = 1, b2: int = 1):
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValueError("convention bits must be 0 or 1")
        self.b1 = b1
        self.b2 = b2

    def __repr__(self):
        return f"HalfLConvention(b1={self.b1}, b2={self.b2})"

    def __eq__(self, other):
        return (
            isinstance(other, HalfLConvention)
            and (self.b1, self.b2) == (other.b1, other.b2)
        )


DEFAULT_CONVENTION = HalfLConvention(1, 1)


def half_l_level(n: int, conv: HalfLConvention = DEFAULT_CONVENTION) -> ExactScalar:
    """Level-n component of the half Lefschetz class: sign * q^(n/2).

    Level 1 is pinned to q^(1/2); higher levels carry (-1)^(b1 + b2*n).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    sign = 1
    if n > 1 and (conv.b1 + conv.b2 * n) % 2 == 1:
        sign = -1
    return q_power(Fraction(n, 2)) * sign


def half_l_power(j: int, n: int, conv: HalfLConvention = DEFAULT_CONVENTION) -> ExactScalar:
    """(half Lefschetz class)^j at level n, j any integer."""
    return half_l_level(n, conv) ** j
