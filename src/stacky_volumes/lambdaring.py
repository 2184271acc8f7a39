"""The lambda-ring of counting functions on a graded monoid with Galois
action, and level-indexed values (VolumeElem) for per-level results.

A counting function assigns to each pair (element x, level n) a scalar, zero
unless x is fixed by the n-th Frobenius power.  Convolution multiplies the
level-n values of every pair of support elements into their sum; Adams psi_m
moves each level-nm value to the trace Tr_{nm/n} of its element at level n;
Sym/Log are the plethystic exponential and logarithm; log_direct evaluates
the closed Moebius formula for Log by direct enumeration of trace tuples and
serves as the module's internal cross-oracle for pleth_log.

Truncation is two-dimensional: a level bound N and a total-grade bound G.
Adams psi_m divides the level budget by m; Sym/Log and log_direct divide it
by G (only psi_k with k <= G can contribute below grade bound G).
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ExactScalar, factor


class LambdaRingError(Exception):
    pass


class MonoidMismatch(LambdaRingError):
    pass


class TruncationExceeded(LambdaRingError):
    pass


class NotAugmented(LambdaRingError):
    """Value at the zero element violates the operation's precondition."""


class NotSigmaFinite(LambdaRingError):
    pass


def mobius(n: int) -> int:
    fac = factor(n)
    return 0 if any(a > 1 for _, a in fac) else (-1) ** len(fac)


def _coerce(x) -> ExactScalar:
    return x if isinstance(x, ExactScalar) else ExactScalar.from_rational(x)


class VolumeElem:
    """Level-truncated values: one scalar per level n = 1..N."""

    __slots__ = ("levels",)

    def __init__(self, levels):
        self.levels = [_coerce(c) for c in levels]

    def get(self, n: int) -> ExactScalar:
        if not 1 <= n <= len(self.levels):
            raise TruncationExceeded(f"level {n} beyond truncation {len(self.levels)}")
        return self.levels[n - 1]


class CountingFunction:
    """Sparse map (monoid element, level) -> scalar with Frobenius support."""

    __slots__ = ("monoid", "grade_bound", "level_bound", "values", "elems")

    def __init__(self, monoid, grade_bound: int, level_bound: int, entries=None):
        self.monoid = monoid
        self.grade_bound = grade_bound
        self.level_bound = level_bound
        self.values: dict = {}
        self.elems: dict = {}
        for x, n, v in entries or []:
            self.set(x, n, v)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def unit(monoid, grade_bound, level_bound) -> "CountingFunction":
        """Convolution unit: the characteristic function of the zero element."""
        z = monoid.zero()
        return CountingFunction(
            monoid, grade_bound, level_bound,
            [(z, n, 1) for n in range(1, level_bound + 1)],
        )

    @staticmethod
    def from_callable(monoid, grade_bound, level_bound, fn) -> "CountingFunction":
        """Tabulate fn(element, level) over all fixed elements within bounds."""
        out = CountingFunction(monoid, grade_bound, level_bound)
        for n in range(1, level_bound + 1):
            for x in monoid.fixed_elements(n, grade_bound):
                out.set(x, n, fn(x, n))
        return out

    def set(self, x, n, v):
        v = _coerce(v)
        if not 1 <= n <= self.level_bound:
            raise TruncationExceeded(f"level {n} outside 1..{self.level_bound}")
        if self.monoid.grade(x) > self.grade_bound:
            raise ValueError("element exceeds the grade bound")
        if not self.monoid.is_fixed(x, n):
            raise ValueError(f"element {x} is not fixed at level {n}")
        k = self.monoid.key(x)
        if v.is_zero():
            self.values.pop((k, n), None)
        else:
            self.values[(k, n)] = v
            self.elems[k] = x

    def _accumulate(self, x, n, v):
        if self.monoid.grade(x) <= self.grade_bound and n <= self.level_bound:
            self._accumulate_in_bounds(x, n, v)

    def _accumulate_in_bounds(self, x, n, v):
        """_accumulate for a sum the caller knows is within both bounds."""
        if v.is_zero():
            return
        k = self.monoid.key(x)
        s = self.values.get((k, n))
        s = v if s is None else s + v
        if s.is_zero():
            self.values.pop((k, n), None)
        else:
            self.values[(k, n)] = s
            self.elems[k] = x

    # -- access ---------------------------------------------------------------

    def value(self, x, n) -> ExactScalar:
        if n > self.level_bound:
            raise TruncationExceeded(f"level {n} beyond truncation {self.level_bound}")
        return self.values.get((self.monoid.key(x), n), ExactScalar.zero())

    def support(self):
        for (k, n), v in self.values.items():
            yield self.elems[k], n, v

    def restricted(self, grade_bound=None, level_bound=None) -> "CountingFunction":
        gb = min(self.grade_bound, grade_bound or self.grade_bound)
        nb = min(self.level_bound, level_bound or self.level_bound)
        out = CountingFunction(self.monoid, gb, nb)
        for x, n, v in self.support():
            if self.monoid.grade(x) <= gb and n <= nb:
                out.set(x, n, v)
        return out

    def agrees_with(self, other, grade_bound, level_bound) -> bool:
        return not self.differences(other, grade_bound, level_bound)

    def differences(self, other, grade_bound, level_bound):
        """All (element, level, self value, other value) mismatches in range."""
        out = []
        keys = set()
        for f in (self, other):
            for x, n, _ in f.support():
                if f.monoid.grade(x) <= grade_bound and n <= level_bound:
                    keys.add((f.monoid.key(x), n))
        for k, n in sorted(keys):
            x = self.elems.get(k, other.elems.get(k))
            a = self.value(x, n)
            b = other.value(x, n)
            if a != b:
                out.append((x, n, a, b))
        return out

    # -- additive structure -----------------------------------------------------

    def _check_compatible(self, other):
        if self.monoid != other.monoid:
            raise MonoidMismatch("counting functions live on different monoids")
        if (self.grade_bound, self.level_bound) != (other.grade_bound, other.level_bound):
            raise MonoidMismatch(
                f"truncation mismatch: {(self.grade_bound, self.level_bound)} vs "
                f"{(other.grade_bound, other.level_bound)}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = CountingFunction(self.monoid, self.grade_bound, self.level_bound)
        for f in (self, other):
            for x, n, v in f.support():
                out._accumulate(x, n, v)
        return out

    def __neg__(self):
        out = CountingFunction(self.monoid, self.grade_bound, self.level_bound)
        for x, n, v in self.support():
            out.set(x, n, -v)
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "CountingFunction":
        c = _coerce(c)
        out = CountingFunction(self.monoid, self.grade_bound, self.level_bound)
        for x, n, v in self.support():
            out.set(x, n, v * c)
        return out

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        """JSON array of {element, level, value}; element keys are whatever
        the monoid instantiation uses (tuples become lists)."""
        def enc(x):
            return list(x) if isinstance(x, tuple) else x

        return [
            {"element": enc(x), "level": n, "value": v.to_json()}
            for x, n, v in sorted(self.support(), key=lambda t: (t[1], self.monoid.key(t[0])))
        ]

    @staticmethod
    def from_json(monoid, grade_bound, level_bound, entries) -> "CountingFunction":
        def dec(el):
            return tuple(dec(p) for p in el) if isinstance(el, list) else el

        out = CountingFunction(monoid, grade_bound, level_bound)
        for entry in entries:
            out.set(dec(entry["element"]), int(entry["level"]),
                    ExactScalar.from_json(entry["value"]))
        return out


# ---------------------------------------------------------------------------
# Ring and lambda-ring operations.


def convolve(f: CountingFunction, g: CountingFunction) -> CountingFunction:
    """(f*g)(x)_n = sum over ordered pairs of level-n fixed elements with
    x' + x'' = x of f(x')_n g(x'')_n.

    within[n][b] lists g's level-n support of grade <= b in support order, so
    x visits exactly the in-bound pairs of the all-pairs loop, in its order,
    and their sums need no second bound check."""
    f._check_compatible(g)
    mon = f.monoid
    bound = f.grade_bound
    out = CountingFunction(mon, bound, f.level_bound)
    graded: dict[int, list] = {}
    for y, n, w in g.support():
        graded.setdefault(n, []).append((mon.grade(y), y, w))
    within = {n: [[(y, w) for gy, y, w in ys if gy <= b] for b in range(bound + 1)]
              for n, ys in graded.items()}
    for x, n, v in f.support():
        if n in within:
            for y, w in within[n][bound - mon.grade(x)]:
                out._accumulate_in_bounds(mon.add(x, y), n, v * w)
    return out


def adams(f: CountingFunction, m: int) -> CountingFunction:
    """psi_m(f)(x)_n = sum of f(y)_{nm} over trace fibers Tr_{nm/n}(y) = x."""
    if m < 1:
        raise ValueError("Adams index must be positive")
    if m == 1:
        return f
    mon = f.monoid
    n_out = f.level_bound // m
    if n_out < 1:
        raise TruncationExceeded(
            f"psi_{m} needs level budget >= {m}, have {f.level_bound}"
        )
    out = CountingFunction(mon, f.grade_bound, n_out)
    for y, lev, v in f.support():
        if lev % m:
            continue
        n = lev // m
        if n > n_out:
            continue
        x = mon.trace(y, n, m)
        out._accumulate(x, n, v)
    return out


def _check_augmented_zero(f: CountingFunction):
    z = f.monoid.zero()
    for n in range(1, f.level_bound + 1):
        if not f.value(z, n).is_zero():
            raise NotAugmented("nonzero value at the zero element")


def _check_augmented_one(f: CountingFunction):
    z = f.monoid.zero()
    one = ExactScalar.one()
    for n in range(1, f.level_bound + 1):
        if f.value(z, n) != one:
            raise NotAugmented("value at the zero element must be 1 at every level")


def exp_conv(f: CountingFunction) -> CountingFunction:
    """Convolution exponential of a function vanishing at zero."""
    _check_augmented_zero(f)
    out = CountingFunction.unit(f.monoid, f.grade_bound, f.level_bound)
    power = CountingFunction.unit(f.monoid, f.grade_bound, f.level_bound)
    fact = 1
    for s in range(1, f.grade_bound + 1):
        power = convolve(power, f)
        fact *= s
        out = out + power.scale(Fraction(1, fact))
    return out


def log_conv(big_f: CountingFunction) -> CountingFunction:
    """Convolution logarithm of a function with value 1 at zero."""
    _check_augmented_one(big_f)
    f = big_f - CountingFunction.unit(big_f.monoid, big_f.grade_bound, big_f.level_bound)
    out = CountingFunction(big_f.monoid, big_f.grade_bound, big_f.level_bound)
    power = CountingFunction.unit(big_f.monoid, big_f.grade_bound, big_f.level_bound)
    for s in range(1, big_f.grade_bound + 1):
        power = convolve(power, f)
        out = out + power.scale(Fraction((-1) ** (s - 1), s))
    return out


def pleth_sym(f: CountingFunction) -> CountingFunction:
    """Plethystic exponential exp(sum_k psi_k(f)/k); level budget divides by
    the grade bound."""
    _check_augmented_zero(f)
    g = f.grade_bound
    n_out = f.level_bound // g
    if n_out < 1:
        raise TruncationExceeded("level budget too small for the grade bound")
    acc = f.restricted(level_bound=n_out)
    for k in range(2, g + 1):
        acc = acc + adams(f, k).restricted(level_bound=n_out).scale(Fraction(1, k))
    return exp_conv(acc)


def pleth_log(big_f: CountingFunction) -> CountingFunction:
    """Plethystic logarithm via Moebius inversion of Adams-twisted log."""
    _check_augmented_one(big_f)
    g = big_f.grade_bound
    n_out = big_f.level_bound // g
    if n_out < 1:
        raise TruncationExceeded("level budget too small for the grade bound")
    lg = log_conv(big_f)
    out = lg.restricted(level_bound=n_out)
    for m in range(2, g + 1):
        mu = mobius(m)
        if mu:
            out = out + adams(lg, m).restricted(level_bound=n_out).scale(Fraction(mu, m))
    return out


def log_direct(big_f: CountingFunction) -> CountingFunction:
    """The closed Moebius formula for the plethystic logarithm, evaluated by
    direct enumeration of trace tuples:

        Log(1+f)(x)_n = sum_{m,s} (-1)^(s-1) mu(m)/(ms)
                        sum_{(y_i) level-nm fixed, sum Tr(y_i) = x}
                        f(y_1)_{nm} ... f(y_s)_{nm}.

    Tuples are enumerated from the support of f (zero factors kill a tuple),
    accumulating into x = sum of traces.  Agrees with pleth_log on every input
    within truncation; the pair is this module's central cross-oracle.
    """
    _check_augmented_one(big_f)
    mon = big_f.monoid
    g = big_f.grade_bound
    n_out = big_f.level_bound // g
    if n_out < 1:
        raise TruncationExceeded("level budget too small for the grade bound")
    unit = CountingFunction.unit(mon, big_f.grade_bound, big_f.level_bound)
    f = big_f - unit
    by_level: dict[int, list] = {}
    for y, lev, v in f.support():
        if mon.grade(y) >= 1:
            by_level.setdefault(lev, []).append((y, v))
    out = CountingFunction(mon, g, n_out)
    for n in range(1, n_out + 1):
        for m in range(1, g + 1):
            mu = mobius(m)
            if mu == 0 or n * m > big_f.level_bound:
                continue
            pool = [
                (y, mon.trace(y, n, m), mon.grade(y) * m, v)
                for y, v in by_level.get(n * m, ())
                if mon.grade(y) * m <= g
            ]
            if not pool:
                continue

            def rec(trace_sum, budget, prod, s):
                if s >= 1:
                    out._accumulate(
                        trace_sum, n, prod * Fraction((-1) ** (s - 1) * mu, m * s)
                    )
                for y, tr, gy, v in pool:
                    if gy <= budget:
                        nxt = tr if trace_sum is None else mon.add(trace_sum, tr)
                        rec(nxt, budget - gy, prod * v, s + 1)

            rec(None, g, ExactScalar.one(), 0)
    return out


# ---------------------------------------------------------------------------
# Functoriality along monoid morphisms.


def pushforward(morphism, f: CountingFunction) -> CountingFunction:
    """Sum values over fibers; a homomorphism of lambda-rings when the fibers
    are sigma-finite."""
    if not getattr(morphism, "sigma_finite", False):
        raise NotSigmaFinite("pushforward requires sigma-finite fibers")
    if f.monoid != morphism.source:
        raise MonoidMismatch("function does not live on the morphism source")
    out = CountingFunction(morphism.target, f.grade_bound, f.level_bound)
    for x, n, v in f.support():
        out._accumulate(morphism.map(x), n, v)
    return out
