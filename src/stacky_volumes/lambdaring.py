"""The lambda-ring of counting functions on a graded monoid with Galois
action, and level-indexed values (VolumeElem) for per-level results.

A counting function assigns to each pair (element x, level n) a scalar, zero
unless x is fixed by the n-th Frobenius power.  Convolution multiplies the
level-n values of every pair of support elements into their sum; Adams psi_m
moves each level-nm value to the trace Tr_{nm/n} of its element at level n;
Sym/Log are the plethystic exponential and logarithm; log_direct evaluates
the closed Moebius formula for Log by direct enumeration of multisets of
trace tuples, each weighted by its multinomial count of orderings, and
serves as the module's internal cross-oracle for pleth_log.

Truncation is two-dimensional: a level bound N and a total-grade bound G.
Adams psi_m divides the level budget by m; Sym/Log and log_direct divide it
by G (only psi_k with k <= G can contribute below grade bound G).

Log F = sum_m mu(m)/m psi_m(log F) reads log F only at the levels n*m with
n <= N // G and squarefree m <= G, and there only at grade <= G // m, since
psi_m multiplies grade by m.  log_demand maps each such level to the largest
of its caps, and pleth_log computes the convolution logarithm on those slots
alone.  This is exact: f = F - 1 vanishes at zero and grade is additive, so
a slot of grade c receives contributions from f^s with s <= c only, each the
same pairs in the same order as under full truncation.  Its loop starts at
f^1 = f and adds each scaled power into the sum in place.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ExactScalar, Sums, factor, join, lift


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
    """Sparse map (monoid element, level) -> scalar with Frobenius support,
    stored level by level: values[n] maps each element to its nonzero value.
    One field per function: every value's form sits at field = (n, m), all
    lifted when a value from a larger field is set, so the operations below
    multiply and add forms with no lift, summed in place in a scalar.Sums."""

    __slots__ = ("monoid", "grade_bound", "level_bound", "values", "field")

    def __init__(self, monoid, grade_bound: int, level_bound: int, entries=None):
        self.monoid = monoid
        self.grade_bound = grade_bound
        self.level_bound = level_bound
        self.values: dict[int, dict] = {}
        self.field = (1, 1)
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
    def from_callable(monoid, grade_bound, level_bound, fn, caps=None) -> "CountingFunction":
        """Tabulate fn(element, level) over all fixed elements within bounds.
        caps, a {level: grade cap} map, keeps each level's elements within its
        cap, and only the zero element on a level it leaves out."""
        out = CountingFunction(monoid, grade_bound, level_bound)
        for n in range(1, level_bound + 1):
            cap = grade_bound if caps is None else caps.get(n, 0)
            for x in monoid.fixed_elements(n, grade_bound):
                if monoid.grade(x) <= cap:
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
        if v.is_zero():
            self.values.get(n, {}).pop(x, None)
        else:
            field = join(self.field, v.field)
            if field != self.field:
                self.values, self.field = self._at(field), field
            self.values.setdefault(n, {})[x] = lift(v, field)

    def _at(self, field) -> dict:
        """The values lifted to field, a multiple of this function's field."""
        return self.values if field == self.field else {
            n: {x: lift(v, field) for x, v in level.items()} for n, level in self.values.items()}

    def _summed(self, field, terms) -> "CountingFunction":
        """This empty function, filled by adding each term (n, x, v, w), v or v
        * w, nonzero and at field, into the value at (x, n), in order."""
        acc = Sums(field)
        for n, x, v, w in terms:
            acc.add(n, x, v, w)
        self.values, self.field = acc.result(), field
        return self

    # -- access ---------------------------------------------------------------

    def value(self, x, n) -> ExactScalar:
        if n > self.level_bound:
            raise TruncationExceeded(f"level {n} beyond truncation {self.level_bound}")
        return self.values.get(n, {}).get(x, ExactScalar.zero())

    def support(self):
        for n, level in self.values.items():
            for x, v in level.items():
                yield x, n, v

    def restricted(self, grade_bound=None, level_bound=None) -> "CountingFunction":
        gb = self.grade_bound if grade_bound is None else min(self.grade_bound, grade_bound)
        nb = self.level_bound if level_bound is None else min(self.level_bound, level_bound)
        out, grade = CountingFunction(self.monoid, gb, nb), self.monoid.grade
        out.values, out.field = {n: {x: v for x, v in level.items() if grade(x) <= gb}
                                 for n, level in self.values.items() if n <= nb}, self.field
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
                    keys.add((x, n))
        for x, n in sorted(keys):
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
        field = join(self.field, other.field)
        out = CountingFunction(self.monoid, self.grade_bound, self.level_bound)
        return out._summed(field, ((n, x, v, None) for f in (self, other)
                                   for n, level in f._at(field).items()
                                   for x, v in level.items()))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "CountingFunction":
        c = _coerce(c)
        field = join(self.field, c.field)
        out = CountingFunction(self.monoid, self.grade_bound, self.level_bound)
        c = lift(c, field)
        return out if c.is_zero() else out._summed(field, (
            (n, x, v, c) for n, level in self._at(field).items() for x, v in level.items()))

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        """JSON array of {element, level, value}; element keys are whatever
        the monoid instantiation uses (tuples become lists)."""
        def enc(x):
            return list(x) if isinstance(x, tuple) else x

        return [
            {"element": enc(x), "level": n, "value": v.to_json()}
            for x, n, v in sorted(self.support(), key=lambda t: (t[1], t[0]))
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


def convolve(f: CountingFunction, g: CountingFunction, caps=None) -> CountingFunction:
    """(f*g)(x)_n = sum over ordered pairs of level-n fixed elements with
    x' + x'' = x of f(x')_n g(x'')_n.

    within[b] lists g's level-n support of grade <= b in support order, so x
    visits exactly the in-bound pairs of the all-pairs loop, in its order.
    caps, a {level: grade cap} map, limits the product to the levels it names
    and each to the pairs of total grade at most its cap; without it every
    level runs to the grade bound."""
    f._check_compatible(g)
    mon = f.monoid
    field = join(f.field, g.field)
    out = CountingFunction(mon, f.grade_bound, f.level_bound)
    gv, acc = g._at(field), Sums(field)
    for n, level in f._at(field).items():
        bound = f.grade_bound if caps is None else caps.get(n)
        if bound is None:
            continue
        ys = [(mon.grade(y), y, w) for y, w in gv.get(n, {}).items()]
        within = [[(y, w) for gy, y, w in ys if gy <= b] for b in range(bound + 1)]
        for x, v in level.items():
            gx = mon.grade(x)
            if gx <= bound:
                for y, w in within[bound - gx]:
                    acc.add(n, mon.add(x, y), v, w)
    out.values, out.field = acc.result(), field
    return out


def adams(f: CountingFunction, m: int) -> CountingFunction:
    """psi_m(f)(x)_n = sum of f(y)_{nm} over trace fibers Tr_{nm/n}(y) = x;
    the trace has m times the grade of y."""
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
    return out._summed(f.field, ((n, mon.trace(y, n, m), v, None) for n in range(1, n_out + 1)
                                 for y, v in f.values.get(n * m, {}).items()
                                 if m * mon.grade(y) <= f.grade_bound))


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


def log_conv(big_f: CountingFunction, caps=None) -> CountingFunction:
    """Convolution logarithm of a function with value 1 at zero.

    caps, a {level: grade cap} map, computes only the levels it names, each
    below its cap; without it every level runs to the grade bound.  The
    truncation is exact: f = F - 1 vanishes at zero and grade is additive, so
    f^s has no support below grade s, and a level stops at power s = cap.
    The powers start at f within the caps, not at the unit convolved with f,
    and each is scaled and added into the sum in place: the same additions
    in the same order, so the forms of the values do not change."""
    _check_augmented_one(big_f)
    g, levels = big_f.grade_bound, big_f.level_bound
    if caps is None:
        caps = dict.fromkeys(range(1, levels + 1), g)
    f = big_f - CountingFunction.unit(big_f.monoid, g, levels)
    power = CountingFunction(f.monoid, g, levels)
    power.field = f.field
    for n in sorted(caps):
        power.values[n] = {y: w for y, w in f.values.get(n, {}).items()
                           if f.monoid.grade(y) <= caps[n]}

    def terms(power, caps):
        yield from ((n, x, v, None) for x, n, v in power.support())
        for s in range(2, max(caps.values(), default=0) + 1):
            caps = {n: c for n, c in caps.items() if c >= s}
            power = convolve(power, f, caps)
            c = lift(ExactScalar.from_rational(Fraction((-1) ** (s - 1), s)), f.field)
            yield from ((n, x, v, c) for x, n, v in power.support())

    return CountingFunction(f.monoid, g, levels)._summed(f.field, terms(power, caps))


def _plethystic_levels(f: CountingFunction) -> int:
    """Output levels of Sym, Log and log_direct: the level budget divided by
    the grade bound, since only psi_k with k <= G contributes below grade G."""
    n_out = f.level_bound // f.grade_bound
    if n_out < 1:
        raise TruncationExceeded("level budget too small for the grade bound")
    return n_out


def pleth_sym(f: CountingFunction) -> CountingFunction:
    """Plethystic exponential exp(sum_k psi_k(f)/k); level budget divides by
    the grade bound."""
    _check_augmented_zero(f)
    g = f.grade_bound
    n_out = _plethystic_levels(f)
    acc = f.restricted(level_bound=n_out)
    for k in range(2, g + 1):
        acc = acc + adams(f, k).restricted(level_bound=n_out).scale(Fraction(1, k))
    return exp_conv(acc)


def _log_reads(grade_bound: int, level_bound: int):
    """The (n, m) pairs of the Moebius sum Log F = sum_m mu(m)/m psi_m(log F)
    in the order log_direct visits them: output level n <= level_bound //
    grade_bound and squarefree m <= grade_bound.  Each reads level n*m of
    log F (and of F) only at grade <= grade_bound // m, since psi_m multiplies
    grade by m."""
    return [(n, m) for n in range(1, level_bound // grade_bound + 1)
            for m in range(1, grade_bound + 1) if mobius(m)]


def log_demand(grade_bound: int, level_bound: int) -> dict[int, int]:
    """{level: grade cap} of the slots the plethystic logarithm reads: level
    n*m up to the largest grade_bound // m over its (n, m) pairs.  Levels
    left out are never read."""
    caps: dict[int, int] = {}
    for n, m in _log_reads(grade_bound, level_bound):
        caps[n * m] = max(caps.get(n * m, 0), grade_bound // m)
    return caps


def pleth_log(big_f: CountingFunction) -> CountingFunction:
    """Plethystic logarithm via Moebius inversion of Adams-twisted log.

    The Moebius sum reads log F at level n*m (n <= level_bound // G,
    squarefree m <= G) only at grade <= G // m, so the convolution logarithm
    runs on those slots alone (log_demand).  Each of them receives the same
    additions in the same order as under full truncation, so values and
    term order do not change."""
    _check_augmented_one(big_f)
    g = big_f.grade_bound
    n_out = _plethystic_levels(big_f)
    lg = log_conv(big_f, log_demand(g, big_f.level_bound))
    out = lg.restricted(level_bound=n_out)
    for m in range(2, g + 1):
        mu = mobius(m)
        if mu:
            out = out + adams(lg, m).restricted(level_bound=n_out).scale(Fraction(mu, m))
    return out


def log_direct(big_f: CountingFunction) -> CountingFunction:
    """The closed Moebius formula for the plethystic logarithm, evaluated by
    direct enumeration of multisets of trace tuples:

        Log(1+f)(x)_n = sum_{m,s} (-1)^(s-1) mu(m)/(ms)
                        sum_{(y_i) level-nm fixed, sum Tr(y_i) = x}
                        f(y_1)_{nm} ... f(y_s)_{nm}.

    The summand does not depend on the order of the tuple, so the inner sum
    runs over multisets, the non-decreasing index sequences i_1 <= ... <= i_s
    into the level-nm support of f (zero factors kill a tuple), each weighted
    by its s!/prod k_j! orderings for multiplicities k_j: the coefficient is
    (-1)^(s-1) mu(m)/m (s-1)!/prod k_j!.  Appending an index whose run then
    has length k multiplies the ordering count by s/k.  Values agree with
    pleth_log on every input within truncation, the pair being this module's
    central cross-oracle; support order and term order are not those of the
    ordered-tuple sum.
    """
    _check_augmented_one(big_f)
    mon = big_f.monoid
    g = big_f.grade_bound
    n_out = _plethystic_levels(big_f)
    unit = CountingFunction.unit(mon, big_f.grade_bound, big_f.level_bound)
    f = big_f - unit
    acc, coefs = Sums(f.field), {}
    for n, m in _log_reads(g, big_f.level_bound):
        mu = mobius(m)
        pool = [
            (mon.trace(y, n, m), mon.grade(y) * m, v)
            for y, v in f.values.get(n * m, {}).items()
            if 1 <= mon.grade(y) <= g // m
        ]

        def rec(start, run, trace_sum, budget, prod, s, orderings):
            for i in range(start, len(pool)):
                tr, gy, v = pool[i]
                if gy > budget:
                    continue
                k = run + 1 if i == start else 1
                t, w = s + 1, orderings * (s + 1) // k
                nxt = tr if trace_sum is None else mon.add(trace_sum, tr)
                term = prod * v
                c = coefs.get((m, t, w))
                if c is None:
                    c = coefs[m, t, w] = lift(ExactScalar.from_rational(
                        Fraction((-1) ** (t - 1) * mu * w, m * t)), acc.field)
                acc.add(n, nxt, term, c)
                rec(i, k, nxt, budget - gy, term, t, w)

        rec(0, 0, None, g, ExactScalar.one(), 0, 1)
    out = CountingFunction(mon, g, n_out)
    out.values, out.field = acc.result(), acc.field
    return out


# ---------------------------------------------------------------------------
# Functoriality along monoid morphisms.


def pushforward(morphism, f: CountingFunction) -> CountingFunction:
    """Sum values over fibers of a grade-preserving morphism; a homomorphism
    of lambda-rings when the fibers are sigma-finite."""
    if not getattr(morphism, "sigma_finite", False):
        raise NotSigmaFinite("pushforward requires sigma-finite fibers")
    if f.monoid != morphism.source:
        raise MonoidMismatch("function does not live on the morphism source")
    out = CountingFunction(morphism.target, f.grade_bound, f.level_bound)
    return out._summed(f.field, ((n, morphism.map(x), v, None) for x, n, v in f.support()))
