"""The p-adic volume engine and BPS extraction.

Toric side: for a split quotient stack [A^n / G] with G a split torus times a
product of split finite cyclic group schemes, enumerate the twisted points of
the special fibre (orbits of G(F_q) on a fibre of the coarse map, paired with
homomorphisms mu_r -> stabilizer read off through Cartier duality), weight
them by q^{-w}, form the generating series in T, fit it as a rational function
and evaluate minus its limit at T -> infinity.  This reproduces the orbifold
volume of the coarse space.

Linear side: for the monoid of vector spaces, the weighted inertia count of
the rigidified automorphism groups is computed two ways: a parametrized path
(trace tuples, weight-region counts, Moebius/gerbe factors) and a brute-force
path over projective linear groups of small finite fields.  Minus the limit,
normalized by half-Lefschetz powers, yields a counting function satisfying
the plethystic-logarithm identity; the residual of that identity is exposed
as a report.  Refined BPS invariants of symmetric quivers are extracted by
applying the plethystic logarithm to stacky point counts.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .ehrhart import DeltaRegion, delta_count, delta_limit, positive_functional_exists
from .lambdaring import (CountingFunction, VolumeElem, log_demand, log_direct, mobius,
                         pleth_log)
from .ratfun import Series, fit_first
from .scalar import (
    DEFAULT_CONVENTION,
    ExactScalar,
    HalfLConvention,
    factor,
    half_l_adams,
    half_l_power,
    q_power,
    root_of_unity,
)
from .monoids import LinearObjectsMonoid, Quiver, _compositions, gl_order


class StackyError(Exception):
    pass


class NonSplitFiniteGroup(StackyError):
    """Some finite cyclic order does not divide q - 1."""


class NoBasePoint(StackyError):
    """The requested fibre is empty."""


class UnsupportedAutGroup(StackyError):
    """The parametrized weighted-inertia path needs a product of general
    linear groups (the vector-space variant)."""


class BruteForceTooLarge(StackyError):
    pass


class NotGenericallyRepresentable(StackyError):
    """Every point of the affine space has a nontrivial stabilizer."""


# ---------------------------------------------------------------------------
# Small exact integer linear algebra.


def smith_form(cols, rows: int):
    """Diagonalize the rows x len(cols) matrix M with the given columns by
    integer row and column operations, U·M·V = D.  Returns (free rank of
    Z^rows / span(cols), its sorted diagonal factors > 1, the diagonal of D
    in elimination order, U): U is unimodular, the row operations applied
    to the identity, so psi·M = 0 mod r exactly when psi = phi·U with
    phi·D = 0 mod r.  D need not be the normal form (2, 3 is not 1, 6)."""
    n = len(cols)
    # M with the identity appended, so that the row operations build U
    mat = [[col[i] for col in cols] + [int(i == j) for j in range(rows)] for i in range(rows)]
    diag = []
    while len(diag) < min(rows, n):
        t = len(diag)
        nonzero = [(abs(mat[i][j]), i, j) for i in range(t, rows) for j in range(t, n) if mat[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)  # the first least entry, row by row
        mat[t], mat[i] = mat[i], mat[t]
        for row in mat:
            row[t], row[j] = row[j], row[t]
        p = mat[t][t]
        for i in range(t + 1, rows):
            f = mat[i][t] // p
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[t])]
        for j in range(t + 1, n):
            f = mat[t][j] // p
            for row in mat:
                row[j] -= f * row[t]
        if not any(mat[i][t] for i in range(t + 1, rows)) and not any(mat[t][t + 1:n]):
            diag.append(abs(p))
    return rows - len(diag), sorted(d for d in diag if d > 1), diag, [row[n:] for row in mat]


def smith_invariants(cols, rows: int):
    """(free rank, sorted diagonal factors > 1) of Z^rows / span(cols): the
    diagonal of smith_form, without its U."""
    return smith_form(cols, rows)[:2]


# ---------------------------------------------------------------------------
# Small finite fields by discrete logarithms.

_GF_TABLE_CAP = 4096


def _x_power(k: int, tail, p: int) -> list[int]:
    """x^k modulo x^e + tail(x) over F_p by squaring, the constant first."""
    e, out = len(tail), [1] + [0] * (len(tail) - 1)
    for bit in bin(k)[2:]:
        sq = [0] * (2 * e)
        for i, a in enumerate(out, bit == "1"):  # out^2, times x on a 1 bit
            for j, b in enumerate(out, i):
                sq[j] += a * b
        for i in range(2 * e - 1, e - 1, -1):
            for j, t in enumerate(tail, i - e):
                sq[j] -= sq[i] % p * t
        out = [c % p for c in sq[:e]]
    return out


class GF:
    """F_{p^e} by discrete logarithms (small fields only).

    Elements are integers 0..p^e-1, base-p digit encoding of polynomials over
    F_p modulo a monic primitive polynomial of degree e: the class of x
    generates the unit group (for e = 1 the modulus is x + c, and x = -c is a
    primitive root).  The modulus is the first primitive one, its lower
    coefficients (constant term first) in product order, each candidate
    tested by powers of x and only the chosen one walked.  `exp[k]`
    is the k-th power of the generator, doubled to length 2(p^e - 1) so that
    sums of two logarithms need no reduction; `log` inverts it on the nonzero
    elements; `zech[k]` = log(1 + g^k), None where 1 + g^k = 0.  Every
    operation is a lookup in these three tables.
    """

    def __init__(self, p: int, e: int):
        size = p**e
        if size > _GF_TABLE_CAP:
            raise BruteForceTooLarge(f"field of size {size} exceeds the table cap")
        self.p = p
        self.e = e
        self.size = size
        order = size - 1
        one = [1] + [0] * (e - 1)
        # The first modulus under which x has order p^e - 1, so that every
        # nonzero class is a power of x: x^order is 1 and no x^(order / l) is,
        # l prime.  Cheaper tests skip most candidates first: a root in F_p
        # (degree >= 2), or a norm x^(order / (p - 1)) = (-1)^e tail[0] that
        # is no primitive root mod p.  Only the chosen modulus is walked.
        for tail in itertools.product(range(p), repeat=e):
            if tail[0] and all(pow((-1) ** e * tail[0], (p - 1) // l, p) != 1
                               for l, _ in factor(p - 1)) and (e == 1 or all(
                    (c**e + sum(t * c**i for i, t in enumerate(tail))) % p
                    for c in range(1, p))) and _x_power(order, tail, p) == one and all(
                    _x_power(order // l, tail, p) != one for l, _ in factor(order)):
                break
        cycle = [one]
        for _ in range(order - 1):
            cycle.append([(c - cycle[-1][-1] * t) % p for c, t in zip([0] + cycle[-1][:-1], tail)])
        powers = [sum(d * p**i for i, d in enumerate(c)) for c in cycle]
        self.exp = powers + powers
        self.log = [None] * size
        for k, x in enumerate(powers):
            self.log[x] = k
        # adding 1 is adding 1 to the lowest digit; log[0] is None
        self.zech = [self.log[x - x % p + (x + 1) % p] for x in powers]
        self.generator = self.exp[1]

    def add(self, x, y):
        if not x:
            return y
        if not y:
            return x
        lx = self.log[x]
        # a negative index wraps around, i.e. is taken mod p^e - 1
        z = self.zech[self.log[y] - lx]
        return 0 if z is None else self.exp[lx + z]

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if not x or not y:
            return 0
        return self.exp[self.log[x] + self.log[y]]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError
        return self.exp[self.size - 1 - self.log[x]]

    def neg(self, x):
        if not x or self.p == 2:
            return x
        return self.exp[self.log[x] + (self.size - 1) // 2]

    def pow(self, x, k: int):
        if x == 0:
            if k < 0:
                raise ZeroDivisionError
            return 1 if k == 0 else 0
        return self.exp[self.log[x] * k % (self.size - 1)]

    def mult_order(self, x) -> int:
        if x == 0:
            raise ValueError
        return (self.size - 1) // math.gcd(self.log[x], self.size - 1)

    def subfield_elements(self, sub_size: int):
        """Elements fixed by x -> x^sub_size (the subfield of that size)."""
        return [x for x in range(self.size) if self.pow(x, sub_size) == x]


# ---------------------------------------------------------------------------
# Toric quotient stack data and cyclotomic inertia.


class ToricStackDatum:
    """[A^n / G] with G = G_m^k x prod mu_{d_i}, split over F_q, acting
    diagonally through the columns of an integer weight matrix with k + l rows.
    """

    def __init__(self, n: int, torus_rank: int, finite_orders, weights, q: int):
        self.n = n
        self.k = torus_rank
        self.finite_orders = list(finite_orders)
        self.l = len(self.finite_orders)
        self.weights = [list(map(int, row)) for row in weights]
        self.q = q
        self._coefficients = []  # volume_series coefficients, r = 1, 2, ...
        self._smith = {}  # support -> smith_form of its relation columns
        if len(self.weights) != self.k + self.l:
            raise ValueError("weight matrix must have torusRank + #finiteOrders rows")
        if any(len(row) != n for row in self.weights):
            raise ValueError("weight matrix must have n columns")
        fac = factor(q)
        if len(fac) != 1:
            raise ValueError("q must be a prime power")
        self.p, self.e = fac[0]
        for d in self.finite_orders:
            if d < 1 or (q - 1) % d:
                raise NonSplitFiniteGroup(f"order {d} does not divide q - 1 = {q - 1}")
        free, finite, _, _ = self._smith_form(frozenset(range(n)))
        if free or finite:
            raise NotGenericallyRepresentable(
                "the generic point has a nontrivial stabilizer"
            )

    # the relation columns d_i e_{k+i} and chi_j (j in the support)
    def _relations(self, support: frozenset):
        cols = []
        for i, d in enumerate(self.finite_orders):
            col = [0] * (self.k + self.l)
            col[self.k + i] = d
            cols.append(col)
        for j in sorted(support):
            cols.append([self.weights[r][j] for r in range(self.k + self.l)])
        return cols

    # stabilizer of a point with the given support, as the cokernel of its
    # relation columns: their smith_form, computed once per support
    def _smith_form(self, support: frozenset):
        if support not in self._smith:
            self._smith[support] = smith_form(self._relations(support), self.k + self.l)
        return self._smith[support]

    def _in_fiber(self, support: frozenset) -> bool:
        if not support:
            return True
        if self.k == 0:
            return False
        vectors = [[self.weights[r][j] for r in range(self.k)] for j in sorted(support)]
        return positive_functional_exists(vectors)

    def fiber_orbits(self):
        """Orbit representatives and stabilizer data of G(F_q) acting on the
        F_q-points of the origin fibre.

        Returns a list of (representative point, orbit size, support).
        """
        cached = getattr(self, "_orbit_cache", None)
        if cached is not None:
            return cached
        if self.q**self.n > 2 * 10**6:
            raise StackyError(
                f"fibre enumeration over {self.q}^{self.n} points is out of reach"
            )
        gf = GF(self.p, self.e)
        q = self.q
        g0 = gf.generator
        fiber_pts = []
        fiber_ok: dict[frozenset, bool] = {}
        for pt in itertools.product(range(q), repeat=self.n):
            supp = frozenset(j for j, c in enumerate(pt) if c)
            ok = fiber_ok.get(supp)
            if ok is None:
                ok = self._in_fiber(supp)
                fiber_ok[supp] = ok
            if ok:
                fiber_pts.append(pt)
        if not fiber_pts:
            raise NoBasePoint("the origin fibre has no rational points")
        generators = []
        for r in range(self.k):
            generators.append([gf.pow(g0, self.weights[r][j]) for j in range(self.n)])
        for i in range(self.l):
            zeta = gf.pow(g0, (q - 1) // self.finite_orders[i])
            generators.append(
                [gf.pow(zeta, self.weights[self.k + i][j]) for j in range(self.n)]
            )
        # fiber_pts is sorted, so each new representative is the least point
        # of the fibre outside the orbits found so far
        seen: set = set()
        orbits = []
        for rep in fiber_pts:
            if rep in seen:
                continue
            orbit = {rep}
            frontier = [rep]
            while frontier:
                cur = frontier.pop()
                for gen in generators:
                    nxt = tuple(gf.mul(gen[j], cur[j]) for j in range(self.n))
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
            seen |= orbit
            supp = frozenset(j for j, c in enumerate(rep) if c)
            orbits.append((rep, len(orbit), supp))
        self._orbit_cache = orbits
        return orbits


class InertiaPoint:
    """One F_q-class of the cyclotomic inertia stack: an orbit representative
    together with a homomorphism from mu_r into its stabilizer."""

    __slots__ = ("rep", "phi", "order", "weight", "_free_rank", "_finite_factors", "_q")

    def __init__(self, rep, phi, order, weight, free_rank, finite_factors, q):
        self.rep = rep
        self.phi = phi
        self.order = order
        self.weight = weight
        self._free_rank = free_rank
        self._finite_factors = finite_factors
        self._q = q

    def aut_order(self, n: int = 1) -> ExactScalar:
        return ((q_power(n) - 1) ** self._free_rank
                * math.prod(math.gcd(f, self._q**n - 1) for f in self._finite_factors))

    def __repr__(self):
        return (
            f"InertiaPoint(rep={self.rep}, phi={self.phi}, order={self.order}, "
            f"weight={self.weight})"
        )


def character_count(datum: ToricStackDatum, support: frozenset, r: int) -> int:
    """The number of homomorphisms mu_r -> Stab for a point with the given
    support, prod gcd(d_i, r) * r^(free rank): its r-twisted points."""
    free_rank, finite, _, _ = datum._smith_form(support)
    return math.prod(math.gcd(d, r) for d in finite) * r**free_rank


def _stab_homs(datum: ToricStackDatum, support: frozenset, r: int):
    """Homomorphisms mu_r -> Stab as character vectors psi in (Z/r)^(k+l)
    vanishing on the relation columns (Cartier duality), in increasing
    order.  With U·M·V = D the support's smith_form, they are the phi·U mod
    r with phi_i in (r / gcd(d_i, r))·Z/r below the rank of D and free above
    it; phi -> phi·U is a bijection mod r, so none repeats."""
    if character_count(datum, support, r) > 10**7:
        raise StackyError(f"too many characters at r = {r}")
    _, _, diag, u = datum._smith_form(support)
    steps = [r // math.gcd(d, r) for d in diag] + [1] * (len(u) - len(diag))
    return sorted(tuple(sum(p * row[j] for p, row in zip(phi, u)) % r for j in range(len(u)))
                  for phi in itertools.product(*(range(0, r, s) for s in steps)))


def _twist_weight(datum: ToricStackDatum, psi, r: int) -> Fraction:
    """Weight of the twisted sector of the character psi of mu_r: the sum
    over the columns of their characters' representatives in (0, 1], minus k."""
    rows = range(datum.k + datum.l)
    return Fraction(sum(sum(psi[i] * datum.weights[i][j] for i in rows) % r or r
                        for j in range(datum.n)) - datum.k * r, r)


def inertia_points(datum: ToricStackDatum, r: int):
    """All F_q-classes of r-twisted points over the origin fibre, with their
    weights and automorphism orders."""
    if r < 1:
        raise ValueError("r must be positive")
    out, cache = [], {}
    for rep, _, supp in datum.fiber_orbits():
        if supp not in cache:
            sectors = [(psi, r // math.gcd(r, *psi) if any(psi) else 1,
                        _twist_weight(datum, psi, r)) for psi in _stab_homs(datum, supp, r)]
            cache[supp] = (*datum._smith_form(supp)[:2], sectors)
        free_rank, finite, sectors = cache[supp]
        for psi, order, w in sectors:
            out.append(InertiaPoint(rep, psi, order, w, free_rank, finite, datum.q))
    return out


def volume_series(datum: ToricStackDatum, order: int = 12) -> Series:
    """Generating series: coefficient of T^r is the weighted mass of the
    r-twisted points over the fibre, sum of q^{-w(y)} / |Aut(y)(F_q)|.

    Orbits of one support share characters, weights and |Aut|, so the
    support's Laurent sum of q^{-w} is divided by |Aut| once.  Terms keep
    the order of the point-by-point sum (tests/helpers.py): a term with a
    pole at q = 1 (a torus in Aut) leaves one in every later sum, all
    coefficients being positive, so adding two such terms cancels a common
    factor and sorts the terms however they were summed.  The origin's
    orbit (first point, then the rest) and every later orbit with a pole
    end on such an add; the Laurent points after the last are added one by
    one.  Coefficients are kept on the datum, so every r is computed once
    however many prefixes are asked for."""
    coeffs = datum._coefficients
    for r in range(len(coeffs) + 1, order + 1):
        orbits = [list(pts) for _, pts in
                  itertools.groupby(inertia_points(datum, r), lambda pt: pt.rep)]
        last = max((i for i, pts in enumerate(orbits) if pts[0]._free_rank), default=len(orbits))
        acc, terms = ExactScalar.zero(), {}
        for i, pts in enumerate(orbits):
            aut, powers = pts[0].aut_order(1), [q_power(-pt.weight) for pt in pts]
            if i > last:
                for x in powers:
                    acc = acc + x / aut
            elif i == 0 and pts[0]._free_rank and len(powers) > 1:
                acc = powers[0] / aut + sum(powers[1:], ExactScalar.zero()) / aut
            else:
                supp = frozenset(j for j, c in enumerate(pts[0].rep) if c)
                if supp not in terms:
                    terms[supp] = sum(powers, ExactScalar.zero()) / aut
                acc = acc + terms[supp]
        coeffs.append(acc)
    return Series(coeffs[:order])


def _stabilizer_exponent(datum: ToricStackDatum) -> int:
    out = 1
    for _, _, supp in datum.fiber_orbits():
        _, finite, _, _ = datum._smith_form(supp)
        for f in finite:
            out = math.lcm(out, f)
    return out


def volume_ladder(datum: ToricStackDatum) -> list:
    """The (delta, D, series order) ansatzes volume_fit tries in turn: delta
    starts at the lcm of the stabilizer exponents and doubles up to 16 times
    that."""
    big_d = datum.k + datum.l + 1
    deltas = [_stabilizer_exponent(datum) * 2**i for i in range(5)]
    return [(delta, big_d, delta * big_d + delta + 4) for delta in deltas]


def volume_fit(datum: ToricStackDatum):
    """Fit the twisted-point series as a rational function, on the first
    ansatz of volume_ladder that fits."""
    return fit_first(volume_ladder(datum), lambda order: volume_series(datum, order))


def orbifold_volume(datum: ToricStackDatum) -> ExactScalar:
    """Minus the limit at T -> infinity of the fitted twisted-point series."""
    return -volume_fit(datum).limit_at_infinity()


def dm_orbifold_sum(datum: ToricStackDatum) -> ExactScalar:
    """The finite orbifold sum over all twisted sectors, valid when every
    stabilizer on the fibre is finite: sum of q^{-w(y)} / |Aut(y)(F_q)|."""
    acc = ExactScalar.zero()
    for rep, _, supp in datum.fiber_orbits():
        free_rank, finite, _, _ = datum._smith_form(supp)
        if free_rank:
            raise StackyError("fibre has a positive-dimensional stabilizer")
        exponent = math.lcm(1, *finite)
        aut = math.prod(math.gcd(f, datum.q - 1) for f in finite)
        # homomorphisms from the full profinite cyclic group = Hom(A, Q/Z),
        # enumerated at the exponent of A
        for psi in _stab_homs(datum, supp, exponent):
            acc = acc + q_power(-_twist_weight(datum, psi, exponent)) / aut
    return acc


# ---------------------------------------------------------------------------
# Weighted inertia of linear objects (vector-space variant).


def stacky_counting_function(monoid: LinearObjectsMonoid, grade_bound: int,
                             level_bound: int, caps=None) -> CountingFunction:
    """The half-Lefschetz-shifted groupoid count as a counting function on the
    dimension lattice: the input to the plethystic logarithm.  caps, such as
    log_demand gives, tabulates only the slots the logarithm reads (see
    CountingFunction.from_callable)."""
    return CountingFunction.from_callable(
        monoid, grade_bound, level_bound, lambda x, n: monoid.stacky_value(x, n), caps
    )


def _vect_dimension(monoid, x=0) -> int:
    """The dimension a of x, (a,) or a, once monoid is checked to be the
    vector-space variant, the only one the weighted inertia path supports."""
    if not isinstance(monoid, LinearObjectsMonoid) or not monoid.is_vect:
        raise UnsupportedAutGroup(
            "weighted inertia is implemented for the vector-space variant "
            "(automorphism groups a single general linear group)"
        )
    return x[0] if isinstance(x, tuple) else int(x)


def weighted_inertia_coefficient(monoid: LinearObjectsMonoid, x, n: int, r: int,
                                 mode: str = "differences") -> ExactScalar:
    """Parametrized weighted inertia mass at twist order r and level n.

    Classes are parametrized by a gerbe order m | r with a coprime residue d,
    an ordered tuple of nonzero summands (y_i) whose m-fold traces add to x,
    and a weight configuration in the region 0 < w_1 < ... < w_s <= 1/m; the
    per-class mass combines the gerbe root of unity e^{2 pi i d/m}, the sign
    from the modified gerbe function, exact q-powers from the weight function,
    and centralizer orders |GL| over the level-nm field.  The gerbe roots
    summed over d are the Ramanujan sum c_m(1) = mu(m), so only squarefree m
    contribute.
    """
    total = ExactScalar.zero()
    for m, s, mu_sign, tuple_sum in _class_masses(monoid, x, n):
        n_delta = 0 if r % m else delta_count(DeltaRegion(m, s), r, mode)
        if n_delta:
            total = total + tuple_sum * Fraction(mu_sign * n_delta, m * s)
    return total * (q_power(n) - 1)


def _class_masses(monoid: LinearObjectsMonoid, x, n: int) -> list:
    """The factors of the weighted inertia mass that do not depend on the twist
    order: (m, s, mu(m) * sign, composition sum of class masses), in order."""
    a = _vect_dimension(monoid, x)
    conv = monoid.conv
    xx = monoid.euler_form((a,), (a,))
    masses = []
    for m in range(1, a + 1):
        mu = 0 if a % m else mobius(m)
        if mu == 0:
            continue
        assert xx % (m * m) == 0
        sign = (-1) ** ((conv.b1 * xx // (m * m)) % 2)
        w = a // m
        for s in range(1, w + 1):
            tuple_sum = ExactScalar.zero()
            # the compositions of w into s positive parts, in lexicographic order
            for zs in _compositions(w - s, s):
                ys = [z + 1 for z in zs]
                e = Fraction(n * xx, 2) + Fraction(n * m * sum(y * y for y in ys), 2)
                mass = q_power(e)
                for y in ys:
                    mass = mass / gl_order(y, n * m)
                tuple_sum = tuple_sum + mass
            masses.append((m, s, mu * sign, tuple_sum))
    return masses


class BruteForceClass:
    """A conjugacy class of r-torsion elements of the projective automorphism
    group, with the data entering the weighted count."""

    __slots__ = ("rep", "alpha", "alpha_order", "weight_fn", "centralizer_order", "euler")

    def __init__(self, rep, alpha, alpha_order, weight_fn, centralizer_order, euler):
        self.rep = rep
        self.alpha = alpha
        self.alpha_order = alpha_order
        self.weight_fn = weight_fn
        self.centralizer_order = centralizer_order
        self.euler = euler


def weighted_inertia_coefficient_bruteforce(monoid: LinearObjectsMonoid, x, n: int, r: int):
    """Weighted inertia mass at twist order r by explicit enumeration of the
    projective linear group over the level-n field.

    Requires r | q^n - 1 (so that mu_r is constant on the level-n field).
    The group and its r-torsion classes are computed over the level-n field
    (`_SubfieldMatrices`); each class's lift, eigenspaces and gerbe class
    over the degree-n*r field.  Returns (coefficient, list of BruteForceClass).
    """
    a = _vect_dimension(monoid, x)
    conv = monoid.conv
    q, p, e0 = monoid.q, *factor(monoid.q)[0]
    qn = q**n
    if (qn - 1) % r:
        raise ValueError(f"brute force needs r | q^n - 1; got r={r}, q^n={qn}")
    if a == 0:
        return ExactScalar.zero(), []
    pgl_size = gl_order(a, n).substitute_q(q).as_rational() // (qn - 1)
    if pgl_size > 10**6:
        raise BruteForceTooLarge(f"|PGL_{a}(F_{qn})| = {pgl_size}")
    field = GF(p, e0 * n * r)
    sub = field.subfield_elements(qn)
    mats = _SubfieldMatrices(field, sub, a)
    zeta_r = field.pow(field.generator, (field.size - 1) // r)
    xx = monoid.euler_form((a,), (a,))

    group = mats.pgl()
    # the r-torsion: each g whose r-th power is scalar, with that scalar
    torsion = {g: sub[gr[0]] for g, _ in group if mats.is_scalar(gr := mats.pow(g, r))}
    remaining = set(torsion)
    total = ExactScalar.zero()
    infos = []
    while remaining:
        g = min(remaining)
        orbit = {mats.canon(mats.mul(mats.mul(z, g), z_inv)) for z, z_inv in group}
        remaining -= orbit
        rep = tuple(tuple(sub[c] for c in g[i:i + a]) for i in range(0, a * a, a))
        s = next(t for t in range(1, field.size) if field.pow(t, r) == field.inv(torsion[g]))
        h = [[field.mul(s, c) for c in row] for row in rep]
        # eigen-dimensions of the r-torsion lift
        dims = {}
        for c in range(r):
            lam = field.pow(zeta_r, c)
            d = a - _rank(field, [[field.sub(v, lam if i == j else 0) for j, v in enumerate(row)]
                                  for i, row in enumerate(h)])
            if d:
                dims[c] = d
        assert sum(dims.values()) == a, "lift is not diagonalizable"
        w = Fraction(-sum(d1 * d2 * ((c1 - c2) % r or r)
                          for c1, d1 in dims.items() for c2, d2 in dims.items()), r)
        # gerbe class: sigma(h) h^{-1} is the scalar sigma(s)/s in mu_r
        t = field.mul(field.pow(s, qn), field.inv(s))
        c_alpha = next(c for c in range(r) if field.pow(zeta_r, c) == t)
        alpha = Fraction(c_alpha, r) % 1
        o_alpha = alpha.denominator if alpha else 1
        assert xx % (o_alpha * o_alpha) == 0, "gerbe order squared must divide the pairing"
        sign = (-1) ** ((conv.b1 * xx // (o_alpha * o_alpha)) % 2)
        # orbit-stabilizer: the centralizer is the stabilizer of rep under
        # conjugation, so |PGL| = |class| * |centralizer|
        cent = len(group) // len(orbit)
        total = total + root_of_unity(alpha) * sign * q_power(-n * w) / cent
        infos.append(BruteForceClass(rep, alpha, o_alpha, w, cent, xx))
    return total, infos


class _Rows(dict):
    """A table whose row i, build(i), is built on first use."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, i):
        row = self[i] = self.build(i)
        return row


class _SubfieldMatrices:
    """a x a matrices over the subfield `sub` (its elements, sorted) of a GF,
    as flat row-major tuples of indices into `sub`, so index order is encoding
    order and 0, 1 index 0, 1.  Entries are added and multiplied by table
    rows built from the GF on first use (PGL_1 needs no |sub|^2 table)."""

    def __init__(self, field: GF, sub, a: int):
        index = {c: i for i, c in enumerate(sub)}
        self.a = a
        self.plus = _Rows(lambda i: [index[field.add(sub[i], d)] for d in sub])
        self.times = _Rows(lambda i: [index[field.mul(sub[i], d)] for d in sub])
        self.neg = [index[field.neg(c)] for c in sub]
        self.inv = [index[field.inv(c)] if c else None for c in sub]
        self.identity = tuple(int(i % (a + 1) == 0) for i in range(a * a))

    def mul(self, x, y):
        a, plus, times = self.a, self.plus, self.times
        cols = [y[j::a] for j in range(a)]
        out = []
        for i in range(0, a * a, a):
            row = x[i:i + a]
            for col in cols:
                acc = 0
                for c, d in zip(row, col):
                    acc = plus[acc][times[c][d]]
                out.append(acc)
        return tuple(out)

    def pow(self, m, k: int):  # k >= 1
        out = None
        while k:
            if k & 1:
                out = m if out is None else self.mul(out, m)
            k >>= 1
            if k:
                m = self.mul(m, m)
        return out

    def is_scalar(self, m) -> bool:
        return m == tuple(m[0] if c else 0 for c in self.identity)

    def canon(self, m):
        """The multiple of m whose first nonzero entry is 1."""
        scale = self.times[self.inv[next(c for c in m if c)]]
        return tuple(scale[c] for c in m)

    def inverse(self, m):
        """m^-1 by Gauss-Jordan elimination, None when m is singular."""
        a, plus, times = self.a, self.plus, self.times
        rows = [list(m[i:i + a] + self.identity[i:i + a]) for i in range(0, a * a, a)]
        for col in range(a):
            piv = next((i for i in range(col, a) if rows[i][col]), None)
            if piv is None:
                return None
            rows[col], rows[piv] = rows[piv], rows[col]
            scale = times[self.inv[rows[col][col]]]
            top = rows[col] = [scale[c] for c in rows[col]]
            for i, row in enumerate(rows):
                if i != col and row[col]:
                    f = times[self.neg[row[col]]]
                    rows[i] = [plus[c][f[d]] for c, d in zip(row, top)]
        return tuple(c for row in rows for c in row[a:])

    def pgl(self):
        """PGL_a as pairs (g, g^-1): g runs over the invertible matrices whose
        first nonzero entry is 1, the least element of each projective class,
        in product order."""
        cells = self.a * self.a
        group = []
        for lead in reversed(range(cells)):
            for rest in itertools.product(range(len(self.neg)), repeat=cells - 1 - lead):
                g = (0,) * lead + (1,) + rest
                g_inv = self.inverse(g)
                if g_inv is not None:
                    group.append((g, g_inv))
        return group


def _rank(field: GF, rows) -> int:
    """The rank of a matrix over the field: the number of pivot rows that
    Gaussian elimination takes out."""
    rank = 0
    for col in range(len(rows[0])):
        piv = next((row for row in rows if row[col]), None)
        if piv is not None:
            inv = field.inv(piv[col])
            rows = [[field.sub(c, field.mul(field.mul(inv, row[col]), d)) for c, d in zip(row, piv)]
                    for row in rows if row is not piv]
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# The counting function from the limit formula, the identity residual, and
# quiver BPS invariants.


def bps_counting_function(monoid: LinearObjectsMonoid, x, level_bound: int,
                          mode: str = "differences") -> VolumeElem:
    """Counting-function value at x from minus the limit at T -> infinity of
    the weighted inertia series, normalized by half-Lefschetz powers.  Its
    coefficient of T^r is (q^n - 1) sum K_{m,s} [m | r] Delta_{m,s}(r), with
    K_{m,s} = mu(m) sign / (m s) times the composition sum of class masses.
    As Delta_{m,s}(mk) = Delta_{1,s}(k) and U = T^m keeps the limit, it is
    (q^n - 1) sum K_{m,s} L_s, L_s = delta_limit of the region (1, s)."""
    a = _vect_dimension(monoid, x)
    conv = monoid.conv
    xx = monoid.euler_form((a,), (a,))
    sign = -((-1) ** ((conv.b2 * xx) % 2))
    limits = [delta_limit(DeltaRegion(1, s), mode).as_rational() for s in range(1, a + 1)]
    levels = []
    for n in range(1, level_bound + 1):
        lim = ExactScalar.zero()
        for m, s, mu_sign, tuple_sum in _class_masses(monoid, x, n):
            lim = lim + tuple_sum * (Fraction(mu_sign, m * s) * limits[s - 1])
        levels.append(sign * half_l_power(-xx - 1, n, conv) * (lim * (q_power(n) - 1)))
    return VolumeElem(levels)


class IdentityResidualReport:
    """Pointwise differences between the limit-formula counting function and
    the two plethystic-logarithm computations of the stacky counts."""

    def __init__(self, monoid, grade_bound, level_bound, mode, entries):
        self.monoid = monoid
        self.grade_bound = grade_bound
        self.level_bound = level_bound
        self.mode = mode
        self.entries = entries  # (x, n, lhs, log value, direct log value)

    def _residuals_zero(self) -> list:
        """Per entry, whether both of its differences vanish."""
        return [(lhs - lg).is_zero() and (lg - lgd).is_zero()
                for _, _, lhs, lg, lgd in self.entries]

    def is_zero(self) -> bool:
        return all(self._residuals_zero())

    def to_json(self):
        q0 = self.monoid.q
        zero = self._residuals_zero()
        return {
            "mode": self.mode,
            "grade_bound": self.grade_bound,
            "level_bound": self.level_bound,
            "q": q0,
            "identically_zero": all(zero),
            "entries": [
                {
                    "element": list(x),
                    "level": n,
                    "limit_formula": str(lhs),
                    "limit_formula_at_q": lhs.eval_numeric(q0).real,
                    "pleth_log": str(lg),
                    "pleth_log_at_q": lg.eval_numeric(q0).real,
                    "log_direct": str(lgd),
                    "residual_zero": z,
                }
                for (x, n, lhs, lg, lgd), z in zip(self.entries, zero)
            ],
        }


def plethystic_identity_residual(monoid: LinearObjectsMonoid, grade_bound: int,
                                 level_bound: int,
                                 mode: str = "differences") -> IdentityResidualReport:
    """Compute both sides of the plethystic-logarithm identity independently
    and report all pointwise differences (never raises on mismatch).

    Left side: the limit-formula counting function divided by the difference
    of half-Lefschetz powers.  Right side: pleth_log of the stacky counts,
    and the direct Moebius formula as a second, independent evaluation.
    """
    _vect_dimension(monoid)
    conv = monoid.conv
    budget = grade_bound * level_bound
    shifted = stacky_counting_function(monoid, grade_bound, budget,
                                       log_demand(grade_bound, budget))
    lg = pleth_log(shifted)
    lgd = log_direct(shifted)
    entries = []
    for a in range(1, grade_bound + 1):
        fx = bps_counting_function(monoid, (a,), level_bound, mode)
        for n in range(1, level_bound + 1):
            denom = half_l_power(1, n, conv) - half_l_power(-1, n, conv)
            lhs = fx.get(n) / denom
            entries.append(((a,), n, lhs, lg.value((a,), n), lgd.value((a,), n)))
    return IdentityResidualReport(monoid, grade_bound, level_bound, mode, entries)


def quiver_bps(quiver: Quiver, q: int, gamma_bound: int, level_bound: int,
               conv: HalfLConvention = DEFAULT_CONVENTION) -> dict:
    """Extract refined BPS invariants of a symmetric quiver: apply the
    plethystic logarithm to the stacky counting function and multiply by the
    difference of half-Lefschetz powers.  Returns {dimension vector:
    VolumeElem of its level-truncated invariants}.  The counts have level n
    = psi_n(level 1) and Adams operations commute with Log, so coherent bits
    (b1 = b2) run the logarithm at level 1 only and take level n by
    half_l_adams; mixed bits, where psi_m psi_n != psi_mn, run every level."""
    monoid = LinearObjectsMonoid(quiver, q, conv)
    levels = 1 if conv.b1 == conv.b2 else level_bound
    budget = gamma_bound * levels
    shifted = stacky_counting_function(monoid, gamma_bound, budget,
                                       log_demand(gamma_bound, budget))
    lg = pleth_log(shifted)
    out = {}
    for gamma in monoid.fixed_elements(1, gamma_bound):
        if sum(gamma) == 0:
            continue
        values = [lg.value(gamma, n) * (half_l_power(1, n, conv) - half_l_power(-1, n, conv))
                  for n in range(1, levels + 1)]
        values += [half_l_adams(values[0], n, conv) for n in range(levels + 1, level_bound + 1)]
        out[gamma] = VolumeElem(values)
    return out


# ---------------------------------------------------------------------------
# Delta-count report (both modes, fitted limits, and the consistency verdict).


def delta_report(max_m: int = 3, max_s: int = 3, max_r: int = 24) -> dict:
    """Tabulate both counting modes of the weight regions with their fitted
    limits, and determine empirically which mode is consistent with the
    brute-force weighted inertia count and the plethystic identity."""
    modes = ("differences", "orbits")
    table = []
    for m in range(1, max_m + 1):
        for s in range(1, max_s + 1):
            region = DeltaRegion(m, s)
            counts = {mode: [delta_count(region, r, mode) for r in range(1, max_r + 1)]
                      for mode in modes}
            limits = {mode: str(delta_limit(region, mode)) for mode in modes}
            table.append({"m": m, "s": s, "counts": counts, "limits": limits})
    # (q, r) pairs with r | q - 1; r = 4 is the first spot where the two
    # counting modes disagree, so q = 5 discriminates
    checks = []
    for q_chk, r_chk in ((3, 2), (5, 4)):
        mon = LinearObjectsMonoid.vect(q_chk)
        brute, _ = weighted_inertia_coefficient_bruteforce(mon, (2,), 1, r_chk)
        checks.append((mon, r_chk, brute.substitute_q(q_chk)))
    verdict = {}
    for mode in modes:
        agree = all(
            weighted_inertia_coefficient(mon, (2,), 1, r_chk, mode).substitute_q(mon.q) == brute
            for mon, r_chk, brute in checks
        )
        resid = plethystic_identity_residual(LinearObjectsMonoid.vect(3), 2, 1, mode)
        verdict[mode] = {"bruteforce_match": agree, "identity_residual_zero": resid.is_zero()}
    consistent = [m for m, v in verdict.items() if v["bruteforce_match"] and v["identity_residual_zero"]]
    determination = (
        "mode(s) consistent with the brute-force count and the plethystic "
        f"identity: {', '.join(consistent) if consistent else 'none'}; "
        "the differences parametrization is the convention under which the "
        "limit formula reproduces the identity, while the orbit count deviates "
        "as soon as weight translations have nontrivial stabilizers "
        "(first at m=1, s=2, r=4)."
    )
    return {"table": table, "verdict": verdict, "determination": determination}
