"""Concrete graded Galois monoids: discrete lattices, free orbit monoids built
from a Frobenius orbit census, and dimension-vector monoids of linear objects
(vector spaces, symmetric quiver representations), which are discrete lattices
carrying automorphism orders and the symmetric Euler pairing; plus the grading
morphism that pushforward sums along.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lambdaring import mobius
from .scalar import DEFAULT_CONVENTION, ExactScalar, HalfLConvention, half_l_power, q_power


class MonoidError(Exception):
    pass


class NotSymmetric(MonoidError):
    """The quiver's Euler form is not symmetric."""


class GradedGaloisMonoid:
    """Capability surface shared by all instantiations.

    Elements are opaque handles owned by the monoid; the lambda-ring layer
    needs only addition, traces and the enumeration of fixed elements.
    """

    def zero(self):
        raise NotImplementedError

    def grade(self, x) -> int:
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def is_fixed(self, x, n: int) -> bool:
        raise NotImplementedError

    def fixed_elements(self, n: int, grade_bound: int) -> list:
        raise NotImplementedError

    def trace(self, y, n: int, m: int):
        """Tr_{nm/n}(y): the sum of the m Frobenius^n translates of y, for a
        monoid with a _frobenius_power(x, n)."""
        out = y
        cur = y
        for _ in range(m - 1):
            cur = self._frobenius_power(cur, n)
            out = self.add(out, cur)
        return out


class DiscreteLattice(GradedGaloisMonoid):
    """N^rank with trivial Frobenius; counting functions are power series in
    rank variables, convolution is the series product."""

    def __init__(self, rank: int):
        self.rank = rank

    def zero(self):
        return (0,) * self.rank

    def grade(self, x):
        return sum(x)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def is_fixed(self, x, n):
        return True

    def fixed_elements(self, n, grade_bound):
        out = []
        for total in range(grade_bound + 1):
            out.extend(_compositions(total, self.rank))
        return out

    def trace(self, y, n, m):
        return tuple(m * a for a in y)

    def __eq__(self, other):
        return type(other) is DiscreteLattice and self.rank == other.rank

    def __hash__(self):
        return hash(("DiscreteLattice", self.rank))

    def __repr__(self):
        return f"DiscreteLattice(rank={self.rank})"


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def affine_line_census(q: int, max_degree: int) -> dict[int, int]:
    """Number of Frobenius orbits of each size d on the affine line over F_q
    (= count of monic irreducible polynomials of degree d)."""
    out = {}
    for d in range(1, max_degree + 1):
        total = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
        out[d] = total // d
    return out


class FreeOrbitMonoid(GradedGaloisMonoid):
    """Free commutative monoid on a Galois set given by an orbit census.

    A geometric point is (orbit size d, orbit index, offset mod d); Frobenius
    shifts the offset.  Elements are finite multisets, stored as sorted
    tuples of ((d, i, o), multiplicity); the grading is the total size.
    grade, add and fixed_elements are memoized, as the lambda-ring loops
    repeat them.  The level-n atoms of a size-d orbit are the cosets
    c + gcd(d, n)Z mod d, so levels with the same gcds share fixed elements.
    """

    def __init__(self, census: dict[int, int]):
        self.census = dict(sorted(census.items()))
        self._grades, self._sums, self._fixed = {}, {}, {}

    def zero(self):
        return ()

    def grade(self, x):
        g = self._grades.get(x)
        if g is None:
            g = self._grades[x] = sum(mult for _, mult in x)
        return g

    def add(self, x, y):
        s = self._sums.get((x, y))
        if s is None:
            acc = dict(x)
            for p, m in y:
                acc[p] = acc.get(p, 0) + m
            s = self._sums[x, y] = tuple(sorted(acc.items()))
        return s

    def _frobenius_power(self, x, n):
        acc: dict = {}
        for (d, i, o), m in x:
            p = (d, i, (o + n) % d)
            acc[p] = acc.get(p, 0) + m
        return tuple(sorted(acc.items()))

    def is_fixed(self, x, n):
        return self._frobenius_power(x, n) == x

    def atoms(self, n: int, grade_bound: int):
        """Level-n 'atoms': the Frobenius^n orbits of geometric points, as
        irreducible level-n fixed multisets, of grade <= grade_bound."""
        out = []
        for d, count in self.census.items():
            g = math.gcd(d, n)
            size = d // g
            if size > grade_bound:
                continue
            for i in range(count):
                for c in range(g):
                    pts = tuple(sorted(((d, i, (c + j * n) % d), 1) for j in range(size)))
                    out.append(pts)
        return out

    def fixed_elements(self, n, grade_bound):
        key = (tuple(math.gcd(d, n) for d in self.census), grade_bound)
        if key not in self._fixed:
            atoms = self.atoms(n, grade_bound)
            sizes = [self.grade(a) for a in atoms]
            out = []

            def rec(idx, current, budget):
                out.append(current)
                for k in range(idx, len(atoms)):
                    if sizes[k] <= budget:
                        rec(k, self.add(current, atoms[k]), budget - sizes[k])

            rec(0, (), grade_bound)
            self._fixed[key] = sorted(out)  # atoms are disjoint: no duplicates
        return list(self._fixed[key])

    def __eq__(self, other):
        return isinstance(other, FreeOrbitMonoid) and self.census == other.census

    def __hash__(self):
        return hash(("FreeOrbitMonoid", tuple(sorted(self.census.items()))))

    def __repr__(self):
        return f"FreeOrbitMonoid({self.census})"


class Quiver:
    """A finite quiver with arrow multiplicities, given as (i, j, count)
    triples and kept as (i, j) -> count."""

    def __init__(self, vertices: int, arrows=None):
        self.vertices = vertices
        self.arrows: dict[tuple[int, int], int] = {}
        for i, j, c in arrows or []:
            if not (0 <= i < vertices and 0 <= j < vertices):
                raise ValueError(f"arrow endpoint out of range: {(i, j)}")
            if c:
                self.arrows[(i, j)] = self.arrows.get((i, j), 0) + c

    @staticmethod
    def from_json(obj) -> "Quiver":
        return Quiver(obj["vertices"], [tuple(a) for a in obj.get("arrows", [])])

    def arrow_count(self, i: int, j: int) -> int:
        return self.arrows.get((i, j), 0)

    def is_symmetric(self) -> bool:
        return all(
            self.arrow_count(i, j) == self.arrow_count(j, i)
            for i in range(self.vertices)
            for j in range(self.vertices)
        )

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.arrows.items()))))

    def __repr__(self):
        return f"Quiver(vertices={self.vertices}, arrows={sorted(self.arrows.items())})"


def gl_order(a: int, n: int) -> ExactScalar:
    """|GL_a(F_{q^n})| as a symbolic polynomial in q."""
    out = q_power(Fraction(n * a * (a - 1), 2))
    for i in range(1, a + 1):
        out = out * (q_power(n * i) - 1)
    return out


class LinearObjectsMonoid(DiscreteLattice):
    """Dimension vectors of linear objects with trivial Frobenius.

    Variants: plain vector spaces (one vertex, no arrows) and representations
    of a symmetric quiver.  Carries the automorphism orders |GL_gamma(F_{q^n})|,
    the symmetric Euler pairing, and the stacky point-count values used as
    input to the plethystic logarithm.
    """

    def __init__(self, quiver: Quiver, q: int, conv: HalfLConvention = DEFAULT_CONVENTION):
        if not quiver.is_symmetric():
            raise NotSymmetric(f"quiver has a non-symmetric Euler form: {quiver}")
        if q < 2:
            raise ValueError("q must be a prime power >= 2")
        super().__init__(quiver.vertices)
        self.quiver = quiver
        self.q = q
        self.conv = conv

    @staticmethod
    def vect(q: int, conv: HalfLConvention = DEFAULT_CONVENTION) -> "LinearObjectsMonoid":
        return LinearObjectsMonoid(Quiver(1), q, conv)

    @property
    def is_vect(self) -> bool:
        return self.quiver.vertices == 1 and not self.quiver.arrows

    def euler_form(self, x, y) -> int:
        out = sum(a * b for a, b in zip(x, y))
        for (i, j), c in self.quiver.arrows.items():
            out -= c * x[i] * y[j]
        return out

    def aut_order(self, x, n: int) -> ExactScalar:
        out = ExactScalar.one()
        for a in x:
            out = out * gl_order(a, n)
        return out

    def rep_space_order(self, x, n: int) -> ExactScalar:
        e = sum(c * x[i] * x[j] for (i, j), c in self.quiver.arrows.items())
        return q_power(n * e)

    def stacky_value(self, x, n: int) -> ExactScalar:
        """Half-Lefschetz-shifted groupoid count of representations of
        dimension vector x over the level-n field."""
        shift = half_l_power(self.euler_form(x, x), n, self.conv)
        return shift * self.rep_space_order(x, n) / self.aut_order(x, n)

    def __eq__(self, other):
        return (
            isinstance(other, LinearObjectsMonoid)
            and self.quiver == other.quiver
            and self.q == other.q
            and self.conv == other.conv
        )

    def __hash__(self):
        return hash(("LinearObjectsMonoid", self.quiver, self.q, self.conv))

    def __repr__(self):
        tag = "Vect" if self.is_vect else "SymmetricQuiver"
        return f"LinearObjectsMonoid({tag}, q={self.q})"


# ---------------------------------------------------------------------------
# Morphisms used by the pushforward layer.


class GradingMorphism:
    """Total-grade map onto the rank-1 discrete lattice; sigma-finite fibers."""

    sigma_finite = True

    def __init__(self, source):
        self.source = source
        self.target = DiscreteLattice(1)

    def map(self, x):
        return (self.source.grade(x),)
