"""Bounded rational polytopes, dilated lattice-point counts, Ehrhart series
with their -1 limit at infinity, fiber polytopes cut out by torus weight data,
and the ordered-weight regions Delta_{m,s} with their two counting modes.

H-representations mean {x : A x >= b}.  For H-representation input,
emptiness and boundedness are certified by exact Fourier-Motzkin feasibility
on the system and its recession cone; a convex hull of given vertices is
nonempty and bounded by construction.  Bounding boxes come from vertex
enumeration over all d x d inequality subsystems (no LP solver).  Counts
sweep the lattice points of the Fourier-Motzkin projection without x_d.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .ratfun import Series, fit_first, fit_rational, min_order
from .scalar import ExactScalar


class EhrhartError(Exception):
    pass


class Unbounded(EhrhartError):
    """The inequality system has a nonzero recession direction."""


# ---------------------------------------------------------------------------
# Exact linear algebra / Fourier-Motzkin helpers.


def solve_square(rows, rhs):
    """Solve a square rational system by Gaussian elimination.

    Returns the solution vector or None when the matrix is singular.
    """
    d = len(rhs)
    m = [list(rows[i]) + [rhs[i]] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][d] for i in range(d))


def _fm_eliminate(system, var):
    """One Fourier-Motzkin step: the system of (coeffs, rhs) pairs, rows
    coeffs . x >= rhs, that cuts out its projection with x_var eliminated."""
    lowers, uppers, new = [], [], []
    for coeffs, r in system:
        c = coeffs[var]
        if c > 0:
            lowers.append((coeffs, r, c))
        elif c < 0:
            uppers.append((coeffs, r, c))
        else:
            new.append((coeffs, r))
    for lc, lr, lv in lowers:
        for uc, ur, uv in uppers:
            # x >= (lr - ...)/lv and x <= (ur - ...)/uv combine
            coeffs = tuple(a / lv - b / uv for a, b in zip(lc, uc))
            new.append((coeffs, lr / lv - ur / uv))
    return new


def fm_feasible(rows, rhs) -> bool:
    """Exact feasibility of {x : rows @ x >= rhs} by Fourier-Motzkin."""
    system = [(tuple(Fraction(c) for c in row), Fraction(r)) for row, r in zip(rows, rhs)]
    d = len(system[0][0]) if system else 0
    for var in range(d):
        system = _fm_eliminate(system, var)
    return all(r <= 0 for _, r in system)


def _has_recession_direction(rows) -> bool:
    d = len(rows[0])
    for i in range(d):
        for sign in (1, -1):
            unit = [Fraction(0)] * d
            unit[i] = Fraction(sign)
            sys_rows = [list(r) for r in rows] + [unit]
            rhs = [Fraction(0)] * len(rows) + [Fraction(1)]
            if fm_feasible(sys_rows, rhs):
                return True
    return False


def positive_functional_exists(vectors) -> bool:
    """Is there theta with <v, theta> > 0 for every v?  (Gordan's alternative:
    equivalent to the absence of a nonzero nonnegative relation of the v's.)"""
    if not vectors:
        return True
    d = len(vectors[0])
    if d == 0:
        return False
    rhs = [Fraction(1)] * len(vectors)
    return fm_feasible([list(map(Fraction, v)) for v in vectors], rhs)


# ---------------------------------------------------------------------------
# Polytopes.


def hull_hrep(vertices):
    """H-representation of the convex hull of full-dimensional point sets,
    d <= 3 (facet enumeration over d-subsets)."""
    d = len(vertices[0])
    pts = [tuple(Fraction(c) for c in v) for v in vertices]
    if d == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        return [(Fraction(1),), (Fraction(-1),)], [lo, -hi]
    if d > 3:
        raise EhrhartError("hull construction implemented for d <= 3")
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    if not any(
        solve_square(sub, [Fraction(0)] * d) is not None
        for sub in itertools.combinations(diffs, d)
    ):
        raise EhrhartError("point set is not full-dimensional")
    rows, rhs = [], []
    seen = set()
    for subset in itertools.combinations(pts, d):
        normal = _hyperplane_normal(subset)
        if normal is None:
            continue
        c = sum(a * b for a, b in zip(normal, subset[0]))
        vals = [sum(a * b for a, b in zip(normal, p)) for p in pts]
        if all(v >= c for v in vals):
            n, off = normal, c
        elif all(v <= c for v in vals):
            n, off = tuple(-a for a in normal), -c
        else:
            continue
        n, off = _normalize_ineq(n, off)
        if (n, off) not in seen:
            seen.add((n, off))
            rows.append(list(n))
            rhs.append(off)
    if not rows:
        raise EhrhartError("point set is not full-dimensional")
    return rows, rhs


def _hyperplane_normal(points):
    d = len(points[0])
    diffs = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    if d == 2:
        (dx, dy), = diffs
        if dx == 0 and dy == 0:
            return None
        return (-dy, dx)
    u, v = diffs
    n = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    return None if all(x == 0 for x in n) else n


def _normalize_ineq(n, off):
    lcm = 1
    for x in itertools.chain(n, [off]):
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in itertools.chain(n, [off])]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1])


def _projection(rows, rhs):
    """Integer rows and right-hand sides of {x : A x >= b} with its last
    coordinate eliminated, made primitive (so integral) and deduplicated.
    Rows left with no coefficient hold on a nonempty system and are dropped."""
    last = len(rows[0]) - 1
    system = dict.fromkeys(_normalize_ineq(c[:last], r)
                           for c, r in _fm_eliminate(list(zip(rows, rhs)), last) if any(c))
    return [[int(c) for c in row] for row, _ in system], [int(b) for _, b in system]


class RationalPolytope:
    """Bounded rational polytope {x : A x >= b}, with certified bounding box."""

    def __init__(self, rows, rhs):
        self._set_hrep(rows, rhs)
        self.is_empty = not fm_feasible(self.rows, self.rhs)
        if not self.is_empty and _has_recession_direction(self.rows):
            raise Unbounded("inequality system does not cut out a bounded region")
        self._set_vertices()

    @staticmethod
    def from_vertices(vertices) -> "RationalPolytope":
        """The convex hull of a full-dimensional point set.  Its facets come
        from hull_hrep, so it is nonempty and bounded and contains every
        point: no Fourier-Motzkin certificate is needed."""
        poly = RationalPolytope.__new__(RationalPolytope)
        poly._set_hrep(*hull_hrep(vertices))
        poly.is_empty = False
        poly._set_vertices()
        return poly

    def _set_hrep(self, rows, rhs):
        self.rows = [tuple(Fraction(c) for c in row) for row in rows]
        self.rhs = [Fraction(r) for r in rhs]
        self.dim = len(self.rows[0]) if self.rows else 0
        # L*A and L*b for the common denominator L, and the rows of the
        # projection Q: the integer systems that every dilation counts against
        lcm = math.lcm(*(x.denominator for x in itertools.chain(*self.rows, self.rhs)))
        self._int_rows = [[c.numerator * (lcm // c.denominator) for c in row] for row in self.rows]
        self._int_rhs = [b.numerator * (lcm // b.denominator) for b in self.rhs]
        self._proj_rows, self._proj_rhs = _projection(self.rows, self.rhs)

    def _set_vertices(self):
        self.vertices = self._enumerate_vertices() if not self.is_empty else []
        self.box = self._bounding_box()

    def _enumerate_vertices(self):
        found = set()
        d = self.dim
        for subset in itertools.combinations(range(len(self.rows)), d):
            sol = solve_square([self.rows[i] for i in subset], [self.rhs[i] for i in subset])
            if sol is None:
                continue
            if all(
                sum(a * b for a, b in zip(row, sol)) >= r
                for row, r in zip(self.rows, self.rhs)
            ):
                found.add(sol)
        return sorted(found)

    def _bounding_box(self):
        if self.is_empty:
            return [(Fraction(0), Fraction(-1))] * self.dim
        if not self.vertices:
            raise Unbounded("no vertices found for a nonempty system")
        return [
            (min(v[j] for v in self.vertices), max(v[j] for v in self.vertices))
            for j in range(self.dim)
        ]

    def vertex_denominator_lcm(self) -> int:
        out = 1
        for v in self.vertices:
            for x in v:
                out = out * x.denominator // math.gcd(out, x.denominator)
        return out

    def to_json(self):
        from .scalar import format_rat

        return {
            "A": [[format_rat(c) for c in row] for row in self.rows],
            "b": [format_rat(r) for r in self.rhs],
            "vertices": [[format_rat(c) for c in v] for v in self.vertices],
        }


# Points per numpy broadcast in count_dilation, for every dimension.  A chunk
# and its chunk of the outer box hold 2d + 7 int64 arrays of this length (under
# 1 MiB at d = 3); 2^13 counted the benchmark's tetrahedra as fast as 2^14.
_CHUNK = 2**13
# count_dilation counts in int64; dilation_bound must stay below this.
INT64_LIMIT = 2**63


def _integer_form(polytope: RationalPolytope, r: int):
    """The r-th dilation over the integers: rows L*A, right-hand sides r*L*b
    (L the common denominator), so its points are the z in Z^d with
    (L*A) z >= r*L*b, the same for rQ, and its bounding box's integer ranges."""
    rhs = [b * r for b in polytope._int_rhs]
    proj_rhs = [b * r for b in polytope._proj_rhs]
    ranges = [(math.ceil(lo * r), math.floor(hi * r)) for lo, hi in polytope.box]
    return polytope._int_rows, rhs, polytope._proj_rows, proj_rhs, ranges


def _int64_bound(rows, rhs, proj_rows, proj_rhs, ranges) -> int:
    zmax = [max(1, abs(lo), abs(hi)) for lo, hi in ranges]
    row_bound = max(abs(b) + sum(abs(c) * z for c, z in zip(row, zmax))
                    for row, b in itertools.chain(zip(rows, rhs), zip(proj_rows, proj_rhs)))
    return max(row_bound, _CHUNK * (2 * max(zmax[-2:]) + 1))


def dilation_bound(polytope: RationalPolytope, r: int) -> int:
    """Bound on every integer count_dilation forms at dilation r when d >= 2:
    |b| + sum_i |c_i| max|z_i| over the integer rows of rP and of rQ, and a
    chunk's sum of interval widths.  It does not decrease as r grows."""
    return _int64_bound(*_integer_form(polytope, r))


def prefix_points(polytope: RationalPolytope, r: int) -> int:
    """Upper bound on the prefix points count_dilation sweeps at dilation r
    (those in rQ): the dilated bounding box's points without z_d."""
    return math.prod(max(0, math.floor(hi * r) - math.ceil(lo * r) + 1)
                     for lo, hi in polytope.box[:-1])


def count_dilation(polytope: RationalPolytope, r: int) -> int:
    """Number of points of (1/r)Z^d satisfying the inequalities.

    For d >= 2 the integer points z of rP split into a prefix
    (z_1 .. z_{d-1}) and a last coordinate.  Over a prefix point each
    inequality c.z >= b bounds z_d on one side by rest / c_d, with
    rest = b - sum_{i<d} c_i z_i, so the count is a sum of interval widths
    over the prefix points in rQ, Q the projection of P without z_d.  Q's
    rows bound z_{d-1} the same way over each point of the outer box
    (z_1 .. z_{d-2}); the ragged intervals, laid end to end, are swept _CHUNK
    prefix points at a time in int64 (EhrhartError when dilation_bound does
    not fit).  d = 1 is a closed form over Python ints.
    """
    if r < 1:
        raise ValueError("dilation index must be positive")
    if polytope.is_empty:
        return 0
    d = polytope.dim
    if d == 0:
        return 1
    rows, rhs, proj_rows, proj_rhs, ranges = form = _integer_form(polytope, r)
    if any(lo > hi for lo, hi in ranges):
        return 0
    if d == 1:
        lo, hi = ranges[0]
        for (a,), b in zip(rows, rhs):
            if a > 0:
                lo = max(lo, -((-b) // a))
            elif a < 0:
                hi = min(hi, b // a)
            elif b > 0:
                return 0
        return max(0, hi - lo + 1)

    if _int64_bound(*form) >= INT64_LIMIT:
        raise EhrhartError(f"dilation {r} needs integers beyond the int64 limit 2^63")
    outer = ranges[:-2]
    shape = [hi - lo + 1 for lo, hi in outer]
    size = math.prod(shape)
    total = 0
    for start in range(0, size, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, size))
        zs = [z + lo for z, (lo, _) in zip(np.unravel_index(flat, shape), outer)] if outer else []
        y_lo, y_hi = _interval(zs, flat.size, proj_rows, proj_rhs, *ranges[-2])
        total += _sweep(zs, y_lo, y_hi, rows, rhs, ranges[-1])
    return total


def _interval(zs, n, rows, rhs, z_lo, z_hi):
    """Integer bounds (lo, hi) of the next coordinate over n points whose
    earlier coordinates are the arrays zs, within [z_lo, z_hi]; hi is lo - 1
    where the interval is empty.  A function of its own so that one chunk's
    arrays are freed before the next is built."""
    lo = np.full(n, z_lo, dtype=np.int64)
    hi = np.full(n, z_hi, dtype=np.int64)
    rest = np.empty_like(lo)
    for row, b in zip(rows, rhs):
        rest.fill(b)
        for c, z in zip(row, zs):
            if c:
                rest -= c * z
        a = row[-1]
        if a > 0:  # next >= ceil(rest / a)
            rest += a - 1
            rest //= a
            np.maximum(lo, rest, out=lo)
        elif a < 0:  # next <= floor(rest / a)
            rest //= a
            np.minimum(hi, rest, out=hi)
        else:  # no value satisfies the row where rest > 0
            hi[rest > 0] = z_lo - 1
    np.maximum(hi, lo - 1, out=hi)
    return lo, hi


def _sweep(zs, y_lo, y_hi, rows, rhs, last_range) -> int:
    """Sum of the last-coordinate widths over the prefix points (zs[k], y)
    with y_lo[k] <= y <= y_hi[k]: the intervals, laid end to end, are cut
    into chunks of _CHUNK points, each expanded with np.repeat."""
    ends = np.cumsum(y_hi - y_lo + 1)
    starts = ends - (y_hi - y_lo + 1)
    size = int(ends[-1])
    total = 0
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        k0, k1 = np.searchsorted(ends, (start, stop - 1), side="right") + (0, 1)
        k = np.repeat(np.arange(k0, k1), np.minimum(ends[k0:k1], stop)
                      - np.maximum(starts[k0:k1], start))
        flat = np.arange(start, stop)
        lo, hi = _interval([z[k] for z in zs] + [flat + (y_lo - starts)[k]], flat.size,
                           rows, rhs, *last_range)
        total += int((hi - lo).sum()) + flat.size
    return total


def ehrhart_series(polytope: RationalPolytope, order: int) -> Series:
    return Series([count_dilation(polytope, r) for r in range(1, order + 1)])


def ehrhart_limit(polytope: RationalPolytope) -> ExactScalar:
    """Fit the dilated-count series and evaluate at T -> infinity.

    Equals -1 for every nonempty bounded rational polytope, 0 for the empty one.
    """
    if polytope.is_empty:
        return ExactScalar.zero()
    delta = polytope.vertex_denominator_lcm()
    big_d = polytope.dim + 1
    fit = fit_rational(ehrhart_series(polytope, min_order(delta, big_d)), delta, big_d)
    return fit.limit_at_infinity()


def fiber_polytope(weights, vals) -> RationalPolytope:
    """Bounded region in the cocharacter space cut out by torus weight data.

    weights is a k x n integer matrix whose columns are the acting characters
    chi_j, vals the coordinate valuations v_j of a chosen lift.  Building
    coordinates are used (the group translates by minus the valuation), so the
    region is {theta : <chi_j, theta> <= v_j}.  Raises Unbounded when the
    configuration does not cut a polytope.
    """
    k = len(weights)
    n = len(weights[0]) if k else 0
    if len(vals) != n:
        raise ValueError("one valuation per column is required")
    rows = []
    rhs = []
    for j in range(n):
        rows.append([-Fraction(weights[i][j]) for i in range(k)])
        rhs.append(-Fraction(vals[j]))
    return RationalPolytope(rows, rhs)


# ---------------------------------------------------------------------------
# Delta regions: 0 < w_1 < ... < w_s <= 1/m.


class DeltaRegion:
    __slots__ = ("m", "s")

    def __init__(self, m: int, s: int):
        if m < 1 or s < 1:
            raise ValueError("need m, s >= 1")
        self.m = m
        self.s = s

    def __repr__(self):
        return f"DeltaRegion(m={self.m}, s={self.s})"


def delta_count(region: DeltaRegion, r: int, mode: str = "differences") -> int:
    """Count for the weight region at torsion order r.

    differences: tuples (d_1, ..., d_{s-1}) of positive multiples of 1/r with
    sum < 1/m (the consecutive-difference parametrization).
    orbits: orbits of s-subsets of the N = floor(r/m) r-torsion points of
    (0, 1/m] under the translations by k/r modulo 1/m that preserve them.
    When m does not divide r, one gap of the grid differs from the others, so
    only the identity preserves it and the count is C(N, s).  When m | r the
    translations form the cyclic group Z/N and Burnside's lemma gives the
    necklace count (1/N) sum_k C(g, s g/N), g = gcd(k, N), over N | s g.
    """
    if r < 1:
        raise ValueError("r must be positive")
    m, s = region.m, region.s
    if mode == "differences":
        budget = math.ceil(Fraction(r, m)) - 1
        return math.comb(budget, s - 1) if budget >= s - 1 else 0
    if mode != "orbits":
        raise ValueError(f"unknown mode {mode!r}")
    n = r // m
    if r % m:
        return math.comb(n, s)
    total = 0
    for k in range(n):
        g = math.gcd(k, n)
        if s * g % n == 0:
            total += math.comb(g, s * g // n)
    return total // n


def delta_ladder(region: DeltaRegion) -> list:
    """The (delta, D, series order) ansatzes delta_limit tries in turn.  Both
    counts are quasi-polynomials in r of degree at most s and period dividing
    m lcm(1..s), so the last of its three rungs always fits."""
    m, s = region.m, region.s
    lcm_s = math.lcm(*range(1, s + 1))
    ladder = [(m, s), (m * lcm_s, s), (m * lcm_s, s + 1)]
    return [(delta, big_d, min_order(delta, big_d)) for delta, big_d in ladder]


def delta_limit(region: DeltaRegion, mode: str = "differences") -> ExactScalar:
    """Fit the per-r count series of the region and report its exact limit at
    T -> infinity, without forcing any expected value."""
    fit = fit_first(delta_ladder(region), lambda order: Series(
        [delta_count(region, r, mode) for r in range(1, order + 1)]))
    return fit.limit_at_infinity()
