import itertools
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from helpers import reference_count_dilation
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from stacky_volumes import ehrhart
from stacky_volumes.ehrhart import (
    DeltaRegion,
    EhrhartError,
    RationalPolytope,
    Unbounded,
    count_dilation,
    delta_count,
    delta_ladder,
    delta_limit,
    ehrhart_limit,
    ehrhart_series,
    fiber_polytope,
    fm_feasible,
    hull_hrep,
    positive_functional_exists,
)
from stacky_volumes.ratfun import NoRationalFit, Series, fit_rational
from stacky_volumes.scalar import ExactScalar


def brute_count(polytope, r):
    """Independent dilated count: plain loops over the scaled box."""
    ranges = []
    for lo, hi in polytope.box:
        import math
        ranges.append(range(math.ceil(lo * r), math.floor(hi * r) + 1))
    total = 0
    for z in itertools.product(*ranges):
        pt = [F(c, r) for c in z]
        if all(sum(a * b for a, b in zip(row, pt)) >= rhs
               for row, rhs in zip(polytope.rows, polytope.rhs)):
            total += 1
    return total


def test_point_half():
    p = RationalPolytope.from_vertices([(F(1, 2),)])
    assert [count_dilation(p, r) for r in range(1, 7)] == [0, 1, 0, 1, 0, 1]
    assert ehrhart_limit(p) == -1


def test_unit_segment():
    p = RationalPolytope.from_vertices([(0,), (1,)])
    assert [count_dilation(p, r) for r in range(1, 6)] == [2, 3, 4, 5, 6]
    assert ehrhart_limit(p) == -1


def test_triangle_count_oracle():
    p = RationalPolytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -1])
    for r in range(1, 9):
        assert count_dilation(p, r) == (r + 1) * (r + 2) // 2


def test_empty_polytope():
    p = RationalPolytope([[1], [-1]], [1, 0])
    assert p.is_empty
    assert count_dilation(p, 4) == 0
    assert ehrhart_limit(p) == 0


def test_unbounded_raises():
    with pytest.raises(Unbounded):
        RationalPolytope([[1]], [0])
    with pytest.raises(Unbounded):
        RationalPolytope([[1, 0], [0, 1]], [0, 0])


def test_counts_match_brute_force():
    rng = random.Random(19)
    for _ in range(6):
        d = rng.choice([1, 2, 3])
        pts = _random_points(rng, d)
        try:
            p = RationalPolytope.from_vertices(pts)
        except Exception:
            continue
        for r in (1, 2, 3):
            assert count_dilation(p, r) == brute_count(p, r)


def _random_points(rng, d, count=None, scale=2):
    from stacky_volumes.ehrhart import solve_square

    while True:
        pts = [
            tuple(F(rng.randint(0, 2 * scale), rng.randint(1, 4)) for _ in range(d))
            for _ in range(count or d + 2)
        ]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        # full-dimensional iff some d x d minor of the differences is invertible
        if any(
            solve_square(sub, [F(0)] * d) is not None
            for sub in itertools.combinations(diffs, d)
        ):
            return pts


_coord = st.builds(F, st.integers(0, 3), st.integers(1, 3))


@st.composite
def _small_polytopes(draw):
    """A vertex-given polytope (d = 2, 3) or an H-rep box in d = 4 with one
    extra cut, small enough for brute_count."""
    d = draw(st.sampled_from([2, 3, 4]))
    if d < 4:
        pts = draw(st.lists(st.tuples(*[_coord] * d), min_size=d + 1, max_size=d + 3))
        try:
            return RationalPolytope.from_vertices(pts)
        except EhrhartError:
            reject()
    rows, rhs = [], []
    for i in range(d):
        lo = draw(_coord)
        hi = lo + draw(st.builds(F, st.integers(0, 2), st.integers(1, 2)))
        unit = [0] * d
        unit[i] = 1
        rows += [unit, [-c for c in unit]]
        rhs += [lo, -hi]
    rows.append(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    rhs.append(draw(st.builds(F, st.integers(-6, 6), st.integers(1, 2))))
    return RationalPolytope(rows, rhs)


@pytest.mark.parametrize("chunk", [1, 7, ehrhart._CHUNK])
@settings(max_examples=30)
@given(poly=_small_polytopes(), r=st.integers(1, 3))
def test_count_dilation_matches_oracles(chunk, poly, r):
    # chunk sizes 1 and 7 put chunk boundaries inside the prefix grid
    with mock.patch.object(ehrhart, "_CHUNK", chunk):
        count = count_dilation(poly, r)
    assert count == reference_count_dilation(poly, r) == brute_count(poly, r)


@st.composite
def _thin_simplices(draw):
    """A simplex along the diagonal of its bounding box (d = 2, 3): its two
    ends on the diagonal, its other corners within 1/den of it in each
    coordinate, so the projection holds a small share of the box's prefix
    points."""
    d = draw(st.sampled_from([2, 3]))
    den = draw(st.integers(1, 3))
    lo = draw(st.integers(0, 2))
    hi = lo + draw(st.integers(2, 4 if d == 3 else 8))
    pts = [[F(lo, den)] * d, [F(hi, den)] * d]
    for _ in range(d - 1):
        t = draw(st.integers(lo, hi))
        pts.append([F(t + draw(st.integers(-1, 1)), den) for _ in range(d)])
    try:
        return RationalPolytope.from_vertices(pts)
    except EhrhartError:
        reject()


@st.composite
def _slanted_order_simplices(draw):
    """The H-rep order simplex lo <= x_1 <= ... <= x_4 <= hi in d = 4, cut by
    one slanted inequality; uncut, it fills 1/24 of its box."""
    lo = draw(_coord)
    hi = lo + draw(st.builds(F, st.integers(1, 3), st.integers(1, 2)))
    rows, rhs = [[1, 0, 0, 0], [0, 0, 0, -1]], [lo, -hi]
    for i in range(3):
        row = [0] * 4
        row[i], row[i + 1] = -1, 1
        rows.append(row)
        rhs.append(0)
    rows.append(draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4)))
    rhs.append(draw(st.builds(F, st.integers(-6, 6), st.integers(1, 2))))
    return RationalPolytope(rows, rhs)


@pytest.mark.parametrize("chunk", [1, 7, ehrhart._CHUNK])
@settings(max_examples=20)
@given(poly=st.one_of(_thin_simplices(), _slanted_order_simplices()), r=st.integers(1, 2))
def test_count_dilation_on_thin_polytopes_matches_oracles(chunk, poly, r):
    with mock.patch.object(ehrhart, "_CHUNK", chunk):
        count = count_dilation(poly, r)
    assert count == reference_count_dilation(poly, r) == brute_count(poly, r)


# 0 <= x <= 3, 1/4 <= 2y - x <= 3/4, 0 <= z <= 1: at r = 1 no integer x has
# an integer y, so every slice of the projection over the box is empty; at
# r = 2 only the slices over odd x hold points
_EMPTY_SLICES = RationalPolytope(
    [[1, 0, 0], [-1, 0, 0], [-1, 2, 0], [1, -2, 0], [0, 0, 1], [0, 0, -1]],
    [0, -3, F(1, 4), F(-3, 4), 0, -1])


@pytest.mark.parametrize("chunk", [1, 7, ehrhart._CHUNK])
def test_count_dilation_with_empty_slices_matches_oracles(chunk):
    with mock.patch.object(ehrhart, "_CHUNK", chunk):
        counts = [count_dilation(_EMPTY_SLICES, r) for r in range(1, 7)]
    assert counts[0] == 0
    assert counts == [reference_count_dilation(_EMPTY_SLICES, r) for r in range(1, 7)]
    assert counts == [brute_count(_EMPTY_SLICES, r) for r in range(1, 7)]


def test_count_dilation_benchmark_tetrahedron():
    # the shape of the benchmark's tetrahedra: corners 1/12 (1,1,1) and
    # 71/12 (1,1,1) and two points of (1/12)Z^3 between them
    poly = RationalPolytope.from_vertices(
        [[F(1, 12)] * 3, [F(71, 12)] * 3, [F(9, 4), F(31, 12), F(2, 3)],
         [F(65, 12), F(17, 12), F(3)]])
    for r in (1, 12, 62):
        assert count_dilation(poly, r) == reference_count_dilation(poly, r)


def test_count_dilation_refuses_projection_int64_overflow():
    # P's integer rows stay near 2^60 at r = 2, but eliminating y leaves the
    # row (p + q) x >= q of its projection, whose terms pass 2^63
    p, q = 2**60, 2**60 - 1
    poly = RationalPolytope([[1, p], [1, -q], [-1, 0]], [1, 0, -2])
    rows, rhs, _, _, ranges = ehrhart._integer_form(poly, 2)
    assert ehrhart._int64_bound(rows, rhs, [], [], ranges) < ehrhart.INT64_LIMIT
    assert count_dilation(poly, 1) == 2
    with pytest.raises(EhrhartError, match="int64"):
        count_dilation(poly, 2)


def test_count_dilation_refuses_int64_overflow():
    # integer rows near 10^18 at r = 3: numpy would raise or wrap around
    poly = RationalPolytope.from_vertices(
        [(0, 0), (3, F(1, 1000000007)), (F(1, 1000000009), 2)])
    with pytest.raises(EhrhartError, match="int64"):
        count_dilation(poly, 3)


def test_dilation_compatibility():
    p = RationalPolytope.from_vertices([(0,), (1,)])
    p3 = RationalPolytope(p.rows, [3 * b for b in p.rhs])  # 3P
    for r in range(1, 6):
        assert count_dilation(p3, r) == count_dilation(p, 3 * r)


def test_vrep_hrep_cross_check():
    rng = random.Random(23)
    for d in (1, 2, 3):
        for _ in range(4):
            pts = _random_points(rng, d)
            p = RationalPolytope.from_vertices(pts)
            # rebuild from the computed vertices: same counts
            p2 = RationalPolytope.from_vertices(p.vertices)
            for r in (1, 2, 3):
                assert count_dilation(p, r) == count_dilation(p2, r)


def test_hull_rejects_degenerate():
    with pytest.raises(Exception):
        hull_hrep([(0, 0), (1, 1), (2, 2)])


def test_fiber_polytope_interval_example():
    p = fiber_polytope([[1, -1]], [0, 1])
    assert p.vertices == [(-1,), (0,)]
    assert [count_dilation(p, r) for r in range(1, 5)] == [2, 3, 4, 5]
    assert ehrhart_limit(p) == -1


def test_fiber_polytope_halfline_unbounded():
    with pytest.raises(Unbounded):
        fiber_polytope([[1]], [0])


def test_fiber_polytope_unit_square():
    p = fiber_polytope([[1, -1, 0, 0], [0, 0, 1, -1]], [0, 1, 0, 1])
    for r in range(1, 6):
        assert count_dilation(p, r) == (r + 1) ** 2
    assert ehrhart_limit(p) == -1


def test_fiber_polytope_monotone_in_vals():
    base = fiber_polytope([[1, -1]], [0, 1])
    bigger = fiber_polytope([[1, -1]], [1, 1])
    for r in range(1, 6):
        assert count_dilation(bigger, r) >= count_dilation(base, r)


def test_positive_functional():
    assert positive_functional_exists([(1,), (2,)])
    assert not positive_functional_exists([(1,), (-1,)])
    assert positive_functional_exists([(1, 0), (0, 1), (1, 1)])
    assert not positive_functional_exists([(1, 0), (-1, 0)])


def test_fm_feasible():
    assert fm_feasible([[1], [-1]], [0, -1])        # 0 <= x <= 1
    assert not fm_feasible([[1], [-1]], [2, -1])    # x >= 2 and x <= 1


def test_delta_count_examples():
    assert delta_count(DeltaRegion(1, 1), 7, "differences") == 1
    assert delta_count(DeltaRegion(1, 2), 5, "differences") == 4
    assert delta_count(DeltaRegion(1, 2), 5, "orbits") == 2
    assert delta_count(DeltaRegion(1, 1), 9, "orbits") == 1


def test_delta_count_differences_by_enumeration():
    # independent: enumerate difference tuples directly
    for m in (1, 2, 3):
        for s in (1, 2, 3):
            for r in range(1, 13):
                count = 0
                for ks in itertools.product(range(1, r + 1), repeat=s - 1):
                    if sum(F(k, r) for k in ks) < F(1, m):
                        count += 1
                assert count == delta_count(DeltaRegion(m, s), r, "differences")


def _mod_interval(x, m):
    """Reduce x into (0, 1/m] modulo 1/m."""
    rem = x - F(math.floor(x * m), m)
    return rem if rem else F(1, m)


def test_delta_count_orbits_by_enumeration():
    # independent: orbit enumeration under all set-preserving translations.
    # m does not divide r in (2, 2, 7), (2, 3, 9), (3, 2, 10), (4, 2, 11);
    # (2, 3, 66) has C(33, 3) = 5456 subsets.
    cases = [(1, 2, 4), (1, 2, 6), (2, 2, 8), (1, 3, 6), (3, 1, 7), (2, 2, 7),
             (2, 3, 9), (3, 2, 10), (4, 2, 11), (2, 4, 16), (3, 3, 18), (2, 3, 66)]
    for m, s, r in cases:
        region = DeltaRegion(m, s)
        grid = [F(k, r) for k in range(1, r // m + 1)]
        if len(grid) < s:
            assert delta_count(region, r, "orbits") == 0
            continue
        grid_set = set(grid)
        ts = [F(k, r) for k in range(r)
              if all(_mod_interval(w + F(k, r), m) in grid_set for w in grid)]
        subs = {tuple(sorted(c)) for c in itertools.combinations(grid, s)}
        orbits = 0
        while subs:
            sub = subs.pop()
            orbits += 1
            for t in ts:
                img = tuple(sorted(_mod_interval(w + t, m) for w in sub))
                subs.discard(img)
        assert orbits == delta_count(region, r, "orbits")


def test_delta_limits():
    assert delta_limit(DeltaRegion(1, 1), "differences") == -1
    assert delta_limit(DeltaRegion(1, 1), "orbits") == -1
    assert delta_limit(DeltaRegion(2, 1), "differences") == -1
    assert delta_limit(DeltaRegion(1, 2), "differences") == 1
    # differences-mode limit is (-1)^s throughout
    for m in (1, 2, 3):
        for s in (1, 2, 3):
            assert delta_limit(DeltaRegion(m, s), "differences") == (-1) ** s


@pytest.mark.parametrize("mode", ["differences", "orbits"])
def test_delta_ladder_last_rung_fits(mode):
    # both counts are quasi-polynomials of degree <= s with period dividing
    # m lcm(1..s), so delta_limit needs no rung past its ladder's last
    for m in range(1, 5):
        for s in range(1, 6):
            region = DeltaRegion(m, s)
            delta, big_d, order = delta_ladder(region)[-1]
            counts = Series([delta_count(region, r, mode) for r in range(1, order + 1)])
            fit_rational(counts, delta, big_d)


@pytest.mark.parametrize("mode", ["differences", "orbits"])
def test_delta_count_at_multiples_of_m(mode):
    # Delta_{m,s}(mk) = Delta_{1,s}(k): the limit of the weighted inertia
    # series is a sum of class masses times the limits of the regions (1, s)
    for m in range(1, 5):
        for s in range(1, 6):
            for k in range(1, 31):
                assert (delta_count(DeltaRegion(m, s), m * k, mode)
                        == delta_count(DeltaRegion(1, s), k, mode))


@pytest.mark.parametrize("mode, rung", [("differences", 0), ("orbits", 1)])
def test_delta_limit_fits_on_the_rung_plid_check_charges(mode, rung):
    # at m = 1 the differences count C(r - 1, s - 1) is a polynomial, and the
    # necklace count has period s, which divides lcm(1..s)
    for s in range(1, 7):
        region = DeltaRegion(1, s)
        for i, (delta, big_d, order) in enumerate(delta_ladder(region)[:rung + 1]):
            counts = Series([delta_count(region, r, mode) for r in range(1, order + 1)])
            if i < rung and s > 1:
                with pytest.raises(NoRationalFit):
                    fit_rational(counts, delta, big_d)
            else:
                fit_rational(counts, delta, big_d)


def test_ehrhart_series_type():
    p = RationalPolytope.from_vertices([(0,), (1,)])
    s = ehrhart_series(p, 4)
    assert s.coeffs == [ExactScalar.from_rational(r + 1) for r in range(1, 5)]
