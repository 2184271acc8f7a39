import math

import pytest

from helpers import add_fiber, gl_matrices, point, trace_fiber

from stacky_volumes.monoids import (
    DiscreteLattice,
    FreeOrbitMonoid,
    GradingMorphism,
    LinearObjectsMonoid,
    NotSymmetric,
    Quiver,
    affine_line_census,
    gl_order,
)
from stacky_volumes.scalar import q_power
from stacky_volumes.stacky import GF


def test_affine_line_census():
    c = affine_line_census(2, 4)
    assert c == {1: 2, 2: 1, 3: 2, 4: 3}
    c3 = affine_line_census(3, 3)
    assert c3 == {1: 3, 2: 3, 3: 8}


def test_lattice_fixed_elements():
    lat = DiscreteLattice(1)
    assert lat.fixed_elements(5, 3) == [(0,), (1,), (2,), (3,)]
    lat2 = DiscreteLattice(2)
    els = lat2.fixed_elements(1, 2)
    assert set(els) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_lattice_trace_fibers():
    lat = DiscreteLattice(1)
    assert trace_fiber(lat, (4,), 1, 2) == [(2,)]
    assert trace_fiber(lat, (3,), 1, 2) == []


def test_free_orbit_fixed_element_counts():
    fo = FreeOrbitMonoid(affine_line_census(2, 2))
    ones_n1 = [x for x in fo.fixed_elements(1, 1) if fo.grade(x) == 1]
    assert len(ones_n1) == 2  # the two rational points
    ones_n2 = [x for x in fo.fixed_elements(2, 1) if fo.grade(x) == 1]
    assert len(ones_n2) == 4  # A^1(F_4)


def test_free_orbit_zeta_consistency():
    q = 2
    depth = 6
    fo = FreeOrbitMonoid(affine_line_census(q, depth))
    for n in range(1, depth + 1):
        ones = [x for x in fo.fixed_elements(n, 1) if fo.grade(x) == 1]
        assert len(ones) == q ** n, n


def test_free_orbit_trace_fibers_degree_two_point():
    fo = FreeOrbitMonoid(affine_line_census(2, 2))
    closed_pt = fo.add(point(2, 0, 0), point(2, 0, 1))
    fib = trace_fiber(fo, closed_pt, 1, 2)
    assert sorted(fib) == sorted([point(2, 0, 0), point(2, 0, 1)])
    # and the full F_2-orbit is sigma-fixed at level 1 while the points are not
    assert fo.is_fixed(closed_pt, 1)
    assert not fo.is_fixed(point(2, 0, 0), 1)


def test_free_orbit_monoid_laws():
    fo = FreeOrbitMonoid(affine_line_census(2, 3))
    a = point(1, 0)
    b = point(2, 0, 1)
    c = point(3, 1, 2)
    assert fo.add(a, b) == fo.add(b, a)
    assert fo.add(fo.add(a, b), c) == fo.add(a, fo.add(b, c))
    assert fo.add(a, fo.zero()) == a
    # torsion-freeness on enumerated elements: 2x = 2y implies x = y
    els = fo.fixed_elements(2, 2)
    doubled = {}
    for x in els:
        key = fo.add(x, x)
        assert key not in doubled
        doubled[key] = x


def test_free_orbit_fixed_elements_memo_matches_a_fresh_enumeration():
    """Levels with the same gcds against the census share one enumeration;
    each call returns a fresh list, so mutating it leaves the memo intact."""
    census = affine_line_census(2, 3)
    fo = FreeOrbitMonoid(census)
    for grade in (1, 2, 3):
        for n in range(1, 2 * math.lcm(1, 2, 3) + 1):
            fresh = FreeOrbitMonoid(census).fixed_elements(n, grade)
            got = fo.fixed_elements(n, grade)
            assert got == fresh, (n, grade)
            assert all(fo.is_fixed(x, n) and fo.grade(x) <= grade for x in got)
            got.clear()
            assert fo.fixed_elements(n, grade) == fresh, (n, grade)


def test_vect_decompositions_example():
    monv = LinearObjectsMonoid.vect(2)
    assert len(add_fiber(monv, (3,), 1)) == 4


def test_gl_order_closed_form_vs_enumeration():
    for q in (2, 3):
        field = GF(q, 1)
        for n in (1, 2, 3):
            count = len(gl_matrices(field, list(range(q)), n))
            assert gl_order(n, 1).substitute_q(q).as_rational() == count


def test_gl_order_symbolic_levels():
    assert gl_order(1, 2) == q_power(2) - 1
    assert gl_order(2, 1) == q_power(1) * (q_power(1) - 1) * (q_power(2) - 1)


def test_quiver_validation():
    with pytest.raises(NotSymmetric):
        LinearObjectsMonoid(Quiver(2, [(0, 1, 1)]), 2)
    mon = LinearObjectsMonoid(Quiver(2, [(0, 1, 1), (1, 0, 1)]), 2)
    assert mon.euler_form((1, 0), (0, 1)) == -1
    assert mon.euler_form((1, 0), (0, 1)) == mon.euler_form((0, 1), (1, 0))


def test_quiver_from_json():
    q = Quiver.from_json({"vertices": 2, "arrows": [[0, 1, 2], [1, 0, 2]]})
    assert q.arrow_count(0, 1) == 2
    assert q.is_symmetric()


def test_vect_euler_form_and_stacky_value():
    mon = LinearObjectsMonoid.vect(3)
    assert mon.euler_form((2,), (3,)) == 6
    # stacky value at dimension 1, level n: L^(1/2)_n / (q^n - 1)
    from stacky_volumes.scalar import half_l_level

    for n in (1, 2, 3):
        assert mon.stacky_value((1,), n) == half_l_level(n) / (q_power(n) - 1)


def test_one_loop_rep_space():
    mon = LinearObjectsMonoid(Quiver(1, [(0, 0, 1)]), 2)
    assert mon.euler_form((1,), (1,)) == 0
    assert mon.rep_space_order((2,), 1) == q_power(4)
    # stacky value = q^(a^2) / |GL_a|
    assert mon.stacky_value((2,), 1) == q_power(4) / gl_order(2, 1)


def test_grading_morphism_fibers():
    fo = FreeOrbitMonoid(affine_line_census(2, 2))
    phi = GradingMorphism(fo)
    assert phi.map(point(1, 1)) == (1,)


def test_monoid_equality():
    assert DiscreteLattice(2) == DiscreteLattice(2)
    assert DiscreteLattice(2) != DiscreteLattice(1)
    assert LinearObjectsMonoid.vect(2) == LinearObjectsMonoid.vect(2)
    assert LinearObjectsMonoid.vect(2) != LinearObjectsMonoid.vect(3)
