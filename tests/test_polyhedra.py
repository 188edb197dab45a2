import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilefold.exactlat import dot, integer_kernel, primitive_vector, rational_rank
from tilefold.polyhedra import (
    Cone,
    check_fan,
    convex_hull,
    dual_cone,
    face_lattice_fvector,
    fan_from_text,
    fan_to_text,
    intersect_cones,
    is_complete_fan,
    is_face,
    lp_in_cone,
    make_fan,
    polytope_from_inequalities,
)


def brute_extremal_rays(dim, ineqs):
    """Independent oracle: candidate rays from (dim-1)-subsets of tight normals."""
    cands = set()
    for sub in itertools.combinations(range(len(ineqs)), dim - 1):
        rows = [list(ineqs[i]) for i in sub]
        if rational_rank(rows) != dim - 1:
            continue
        ker = integer_kernel(rows)
        if len(ker) != 1:
            continue
        for s in (ker[0], tuple(-x for x in ker[0])):
            if all(dot(a, s) >= 0 for a in ineqs):
                cands.add(primitive_vector(s))
    out = set()
    for r in cands:
        tight = [list(a) for a in ineqs if dot(a, r) == 0]
        if tight and rational_rank(tight) == dim - 1:
            out.add(r)
    return out


vectors3 = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    min_size=1,
    max_size=7,
)


class TestCones:
    def test_orthant(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(c.rays) == 3 and len(c.facets) == 3
        assert dual_cone(c) == c

    def test_redundant_generator_dropped(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
        assert c.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_zero_ambient_rejects_generators(self):
        with pytest.raises(ValueError):
            Cone.from_rays(0, [(1,)])

    def test_halfplane_dual_is_ray(self):
        halfplane = Cone.from_inequalities(2, [(1, 0)])
        assert halfplane.lineality_dim == 1
        d = dual_cone(halfplane)
        assert d.rays == ((1, 0),) and d.lineality_dim == 0

    def test_dimension_mismatch(self):
        a = Cone.from_rays(2, [(1, 0)])
        b = Cone.from_rays(3, [(1, 0, 0)])
        with pytest.raises(ValueError):
            intersect_cones(a, b)

    def test_intersection_idempotent(self):
        c = Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
        assert intersect_cones(c, c) == c

    @settings(max_examples=120, deadline=None)
    @given(vectors3)
    def test_double_description_round_trip(self, gens):
        c = Cone.from_rays(3, gens)
        assert dual_cone(dual_cone(c)) == c
        rebuilt = Cone.from_rays(
            3,
            list(c.rays)
            + list(c.lineality)
            + [tuple(-x for x in l) for l in c.lineality],
        )
        assert rebuilt == c
        for g in gens:
            assert c.contains(g)

    @settings(max_examples=120, deadline=None)
    @given(vectors3)
    def test_facets_against_brute_force(self, gens):
        c = Cone.from_rays(3, gens)
        if c.lineality or c.dim != 3:
            return
        # facets of the cone are the extremal rays of its polar
        assert set(c.facets) == brute_extremal_rays(3, list(c.rays))

    @settings(max_examples=120, deadline=None)
    @given(vectors3, st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
    def test_farkas_consistency(self, gens, point):
        # facet membership and the LP oracle must agree on every point
        c = Cone.from_rays(3, gens)
        if c.lineality:
            return
        assert c.contains(point) == lp_in_cone(c.rays, point)


class TestFaces:
    def test_zero_cone_is_face_of_pointed(self):
        zero = Cone.from_rays(3, [])
        orthant = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert is_face(zero, orthant)

    def test_interior_ray_is_not_a_face(self):
        big = Cone.from_rays(3, [(-1, -1, -1), (0, 1, 0)])
        inner = Cone.from_rays(3, [(-1, 0, -1)])  # the sum of the rays
        assert big.contains((-1, 0, -1))
        assert not is_face(inner, big)

    def test_generating_ray_is_a_face(self):
        big = Cone.from_rays(3, [(-1, -1, -1), (0, 1, 0)])
        assert is_face(Cone.from_rays(3, [(-1, -1, -1)]), big)

    def test_not_contained_raises(self):
        orthant = Cone.from_rays(2, [(1, 0), (0, 1)])
        outside = Cone.from_rays(2, [(-1, 0)])
        with pytest.raises(ValueError):
            is_face(outside, orthant)

    def test_cone_is_its_own_face(self):
        c = Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
        assert is_face(c, c)


class TestFaceLattice:
    def test_orthant_f_vector(self):
        c = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert face_lattice_fvector(c) == (3, 3)

    def test_simplicial_4d(self):
        gens = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
        assert face_lattice_fvector(Cone.from_rays(4, gens)) == (4, 6, 4)

    def test_cross_polytope_cone(self):
        # cone over the square: 4 rays, 4 facets
        gens = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
        assert face_lattice_fvector(Cone.from_rays(3, gens)) == (4, 4)

    @settings(max_examples=60, deadline=None)
    @given(vectors3)
    def test_euler_relation(self, gens):
        c = Cone.from_rays(3, gens)
        if c.lineality or c.dim != 3:
            return
        fv = face_lattice_fvector(c)
        total = sum((-1) ** i * f for i, f in enumerate(fv))
        assert total == 1 - (-1) ** (c.dim - 1)


class TestHull:
    def test_single_point(self):
        p = convex_hull([(1, 2, 3)])
        assert p.dim == 0 and p.vertices == ((1, 2, 3),)
        assert p.f_vector() == ()

    def test_square(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
        p = convex_hull(pts)
        assert len(p.vertices) == 4
        assert p.f_vector() == (4, 4)

    def test_interior_points_do_not_change_vertices(self):
        pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        p = convex_hull(pts)
        q = convex_hull(pts + [(1, 0, 0), (Fraction(1, 2),) * 3])
        assert p.vertices == q.vertices
        assert p.f_vector() == q.f_vector() == (4, 6, 4)

    def test_lower_dimensional_hull(self):
        # triangle inside a plane in 3-space
        pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
        p = convex_hull(pts)
        assert p.dim == 2
        assert p.f_vector() == (3, 3)

    def test_polytope_from_inequalities_point(self):
        # x >= 0, -x >= 0 forces the single point 0
        p = polytope_from_inequalities(1, [(0, 1), (0, -1)])
        assert p is not None and p.vertices == ((0,),)

    def test_polytope_empty(self):
        p = polytope_from_inequalities(1, [(-1, 1), (-1, -1)])  # x>=1, x<=-1
        assert p is None


class TestFans:
    def p2_fan(self):
        return make_fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])

    def test_p2_complete(self):
        fan = self.p2_fan()
        check_fan(fan)
        assert is_complete_fan(fan)

    def test_orthant_fan_not_complete(self):
        fan = make_fan(2, [(1, 0), (0, 1)], [{0, 1}])
        check_fan(fan)
        assert not is_complete_fan(fan)

    def test_bad_fan_detected(self):
        # overlapping cones that do not meet in a common face
        fan = make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [{0, 1}, {2, 3}])
        with pytest.raises(ValueError):
            check_fan(fan)

    def test_text_round_trip(self):
        fan = self.p2_fan()
        text = fan_to_text(fan)
        back = fan_from_text(text)
        assert back.rays == fan.rays
        assert set(back.maximal_cones) == set(fan.maximal_cones)

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            fan_from_text("CONES\n0 1\n")

    def test_rays_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 2"):
            fan_from_text("RAYS\n1 0\n0 1 0\nCONES\n0\n1\n")
        with pytest.raises(ValueError, match="length 3"):
            make_fan(3, [(1, 0, 0), (0, 1)], [{0}, {1}])
