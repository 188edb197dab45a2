import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilefold.cli import EXPECTED_MORI_FVECTOR
from tilefold.exactlat import dot, integer_kernel, primitive_vector, rational_rank
from tilefold.polyhedra import (
    Cone,
    check_fan,
    convex_hull,
    dual_cone,
    face_lattice_fvector,
    face_lattice_raysets,
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


def _rank_of_rows(rows) -> int:
    if not rows:
        return 0
    return rational_rank([list(r) for r in rows])


def reference_face_lattice_raysets(c: Cone) -> dict[int, int]:
    """All faces of a pointed cone as {ray bitmask: dimension}.

    Faces are the Galois-closed sets of the ray-facet incidence; enumeration
    adds one ray at a time and closes, which reaches every face.  Dimensions
    are exact ranks of the ray sets.
    """
    if not c.is_pointed():
        raise ValueError("face enumeration requires a pointed cone")
    rays = c.rays
    facets = c.facets
    nrays = len(rays)
    ray_facet_mask = []
    for r in rays:
        mask = 0
        for h_idx, n in enumerate(facets):
            if dot(n, r) == 0:
                mask |= 1 << h_idx
        ray_facet_mask.append(mask)
    all_facets_mask = (1 << len(facets)) - 1

    def close(ray_mask: int) -> int:
        tight = all_facets_mask
        m = ray_mask
        while m:
            low = m & -m
            tight &= ray_facet_mask[low.bit_length() - 1]
            m ^= low
        closed = 0
        for i in range(nrays):
            if ray_facet_mask[i] & tight == tight:
                closed |= 1 << i
        return closed

    bottom = close(0)
    if bottom != 0:
        raise ValueError("cone is not pointed in incidence data")
    faces: dict[int, int] = {0: 0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for i in range(nrays):
            b = 1 << i
            if cur & b:
                continue
            child = close(cur | b)
            if child not in faces:
                faces[child] = -1
                stack.append(child)
    # exact dimensions
    for mask in faces:
        n = mask.bit_count()
        if n == 0:
            faces[mask] = 0
        elif n <= 2:
            faces[mask] = n  # distinct extremal rays are independent in pairs
        else:
            rows = [rays[i] for i in range(nrays) if mask & (1 << i)]
            faces[mask] = _rank_of_rows(rows)
    return faces


@st.composite
def pointed_cones(draw, min_dim=3, max_dim=5):
    """Generators in R^d, d = min_dim..max_dim, with a positive first coordinate."""
    d = draw(st.integers(min_dim, max_dim))
    entry = st.integers(-3, 3)
    gen = st.tuples(st.integers(1, 3), *[entry] * (d - 1))
    return d, draw(st.lists(gen, min_size=1, max_size=d + 4))


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
        assert len(halfplane.lineality) == 1
        d = dual_cone(halfplane)
        assert d.rays == ((1, 0),) and len(d.lineality) == 0

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

    @settings(max_examples=40, deadline=None)
    @given(pointed_cones(4, 6))
    def test_round_trip_and_duality_in_higher_dimensions(self, cone):
        d, gens = cone
        c = Cone.from_rays(d, gens)
        back = Cone.from_inequalities(d, c.facets, c.equations)
        assert back == c and back.facets == c.facets and back.equations == c.equations
        # the dual rebuilt from its generators by double description
        dual = Cone.from_rays(
            d, list(c.facets) + list(c.equations) + [tuple(-x for x in e) for e in c.equations]
        )
        assert dual == dual_cone(c) and dual.facets == c.rays
        assert dual_cone(dual_cone(c)) == c

    @settings(max_examples=40, deadline=None)
    @given(pointed_cones(4, 6), st.data())
    def test_lp_agrees_with_facets_in_higher_dimensions(self, cone, data):
        d, gens = cone
        c = Cone.from_rays(d, gens)
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
        inside = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(d))
        assert lp_in_cone(gens, inside) and c.contains(inside)
        if any(inside):
            # the first coordinate turns negative: outside, a Farkas verdict
            assert not lp_in_cone(gens, tuple(-x for x in inside))
        point = data.draw(st.tuples(*[st.integers(-6, 6)] * d))
        assert lp_in_cone(gens, point) == c.contains(point) == lp_in_cone(c.rays, point)


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


    @settings(max_examples=150, deadline=None)
    @given(pointed_cones())
    def test_matches_closure_reference(self, cone):
        d, gens = cone
        c = Cone.from_rays(d, gens)
        faces = face_lattice_raysets(c)
        assert faces == reference_face_lattice_raysets(c)
        counts = [0] * (c.dim + 1)
        for k in faces.values():
            counts[k] += 1
        # Euler: the alternating count over the zero face up to the cone is 0
        assert sum((-1) ** k * f for k, f in enumerate(counts)) == 0
        if c.dim == d:
            fv = face_lattice_fvector(c)
            assert face_lattice_fvector(dual_cone(c)) == tuple(reversed(fv))

    def test_expected_mori_fvector_satisfies_euler(self):
        # an 11-dimensional polytope section: f_0 - f_1 + ... + f_10 = 2
        assert sum((-1) ** i * f for i, f in enumerate(EXPECTED_MORI_FVECTOR)) == 2

    def test_inconsistent_equations_raise(self):
        orthant = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        wrong = Cone(3, orthant.rays, (), orthant.facets, ((0, 0, 1),))
        with pytest.raises(RuntimeError, match="height 3, cone dimension 2"):
            face_lattice_raysets(wrong)

    def test_non_pointed_rejected(self):
        with pytest.raises(ValueError):
            face_lattice_raysets(Cone.from_inequalities(2, [(1, 0)]))

    def test_zero_cone(self):
        zero = Cone.from_rays(3, [])
        assert zero.dim == 0
        assert face_lattice_raysets(zero) == {0: 0}
        assert face_lattice_fvector(zero) == ()

    def test_single_ray_in_plane(self):
        ray = Cone.from_rays(2, [(1, 2)])
        assert ray.dim == 1
        assert face_lattice_raysets(ray) == {0: 0, 1: 1}

    def test_permutohedron_homogenisation(self):
        # a 4-dimensional pointed cone in R^5: the permutohedron lies in a hyperplane
        gens = [(1,) + p for p in itertools.permutations((1, 2, 3, 4))]
        c = Cone.from_rays(5, gens)
        assert c.dim == 4 and len(c.rays) == 24
        assert face_lattice_raysets(c) == reference_face_lattice_raysets(c)
        assert face_lattice_fvector(c) == (24, 36, 14)


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
