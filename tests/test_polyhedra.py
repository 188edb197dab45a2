import itertools
import math
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tilefold import polyhedra
from tilefold.cli import EXPECTED_MORI_FVECTOR
from tilefold.exactlat import (
    dot,
    integer_kernel,
    primitive_vector,
    rational_rank,
)
from tilefold.polyhedra import (
    Cone,
    Fan,
    _canonical_rays,
    _dd_inequalities,
    _extremal,
    _lanes,
    _packed_images,
    _ray_images,
    _saturated_kernel,
    _transpose,
    dual_cone,
    face_lattice_fvector,
    face_lattice_raysets,
    fan_face_index_sets,
    fan_is_smooth,
    fan_to_text,
    is_complete_fan,
    lp_in_cone,
    make_fan,
)

from test_exactlat import gauss_jordan_solve, scale_to_primitive_integer  # the tests' Fraction helpers


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


def coordinate_group(d, sigma, full):
    """A group of permutations of the coordinates 1..d-1 of R^d.

    The symmetric group of those coordinates when `full`, else the cyclic
    group generated by `sigma`; coordinate 0 stays put.
    """
    if full:
        return [(0,) + p for p in itertools.permutations(range(1, d))]
    g = (0,) + tuple(1 + i for i in sigma)
    group = [tuple(range(d))]
    while (power := tuple(g[i] for i in group[-1])) != group[0]:
        group.append(power)
    return group


def permuted_rays(c, group, signs=(1,)):
    """The ray index permutations of `c` induced by coordinate permutations.

    Each coordinate permutation is taken once per sign in `signs`, the sign
    multiplying the permuted coordinates 1..d-1.
    """
    index = {r: i for i, r in enumerate(c.rays)}
    return [
        tuple(index[(r[g[0]],) + tuple(s * r[g[k]] for k in range(1, len(r)))] for r in c.rays)
        for g in group
        for s in signs
    ]


def plain(faces):
    """{ray mask: dimension} of a walk without a group: every orbit is one face."""
    assert all(size == 1 for _, size in faces.values())
    return {mask: k for mask, (k, _) in faces.items()}


def expand(faces, perms):
    """{ray mask: dimension} of every image of the walk's representatives.

    Checks that the orbits are disjoint and that each has the size the walk
    gave it, so the sizes add up to the face counts.
    """
    out = {}
    for mask, (k, size) in faces.items():
        orbit = {sum(1 << p[j] for j in range(len(p)) if mask >> j & 1) for p in perms}
        assert len(orbit) == size and not orbit & out.keys()
        out.update(dict.fromkeys(orbit, k))
    return out


@st.composite
def symmetric_cones(draw):
    """A pointed cone in R^d, d = 3..5, symmetric under a coordinate group."""
    d = draw(st.integers(3, 5))
    full = draw(st.booleans())
    sigma = draw(st.permutations(range(d - 1)))
    group = coordinate_group(d, sigma, full)
    entry = st.integers(-2, 2)
    seeds = draw(st.lists(st.tuples(st.integers(1, 3), *[entry] * (d - 1)), min_size=1, max_size=3))
    gens = {tuple(v[g[k]] for k in range(d)) for v in seeds for g in group}
    return d, sorted(gens), group


@st.composite
def general_cones(draw, min_dim=4, max_dim=6):
    """Generators in R^d, d = min_dim..max_dim, lower-dimensional or not pointed.

    The generators are integer combinations of k <= d drawn vectors, so they
    may span a proper subspace; with `flip` some come with their negatives.
    """
    d = draw(st.integers(min_dim, max_dim))
    basis = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    gens = [
        tuple(sum(c * v[i] for c, v in zip(cs, basis)) for i in range(d))
        for cs in draw(st.lists(coeffs, min_size=0, max_size=d + 4))
    ]
    flip = draw(st.integers(0, 2))
    return d, gens + [tuple(-x for x in g) for g in gens[:flip]]


def distinct_rows(vectors):
    """The distinct primitive nonzero vectors, sorted, and where each input went.

    Entry i of the second list is the index of input i's primitive vector in
    the first, or -1 for a zero input, which is tight everywhere.
    """
    prims = [primitive_vector(a) for a in vectors]
    rows = sorted({a for a in prims if any(a)})
    index = {a: k for k, a in enumerate(rows)}
    return rows, [index.get(a, -1) for a in prims]


def dd_rays(d, ineqs, eqs=()):
    """Canonical (rays, lineality) of {x : a.x >= 0, e.x == 0}, by one DD run and no facet selection."""
    rows, _ = distinct_rows(list(ineqs) + [v for e in eqs for v in (e, tuple(-x for x in e))])
    found, lin = _dd_inequalities(d, rows)
    lineality = _saturated_kernel(d, rows) if lin else ()
    return _canonical_rays(found, lineality)[0], lineality


def two_dd_from_rays(d, gens) -> Cone:
    """Reference constructor: a second DD run recovers the rays from the facets."""
    facets, equations = dd_rays(d, gens)
    rays, lineality = dd_rays(d, facets, equations)
    return Cone(d, rays, lineality, facets, equations, tight_sets(rays, facets))


def two_dd_from_inequalities(d, ineqs, eqs=()) -> Cone:
    """Reference constructor: a second DD run recovers the facets from the rays."""
    rays, lineality = dd_rays(d, ineqs, eqs)
    facets, equations = dd_rays(d, rays, lineality)
    return Cone(d, rays, lineality, facets, equations, tight_sets(rays, facets))


# The DD as it was before equations entered it as inequality pairs: it ran
# in coordinates of a saturated basis of the equations' kernel, and the rays
# were lifted back.  Facet selection then ran over the inputs, each with its
# own tight set, an equation's and a zero input's being every ray.
def kernel_coordinate_solve_hrep(dim, ineqs, eqs):
    """Canonical (rays, lineality, tight) of an H-representation, by one DD run.

    `tight[i]` is the bitmask of the rays on which ineqs[i] is tight, bit k
    for rays[k], read off the DD's zero sets; a zero inequality is tight on
    every ray.
    """
    eqs = [tuple(e) for e in eqs if any(e)]
    rows, index = distinct_rows(ineqs)
    if eqs:
        kernel = integer_kernel(eqs)
        if not kernel:
            return (), (), [0] * len(index)
        # a row's product with a lifted ray is its kernel row's with the coordinates
        sub, sub_index = distinct_rows([tuple(dot(a, k) for k in kernel) for a in rows])
        found, lin = _dd_inequalities(len(kernel), sub)
        found = [
            (tuple(sum(w * k[j] for w, k in zip(r, kernel)) for j in range(dim)), zeros)
            for r, zeros in found
        ]
        index = [sub_index[k] if k >= 0 else -1 for k in index]
    else:
        found, lin = _dd_inequalities(dim, rows)
        sub = rows
    lineality = _saturated_kernel(dim, rows + eqs) if lin else ()
    rays, zero_sets = _canonical_rays(found, lineality)
    by_row = _transpose(zero_sets, len(sub))
    every_ray = (1 << len(rays)) - 1
    return rays, lineality, [by_row[k] if k >= 0 else every_ray for k in index]


def kernel_coordinate_cone(d, ineqs, eqs) -> Cone:
    """Reference constructor: the kernel-coordinate DD, then facet selection over the inputs."""
    rays, lineality, tight = kernel_coordinate_solve_hrep(d, ineqs, eqs)
    tight += [(1 << len(rays)) - 1] * len(eqs)
    facets, span_eqs, facet_rays = _extremal(d, ineqs + eqs, tight, rays, lineality)
    return Cone(d, rays, lineality, facets, span_eqs, tuple(_transpose(facet_rays, len(rays))))


def fields(c: Cone):
    return c.ambient_dim, c.rays, c.lineality, c.facets, c.equations


def scaled(v, num, den):
    return tuple(Fraction(x * num, den) for x in v)


def reference_projection(v, basis):
    """Reference: the component of v orthogonal to span(basis), as Fractions.

    The rational projection that _canonical_rays made before it cleared
    the Gram solve's denominator: v minus the Fraction coefficients of the
    Gram system times the basis.
    """
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    coeffs, _ = gauss_jordan_solve(gram, [dot(bi, v) for bi in basis])
    return tuple(x - sum(c * b[i] for c, b in zip(coeffs, basis)) for i, x in enumerate(v))


# independent lineality rows and rays in R^d, d = 2..5
lineality_and_rays = st.integers(2, 5).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d - 1).filter(
            lambda rows: rational_rank(rows) == len(rows)
        ),
        st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=6),
    )
)


# The simplex as it was before its pivots shared one denominator: each row
# keeps its own positive divisor and is divided by its content, and the
# certificate needs an lcm.  Kept verbatim as the reference for lp_in_cone.


def _eliminate(row, pivot_row, col: int, support) -> list[int]:
    """pivot_row[col] * row - row[col] * pivot_row, divided by its content.

    Rows are integer lists holding a positive multiple of their true values;
    pivot_row[col] > 0 keeps the multiple positive.  `support` lists the
    nonzero positions of pivot_row.
    """
    p, f = pivot_row[col], row[col]
    new = [p * x for x in row]
    for j in support:
        new[j] -= f * pivot_row[j]
    g = 0
    for x in new:  # not gcd(*new): its argument tuples raised peak RSS
        g = gcd(g, x)
    return [x // g for x in new] if g > 1 else new


def reference_lp_in_cone(generators, point) -> bool:
    """Phase-1 simplex over Z: is point a nonnegative combination?

    Each generator and the point are scaled once to primitive integer
    vectors; a positive scale changes neither the verdict nor the evidence,
    and every later step is integer arithmetic.  Bland's rule gives
    termination: the first column with a negative reduced cost enters, and
    of the rows with the least ratio, compared by cross-multiplication, the
    one whose basic column has the least index leaves.  A basis that comes
    back raises RuntimeError.  This is deliberately a second route,
    independent of facet computations, for Farkas-style cross checks.  The
    verdict carries exact evidence, re-checked before it is returned: True
    comes with the basic solution lambda >= 0, and with D the lcm of the
    basic entries, sum (lambda_j D) g_j must equal D b over Z; False comes
    with the Farkas functional z read off the objective row
    (z_i = -s_i (1 - rc[n+i]), rc the reduced costs and s_i the sign that
    made row i's right-hand side nonnegative), and z.g >= 0 for every
    generator g and z.b < 0 must hold.  A failed check raises RuntimeError.
    """
    gens = [scale_to_primitive_integer(g) for g in generators]
    b = scale_to_primitive_integer(point)
    m = len(b)
    if any(len(g) != m for g in gens):
        raise ValueError("generator has wrong length")
    if not gens:
        return not any(b)
    n = len(gens)
    width = n + m  # structural then artificial columns; index width is the rhs
    signs = [-1 if x < 0 else 1 for x in b]
    # Constraint row i: sum_j lambda_j s_i g_j[i] + artificial_i = s_i b_i.
    # Each row holds a positive multiple of its true values, which are the
    # row over its basic entry.
    tableau = []
    for i, s in enumerate(signs):
        row = [s * g[i] for g in gens] + [0] * m + [s * b[i]]
        row[n + i] = 1
        tableau.append(row)
    basis = list(range(n, width))
    # Objective row of min sum(artificials), kept in the tableau and updated
    # by every pivot: minus the column sums of the constraint rows, 0 on the
    # artificial columns, then the rhs (minus the objective value) and last
    # the positive divisor that gives the true values.
    obj = [-sum(row[j] for row in tableau) for j in range(n)] + [0] * m
    obj += [-sum(row[width] for row in tableau), 1]

    seen = set()  # Bland's rule never returns to a basis
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        if tuple(basis) in seen:
            raise RuntimeError("simplex: a basis came back, so the pivots cycle")
        seen.add(tuple(basis))
        if enter in basis:
            raise RuntimeError("simplex: a basic column has a nonzero reduced cost")
        leave = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                if leave is not None:
                    # sign of rhs_i / row_i - rhs_leave / row_leave in column enter
                    best = tableau[leave]
                    cross = row[width] * best[enter] - best[width] * row[enter]
                    if cross > 0 or cross == 0 and basis[i] > basis[leave]:
                        continue
                leave = i
        if leave is None:
            raise RuntimeError("simplex: the phase-1 objective is unbounded below")
        pivot_row = tableau[leave]
        support = [j for j, x in enumerate(pivot_row) if x]
        for i, row in enumerate(tableau):
            if i != leave and row[enter]:
                tableau[i] = _eliminate(row, pivot_row, enter, support)
        obj = _eliminate(obj, pivot_row, enter, support)
        basis[leave] = enter

    if obj[width] == 0:
        # lambda_j D = rhs * (D // den) for the row with basic entry den in column j
        d = lcm(*[row[j] for row, j in zip(tableau, basis) if j < n])
        lam = [0] * n
        for row, j in zip(tableau, basis):
            if j < n:
                lam[j] = row[width] * (d // row[j])
        combo = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(m)]
        if min(lam) < 0 or combo != [d * x for x in b]:
            raise RuntimeError("simplex: the membership certificate does not give the point")
        return True
    # z scaled by the objective row's positive divisor
    z = [-s * (obj[width + 1] - obj[n + i]) for i, s in enumerate(signs)]
    if any(dot(z, g) < 0 for g in gens) or dot(z, b) >= 0:
        raise RuntimeError("simplex: the Farkas certificate does not separate the point")
    return False


@st.composite
def lp_inputs(draw):
    """Generators and a point for the simplex.

    d = 1..7, up to d + 6 generators with entries in [-4, 4].  The point is
    random, zero, or a nonnegative combination (its negative half the time);
    half the inputs give every vector a positive integer scale.
    """
    d = draw(st.integers(1, 7))
    entries = st.tuples(*[st.integers(-4, 4)] * d)
    gens = draw(st.lists(entries, max_size=d + 6))
    kind = draw(st.sampled_from(["random", "zero", "combination"]))
    if kind == "random":
        point = draw(entries)
    elif kind == "zero":
        point = (0,) * d
    else:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
        sign = draw(st.sampled_from([1, -1]))
        point = tuple(sign * sum(w * g[i] for w, g in zip(weights, gens)) for i in range(d))
    if draw(st.booleans()):
        positive = st.integers(1, 5)
        gens = [tuple(draw(positive) * x for x in g) for g in gens]
        point = tuple(draw(positive) * x for x in point)
    return gens, point


@st.composite
def degenerate_lps(draw):
    """Many generators through one face of a cone, and a point on that face.

    In R^d, d = 3..6, at least d generators lie in the face x_0 = 0 and one
    to three have x_0 >= 1, so x_0 >= 0 supports the cone.  The point is a
    nonnegative combination of one or two face generators, or any point with
    x_0 = 0.  Sparse entries in {-1, 0, 1} leave several right-hand sides 0,
    so the simplex starts and goes on degenerate.
    """
    d = draw(st.integers(3, 6))
    sparse = st.sampled_from([0, 0, 0, 1, -1])
    face = draw(st.lists(st.tuples(st.just(0), *[sparse] * (d - 1)), min_size=d, max_size=2 * d + 2))
    off = draw(st.lists(st.tuples(st.integers(1, 2), *[sparse] * (d - 1)), min_size=1, max_size=3))
    if draw(st.booleans()):
        support = draw(st.lists(st.sampled_from(face), min_size=1, max_size=2))
        point = tuple(sum(g[i] for g in support) for i in range(d))
    else:
        point = (0,) + draw(st.tuples(*[sparse] * (d - 1)))
    return draw(st.permutations(face + off)), point


def tight_sets(rays, facets) -> tuple[int, ...]:
    """The ray-facet incidence recomputed: entry j masks the facets tight at rays[j]."""
    return tuple(
        sum(1 << h for h, n in enumerate(facets) if dot(n, r) == 0) for r in rays
    )


def reference_intersect_cones(a: Cone, b: Cone) -> Cone:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Cone.from_inequalities(
        a.ambient_dim, a.facets + b.facets, a.equations + b.equations
    )


def reference_is_face(f: Cone, c: Cone) -> bool:
    """Exact test that f equals c cut by some supporting hyperplane.

    The cone itself and (for pointed cones) the zero cone count as faces.
    Raises if f is not even a subset of c.
    """
    if not c.contains_cone(f):
        raise ValueError("first cone is not contained in the second")
    tight = sum(1 << h for h, n in enumerate(c.facets) if all(dot(n, r) == 0 for r in f.rays))
    generated_rays = tuple(r for r, m in zip(c.rays, c.incidence) if m & tight == tight)
    return generated_rays == f.rays and f.lineality == c.lineality


def reference_fan_axioms(fan) -> bool:
    """Whether no maximal cone lies in another and any two meet in a common face, by DD meets: the reference."""
    for (s, a), (t, b) in itertools.combinations(zip(fan.maximal_cones, fan.cones), 2):
        if s <= t or t <= s:
            return False
        meet = reference_intersect_cones(a, b)
        if not (reference_is_face(meet, a) and reference_is_face(meet, b)):
            return False
    return True


def unchecked_fan(build, *args) -> Fan:
    """build(*args) with the Fan's own axiom check switched off, for the reference to judge."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyhedra, "check_fan", lambda fan: None)
        return build(*args)


@st.composite
def cone_pairs(draw):
    """Two pointed cones on a pool of 8 primitive vectors in R^d, d = 2..4.

    Each cone is spanned by up to d + 1 pool vectors and listed by the pool
    indices of its extremal rays, so it may be lower-dimensional or not
    simplicial.
    """
    d = draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * d).filter(any).map(primitive_vector)
    pool = draw(st.lists(vector, min_size=8, max_size=8, unique=True))
    pair = []
    for _ in range(2):
        picks = draw(st.lists(st.integers(0, 7), min_size=1, max_size=d + 1, unique=True))
        cone = Cone.from_rays(d, [pool[i] for i in picks])
        assume(cone.is_pointed())
        pair.append({pool.index(r) for r in cone.rays})
    return d, pool, pair


# cone over the square with vertices (+-1, +-1); its rays sort as
# (-1,-1), (-1,1), (1,-1), (1,1)
SQUARE = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]

CYCLING_LP = (
    [(-2, 1, 2, -2), (-1, 2, 0, 1), (1, 1, -2, 2), (-2, -1, 0, 1), (1, 0, 2, 1),
     (-1, -2, 1, 2), (-1, 2, 1, 1), (0, 1, 0, -2), (2, 1, 0, 2)],
    (2, 0, 2, 1),
)

# Beale's example (1955), on which Dantzig's rule cycles, scaled by 100 as
# a membership problem.  Rows 1 to 3 are Beale's constraints and the last
# three columns copy his slacks.  Phase-1 costs are minus the column sums,
# so row 4 sets them to Beale's costs and 0 on the slack copies.  Row 5, of
# ones, keeps each column primitive, as lp_in_cone divides by the gcd.
BEALE_LP = (
    [(25, 50, 0, -1, 1), (-6000, -9000, 0, -1, 1), (-4, -2, 100, -93, 1), (900, 300, 0, -1801, 1),
     (100, 0, 0, -101, 1), (0, 100, 0, -101, 1), (0, 0, 100, -101, 1)],
    (0, 0, 100, 1, 1),
)

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
            reference_intersect_cones(a, b)

    def test_lp_with_no_generators_is_membership_of_the_zero_cone(self):
        zero = Cone.from_rays(3, [])
        for p in [(0, 0, 0), (1, 0, 0), (0, 0, -2), (3, -1, 4)]:
            assert lp_in_cone([], p) == zero.contains(p) == (p == (0, 0, 0))

    def test_containment_of_a_cone_with_a_lineality(self):
        # the inner cone's lineality must lie in the outer cone both ways
        plane = Cone.from_inequalities(2, [])
        halfplane = Cone.from_inequalities(2, [(0, 1)])
        assert halfplane.lineality and plane.lineality and not plane.rays
        assert plane.contains_cone(halfplane)
        assert not Cone.from_rays(2, [(1, 0), (1, 1)]).contains_cone(halfplane)
        # holds the half-plane's ray and one direction of its line only
        assert not Cone.from_rays(2, [(1, 0), (-1, 1)]).contains_cone(halfplane)
        assert not halfplane.contains_cone(plane)
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            plane.contains_cone(Cone.from_rays(3, []))

    def test_lp_rejects_generator_of_wrong_length(self):
        # a longer generator used to be cut to the point's length, a shorter
        # one to escape as an IndexError
        for gens in ([(1, 0, 5)], [(1,)]):
            with pytest.raises(ValueError, match="generator has wrong length"):
                lp_in_cone(gens, (1, 0))

    def test_intersection_idempotent(self):
        c = Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
        assert reference_intersect_cones(c, c) == c

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

    def test_equal_cones_compare_equal(self):
        # the plane 2x + 3y + 5z = 0 by four routes; (1, 6, -4) and (0, 10, -6)
        # span only an index-2 sublattice of its integer points
        routes = [
            Cone.from_inequalities(3, [(2, 3, 5), (-2, -3, -5)]),
            Cone.from_inequalities(3, [], [(2, 3, 5)]),
            Cone.from_rays(3, [(1, 6, -4), (-1, -6, 4), (0, 10, -6), (0, -10, 6)]),
            Cone.from_rays(3, [(1, 1, -1), (0, 5, -3), (-1, -6, 4)]),
        ]
        assert all(fields(c) == fields(routes[0]) for c in routes)
        assert all(c == routes[0] and hash(c) == hash(routes[0]) for c in routes)
        assert all(c.incidence == routes[0].incidence for c in routes)
        # one generator dropped leaves a half-plane
        assert Cone.from_rays(3, [(1, 6, -4), (-1, -6, 4), (0, 10, -6)]) not in routes
        assert routes[0].lineality == tuple(integer_kernel([(2, 3, 5)])) == ((1, 1, -1), (0, 5, -3))
        assert routes[0].equations == ((2, 3, 5),) and not routes[0].rays

    @settings(max_examples=80, deadline=None)
    @given(general_cones(), st.data())
    def test_one_dd_matches_two_dd_reference(self, cone, data):
        d, gens = cone
        c = Cone.from_rays(d, gens)
        reference = two_dd_from_rays(d, gens)
        back = Cone.from_inequalities(d, c.facets, c.equations)
        assert fields(c) == fields(reference)
        assert fields(back) == fields(c)
        for other in (reference, back):
            assert other == c and hash(other) == hash(c) and other.incidence == c.incidence
        if c.rays:
            # an extremal ray is no combination of the others and the lineality
            lines = list(c.lineality) + [tuple(-x for x in l) for l in c.lineality]
            assert Cone.from_rays(d, list(c.rays[1:]) + lines) not in (c, reference, back)
        # a random H-representation: implicit equations and lineality arise
        ineqs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=d + 3))
        eqs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=2))
        h = Cone.from_inequalities(d, ineqs + gens[:1], eqs)
        reference = two_dd_from_inequalities(d, ineqs + gens[:1], eqs)
        assert fields(h) == fields(reference)
        assert h == reference and hash(h) == hash(reference) and h.incidence == reference.incidence

    @settings(max_examples=80, deadline=None)
    @given(general_cones(3, 5), st.data())
    def test_lineality_and_span_equations_are_the_saturated_kernels(self, cone, data):
        # each constructor reads one of the two off its input's incidence and
        # skips the kernel when no input vector is tight on every normal
        d, gens = cone
        gens = gens + data.draw(st.lists(st.just((0,) * d), max_size=1))
        ineqs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=d + 3))
        eqs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=2))
        for c in (Cone.from_rays(d, gens), Cone.from_inequalities(d, ineqs, eqs)):
            assert c.lineality == _saturated_kernel(d, c.facets + c.equations)
            assert c.equations == _saturated_kernel(d, c.rays + c.lineality)

    @settings(max_examples=80, deadline=None)
    @given(general_cones(3, 5), st.data())
    def test_kept_incidence_is_the_tight_sets(self, cone, data):
        # the DD's zero sets must survive the deduplication of duplicate and
        # scaled inputs, dropped zero inputs, the equations' inequality pairs
        # and the lineality projection
        d, gens = cone
        again = data.draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
        gens = gens + again + [tuple(3 * x for x in g) for g in again] + [(0,) * d]
        ineqs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=d + 3))
        ineqs = ineqs + [tuple(2 * x for x in a) for a in ineqs[:2]] + [(0,) * d]
        eqs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=2))
        for c in (
            Cone.from_rays(d, gens),
            Cone.from_inequalities(d, ineqs, eqs),
            Cone.from_inequalities(d, ineqs),
        ):
            for k in (c, dual_cone(c), dual_cone(dual_cone(c))):
                assert k.incidence == tight_sets(k.rays, k.facets)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equation_pairs_match_the_kernel_coordinate_dd(self, data):
        # duplicate, scaled, opposite and zero equations, an inequality
        # repeated as an equation, and systems whose only solution is 0
        d = data.draw(st.integers(1, 5))
        vec = st.tuples(*[st.integers(-2, 2)] * d)
        ineqs = data.draw(st.lists(vec, max_size=d + 3))
        eqs = data.draw(st.lists(vec, max_size=d))
        again = data.draw(st.lists(st.sampled_from(eqs), max_size=2)) if eqs else []
        eqs += again + [tuple(3 * x for x in e) for e in again] + [tuple(-x for x in e) for e in again]
        eqs += data.draw(st.lists(st.just((0,) * d), max_size=1))
        eqs += data.draw(st.lists(st.sampled_from(ineqs), max_size=1)) if ineqs else []
        if data.draw(st.integers(0, 4)) == 0:
            eqs += [tuple(int(i == j) for j in range(d)) for i in range(d)]
        c = Cone.from_inequalities(d, ineqs, eqs)
        reference = kernel_coordinate_cone(d, ineqs, eqs)
        assert fields(c) == fields(reference) and c.incidence == reference.incidence

    @settings(max_examples=80, deadline=None)
    @given(general_cones(3, 6))
    def test_from_rays_is_the_dual_of_from_inequalities(self, cone):
        d, gens = cone
        c = Cone.from_rays(d, gens)
        dual = dual_cone(Cone.from_inequalities(d, gens))
        assert fields(c) == fields(dual) and c.incidence == dual.incidence

    def test_an_input_of_wrong_length_is_named(self):
        # an equation of the wrong length used to be reported as an inequality
        for build, noun in (
            (lambda: Cone.from_inequalities(3, [(1, 0, 0)], [(1, 0)]), "equation"),
            (lambda: Cone.from_inequalities(3, [(1, 0)], [(1, 0, 0)]), "inequality"),
            (lambda: Cone.from_rays(3, [(1, 0, 0), (0, 1, 0, 0)]), "generator"),
        ):
            with pytest.raises(ValueError, match=f"^{noun} has wrong length$"):
                build()

    def test_span_equation_with_no_tight_inequality(self):
        # {x1 >= 0, x3 == 0}: no inequality is tight on the whole cone, yet
        # x3 == 0 is a span equation
        c = Cone.from_inequalities(3, [(1, 0, 0)], [(0, 0, 1)])
        assert c.rays == ((1, 0, 0),) and c.lineality == ((0, 1, 0),)
        assert c.equations == ((0, 0, 1),) and c.facets == ((1, 0, 0),)

    @settings(max_examples=60, deadline=None)
    @given(general_cones(), st.data())
    def test_lp_with_fractions_agrees_with_contains(self, cone, data):
        # lp_in_cone takes integer vectors: Fraction input raises TypeError,
        # and once the caller clears its denominators, a positive scale, the
        # verdict is the one contains gives
        d, gens = cone
        c = Cone.from_rays(d, gens)
        positive = st.integers(1, 5)
        frac_gens = [scaled(g, data.draw(positive), data.draw(positive)) for g in gens]
        cleared = [scale_to_primitive_integer(g) for g in frac_gens]
        point = data.draw(st.tuples(*[st.integers(-4, 4)] * d))
        frac_point = scaled(point, 1, data.draw(positive))
        assert lp_in_cone(cleared, scale_to_primitive_integer(frac_point)) == c.contains(point)
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
        inside = tuple(sum(Fraction(w, 2) * g[i] for w, g in zip(weights, frac_gens)) for i in range(d))
        inside = scale_to_primitive_integer(inside)
        assert lp_in_cone(cleared, inside) and c.contains(inside)
        with pytest.raises(TypeError):
            lp_in_cone(frac_gens, frac_point)

    @settings(max_examples=300, deadline=None)
    @given(lineality_and_rays)
    @example(([(1, 1, 0)], [(1, 0, 0), (0, 0, 1), (1, 1, 0)]))
    @example(([(1, 2, 0), (0, 1, 3)], [(1, 0, 0), (0, 0, -1)]))
    def test_canonical_rays_match_the_fraction_projection(self, inputs):
        # the integer projection primitive(d r - x L) is the primitive
        # vector of the rational projection of r off the lineality L
        lineality, rays = inputs
        got, masks = _canonical_rays([(r, 1 << i) for i, r in enumerate(rays)], lineality)
        expected = {}
        for i, r in enumerate(rays):
            projected = scale_to_primitive_integer(reference_projection(r, lineality))
            if any(projected):
                expected[projected] = 1 << i
        assert got == tuple(sorted(expected)) and masks == [expected[r] for r in got]

    def test_bool_entries_count_as_ints(self):
        assert Cone.from_rays(2, [(True, False), (0, 1)]) == Cone.from_rays(2, [(1, 0), (0, 1)])

    def test_simplex_does_not_cycle(self):
        # degenerate pivots here cycle when ties leave by the largest basic index
        gens, point = CYCLING_LP
        assert not lp_in_cone(gens, point) and not Cone.from_rays(4, gens).contains(point)

    def test_degenerate_pivots_fall_back_to_blands_rule(self):
        # Dantzig's rule alone brings a basis back here: the pivots cycle
        gens, point = BEALE_LP
        assert not lp_in_cone(gens, point) and not Cone.from_rays(5, gens).contains(point)

    @settings(max_examples=150, deadline=None)
    @given(degenerate_lps())
    def test_degenerate_lps_end_with_checked_certificates(self, inputs):
        # lp_in_cone re-checks its certificate before answering, so each
        # verdict here has passed that check; it must also be the right one
        gens, point = inputs
        verdict = lp_in_cone(gens, point)
        assert verdict == Cone.from_rays(len(point), gens).contains(point)
        assert verdict == reference_lp_in_cone(gens, point)

    @settings(max_examples=400, deadline=None)
    @given(lp_inputs())
    @example(inputs=CYCLING_LP)
    @example(inputs=([], (0, 0, 0)))
    @example(inputs=([], (0, 1, 0)))
    @example(inputs=([(2, 4), (-3, 0)], (0, 0)))
    def test_lp_matches_reference_simplex(self, inputs):
        # one common denominator gives the verdicts of per-row divisors
        gens, point = inputs
        assert lp_in_cone(gens, point) == reference_lp_in_cone(gens, point)


class TestFaces:
    def test_zero_cone_is_face_of_pointed(self):
        zero = Cone.from_rays(3, [])
        orthant = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert reference_is_face(zero, orthant)

    def test_interior_ray_is_not_a_face(self):
        big = Cone.from_rays(3, [(-1, -1, -1), (0, 1, 0)])
        inner = Cone.from_rays(3, [(-1, 0, -1)])  # the sum of the rays
        assert big.contains((-1, 0, -1))
        assert not reference_is_face(inner, big)

    def test_generating_ray_is_a_face(self):
        big = Cone.from_rays(3, [(-1, -1, -1), (0, 1, 0)])
        assert reference_is_face(Cone.from_rays(3, [(-1, -1, -1)]), big)

    def test_not_contained_raises(self):
        orthant = Cone.from_rays(2, [(1, 0), (0, 1)])
        outside = Cone.from_rays(2, [(-1, 0)])
        with pytest.raises(ValueError):
            reference_is_face(outside, orthant)

    def test_cone_is_its_own_face(self):
        c = Cone.from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
        assert reference_is_face(c, c)


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
        faces = plain(face_lattice_raysets(c))
        assert faces == reference_face_lattice_raysets(c)
        counts = [0] * (c.dim + 1)
        for k in faces.values():
            counts[k] += 1
        # Euler: the alternating count over the zero face up to the cone is 0
        assert sum((-1) ** k * f for k, f in enumerate(counts)) == 0
        if c.dim == d:
            fv = face_lattice_fvector(c)
            assert face_lattice_fvector(dual_cone(c)) == tuple(reversed(fv))

    @settings(max_examples=60, deadline=None)
    @given(pointed_cones(4, 6))
    def test_dual_walk_is_the_transposed_walk(self, cone):
        d, gens = cone
        c = Cone.from_rays(d, gens)
        if c.dim != d:
            return  # the dual of a lower-dimensional cone is not pointed
        tight = [[dot(n, r) == 0 for n in c.facets] for r in c.rays]
        transposed = {}
        for facet_mask, k in plain(face_lattice_raysets(dual_cone(c))).items():
            rays = 0
            for j, row in enumerate(tight):
                if all(row[h] for h in range(len(c.facets)) if facet_mask >> h & 1):
                    rays |= 1 << j
            transposed[rays] = d - k
        assert transposed == plain(face_lattice_raysets(c))

    @settings(max_examples=40, deadline=None)
    @given(symmetric_cones())
    def test_symmetric_walk_matches_plain_walk(self, cone):
        d, gens, group = cone
        c = Cone.from_rays(d, gens)
        perms = permuted_rays(c, group)
        faces = face_lattice_raysets(c, perms)
        assert expand(faces, perms) == plain(face_lattice_raysets(c))
        assert face_lattice_fvector(c, perms) == face_lattice_fvector(c)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 5), st.booleans(), st.booleans(), st.data())
    def test_cube_and_cross_polytope_under_coordinate_groups(self, d, full, negate, data):
        # the cone over the d-cube is walked over its 2d facets, its dual (the
        # cone over the cross-polytope) over its 2d rays
        group = coordinate_group(d + 1, data.draw(st.permutations(range(d))), full)
        signs = (1, -1) if negate else (1,)
        cube = Cone.from_rays(d + 1, [(1,) + v for v in itertools.product((-1, 1), repeat=d)])
        cube_fvector = tuple(2 ** (d - k) * math.comb(d, k) for k in range(d))
        for c, fvector in ((cube, cube_fvector), (dual_cone(cube), cube_fvector[::-1])):
            perms = permuted_rays(c, group, signs)
            assert face_lattice_fvector(c, perms) == face_lattice_fvector(c) == fvector

    def test_cube_with_more_rays_than_a_lane_word(self):
        # the cone over the 7-cube: 128 rays, so two 64-bit words a lane,
        # under the cyclic shift of the coordinates with both signs
        cube = Cone.from_rays(8, [(1,) + v for v in itertools.product((-1, 1), repeat=7)])
        perms = permuted_rays(cube, coordinate_group(8, (1, 2, 3, 4, 5, 6, 0), False), (1, -1))
        assert len(cube.rays) == 128 and len(perms) == 14
        faces = face_lattice_raysets(cube, perms)
        assert expand(faces, perms) == plain(face_lattice_raysets(cube))
        fvector = (128, 448, 672, 560, 280, 84, 14)
        assert face_lattice_fvector(cube, perms) == face_lattice_fvector(cube) == fvector
        # swapping two vertices keeps a bijection and a group, but not the facets
        swap = list(range(128))
        swap[0], swap[1] = 1, 0
        with pytest.raises(RuntimeError, match="facets onto facets"):
            face_lattice_raysets(cube, [tuple(range(128)), tuple(swap)])

    def test_ray_permutation_must_be_a_bijection(self):
        square = Cone.from_rays(3, SQUARE)
        for bad in [(0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4)]:
            with pytest.raises(RuntimeError, match="not a bijection"):
                face_lattice_raysets(square, [bad])

    def test_ray_permutations_must_keep_the_facet_incidence(self):
        # swapping rays 0 and 1 maps the edge {0, 2} onto the diagonal {1, 2}
        square = Cone.from_rays(3, SQUARE)
        with pytest.raises(RuntimeError, match="facets onto facets"):
            face_lattice_raysets(square, [(0, 1, 2, 3), (1, 0, 2, 3)])
        # the reflection x -> -x swaps 0 with 2 and 1 with 3: an automorphism
        reflection = [(0, 1, 2, 3), (2, 3, 0, 1)]
        faces = face_lattice_raysets(square, reflection)
        assert expand(faces, reflection) == plain(face_lattice_raysets(square))
        assert len(faces) == 7  # the zero face, two orbits of rays, three of edges, the cone

    def test_ray_permutations_must_form_a_group(self):
        square = Cone.from_rays(3, SQUARE)
        with pytest.raises(RuntimeError, match="closed under composition"):
            face_lattice_raysets(square, [(2, 3, 0, 1)])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 140), st.integers(1, 6), st.booleans(), st.data())
    def test_ray_images_match_per_permutation_images(self, nrays, order, full, data):
        # up to 140 rays, one to three words a lane: a cyclic group of the
        # given order moving random blocks of rays, or for up to four rays
        # the whole symmetric group
        if full and nrays <= 4:
            group = list(itertools.permutations(range(nrays)))
        else:
            labels = data.draw(st.permutations(range(nrays)))
            sigma = list(range(nrays))
            for b in range(0, nrays - order + 1, order):
                for t in range(order):
                    sigma[labels[b + t]] = labels[b + (t + 1) % order]
            group = [tuple(range(nrays))]
            while (power := tuple(sigma[i] for i in group[-1])) != group[0]:
                group.append(power)
        images, words = _ray_images(group, [], nrays)
        assert words == max(1, math.ceil(nrays / 64))
        width = 64 * words
        masks = data.draw(st.lists(st.integers(0, (1 << nrays) - 1), min_size=1, max_size=8))
        for mask in masks:
            by_ray = [sum(1 << p[j] for j in range(nrays) if mask >> j & 1) for p in group]
            packed = _packed_images(images, mask)
            assert [packed >> (width * i) & (1 << width) - 1 for i in range(len(group))] == by_ray
            assert _lanes(packed, len(group), words) == by_ray
            # packing is additive: the images of any part of a mask and of
            # the rest OR to the mask's images
            part = mask & data.draw(st.integers(0, (1 << nrays) - 1))
            assert _packed_images(images, part) | _packed_images(images, mask & ~part) == packed

    def test_a_dropped_facet_breaks_the_euler_relation(self):
        # the cones over the 3-cube and over the octahedron, each rebuilt
        # without one facet: the walk still runs, but its counts are wrong
        cube = Cone.from_rays(4, [(1,) + v for v in itertools.product((-1, 1), repeat=3)])
        for c, fvector in ((cube, (8, 12, 6)), (dual_cone(cube), (6, 12, 8))):
            assert face_lattice_fvector(c) == fvector
            for k in range(len(c.facets)):
                facets = c.facets[:k] + c.facets[k + 1 :]
                dropped = Cone(4, c.rays, (), facets, (), tight_sets(c.rays, facets))
                with pytest.raises(RuntimeError, match="Euler relation"):
                    face_lattice_fvector(dropped)

    def test_expected_mori_fvector_satisfies_euler(self):
        # an 11-dimensional polytope section: f_0 - f_1 + ... + f_10 = 2
        assert sum((-1) ** i * f for i, f in enumerate(EXPECTED_MORI_FVECTOR)) == 2

    def test_inconsistent_equations_raise(self):
        orthant = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        wrong = Cone(3, orthant.rays, (), orthant.facets, ((0, 0, 1),), orthant.incidence)
        with pytest.raises(RuntimeError, match="height 3, cone dimension 2"):
            face_lattice_raysets(wrong)

    def test_non_pointed_rejected(self):
        with pytest.raises(ValueError):
            face_lattice_raysets(Cone.from_inequalities(2, [(1, 0)]))

    def test_zero_cone(self):
        zero = Cone.from_rays(3, [])
        assert zero.dim == 0
        assert face_lattice_raysets(zero) == {0: (0, 1)}
        assert face_lattice_fvector(zero) == ()

    def test_single_ray_in_plane(self):
        ray = Cone.from_rays(2, [(1, 2)])
        assert ray.dim == 1
        assert face_lattice_raysets(ray) == {0: (0, 1), 1: (1, 1)}

    def test_permutohedron_homogenisation(self):
        # a 4-dimensional pointed cone in R^5: the permutohedron lies in a hyperplane
        gens = [(1,) + p for p in itertools.permutations((1, 2, 3, 4))]
        c = Cone.from_rays(5, gens)
        assert c.dim == 4 and len(c.rays) == 24
        assert plain(face_lattice_raysets(c)) == reference_face_lattice_raysets(c)
        assert face_lattice_fvector(c) == (24, 36, 14)


def fraction_vertices(n, rows) -> set:
    """Reference: the vertices of {x : b + a.x >= 0 for (b, *a) in rows}, as Fractions.

    Each n rows whose normals are independent meet in one point, solved by
    Gauss-Jordan elimination over Fraction; the feasible ones are the vertices.
    """
    out = set()
    for sub in itertools.combinations(rows, n):
        x, rank = gauss_jordan_solve([list(r[1:]) for r in sub], [-r[0] for r in sub])
        if rank == n and all(r[0] + dot(r[1:], x) >= 0 for r in rows):
            out.add(x)
    return out


def hull_cone(points) -> Cone:
    """The homogenising cone of the convex hull of integer points: spanned by the (1, p)."""
    return Cone.from_rays(len(points[0]) + 1, [(1,) + tuple(p) for p in points])


def inequality_cone(n, rows) -> Cone:
    """The homogenising cone of {x : b + a.x >= 0 for (b, *a) in rows}: the rows and d >= 0."""
    return Cone.from_inequalities(n + 1, list(rows) + [(1,) + (0,) * n])


class TestHull:
    # a polytope is its homogenising cone: a vertex v is the primitive ray
    # (d, d*v), d > 0, and a facet (b, *a) reads b + a.x >= 0
    def test_single_point(self):
        c = hull_cone([(1, 2, 3)])
        assert c.rays == ((1, 1, 2, 3),)
        assert face_lattice_fvector(c) == ()

    def test_square(self):
        pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
        c = hull_cone(pts)
        assert len(c.rays) == 4
        assert face_lattice_fvector(c) == (4, 4)

    def test_interior_points_do_not_change_vertices(self):
        pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        c = hull_cone(pts)
        d = hull_cone(pts + [(1, 0, 0), (1, 1, 0), (0, 1, 1)])
        assert c == d and c.rays == tuple(sorted((1,) + p for p in pts))
        assert face_lattice_fvector(c) == face_lattice_fvector(d) == (4, 6, 4)

    def test_lower_dimensional_hull(self):
        # triangle inside a plane in 3-space
        pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
        c = hull_cone(pts)
        assert face_lattice_fvector(c) == (3, 3)  # a 2-dimensional polytope

    def test_polytope_from_inequalities_point(self):
        # x >= 0, -x >= 0 forces the single point 0
        c = inequality_cone(1, [(0, 1), (0, -1)])
        assert c.rays == ((1, 0),) and not c.lineality

    def test_polytope_empty(self):
        c = inequality_cone(1, [(-1, 1), (-1, -1)])  # x>=1, x<=-1
        assert not c.rays and not c.lineality

    def test_unbounded_polyhedron_rejected(self):
        # an unbounded polyhedron shows in its cone as a ray with d = 0 or
        # as a lineality, which a bounded one has neither of
        c = inequality_cone(1, [(0, 1)])  # x >= 0
        assert c.rays == ((0, 1), (1, 0)) and not c.lineality
        c = inequality_cone(2, [(0, 1, 0), (0, -1, 0)])  # the line x = 0
        assert c.rays == ((1, 0, 0),) and c.lineality == ((0, 0, 1),)

    def test_non_lattice_vertex_is_not_read_as_a_lattice_point(self):
        # the segment [0, 1/2], from 1 - 2x >= 0 and x >= 0: its vertex 1/2 is
        # the ray (2, 1), and no integer vector stands for it
        c = inequality_cone(1, [(1, -2), (0, 1)])
        assert c.rays == ((1, 0), (2, 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hull_and_facets_give_the_polytope_back(self, n):
        # seeded integer point sets, full-dimensional or not: the hull of the
        # vertices and the polytope cut out by the facets and both signs of
        # the equations are the polytope itself
        rng = random.Random(n)
        for _ in range(20):
            pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 4))]
            c = hull_cone(pts)
            assert all(r[0] == 1 for r in c.rays)
            vertices = [r[1:] for r in c.rays]
            assert set(vertices) <= set(pts)
            assert hull_cone(vertices) == c
            eqs = c.equations
            rows = c.facets + eqs + tuple(tuple(-x for x in e) for e in eqs)
            assert inequality_cone(n, rows) == c

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lattice_test_matches_fraction_vertices(self, n):
        # the box |x_i| <= 2 and random cuts through it that keep the origin:
        # the rays (d, d*v) are the Fraction vertices v, and d is 1 for all
        # of them exactly when each is a lattice point
        rng = random.Random(10 + n)
        box = [(2,) + tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
        seen = set()
        for _ in range(20):
            cuts = [(rng.randint(0, 4),) + tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            c = inequality_cone(n, box + cuts)
            vertices = fraction_vertices(n, box + cuts)
            assert {tuple(Fraction(x, r[0]) for x in r[1:]) for r in c.rays} == vertices
            assert len(c.rays) == len(vertices) and not c.lineality
            lattice = all(x.denominator == 1 for v in vertices for x in v)
            assert all(r[0] == 1 for r in c.rays) == lattice
            seen.add(lattice)
        assert seen == {True, False}


class TestIntegerInputs:
    # vectors are tuples of ints; any other entry, integral or not, raises
    # TypeError before a double description runs, where int() would
    # truncate it and build a different cone
    @pytest.fixture(autouse=True)
    def no_dd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a DD ran on rejected input")

        monkeypatch.setattr(polyhedra, "_dd_inequalities", refuse)

    @pytest.mark.parametrize("x", [Fraction(1, 2), 0.5, Fraction(2), 2.0])
    def test_cone_constructors(self, x):
        with pytest.raises(TypeError):
            Cone.from_rays(2, [(x, 1), (1, 0)])  # int() made the ray (1/2, 1) into (0, 1)
        with pytest.raises(TypeError):
            Cone.from_inequalities(2, [(x, 1)])
        with pytest.raises(TypeError):
            Cone.from_inequalities(2, [(1, 0)], [(x, 1)])

    def test_fans(self):
        with pytest.raises(TypeError):
            make_fan(2, [(1.7, 1), (0, 1)], [{0, 1.9}])
        with pytest.raises(TypeError):
            make_fan(2, [(1, 1), (0, 1)], [{0, 1.9}])  # not the cone on rays 0 and 1
        with pytest.raises(TypeError):
            make_fan(2, [(1, 1), (0, Fraction(1))], [{0, 1}])

    def test_lp(self):
        with pytest.raises(TypeError):
            lp_in_cone([(1, 0), (Fraction(1, 3), 1)], (1, 1))
        with pytest.raises(TypeError):
            lp_in_cone([(1, 0)], (1.0, 0))


class TestFans:
    def p2_fan(self):
        return make_fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])

    def test_p2_complete(self):
        fan = self.p2_fan()
        assert is_complete_fan(fan)

    def test_orthant_fan_not_complete(self):
        fan = make_fan(2, [(1, 0), (0, 1)], [{0, 1}])
        assert not is_complete_fan(fan)

    def test_bad_fan_detected(self):
        # overlapping cones that do not meet in a common face
        with pytest.raises(ValueError, match="common face"):
            make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [{0, 1}, {2, 3}])
        # a generator inside the cone of the others
        with pytest.raises(ValueError, match="non-extremal"):
            make_fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}])
        # a cone beside one of its own faces: the pair has a separating
        # functional, so only the nesting clause rejects it
        with pytest.raises(ValueError, match="contained in another"):
            make_fan(2, [(1, 0), (0, 1)], [{0, 1}, {0}])

    @pytest.mark.parametrize(
        "witness",
        [[], [(1, 0), (0, 1)], [(1, -1)], [(1, -2)], [(1, 1), (-1, 1), (1, -1)]],
        ids=["zero", "orthant", "ray", "skew", "halfplane"],
    )
    def test_an_acceptance_rests_on_the_checked_witness(self, monkeypatch, witness):
        # whatever cone the separation DD returns, check_fan accepts a pair
        # only when the sum of its rays passes the dot products, and no
        # functional separates two overlapping cones; in the second pair one
        # cone holds the other and they share a ray, so the skew witness
        # passes the strict signs and only its zero on the shared ray fails
        cone = Cone.from_rays(2, witness)
        monkeypatch.setattr(Cone, "from_inequalities", staticmethod(lambda *a: cone))
        with pytest.raises(ValueError, match="common face"):
            make_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [{0, 1}, {2, 3}])
        with pytest.raises(ValueError, match="common face"):
            make_fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1}, {1, 2}])

    def test_separation_matches_the_double_description_meet(self):
        # random pairs of pointed cones: a Fan accepts the pair exactly when
        # the DD meet is a face of both.  The first examples lie in the plane
        # z = 0 of R^3, where the separation cone has lineality, one a fan
        # and one not.  In the last two a cone over a square shares a
        # diagonal with a cone off its span, once as the first cone of the
        # pair and once as the second: only the square's own rays are
        # forced to zero, so each sign test is needed
        seen = set()
        plane = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 0), (-1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
        square = [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 1, 0), (0, -1, 1, 0)]
        others = [(0, 0, 0, 1), (1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0)]

        @settings(max_examples=150, deadline=None)
        @given(cone_pairs())
        @example((3, plane, [{0, 1}, {1, 2}]))
        @example((3, plane, [{0, 1}, {3, 4}]))
        @example((4, square + others, [{0, 1, 2, 3}, {0, 1, 4}]))
        @example((4, others + square, [{0, 4, 5}, {4, 5, 6, 7}]))
        def agree(pair):
            d, pool, (s, t) = pair
            try:
                make_fan(d, pool, [s, t])
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == reference_fan_axioms(unchecked_fan(make_fan, d, pool, [s, t]))
            seen.add(accepted)

        agree()
        assert seen == {True, False}

    def test_a_fan_made_directly_checks_itself(self):
        a = Cone.from_rays(2, [(1, 0), (0, 1)])
        b = Cone.from_rays(2, [(1, 1), (-1, 1)])
        rays = ((-1, 1), (0, 1), (1, 0), (1, 1))
        with pytest.raises(ValueError, match="common face"):
            Fan(2, rays, (frozenset({1, 2}), frozenset({0, 3})), (a, b))
        halfplane = Cone.from_inequalities(2, [(1, 0)])
        with pytest.raises(ValueError, match="not pointed"):
            Fan(2, ((1, 0),), (frozenset({0}),), (halfplane,))

    def test_smooth_cones_of_lower_dimension(self):
        # smooth: the rays are part of a lattice basis, whatever their number
        assert fan_is_smooth(make_fan(2, [(1, 0)], [{0}]))
        assert fan_is_smooth(make_fan(3, [(1, 0, 0), (0, 1, 0)], [{0, 1}]))
        assert not fan_is_smooth(make_fan(3, [(1, 0, 0), (1, 2, 0)], [{0, 1}]))
        assert fan_is_smooth(self.p2_fan())
        assert not fan_is_smooth(make_fan(2, [(1, 0), (1, 2)], [{0, 1}]))

    def test_faces_of_a_cone_whose_rays_are_not_in_index_order(self):
        # a square cone: fan index order 0, 1, 2, 3 goes round the square,
        # but the cone's lex ray order is 2, 3, 1, 0 in fan indices
        fan = make_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [{0, 1, 2, 3}])
        faces = fan_face_index_sets(fan)
        edges = sorted(sorted(s) for s in faces if len(s) == 2)
        assert edges == [[0, 1], [0, 3], [1, 2], [2, 3]]
        assert len(faces) == 1 + 4 + 4 + 1

    def test_faces_of_a_cone_walked_over_its_facets(self):
        # the cone over the 3-cube has 6 facets and 8 rays, so its faces are
        # walked over facets; the fan lists the vertices in Gray-code order,
        # not the cone's lex order
        vertices = [(1,) + v for v in itertools.product((-1, 1), repeat=3)]
        rays = [vertices[i] for i in (0, 1, 3, 2, 6, 7, 5, 4)]
        fan = make_fan(4, rays, [set(range(8))])
        assert len(fan.cones[0].facets) == 6 and fan.cones[0].rays != tuple(rays)
        faces = fan_face_index_sets(fan)
        assert len(faces) == 1 + 8 + 12 + 6 + 1
        cube_edges = {
            frozenset({i, j})
            for i, j in itertools.combinations(range(8), 2)
            if sum(a != b for a, b in zip(rays[i], rays[j])) == 1
        }
        assert len(cube_edges) == 12
        assert {s for s in faces if len(s) == 2} == cube_edges

    def test_text_format(self):
        # the rays in order, then each maximal cone as its ray indices ascending
        assert fan_to_text(self.p2_fan()) == "RAYS\n1 0\n0 1\n-1 -1\nCONES\n0 1\n0 2\n1 2\n"

    def test_rays_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 3"):
            make_fan(3, [(1, 0, 0), (0, 1)], [{0}, {1}])
