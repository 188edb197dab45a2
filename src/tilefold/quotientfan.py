"""Torus weights on the nilpotent chart and the combinatorial quotient fan.

Everything is anchored at the chart of lower triangular nilpotent 4x4
matrices.  Chart coordinates are ordered (y11, y22, y33, y12, y23, y13); the
orthant ray E_i is the i-th coordinate ray in that order.  The subtorus
action is recorded by a 3x6 weight matrix, its cokernel M(pi) drives the
quotient-fan computation, and rho_i denotes the i-th column of M(pi) (with
rho_6 = (0,0,-1) the one extra quotient ray).
"""

from __future__ import annotations

from itertools import permutations

from .exactlat import (
    dot,
    integer_kernel,
    mat_mul,
    mat_vec,
    matrix_shape,
    primitive_vector,
    rational_rank,
    smith_invariants,
    solve_left_integer,
    transpose,
)
from .polyhedra import (
    Cone,
    Fan,
    fan_face_index_sets,
    make_fan,
    ray_masks,
    uncovered_cone,
)
from .stages import stage

# ---------------------------------------------------------------------------
# source data

CHART_COORDS = ("y11", "y22", "y33", "y12", "y23", "y13")

WEIGHT_MATRIX = [
    [1, 0, 0, 1, 0, 1],
    [0, 1, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 1],
]

COKERNEL_MATRIX = [
    [-1, -1, 0, 1, 0, 0],
    [0, -1, -1, 0, 1, 0],
    [-1, -1, -1, 0, 0, 1],
]

QUOTIENT_RAYS = (
    (-1, 0, -1),  # rho_0
    (-1, -1, -1),  # rho_1
    (0, -1, -1),  # rho_2
    (1, 0, 0),  # rho_3
    (0, 1, 0),  # rho_4
    (0, 0, 1),  # rho_5
    (0, 0, -1),  # rho_6
)

# divisor <-> quotient ray dictionary on the chart quotient
CHART_DIVISOR_RAY = {
    "A1": 0,
    "C02": 1,
    "B2": 2,
    "F": 3,
    "E": 4,
    "G": 5,
    "D12": 6,
}


@stage
def source_data() -> Fan:
    """The orthant fan of the chart, once the weight and cokernel matrices are checked."""
    # cokernel really annihilates the weight rows
    if any(any(row) for row in mat_mul(COKERNEL_MATRIX, transpose(WEIGHT_MATRIX))):
        raise RuntimeError("the cokernel matrix does not annihilate the weights")
    if rational_rank(WEIGHT_MATRIX) != 3 or rational_rank(COKERNEL_MATRIX) != 3:
        raise RuntimeError("weight and cokernel matrices must have rank 3")
    # weight columns are the positive roots in simple-root coordinates:
    # chart coordinate y_ab carries the root alpha_a + ... + alpha_b
    spans = {"y11": (1, 1), "y22": (2, 2), "y33": (3, 3), "y12": (1, 2), "y23": (2, 3), "y13": (1, 3)}
    cols = transpose(WEIGHT_MATRIX)
    for idx, name in enumerate(CHART_COORDS):
        a, b = spans[name]
        expected = tuple(1 if a <= k <= b else 0 for k in (1, 2, 3))
        if tuple(cols[idx]) != expected:
            raise RuntimeError(f"weight column {name} is not the root of its span")
    units = [tuple(int(j == i) for j in range(6)) for i in range(6)]
    return make_fan(6, units, [frozenset(range(6))])


@stage
def fixed_point_weights() -> tuple[dict[tuple[int, ...], tuple[int, ...]], Cone]:
    """Doubled ample-weight of each torus fixed point, and the homogenising cone of their hull.

    The weight at the fixed point indexed by a Weyl group element s, a
    permutation of range(4), has i-th coordinate 3 - 2*s(i), entry s(i) of
    the doubled minimal weight (3, 1, -1, -3), doubled so every weight
    lattice point stays integral; the 24 weights are the coordinate
    permutations of it and their hull lives in the sum-zero hyperplane.
    The cone is spanned by the (1, w): a vertex v of the hull is its ray
    (1, v), and its face counts are the hull's.
    """
    lam = (3, 1, -1, -3)
    weights = {sigma: tuple(lam[k] for k in sigma) for sigma in permutations(range(4))}
    return weights, Cone.from_rays(5, [(1,) + w for w in weights.values()])


# ---------------------------------------------------------------------------
# the quotient fan of a fan under a lattice projection


def _project_cone(proj, rays) -> Cone:
    target_dim = len(proj)
    return Cone.from_rays(target_dim, [mat_vec(proj, r) for r in rays])


def _arrangement_normals(cones, dim: int) -> list[tuple[int, ...]]:
    """The hyperplanes that can separate generic points of the cones' chamber complex.

    `dim` is the dimension of the span of the cones.  A cone of that
    dimension gives its facet normals, a lower-dimensional one its
    equations: a point of the span off all these hyperplanes lies in no
    lower-dimensional cone, and in each cone of dimension `dim` or outside
    it.  An equation that vanishes on the span cuts nothing.
    """
    normals = set()
    for c in cones:
        for n in c.facets if c.dim == dim else c.equations:
            n = primitive_vector(n)
            neg = tuple(-x for x in n)
            normals.add(max(n, neg))
    return sorted(normals)


def _chambers(dim: int, normals, equations) -> list[Cone]:
    """Closed chambers of a central hyperplane arrangement in {x : e.x == 0 for e in equations}."""
    chambers = [Cone.from_inequalities(dim, (), equations)]
    for n in normals:
        nxt = []
        for cone in chambers:
            vals_r = [dot(n, r) for r in cone.rays]
            lin_hit = any(dot(n, l) != 0 for l in cone.lineality)
            has_pos = lin_hit or any(v > 0 for v in vals_r)
            has_neg = lin_hit or any(v < 0 for v in vals_r)
            if has_pos and has_neg:
                for side in (n, tuple(-x for x in n)):
                    nxt.append(Cone.from_inequalities(dim, cone.facets + (side,), cone.equations))
            else:
                nxt.append(cone)
        chambers = nxt
    return chambers


def _fan_of(dim: int, cones) -> Fan:
    """The fan of the given cones, each kept once; the Fan checks its axioms."""
    cones = set(cones)
    rays = sorted({r for c in cones for r in c.rays})
    index = {r: i for i, r in enumerate(rays)}
    cones = sorted(cones, key=lambda c: sorted(index[r] for r in c.rays))
    maximal = tuple(frozenset(index[r] for r in c.rays) for c in cones)
    return Fan(dim, tuple(rays), maximal, tuple(cones))


def _projected_faces(fan: Fan, proj) -> tuple[tuple[frozenset[int], Cone], ...]:
    """Each face of the fan with its projection, smallest faces first.

    The projection must be a surjective lattice map from the fan's space.
    """
    rows, cols = matrix_shape(proj)
    if cols != fan.ambient_dim:
        raise ValueError("projection does not match fan ambient dimension")
    if smith_invariants(proj) != [1] * rows:
        raise ValueError("projection must be surjective onto the target lattice")
    face_sets = sorted(fan_face_index_sets(fan), key=lambda s: (len(s), sorted(s)))
    return tuple((s, _project_cone(proj, [fan.rays[i] for i in sorted(s)])) for s in face_sets)


def _chamber_fan(dim: int, projected) -> Fan:
    """The fan whose cones are the minimal intersections of the projected cones.

    This is the chamber complex of the projected cones (Billera & Sturmfels,
    *Fiber polytopes*, 1992), built in the span of their union: the cones
    holding a generic point of the span meet in the cone of the complex
    around it.  The complex covers the span only through cones of its
    dimension, so ValueError is raised when there is none.  The chambers
    of `_arrangement_normals` decide which cones hold a generic point.  A
    generic point of a chamber lies in no lower-dimensional cone, whose span
    lies in a wall.  A chamber lies on one side of every facet of each cone
    c of the span's dimension, so it lies inside c or meets c in no
    interior point.  So the cones holding a generic point of a chamber are
    the cones holding the whole chamber, and no witness point is needed.
    Each distinct set of them is intersected once; the Fan then checks the
    fan axioms exactly, which also rejects a cone with lineality.  The
    chambers cover only the cones of the span's dimension, so ValueError is
    raised unless `uncovered_cone` proves each projected cone a union of
    cones of the result.
    """
    distinct = list(dict.fromkeys(c for _, c in projected))
    vectors = [v for c in distinct for v in c.rays + c.lineality]
    span_eqs = integer_kernel(vectors or [[0] * dim])  # no vector: the span is 0
    span_dim = dim - len(span_eqs)
    if all(c.dim < span_dim for c in distinct):
        raise ValueError("no projected cone is full-dimensional in the span of the image")
    containing_sets = set()
    for chamber in _chambers(dim, _arrangement_normals(distinct, span_dim), span_eqs):
        containing = tuple(k for k, c in enumerate(distinct) if c.contains_cone(chamber))
        if containing:
            containing_sets.add(containing)

    minimal = (
        Cone.from_inequalities(dim, [n for k in containing for n in distinct[k].facets], span_eqs)
        for containing in containing_sets
    )
    fan = _fan_of(dim, minimal)
    c = uncovered_cone(fan, distinct)
    if c is not None:
        raise ValueError(
            f"the projected cone with rays {c.rays} and lineality {c.lineality}"
            " is not a union of cones of the chamber complex"
        )
    return fan


@stage
def chart_projected_faces() -> tuple[tuple[frozenset[int], Cone], ...]:
    """The 64 orthant faces of the chart with their projections."""
    return _projected_faces(source_data(), COKERNEL_MATRIX)


@stage
def chart_quotient_fan() -> Fan:
    """The quotient fan of the chart orthant under the cokernel projection."""
    return _chamber_fan(len(COKERNEL_MATRIX), chart_projected_faces())


# ---------------------------------------------------------------------------
# relevance analysis


def _meets_in_face(meet: int, mask: int, zeros) -> bool:
    """Whether a meet inside a cone is a face of it, both given as quotient-ray masks.

    `mask` and `zeros` are a projected cone's `ray_masks`.  The smallest
    face of the cone holding the meet is cut out by its facets vanishing on
    the meet; its mask is the cone's mask & each of their zero masks
    (Kaibel & Pfetsch, 2002).  The meet is a face iff it is this closure.
    """
    for z in zeros:
        if meet & z == meet:
            mask &= z
    return mask == meet


def relevant_pairs() -> list[dict]:
    """All chart face pairs whose projections meet in a non-face of the first.

    Returns records, in face order, with the ray index sets of both orthant
    faces and the mask of the quotient-fan rays in their meet (`meet`).

    `_chamber_fan` proved, when it built the chart quotient fan, that each
    projected cone is a union of cones of the fan.  So is each face of it
    and each meet of two of them, as each piece is a face of one fan cone:
    each such cone is spanned by the fan rays it holds, and is its ray mask.
    A pair meets in the mask m1 & m2, and is relevant iff `_meets_in_face`
    rejects it.
    """
    fan = chart_quotient_fan()
    # the records share one index tuple per face, not one per record
    rows = [(tuple(sorted(s)),) + ray_masks(fan, c) for s, c in chart_projected_faces()]
    return [
        {"cone": s1, "companion": s2, "meet": m1 & m2}
        for s1, m1, zeros in rows
        for s2, m2, _ in rows
        if not _meets_in_face(m1 & m2, m1, zeros)
    ]


def non_projected_rays(fan: Fan, proj, source_fan: Fan) -> list[tuple[int, ...]]:
    """Quotient-fan rays that are not projections of source rays."""
    images = set()
    for r in source_fan.rays:
        img = mat_vec(proj, r)
        if any(img):
            images.add(primitive_vector(img))
    return [r for r in fan.rays if r not in images]


# ---------------------------------------------------------------------------
# GIT subfans and the flip

SUBFAN_EXCLUSIONS = {
    "zero": ({0, 3}, {1, 3}, {1, 4}, {2, 4}, {0, 2, 5}),
    "plus": ({0, 3}, {1, 3}, {1, 4}, {0, 2, 5}, {2, 4, 5}),
    "minus": ({1, 3}, {1, 4}, {2, 4}, {0, 2, 5}, {0, 3, 5}),
}

FLIP_SOURCE_FACE = frozenset({0, 2, 3, 4})


def _orthant_subfan(name: str) -> list[frozenset[int]]:
    excl = SUBFAN_EXCLUSIONS[name]
    allowed = []
    for mask in range(64):
        s = frozenset(i for i in range(6) if mask & (1 << i))
        if any(e <= s for e in excl):
            continue
        allowed.append(s)
    maximal = [s for s in allowed if not any(s < t for t in allowed)]
    return sorted(maximal, key=sorted)


def git_subfans() -> dict:
    """The three GIT subfans of the orthant fan and the flip structure.

    Verifies that each subfan projects bijectively to a fan downstairs, that
    the common refinement of the plus and minus quotients is the quotient
    fan, that the cones they exchange tile the flip base and their walls
    meet in the extra ray rho_6, and that the locus modified by the exchange
    is the divisor of rho_6.  The projected faces are the chart's.

    Every verdict rests on `_chamber_fan`'s proof that each projected cone
    is a union of quotient cones, its pieces: so each projected cone, and
    each meet of two, is the cone spanned by the quotient rays its mask
    holds, as in `relevant_pairs`.  A subfan projects bijectively to a fan
    when each maximal face projects to a cone with one dimension per ray,
    so a pointed one, and every meet is a face of each cone by
    `_meets_in_face`: the fan axioms, read off the masks.  The
    full-dimensional meet of two cones is the union of the pieces they
    share, and cones meet in the fan faces whose rays they all hold.
    """
    projected = dict(chart_projected_faces())
    quotient = chart_quotient_fan()
    masks = {s: ray_masks(quotient, c) for s, c in projected.items()}
    piece_masks = [sum(1 << i for i in s) for s in quotient.maximal_cones]

    def pieces(*cone_masks) -> frozenset[int]:
        """The quotient cones inside one of the masked cones, by index."""
        return frozenset(k for k, q in enumerate(piece_masks) if any(q & m == q for m in cone_masks))

    def is_fan(fs) -> bool:
        meets = ((masks[s], masks[s][0] & masks[t][0]) for s in fs for t in fs if s != t)
        return all(projected[s].dim == len(s) for s in fs) and all(
            _meets_in_face(meet, m, zeros) for (m, zeros), meet in meets
        )

    faces = {name: _orthant_subfan(name) for name in ("plus", "minus", "zero")}
    bijective = {name: is_fan(fs) for name, fs in faces.items()}
    plus, minus = ({masks[s][0] for s in faces[side]} for side in ("plus", "minus"))

    # the meets are the quotient cones: each side covers them, no pair shares two
    minus_pieces = [pieces(m) for m in minus]
    meets = {p & m for p in map(pieces, plus) for m in minus_pieces}
    refinement = meets - {frozenset()} == {frozenset([k]) for k in range(len(piece_masks))}

    # the exchanged maximal cones tile the flip base on both sides
    only_plus, only_minus = plus - minus, minus - plus
    base_pieces = pieces(masks[FLIP_SOURCE_FACE][0])
    local_flip = pieces(*only_plus) == base_pieces == pieces(*only_minus)

    # the two exchanged walls meet exactly in the extra ray
    rho6 = 1 << quotient.rays.index(QUOTIENT_RAYS[6])
    shared = -1
    for m in only_plus | only_minus:
        shared &= m
    exchanged_meet = len(only_plus) == len(only_minus) == 2 and shared == rho6

    # modified locus: exactly the quotient cones through rho_6 sit inside the
    # flip base; all others are cones of both one-sided quotients
    star = {k for k, q in enumerate(piece_masks) if q & rho6}
    both_sides = all(q in plus and q in minus for q in piece_masks if not q & rho6)

    return {
        "face_counts": {name: len(fs) for name, fs in faces.items()},
        "bijective": bijective,
        "refinement_equals_quotient": refinement,
        "local_flip_over_projected_face": local_flip,
        "exchanged_walls_meet_in_extra_ray": exchanged_meet,
        "modified_locus_is_extra_ray_divisor": star <= base_pieces and both_sides,
    }


# ---------------------------------------------------------------------------
# toric class group and the ample polytope


def principal_divisor_witness(fan: Fan, coefficients):
    """Character m with div(m) equal to the given ray-coefficient vector."""
    n = fan.ambient_dim
    relation_rows = [[r[j] for r in fan.rays] for j in range(n)]
    return solve_left_integer(relation_rows, tuple(coefficients))


def chart_class_group_report() -> dict:
    """The three defining relations of the chart quotient's class group, with their witnesses."""
    fan = chart_quotient_fan()
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    pos = {name: ray_index[QUOTIENT_RAYS[i]] for name, i in CHART_DIVISOR_RAY.items()}

    def divisor_vector(plus, minus):
        v = [0] * len(fan.rays)
        for name in plus:
            v[pos[name]] += 1
        for name in minus:
            v[pos[name]] -= 1
        return tuple(v)

    relations = {
        "E-B2-C02": divisor_vector(["E"], ["B2", "C02"]),
        "F-A1-C02": divisor_vector(["F"], ["A1", "C02"]),
        "G-A1-B2-C02-D12": divisor_vector(["G"], ["A1", "B2", "C02", "D12"]),
    }
    witnesses = {
        name: principal_divisor_witness(fan, vec) for name, vec in relations.items()
    }
    return {
        "relations_principal": {k: w is not None for k, w in witnesses.items()},
        "witness_characters": {
            k: (tuple(w) if w is not None else None) for k, w in witnesses.items()
        },
    }


@stage
def chart_ample_polytope() -> Cone:
    """Homogenising cone of the polytope of 5*C02 + 3*A1 + 3*B2 + 2*D12 on the chart quotient.

    The polytope is {m : a_rho + <m, rho> >= 0 for each ray rho}, a_rho the
    divisor's coefficient.  A vertex v is the primitive ray (d, d*v) of the
    cone, d > 0, and a facet (b, *a) reads b + a.m >= 0.  RuntimeError
    unless the polytope is nonempty and bounded: the cone has a ray, no
    lineality and no ray with d <= 0.
    """
    fan = chart_quotient_fan()
    coeff = {QUOTIENT_RAYS[CHART_DIVISOR_RAY[name]]: a for name, a in (("C02", 5), ("A1", 3), ("B2", 3), ("D12", 2))}
    rows = [(coeff.get(r, 0),) + r for r in fan.rays]
    cone = Cone.from_inequalities(fan.ambient_dim + 1, rows + [(1,) + (0,) * fan.ambient_dim])
    if not cone.rays or cone.lineality or any(r[0] <= 0 for r in cone.rays):
        raise RuntimeError("the chart ample divisor's polytope is empty or unbounded")
    return cone


# ---------------------------------------------------------------------------
# faces of the orthant attached to the fundamental partitions on this chart

PARTITION_FACE = {
    "A1": (1, 4),
    "B1": (0,),
    "B2": (1, 3),
    "A2": (2,),
    "C02": (0, 2, 5),
    "C13": (1,),
    "D12": (1, 3, 4),
    "C12": (2, 4),
    "C03": (0, 3),
}
