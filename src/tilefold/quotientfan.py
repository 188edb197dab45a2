"""Torus weights on the nilpotent chart and the combinatorial quotient fan.

Everything is anchored at the chart of lower triangular nilpotent 4x4
matrices.  Chart coordinates are ordered (y11, y22, y33, y12, y23, y13); the
orthant ray E_i is the i-th coordinate ray in that order.  The subtorus
action is recorded by a 3x6 weight matrix, its cokernel M(pi) drives the
quotient-fan computation, and rho_i denotes the i-th column of M(pi) (with
rho_6 = (0,0,-1) the one extra quotient ray).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .exactlat import (
    dot,
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
    Polytope,
    check_fan,
    convex_hull,
    fan_face_index_sets,
    fan_is_smooth,
    intersect_cones,
    is_complete_fan,
    is_face,
    make_fan,
    polytope_from_inequalities,
)

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


@dataclass(frozen=True)
class RootData:
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: dict[tuple[int, int], tuple[int, ...]]
    weyl_group: tuple[tuple[int, ...], ...]
    longest_element: tuple[int, ...]
    doubled_minimal_weight: tuple[int, ...]


@dataclass(frozen=True)
class ProjectionData:
    weight_matrix: list
    cokernel_matrix: list
    ray_labels: tuple[str, ...]


def root_data() -> RootData:
    e = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    simple = tuple(tuple(a - b for a, b in zip(e[i - 1], e[i])) for i in (1, 2, 3))
    positive = {
        (i, j): tuple(a - b for a, b in zip(e[i - 1], e[j]))
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if i <= j
    }
    weyl = tuple(sorted(permutations(range(4))))
    w0 = (3, 2, 1, 0)
    # stored doubled so every weight lattice point stays integral
    lam = tuple(3 - 2 * i for i in range(4))
    return RootData(simple, positive, weyl, w0, lam)


def source_data() -> tuple[RootData, ProjectionData, Fan]:
    rd = root_data()
    pd = ProjectionData(
        [list(r) for r in WEIGHT_MATRIX],
        [list(r) for r in COKERNEL_MATRIX],
        tuple(f"E{i}" for i in range(6)),
    )
    # cokernel really annihilates the weight rows
    if any(any(row) for row in mat_mul(pd.cokernel_matrix, transpose(pd.weight_matrix))):
        raise RuntimeError("the cokernel matrix does not annihilate the weights")
    if rational_rank(pd.weight_matrix) != 3 or rational_rank(pd.cokernel_matrix) != 3:
        raise RuntimeError("weight and cokernel matrices must have rank 3")
    # weight columns are the positive roots in simple-root coordinates:
    # chart coordinate y_ab carries the root alpha_a + ... + alpha_b
    spans = {"y11": (1, 1), "y22": (2, 2), "y33": (3, 3), "y12": (1, 2), "y23": (2, 3), "y13": (1, 3)}
    cols = transpose(pd.weight_matrix)
    for idx, name in enumerate(CHART_COORDS):
        a, b = spans[name]
        expected = tuple(1 if a <= k <= b else 0 for k in (1, 2, 3))
        if tuple(cols[idx]) != expected:
            raise RuntimeError(f"weight column {name} is not the root of its span")
    orthant = make_fan(
        6,
        [tuple(1 if j == i else 0 for j in range(6)) for i in range(6)],
        [frozenset(range(6))],
    )
    return rd, pd, orthant


def fixed_point_weights() -> tuple[dict[tuple[int, ...], tuple[int, ...]], Polytope]:
    """Doubled ample-weight of each torus fixed point, and their hull.

    The weight at the fixed point indexed by a permutation s has i-th
    coordinate 3 - 2*s(i); the 24 weights are the coordinate permutations
    of (3, 1, -1, -3) and their hull lives in the sum-zero hyperplane.
    """
    weights = {}
    for sigma in permutations(range(4)):
        weights[sigma] = tuple(3 - 2 * sigma[i] for i in range(4))
    hull = convex_hull(list(weights.values()))
    return weights, hull


# ---------------------------------------------------------------------------
# the quotient fan of a fan under a lattice projection


def _project_cone(proj, rays) -> Cone:
    target_dim = len(proj)
    return Cone.from_rays(target_dim, [mat_vec(proj, r) for r in rays])


def _arrangement_normals(cones) -> list[tuple[int, ...]]:
    normals = set()
    for c in cones:
        for n in list(c.facets) + list(c.equations):
            n = primitive_vector(n)
            neg = tuple(-x for x in n)
            normals.add(max(n, neg))
    return sorted(normals)


def _chambers(dim: int, normals) -> list[Cone]:
    """Closed full-dimensional chambers of a central hyperplane arrangement."""
    chambers = [([], Cone.full_space(dim))]
    for n in normals:
        nxt = []
        for ineqs, cone in chambers:
            vals_r = [dot(n, r) for r in cone.rays]
            lin_hit = any(dot(n, l) != 0 for l in cone.lineality)
            has_pos = lin_hit or any(v > 0 for v in vals_r)
            has_neg = lin_hit or any(v < 0 for v in vals_r)
            if has_pos and has_neg:
                neg = tuple(-x for x in n)
                for side in (n, neg):
                    side_ineqs = ineqs + [side]
                    nxt.append((side_ineqs, Cone.from_inequalities(dim, side_ineqs)))
            else:
                nxt.append((ineqs, cone))
        chambers = nxt
    return [cone for _, cone in chambers]


def quotient_fan(fan: Fan, proj) -> Fan:
    """Quotient fan: cones are the minimal intersections of projected cones.

    Algorithm: project every face of the input fan, refine the target space
    by the arrangement of all projected facet and span hyperplanes, pick an
    interior witness per chamber, intersect all projected cones containing
    the witness, deduplicate, then verify the fan axioms exactly.
    """
    rows, cols = matrix_shape(proj)
    if cols != fan.ambient_dim:
        raise ValueError("projection does not match fan ambient dimension")
    if smith_invariants(proj) != [1] * rows:
        raise ValueError("projection must be surjective onto the target lattice")

    face_sets = sorted(fan_face_index_sets(fan), key=lambda s: (len(s), sorted(s)))
    projected: dict[frozenset[int], Cone] = {
        s: _project_cone(proj, [fan.rays[i] for i in sorted(s)]) for s in face_sets
    }
    distinct = {}
    for cone in projected.values():
        distinct[cone.key()] = cone
    normals = _arrangement_normals(distinct.values())

    candidates: dict[tuple, Cone] = {}
    for chamber in _chambers(rows, normals):
        if not chamber.is_pointed():
            raise RuntimeError("arrangement normals do not span")
        witness = chamber.interior_point()
        if any(dot(n, witness) == 0 for n in normals):
            raise RuntimeError(f"chamber witness {witness} lies on a wall")
        containing = [c for c in distinct.values() if c.contains(witness)]
        if not containing:
            continue
        ineqs: list = []
        eqs: list = []
        for c in containing:
            ineqs.extend(c.facets)
            eqs.extend(c.equations)
        minimal = Cone.from_inequalities(rows, ineqs, eqs)
        candidates[minimal.key()] = minimal

    maximal = list(candidates.values())
    rays = sorted({r for c in maximal for r in c.rays})
    index = {r: i for i, r in enumerate(rays)}
    result = make_fan(
        rows, rays, [frozenset(index[r] for r in c.rays) for c in maximal]
    )
    check_fan(result)  # fails loudly on an algorithm bug
    return result


@lru_cache(maxsize=1)
def chart_quotient_fan() -> Fan:
    _, pd, orthant = source_data()
    return quotient_fan(orthant, pd.cokernel_matrix)


def verify_quotient_fan(fan: Fan) -> dict:
    """Smoothness, completeness and Picard number of a quotient fan."""
    check_fan(fan)
    smooth = fan_is_smooth(fan)
    complete = is_complete_fan(fan)
    picard = len(fan.rays) - fan.ambient_dim
    return {
        "smooth": smooth,
        "complete": complete,
        "picard_number": picard,
        "ray_count": len(fan.rays),
        "maximal_cone_count": len(fan.maximal_cones),
    }


# ---------------------------------------------------------------------------
# relevance analysis


def relevant_pairs(fan: Fan, proj) -> list[dict]:
    """All face pairs whose projections meet in a non-face of the first.

    Returns records with the ray index sets of both faces and the canonical
    rays of the offending intersection.
    """
    face_sets = sorted(fan_face_index_sets(fan), key=lambda s: (len(s), sorted(s)))
    projected = {s: _project_cone(proj, [fan.rays[i] for i in sorted(s)]) for s in face_sets}
    meet_cache: dict[tuple, Cone] = {}
    out = []
    for s1 in face_sets:
        c1 = projected[s1]
        for s2 in face_sets:
            c2 = projected[s2]
            ckey = (c1.key(), c2.key())
            meet = meet_cache.get(ckey)
            if meet is None:
                meet = intersect_cones(c1, c2)
                meet_cache[ckey] = meet
            if not is_face(meet, c1):
                out.append(
                    {
                        "cone": tuple(sorted(s1)),
                        "companion": tuple(sorted(s2)),
                        "intersection_rays": meet.rays,
                    }
                )
    return out


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


def _projected_subfan(proj, faces) -> Fan:
    cones = [_project_cone(proj, [_unit6(i) for i in sorted(s)]) for s in faces]
    rays = sorted({r for c in cones for r in c.rays})
    index = {r: i for i, r in enumerate(rays)}
    fan = make_fan(3, rays, [frozenset(index[r] for r in c.rays) for c in cones])
    check_fan(fan)
    return fan


def _unit6(i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(6))


def _projects_bijectively(proj, faces) -> bool:
    for s in faces:
        rays = [_unit6(i) for i in sorted(s)]
        if rational_rank([list(mat_vec(proj, r)) for r in rays] or [[0, 0, 0]]) != len(s):
            return False
    return True


def common_refinement(fan_a: Fan, fan_b: Fan) -> Fan:
    """Common refinement of two fans with equal full-dimensional support."""
    if fan_a.ambient_dim != fan_b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    pieces: dict[tuple, Cone] = {}
    for ca in fan_a.cones():
        for cb in fan_b.cones():
            meet = intersect_cones(ca, cb)
            if meet.dim == fan_a.ambient_dim:
                pieces[meet.key()] = meet
    rays = sorted({r for c in pieces.values() for r in c.rays})
    index = {r: i for i, r in enumerate(rays)}
    fan = make_fan(
        fan_a.ambient_dim,
        rays,
        [frozenset(index[r] for r in c.rays) for c in pieces.values()],
    )
    check_fan(fan)
    return fan


def git_subfans() -> dict:
    """The three GIT subfans of the orthant fan and the flip structure.

    Verifies that each subfan projects bijectively to a fan downstairs, that
    the common refinement of the plus and minus quotients is the quotient
    fan, and that the locus modified by the exchange is the divisor of the
    extra ray rho_6.
    """
    _, pd, orthant = source_data()
    proj = pd.cokernel_matrix
    quotient = chart_quotient_fan()

    faces = {name: _orthant_subfan(name) for name in ("plus", "minus", "zero")}
    bijective = {name: _projects_bijectively(proj, fs) for name, fs in faces.items()}
    if not all(bijective.values()):
        raise RuntimeError(f"subfan projection not bijective: {bijective}")
    fans = {name: _projected_subfan(proj, fs) for name, fs in faces.items()}

    refinement = common_refinement(fans["plus"], fans["minus"])
    same = _same_fan(refinement, quotient)
    if not same:
        raise RuntimeError("common refinement differs from the quotient fan")

    # exchanged maximal cones and the local flip structure
    plus_cones = {frozenset(c.rays) for c in fans["plus"].cones()}
    minus_cones = {frozenset(c.rays) for c in fans["minus"].cones()}
    only_plus = sorted(sorted(c) for c in plus_cones - minus_cones)
    only_minus = sorted(sorted(c) for c in minus_cones - plus_cones)
    flip_base = _project_cone(proj, [_unit6(i) for i in sorted(FLIP_SOURCE_FACE)])
    union_plus = Cone.from_rays(3, [r for c in only_plus for r in c])
    union_minus = Cone.from_rays(3, [r for c in only_minus for r in c])
    local_flip = union_plus == flip_base and union_minus == flip_base

    # exchanged walls meet exactly in the extra ray
    wall_plus = intersect_cones(
        Cone.from_rays(3, only_plus[0]), Cone.from_rays(3, only_plus[1])
    )
    wall_minus = intersect_cones(
        Cone.from_rays(3, only_minus[0]), Cone.from_rays(3, only_minus[1])
    )
    exchanged_meet = intersect_cones(wall_plus, wall_minus)
    rho6 = QUOTIENT_RAYS[6]

    # modified locus: exactly the quotient cones through rho_6 sit inside the
    # flip base; all others are cones of both one-sided quotients
    rho6_index = quotient.rays.index(rho6)
    star = [s for s in quotient.maximal_cones if rho6_index in s]
    others = [s for s in quotient.maximal_cones if rho6_index not in s]
    star_inside = all(
        flip_base.contains_cone(quotient.cone_of(s)) for s in star
    )
    both_sides = all(
        frozenset(quotient.cone_of(s).rays) in plus_cones
        and frozenset(quotient.cone_of(s).rays) in minus_cones
        for s in others
    )

    return {
        "fans": fans,
        "face_counts": {name: len(fs) for name, fs in faces.items()},
        "bijective": bijective,
        "refinement_equals_quotient": same,
        "exchanged_plus": only_plus,
        "exchanged_minus": only_minus,
        "local_flip_over_projected_face": local_flip,
        "exchanged_walls_meet_in_extra_ray": exchanged_meet.rays == (rho6,),
        "modified_locus_is_extra_ray_divisor": star_inside and both_sides,
        "star_size": len(star),
    }


def _same_fan(a: Fan, b: Fan) -> bool:
    if a.ambient_dim != b.ambient_dim or set(a.rays) != set(b.rays):
        return False
    cones_a = {frozenset(c.rays) for c in a.cones()}
    cones_b = {frozenset(c.rays) for c in b.cones()}
    return cones_a == cones_b


# ---------------------------------------------------------------------------
# toric class group and divisor polytopes


def toric_class_group(fan: Fan) -> dict:
    """Class lattice of a complete toric variety: Z^rays / character image."""
    n = fan.ambient_dim
    rays = fan.rays
    relation_rows = [[r[j] for r in rays] for j in range(n)]
    invariants = smith_invariants(relation_rows)
    rank = len(rays) - len(invariants)
    return {
        "relation_rows": relation_rows,
        "invariant_factors": invariants,
        "rank": rank,
        "torsion_free": all(d == 1 for d in invariants),
    }


def principal_divisor_witness(fan: Fan, coefficients):
    """Character m with div(m) equal to the given ray-coefficient vector."""
    n = fan.ambient_dim
    relation_rows = [[r[j] for r in fan.rays] for j in range(n)]
    return solve_left_integer(relation_rows, tuple(coefficients))


def chart_class_group_report() -> dict:
    """Class group of the chart quotient plus its three defining relations."""
    fan = chart_quotient_fan()
    base = toric_class_group(fan)
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
    base.update(
        {
            "relations_principal": {k: w is not None for k, w in witnesses.items()},
            "witness_characters": {
                k: (tuple(w) if w is not None else None) for k, w in witnesses.items()
            },
        }
    )
    return base


def divisor_polytope(fan: Fan, coefficients) -> Polytope | None:
    """Section polytope {m : <m, rho> >= -a_rho} of a torus divisor."""
    if len(coefficients) != len(fan.rays):
        raise ValueError("one coefficient per ray required")
    rows = [(int(a),) + tuple(r) for r, a in zip(fan.rays, coefficients)]
    return polytope_from_inequalities(fan.ambient_dim, rows)


def chart_ample_polytope() -> Polytope:
    """Polytope of the divisor 5*C02 + 3*A1 + 3*B2 + 2*D12 on the chart quotient."""
    fan = chart_quotient_fan()
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    coeff = [0] * len(fan.rays)
    coeff[ray_index[QUOTIENT_RAYS[CHART_DIVISOR_RAY["C02"]]]] = 5
    coeff[ray_index[QUOTIENT_RAYS[CHART_DIVISOR_RAY["A1"]]]] = 3
    coeff[ray_index[QUOTIENT_RAYS[CHART_DIVISOR_RAY["B2"]]]] = 3
    coeff[ray_index[QUOTIENT_RAYS[CHART_DIVISOR_RAY["D12"]]]] = 2
    poly = divisor_polytope(fan, coeff)
    if poly is None:
        raise RuntimeError("the chart ample divisor has an empty polytope")
    return poly


# ---------------------------------------------------------------------------
# ordered partitions and their chart faces


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered partition of {0,1,2,3} into disjoint nonempty blocks."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        union = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if union & b:
                raise ValueError("blocks overlap")
            union |= b
        if union != {0, 1, 2, 3}:
            raise ValueError("blocks must cover {0,1,2,3}")

    def type_tag(self) -> str | None:
        b = self.blocks
        if len(b) == 2:
            if len(b[0]) == 1:
                return f"A{min(b[0])}"
            if len(b[1]) == 1:
                return f"B{min(b[1])}"
            if len(b[0]) == 2:
                i, j = sorted(b[0])
                return f"C{i}{j}"
        if len(b) == 3 and len(b[0]) == 1 and len(b[2]) == 1:
            i = min(b[0])
            j = min(b[2])
            return f"D{i}{j}"
        return None


def partition(*blocks) -> OrderedPartition:
    return OrderedPartition(tuple(frozenset(b) for b in blocks))


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


class PartitionOutsideChartError(KeyError):
    pass


def partition_cone(phi: OrderedPartition) -> Cone:
    """Face of the orthant attached to a fundamental partition on this chart."""
    return partition_cone_by_tag(phi.type_tag())


def partition_cone_by_tag(tag: str) -> Cone:
    if tag not in PARTITION_FACE:
        raise PartitionOutsideChartError(tag)
    return Cone.from_rays(6, [_unit6(i) for i in PARTITION_FACE[tag]])
