"""Cone-level birational data: Mori, nef and effective cones with statistics.

Curve classes live in the dual coordinates of divcalc (pairings against the
canonical divisor basis), so a curve gamma pairs with a divisor class D by
the plain dot product.  All cones are exact; orbits use the induced group
action on the class lattice and its dual.
"""

from __future__ import annotations

from itertools import combinations

from .exactlat import dot, integer_kernel, primitive_vector, rational_rank
from .polyhedra import (
    Cone,
    dual_cone,
    face_lattice_fvector,
    lp_in_cone,
)
from .divcalc import (
    LABELS,
    MULTICAN_LABEL_SETS,
    NotPermutedError,
    RANK,
    act_on_class,
    act_on_curve,
    anticanonical,
    class_of_labels,
    curve_class,
    intersect_classes,
    orbit,
    picard_lattice,
    ray_permutations,
    solve_petersen,
    triple,
)
from .tilegroup import TAU
from .stages import stage

# ---------------------------------------------------------------------------
# curve class generators


@stage
def mori_generators() -> dict:
    """The 31 curve classes generating the cone of curves, by family.

    Families: both contractions of each D divisor, the off- and on-diagonal
    A*B curves, and the three C*C curves from complementary index pairs.
    Coincidences inside the D families are asserted.
    """
    gens: dict[str, tuple[int, ...]] = {}
    for i, j in combinations(range(4), 2):
        d = f"D{i}{j}"
        a_side = curve_class(f"A{i}", d)
        b_side = curve_class(f"B{i}", d)
        if a_side != curve_class(f"A{j}", d) or b_side != curve_class(f"B{j}", d):
            raise RuntimeError(f"the two contractions of {d} give different curves")
        gens[f"A{i}*{d}"] = a_side
        gens[f"B{i}*{d}"] = b_side
    for i in range(4):
        for j in range(4):
            if i != j:
                gens[f"A{i}*B{j}"] = curve_class(f"A{i}", f"B{j}")
    for i in range(4):
        gens[f"A{i}*B{i}"] = curve_class(f"A{i}", f"B{i}")
    for pair in ((0, 1), (0, 2), (0, 3)):
        rest = tuple(k for k in range(4) if k not in pair)
        name = f"C{pair[0]}{pair[1]}*C{rest[0]}{rest[1]}"
        gens[name] = curve_class(f"C{pair[0]}{pair[1]}", f"C{rest[0]}{rest[1]}")
    prim = {name: primitive_vector(v) for name, v in gens.items()}
    if len(set(prim.values())) != 31:
        raise RuntimeError("the Mori generators are not 31 distinct classes")
    return prim


@stage
def mori_cone() -> dict:
    """The cone of curves: 31 extremal rays, 189 facets, K-degree split."""
    gens = mori_generators()
    cone = Cone.from_rays(RANK, sorted(set(gens.values())))
    names_by_ray = {}
    for name, v in gens.items():
        names_by_ray.setdefault(v, []).append(name)
    if set(cone.rays) != set(gens.values()):
        raise RuntimeError("a listed curve class is not extremal")
    k = anticanonical()["class"]
    degrees = {ray: dot(k, ray) for ray in cone.rays}
    k_negative = sorted(r for r, d in degrees.items() if d > 0)
    k_trivial = sorted(r for r, d in degrees.items() if d == 0)
    if any(d < 0 for d in degrees.values()):
        raise RuntimeError("a Mori ray has negative anticanonical degree")
    return {
        "cone": cone,
        "names_by_ray": {r: tuple(sorted(v)) for r, v in names_by_ray.items()},
        "anticanonical_degrees": degrees,
        "k_negative": k_negative,
        "k_trivial": k_trivial,
    }


@stage
def mori_f_vector() -> tuple[int, ...]:
    """Full face-count vector of the cone of curves (dimensions 1..11)."""
    cone = mori_cone()["cone"]
    return face_lattice_fvector(cone, ray_permutations(cone.rays, act_on_curve))


def all_pair_functionals_report() -> dict:
    """Every E*F functional against the 31-ray cone (survey, not assertion)."""
    cone = mori_cone()["cone"]
    outside = []
    zero = pairs = 0
    for e, f in combinations(LABELS, 2):
        pairs += 1
        v = curve_class(e, f)
        if not any(v):
            zero += 1
            continue
        if not cone.contains(v):
            outside.append(f"{e}*{f}")
    return {
        "pairs_checked": pairs,
        "zero_functionals": zero,
        "outside_cone": outside,
    }


# ---------------------------------------------------------------------------
# nef cone and contractions


@stage
def nef_cone() -> dict:
    """Dual of the cone of curves, with top self-intersection histogram."""
    mori = mori_cone()
    cone = dual_cone(mori["cone"])
    rays = cone.rays
    histogram: dict[int, int] = {}
    squares, cubes = {}, {}
    for r in rays:
        squares[r] = intersect_classes(r, r)
        c = cubes[r] = dot(r, squares[r])
        histogram[c] = histogram.get(c, 0) + 1
    k = anticanonical()["class"]
    k_pairings = [dot(k, g) for g in mori["cone"].rays]
    duality = all(
        dot(r, g) >= 0 for r in rays for g in mori["cone"].rays
    ) and all(
        any(dot(r, g) == 0 for g in mori["cone"].rays) for r in rays
    )
    return {
        "cone": cone,
        "square_by_ray": squares,
        "cube_by_ray": cubes,
        "histogram": histogram,
        "anticanonical_nef": all(x >= 0 for x in k_pairings),
        "anticanonical_interior": all(x > 0 for x in k_pairings),
        "duality_check": duality,
    }


@stage
def classify_contractions() -> dict:
    """Sort the 189 supporting divisors into curve, surface and birational."""
    nef = nef_cone()
    records = []
    for ray in nef["cone"].rays:
        cube = nef["cube_by_ray"][ray]
        if not any(nef["square_by_ray"][ray]):
            kind = "to-curve"
        elif cube == 0:
            kind = "to-surface"
        elif cube > 0:
            kind = "birational"
        else:
            raise RuntimeError(f"nef ray {ray} has negative cube {cube}")
        records.append({"ray": ray, "cube": cube, "kind": kind})
    return {"records": records}


# ---------------------------------------------------------------------------
# orbits


def _permutes(vectors, action) -> bool:
    """Whether the group maps the primitive `vectors` onto themselves."""
    try:
        ray_permutations(vectors, action)
    except NotPermutedError:
        return False
    return True


def orbit_decomposition(vectors, action) -> list[list]:
    """Partition vectors into orbits; raises if an orbit leaves the vectors."""
    vectors = sorted(set(vectors))
    try:
        perms = ray_permutations(vectors, action)
    except NotPermutedError:
        raise RuntimeError("group action does not permute the ray set") from None
    orbits = {tuple(sorted({p[i] for p in perms})) for i in range(len(vectors))}
    return sorted(([vectors[i] for i in o] for o in orbits), key=lambda o: (len(o), o))


@stage
def contraction_orbit_report() -> dict:
    """Orbit structure of the fiber-type contractions and K-trivial rays."""
    cls = classify_contractions()
    to_curve = [r["ray"] for r in cls["records"] if r["kind"] == "to-curve"]
    to_surface = [r["ray"] for r in cls["records"] if r["kind"] == "to-surface"]
    curve_orbits = orbit_decomposition(to_curve, act_on_class)
    surface_orbits = orbit_decomposition(to_surface, act_on_class)

    grass_ray = primitive_vector(class_of_labels(("C01", "C23", "D01", "D23")))
    grass_invariant = orbit(grass_ray, act_on_class) == {grass_ray}
    surface_reps = {
        1: primitive_vector(class_of_labels(("A0", "B0", "D01", "D02", "D03"))),
        2: primitive_vector(class_of_labels(("A2", "A3", "C01", "D23"))),
        8: primitive_vector(class_of_labels(("B0", "C01", "C02", "D01", "D02"))),
    }
    rep_in_orbit = {
        size: any(rep in orbit and len(orbit) == size for orbit in surface_orbits)
        for size, rep in surface_reps.items()
    }

    mori = mori_cone()
    kneg_orbits = orbit_decomposition(mori["k_negative"], act_on_curve)
    ktriv_orbits = orbit_decomposition(mori["k_trivial"], act_on_curve)
    a0d01 = primitive_vector(curve_class("A0", "D01"))
    return {
        "to_curve_orbits": curve_orbits,
        "to_surface_orbits": surface_orbits,
        "k_negative_orbits": kneg_orbits,
        "k_trivial_orbits": ktriv_orbits,
        "grass_ray_is_to_curve": grass_ray in to_curve,
        "grass_ray_invariant": grass_invariant,
        "surface_rep_in_orbit": rep_in_orbit,
        "k_negative_is_orbit_of_A0xD01": len(kneg_orbits) == 1
        and a0d01 in kneg_orbits[0],
        "k_trivial_orbit_reps": {
            "A0*B1": len(orbit(curve_class("A0", "B1"), act_on_curve)),
            "A0*B0": len(orbit(curve_class("A0", "B0"), act_on_curve)),
            "C01*C23": len(orbit(curve_class("C01", "C23"), act_on_curve)),
        },
    }


# ---------------------------------------------------------------------------
# partial flag subcones

FLAG_M1_GENERATORS = (
    ("C01", "C23", "D01", "D23"),
    ("A0", "C23", "D01"),
    ("A1", "C23", "D01"),
    ("A2", "C01", "D23"),
    ("A3", "C01", "D23"),
)
FLAG_M1P_GENERATORS = (
    ("C01", "C23", "D01", "D23"),
    ("B0", "C01", "D01"),
    ("B1", "C01", "D01"),
    ("B2", "C23", "D23"),
    ("B3", "C23", "D23"),
)
FLAG_L1 = ("C01", "C23", "D01", "D23")
FLAG_N1_EXTRA = (
    ("A2", "A3", "C01", "D23"),
    ("A0",) + FLAG_L1,
    ("A1",) + FLAG_L1,
    ("A2",) + FLAG_L1,
    ("A3",) + FLAG_L1,
)
FLAG_N1P_EXTRA = (
    ("B0", "B1", "C01", "D01"),
    ("B0",) + FLAG_L1,
    ("B1",) + FLAG_L1,
    ("B2",) + FLAG_L1,
    ("B3",) + FLAG_L1,
)
FLAG_L2 = ("A2", "A3", "C01", "C01", "C23", "D01", "D23", "D23")
FLAG_L2P = ("B0", "B1", "C01", "C01", "C23", "D01", "D01", "D23")
FLAG_X13_RAY = ("A0", "B0", "D01", "D02", "D03")


def _span_section_of_nef(generator_classes) -> Cone:
    """Intersection of the nef cone with the rational span of the generators."""
    mori = mori_cone()["cone"]
    gen_rows = [list(v) for v in generator_classes]
    if rational_rank(gen_rows) != len(gen_rows):
        raise RuntimeError("flag section generators are linearly dependent")
    normal_directions = integer_kernel(gen_rows)
    return Cone.from_inequalities(RANK, mori.rays, normal_directions)


@stage
def partial_flag_cones() -> dict:
    """The two five-dimensional nef sections and their pentachoron shape."""
    m1 = [class_of_labels(g) for g in FLAG_M1_GENERATORS]
    m1p = [class_of_labels(g) for g in FLAG_M1P_GENERATORS]
    n1 = _span_section_of_nef(m1)
    n1p = _span_section_of_nef(m1p)

    tau_swaps = {
        tuple(sorted(primitive_vector(act_on_class(TAU, r)) for r in n1.rays))
        == tuple(sorted(n1p.rays)),
        tuple(sorted(primitive_vector(act_on_class(TAU, r)) for r in n1p.rays))
        == tuple(sorted(n1.rays)),
    } == {True}

    l2 = class_of_labels(FLAG_L2)
    l2p = class_of_labels(FLAG_L2P)
    bary1 = primitive_vector(n1.interior_point())
    bary1p = primitive_vector(n1p.interior_point())

    m1_rays = {primitive_vector(v) for v in m1}
    m1p_rays = {primitive_vector(v) for v in m1p}
    extra1 = {primitive_vector(class_of_labels(g)) for g in FLAG_N1_EXTRA}
    extra1p = {primitive_vector(class_of_labels(g)) for g in FLAG_N1P_EXTRA}

    x13 = class_of_labels(FLAG_X13_RAY)
    x13_invariant = orbit(x13, act_on_class) == {primitive_vector(x13)}

    # ample restriction witnesses: positive degree on every node curve
    graphs = solve_petersen()["graphs"]
    positivity = True
    for i in range(4):
        b = f"B{i}"
        nodes, _ = graphs[b]
        for e in nodes:
            if dot(l2, curve_class(b, e)) <= 0:
                positivity = False
        a = f"A{i}"
        nodes, _ = graphs[a]
        for e in nodes:
            if dot(l2p, curve_class(a, e)) <= 0:
                positivity = False

    return {
        "n1_ray_count": len(n1.rays),
        "n1_facet_count": len(n1.facets),
        "n1p_ray_count": len(n1p.rays),
        "n1p_facet_count": len(n1p.facets),
        "tau_swaps_sections": tau_swaps,
        "barycenter_matches_l2": bary1 == primitive_vector(l2),
        "barycenter_matches_l2p": bary1p == primitive_vector(l2p),
        "l2_cube": triple(l2, l2, l2),
        "l2p_cube": triple(l2p, l2p, l2p),
        "n1_rays_are_m1_plus_extra": set(n1.rays) == m1_rays | extra1,
        "n1p_rays_are_m1p_plus_extra": set(n1p.rays) == m1p_rays | extra1p,
        "x13_ray_invariant": x13_invariant,
        "restriction_positivity": positivity,
        "n1_rays": n1.rays,
        "n1p_rays": n1p.rays,
    }


# ---------------------------------------------------------------------------
# effective cone

H_CLASS_EXPRESSIONS = {
    "H{01}{23}": (("A2", "B2", "D02", "D12"), ("D01",)),
    "H{02}{13}": (("A1", "B1", "D01", "D12"), ("D02",)),
    "H{03}{12}": (("A0", "B0", "D01", "D02"), ("D12",)),
}
S_PLUS = ("A1", "B2", "C02", "C23")
S_MINUS = ("D03",)


def _signed_class(plus, minus) -> tuple[int, ...]:
    v = list(class_of_labels(plus))
    for lab in minus:
        cls = picard_lattice()["label_class"][lab]
        v = [a - b for a, b in zip(v, cls)]
    return tuple(v)


@stage
def effective_generators() -> dict[str, tuple[int, ...]]:
    """The 24 classes: 20 boundary divisors, three H planes and the cubic S."""
    lc = picard_lattice()["label_class"]
    out = {lab: lc[lab] for lab in LABELS}
    for name, (plus, minus) in H_CLASS_EXPRESSIONS.items():
        out[name] = _signed_class(plus, minus)
    out["S"] = _signed_class(S_PLUS, S_MINUS)
    return out


CURVE_FAMILY_GAMMA1 = (("A0", "B0"), ("A1", "B1"), ("C01", "C23"), ("A0", "D01"), ("B0", "D01"))
CURVE_FAMILY_GAMMA2_PLUS = (("A0", "B1"), ("A3", "B2"), ("A0", "C12"), ("B1", "C12"))
CURVE_FAMILY_GAMMA2_MINUS = (("C03", "C12"),)


def _sum_curves(pairs, minus=()) -> tuple[int, ...]:
    acc = [0] * RANK
    for e, f in pairs:
        acc = [a + b for a, b in zip(acc, curve_class(e, f))]
    for e, f in minus:
        acc = [a - b for a, b in zip(acc, curve_class(e, f))]
    return tuple(acc)


def gamma1() -> tuple[int, ...]:
    return _sum_curves(CURVE_FAMILY_GAMMA1)


def gamma2() -> tuple[int, ...]:
    return _sum_curves(CURVE_FAMILY_GAMMA2_PLUS, CURVE_FAMILY_GAMMA2_MINUS)


@stage
def moving_dual_cone() -> list[tuple[int, ...]]:
    """Generators of the certified subcone of curve classes moving in codimension one, sorted."""
    seeds = [
        primitive_vector(curve_class("A0", "C23")),
        primitive_vector(curve_class("A0", "D01")),
        primitive_vector(_sum_curves((("A0", "B1"), ("A0", "D01")))),
        primitive_vector(_sum_curves((("A0", "B1"), ("A0", "C12")))),
        primitive_vector(_sum_curves((("A0", "B0"), ("A0", "D01")))),
        primitive_vector(gamma1()),
        primitive_vector(gamma2()),
    ]
    return sorted(frozenset().union(*(orbit(s, act_on_curve) for s in seeds)))


@stage
def effective_cone_analysis() -> dict:
    """Extremality of the 24 generators and the dual inclusion check."""
    gens = effective_generators()
    prim = {name: primitive_vector(v) for name, v in gens.items()}
    prim_set = set(prim.values())
    cone = Cone.from_rays(RANK, sorted(prim_set))
    all_extremal = set(cone.rays) == prim_set and len(prim_set) == 24

    # One LP per group orbit of dual rays (Bremner, Dutour Sikirić &
    # Schürmann, 2009), certified first: the group maps the moving dual
    # generators onto themselves, so the moving dual is group-invariant, and
    # orbit_decomposition raises unless each dual ray's orbit lies among the
    # dual rays.
    dual = dual_cone(cone)
    cgens = moving_dual_cone()
    if not _permutes(cgens, act_on_curve):
        raise RuntimeError("the group does not preserve the moving dual generators")
    reps = [o[0] for o in orbit_decomposition(dual.rays, act_on_curve)]
    inclusion = all(lp_in_cone(cgens, r) for r in reps)

    preserved = _permutes(sorted(prim_set), act_on_class)

    ktriv = [list(v) for v in mori_cone()["k_trivial"]]
    ab = [list(curve_class(f"A{i}", f"B{j}")) for i in range(4) for j in range(4)]
    return {
        "all_generators_extremal": all_extremal,
        "dual_ray_count": len(dual.rays),
        "dual_included_in_moving_dual": inclusion,
        "group_preserves_generators": preserved,
        "span_ranks_equal": rational_rank(ktriv) == rational_rank(ab),
    }


@stage
def pairing_checks() -> dict:
    """Degrees of the two exceptional-cover curve classes on key divisors."""
    g1 = gamma1()
    g2 = gamma2()
    gens = effective_generators()
    lc = picard_lattice()["label_class"]

    g1_boundary = {lab: dot(lc[lab], g1) for lab in LABELS}
    g2_boundary = {lab: dot(lc[lab], g2) for lab in LABELS}
    # degree one on every D divisor: forced by anticanonical degree 2
    # together with the twelve boundary expressions of the anticanonical class
    expected_g1 = {lab: (1 if lab[0] == "D" else 0) for lab in LABELS}
    expected_g2 = {
        lab: (1 if lab in ("D01", "D23", "C12", "C13", "C02", "C03") else 0)
        for lab in LABELS
    }
    return {
        "s_dot_gamma1": dot(gens["S"], g1),
        "h0123_dot_gamma2": dot(gens["H{01}{23}"], g2),
        "gamma1_boundary_degrees": g1_boundary,
        "gamma2_boundary_degrees": g2_boundary,
        "gamma1_degrees_expected": g1_boundary == expected_g1,
        "gamma2_degrees_expected": g2_boundary == expected_g2,
    }


# ---------------------------------------------------------------------------
# cone-invariance sweeps


def group_preserves_cones() -> dict:
    """The induced action maps each cone's generator set onto itself."""
    mori = mori_cone()
    nef = nef_cone()
    return {
        "mori_preserved": _permutes(mori["cone"].rays, act_on_curve),
        "nef_preserved": _permutes(nef["cone"].rays, act_on_class),
    }


def multican_nonnegative_on_mori() -> dict:
    """Each boundary expression of the anticanonical class is nef-side.

    Also: every K-trivial ray meets some boundary divisor negatively.
    """
    mori = mori_cone()
    lc = picard_lattice()["label_class"]
    expr_ok = all(
        dot(class_of_labels(labels), ray) >= 0
        for labels in MULTICAN_LABEL_SETS
        for ray in mori["cone"].rays
    )
    trivial_negative = all(
        any(dot(lc[lab], ray) < 0 for lab in LABELS)
        for ray in mori["k_trivial"]
    )
    return {
        "multican_nonnegative": expr_ok,
        "k_trivial_rays_meet_boundary_negatively": trivial_negative,
    }
