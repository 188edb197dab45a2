"""Random pointed cones and membership points for the `random_cones` workload.

Everything is drawn from `random.Random(seed)`, so one seed always gives the
same cones and points.  Shapes cycle through SHAPES so that every job has
the same mix of dimensions and generator counts, and seeds differ only in
the entries.  Generators have a positive first coordinate, which keeps each
cone pointed.

The cross-checks in `check_cone` rest on facts that hold for every pointed
cone, not on the code that computed the answer.
"""

from __future__ import annotations

import random

# (dimension, generator count), from d + 5 up to 2d + 6 generators for
# d = 5 and 6.  d = 7 stops at d + 4: at d + 5 one cone already costs about
# 0.7 s and at 2d + 6 up to 35 s, dual face lattice included, and a few
# such cones would be the whole run.  d = 8 is out for the same reason.
SHAPES = ((5, 10), (5, 13), (5, 16), (6, 11), (6, 12), (7, 11))
POINTS_PER_CONE = 8
ENTRY = 3


def _rank(rows) -> int:
    """Rank over Q by fraction-free elimination (kept apart from exactlat)."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [p[c] * x - f * y for x, y in zip(m[i], p)]
        rank += 1
    return rank


def make_cone(rng: random.Random, dim: int, count: int) -> dict:
    """One full-dimensional cone's generators plus its membership points."""
    while True:
        gens = [
            (rng.randint(1, ENTRY),) + tuple(rng.randint(-ENTRY, ENTRY) for _ in range(dim - 1))
            for _ in range(count)
        ]
        if _rank(gens) == dim:
            break
    points = []
    for k in range(POINTS_PER_CONE):
        if k % 2 == 0:
            # A positive combination of 1, 2 or all generators: inside by
            # construction, and the sparse ones mostly on the boundary.
            support = rng.sample(range(count), (1, 2)[k // 2] if k < 4 else count)
            coeffs = {i: rng.randint(1, ENTRY) for i in support}
            points.append((tuple(sum(c * gens[i][j] for i, c in coeffs.items()) for j in range(dim)), True))
        else:
            points.append((tuple(rng.randint(-2 * ENTRY, 2 * ENTRY) for _ in range(dim)), None))
    return {"dim": dim, "generators": gens, "points": points}


def make_cones(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [make_cone(rng, *SHAPES[i % len(SHAPES)]) for i in range(count)]


def run_cone(poly, cone: dict) -> dict:
    """Drive the polyhedral layer on one cone; returns raw results."""
    dim = cone["dim"]
    c = poly.Cone.from_rays(dim, cone["generators"])
    fv = poly.face_lattice_fvector(c)
    fv_dual = poly.face_lattice_fvector(poly.dual_cone(c))
    back = poly.Cone.from_inequalities(dim, c.facets)
    member = [
        (c.contains(p), poly.lp_in_cone(cone["generators"], p), expected)
        for p, expected in cone["points"]
    ]
    return {"cone": c, "fv": fv, "fv_dual": fv_dual, "back": back, "member": member}


def check_cone(cone: dict, out: dict) -> list[str]:
    """Names of the cross-checks this cone fails (empty when it passes)."""
    dim = cone["dim"]
    c, fv, fv_dual = out["cone"], out["fv"], out["fv_dual"]
    failed = []
    if c.dim != dim or not c.is_pointed():
        failed.append("full_dimensional_pointed")
    full = (1,) + tuple(fv) + (1,)
    if sum((-1) ** k * f for k, f in enumerate(full)) != 0:
        failed.append("euler_relation")
    if tuple(fv_dual) != tuple(reversed(fv)):
        failed.append("dual_fvector_reversed")
    if fv[0] != len(c.rays) or fv[-1] != len(c.facets):
        failed.append("fvector_ends_match_rays_and_facets")
    if out["back"].rays != c.rays:
        failed.append("inequality_round_trip")
    for inside, by_lp, expected in out["member"]:
        if inside != by_lp:
            failed.append("contains_agrees_with_lp")
            break
        if expected is True and not inside:
            failed.append("generator_combination_inside")
            break
    return failed
