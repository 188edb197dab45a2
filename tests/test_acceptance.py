"""Acceptance suite: one check per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All equality checks are exact; the stated wall-clock budgets are asserted on
the work done inside each criterion (stage results shared downstream of it).
"""

import json
import time
from collections import Counter

from tilefold import cli, conelab, divcalc, quotientfan, tilegroup
from tilefold.polyhedra import face_lattice_fvector, fan_is_smooth, is_complete_fan

EXPECTED_RAYS = {
    (-1, 0, -1), (-1, -1, -1), (0, -1, -1),
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1),
}
EXPECTED_FVECTOR = (31, 387, 2647, 10942, 28495, 47531, 50616, 33484, 12912, 2544, 189)
EXPECTED_HISTOGRAM = {0: 20, 1: 6, 2: 24, 4: 6, 5: 48, 14: 6, 16: 15, 18: 16, 22: 48}


def report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {description} ({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_quotient_fan():
    t0 = time.monotonic()
    fan = quotientfan.chart_quotient_fan()
    ok = (
        set(fan.rays) == EXPECTED_RAYS
        and len(fan.rays) == 7
        and fan_is_smooth(fan)
        and is_complete_fan(fan)
        and len(fan.rays) - fan.ambient_dim == 4
    )
    report(1, "quotient fan rays, smoothness, completeness, Picard 4", ok, time.monotonic() - t0, 5)


def test_criterion_02_relevance():
    t0 = time.monotonic()
    orthant = quotientfan.source_data()
    pairs = quotientfan.relevant_pairs()
    got = {(p["cone"], p["companion"]) for p in pairs}
    required = {
        ((1, 4), (0,)),       # A1 with companion B1
        ((1, 3), (2,)),       # B2 with companion A2
        ((0, 2, 5), (1,)),    # C02 with companion C13
        ((1, 3, 4), (2, 4)),  # D12 with companion C12
        ((1, 3, 4), (0, 3)),  # D12 with companion C03
    }
    fan = quotientfan.chart_quotient_fan()
    nonproj = quotientfan.non_projected_rays(fan, quotientfan.COKERNEL_MATRIX, orthant)
    ok = required <= got and nonproj == [(0, 0, -1)]
    report(2, "relevance pairs and the unique non-projected ray", ok, time.monotonic() - t0, 5)


def test_criterion_03_git_subfans():
    t0 = time.monotonic()
    rep = quotientfan.git_subfans()
    ok = (
        rep["bijective"] == {"plus": True, "minus": True, "zero": True}
        and rep["refinement_equals_quotient"]
        and rep["local_flip_over_projected_face"]
        and rep["exchanged_walls_meet_in_extra_ray"]
        and rep["modified_locus_is_extra_ray_divisor"]
    )
    report(3, "GIT subfans project bijectively; refinement recovers the fan", ok, time.monotonic() - t0, 5)


def test_criterion_04_polytopes():
    t0 = time.monotonic()
    ample = quotientfan.chart_ample_polytope()
    weights, hull = quotientfan.fixed_point_weights()
    # each polytope is its homogenising cone, a vertex v its ray (1, v)
    ok = (
        face_lattice_fvector(ample) == (10, 15, 7)
        and len(hull.rays) == 24
        and set(hull.rays) == {(1,) + w for w in weights.values()}
    )
    report(4, "ample polytope (10,15,7); permutohedron has all 24 vertices", ok, time.monotonic() - t0, 5)


def test_criterion_05_group_relations():
    t0 = time.monotonic()
    group = tilegroup.full_group()
    rels = tilegroup.relations_hold_pointwise(samples=100, seed=0)
    ok = (
        len(group) == 48
        and tilegroup.action_is_faithful()
        and all(v["holds"] and v["samples"] >= 100 for v in rels.values())
    )
    report(5, "relations at 100 points; order 48; faithful label action", ok, time.monotonic() - t0, 10)


def test_criterion_06_derivation_pipeline():
    t0 = time.monotonic()
    ok = True
    for name in ("r1", "r2", "r3", "tau"):
        rep = tilegroup.derivation_agreement(name, samples=100, seed=0)
        ok = ok and rep["all_agree"] and rep["samples"] >= 100
    report(6, "chart derivation agrees with closed forms, 100 samples each", ok, time.monotonic() - t0, 30)


def test_criterion_07_image_table():
    t0 = time.monotonic()
    _, rep = tilegroup.boundary_image_table(samples=25, seed=0)
    ok = (
        rep["seed_rows_exact"]
        and rep["chain_covers_all_rows"]
        and rep["all_rows_verified"]
        and rep["images_pairwise_distinct"]
    )
    report(7, "all 20 image rows verified along the proof chain, distinct", ok, time.monotonic() - t0, 30)


def test_criterion_08_picard_lattice():
    t0 = time.monotonic()
    pl = divcalc.picard_lattice()
    qh = divcalc.class_of(divcalc.expr(qH=1))
    rows_ok = all(
        divcalc.class_of_labels(row) == qh for row in divcalc.PLANE_ROWS.values()
    ) and divcalc.class_of_labels(divcalc.QUADRIC_ROW) == divcalc.class_of(
        divcalc.expr(qH=2)
    )
    ok = (
        pl["rank"] == 12
        and pl["invariant_factors"] == [1] * 9
        and pl["relation_rank"] == 9
        and rows_ok
    )
    report(8, "class lattice free of rank 12; 9 relations of rank 9", ok, time.monotonic() - t0, 1)


def test_criterion_09_adjacency():
    t0 = time.monotonic()
    pet = divcalc.solve_petersen()
    forced = {
        frozenset(p)
        for p in (("B2", "C23"), ("B3", "C23"), ("C23", "D01"), ("B0", "D01"), ("B1", "D01"))
    }
    ok = (
        len(pet["edges"]) == 15
        and forced <= pet["forced_edges"]
        and divcalc._graph_is_petersen(pet["edges"])
    )
    report(9, "surface adjacency solved uniquely; Petersen; forced edges", ok, time.monotonic() - t0, 60)


def test_criterion_10_trilinear_form():
    t0 = time.monotonic()
    t = divcalc.label_tensor()
    n = divcalc.N_LABELS
    sym = all(
        t[i][j][k] == t[i][k][j] == t[j][i][k] == t[j][k][i] == t[k][i][j] == t[k][j][i]
        for i in range(n) for j in range(i, n) for k in range(j, n)
    )
    rels = divcalc.label_relations_in_label_space()
    descent = all(
        sum(c * t[i][e][f] for i, c in enumerate(r) if c) == 0
        for r in rels for e in range(n) for f in range(n)
    )
    idx = divcalc.LABEL_INDEX
    equivariant = True
    for g in tilegroup.full_group():
        p = [idx[tilegroup.act_on_label(g, lab)] for lab in divcalc.LABELS]
        for i in range(n):
            for j in range(n):
                row, prow = t[i][j], t[p[i]][p[j]]
                for k in range(n):
                    if row[k] != prow[p[k]]:
                        equivariant = False
    entries = (
        divcalc.triple_labels("A1", "A1", "A1") == 0
        and all(divcalc.triple_labels(l, l, l) == 1 for l in divcalc.LABELS if l[0] == "C")
        and all(divcalc.triple_labels(l, l, l) == 2 for l in divcalc.LABELS if l[0] == "D")
        and all(divcalc.triple_labels(l, l, l) == 0 for l in divcalc.LABELS if l[0] in "AB")
        and divcalc.triple_labels("A0", "B2", "C23") == 1
    )
    ok = sym and descent and equivariant and entries
    report(10, "tensor symmetric, equivariant, vanishing on relations", ok, time.monotonic() - t0, 60)


def test_criterion_11_anticanonical():
    t0 = time.monotonic()
    ak = divcalc.anticanonical()
    ok = (
        ak["top_self_intersection"] == 12
        and ak["expressions_agree"]
        and ak["group_invariant"]
    )
    report(11, "anticanonical cube 12; twelve expressions; invariant", ok, time.monotonic() - t0, 5)


def test_criterion_12_quartic_system():
    t0 = time.monotonic()
    q = divcalc.quartic_system()
    ok = (
        q["projective_dimension"] == 13
        and q["linear_dimension"] == 14
        and q["reference_dimension"] == 14
        and q["discrepancy_flag"] is True
        and bool(q["discrepancy_note"])
        and q["quadric_square_contained"]
    )
    report(12, "quartic system dimension computed, discrepancy flagged", ok, time.monotonic() - t0, 5)


def test_criterion_13_mori_cone():
    t0 = time.monotonic()
    mori = conelab.mori_cone()
    orbits = conelab.contraction_orbit_report()
    fv = conelab.mori_f_vector()
    ok = (
        len(mori["cone"].rays) == 31
        and len(mori["k_negative"]) == 12
        and len(mori["k_trivial"]) == 19
        and [len(o) for o in orbits["k_negative_orbits"]] == [12]
        and orbits["k_negative_is_orbit_of_A0xD01"]
        and [len(o) for o in orbits["k_trivial_orbits"]] == [3, 4, 12]
        and fv == EXPECTED_FVECTOR
    )
    report(13, "cone of curves: 31 rays, orbits 12 | 12+4+3, full f-vector", ok, time.monotonic() - t0, 600)


def test_criterion_14_nef_cone():
    t0 = time.monotonic()
    nef = conelab.nef_cone()
    cls = conelab.classify_contractions()
    orbits = conelab.contraction_orbit_report()
    ok = (
        len(nef["cone"].rays) == 189
        and nef["histogram"] == EXPECTED_HISTOGRAM
        and Counter(r["kind"] for r in cls["records"]) == {"to-curve": 9, "to-surface": 11, "birational": 169}
        and [len(o) for o in orbits["to_curve_orbits"]] == [1, 8]
        and orbits["grass_ray_invariant"]
        and [len(o) for o in orbits["to_surface_orbits"]] == [1, 2, 8]
        and orbits["surface_rep_in_orbit"] == {1: True, 2: True, 8: True}
    )
    report(14, "nef cone: 189 rays, cube histogram, contraction orbits", ok, time.monotonic() - t0, 120)


def test_criterion_15_flag_sections():
    t0 = time.monotonic()
    f = conelab.partial_flag_cones()
    ok = (
        f["n1_ray_count"] == 10
        and f["n1_facet_count"] == 10
        and f["n1p_ray_count"] == 10
        and f["n1p_facet_count"] == 10
        and f["tau_swaps_sections"]
        and f["barycenter_matches_l2"]
        and f["barycenter_matches_l2p"]
        and f["l2_cube"] == 0
        and f["l2p_cube"] == 0
        and f["x13_ray_invariant"]
    )
    report(15, "flag sections: 10 rays, 10 facets, swapped, barycenters", ok, time.monotonic() - t0, 30)


def test_criterion_16_effective_cone():
    t0 = time.monotonic()
    e = conelab.effective_cone_analysis()
    p = conelab.pairing_checks()
    ok = (
        e["all_generators_extremal"]
        and e["dual_included_in_moving_dual"]
        and p["s_dot_gamma1"] == -1
        and p["h0123_dot_gamma2"] == -1
        and p["gamma1_degrees_expected"]
        and p["gamma2_degrees_expected"]
    )
    report(16, "effective cone: 24 extremal rays, dual inclusion, pairings", ok, time.monotonic() - t0, 60)


def test_criterion_17_determinism():
    t0 = time.monotonic()
    first = cli.build_report("report all", samples=100, seed=0)
    second = cli.build_report("report all", samples=100, seed=0)

    def stable_bytes(rep):
        clean = {k: v for k, v in rep.items() if k != "timings"}
        return json.dumps(clean, sort_keys=True).encode()

    ok = stable_bytes(first) == stable_bytes(second) and first["pass"] and second["pass"]
    ok = ok and not cli.compare_golden(first, second)
    report(17, "two seeded runs byte-identical outside timing fields", ok, time.monotonic() - t0, 600)
