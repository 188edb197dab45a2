"""Command-line entry point: run the pipelines, emit reports, diff goldens.

Reports are JSON with sorted keys; for a fixed command, seed and sample
count the output is byte-stable except for the timings block, which golden
comparison ignores; it holds the self time of each section and stage run.
Exit codes: 0 all checks pass, 1 at least one expected/computed mismatch, 2
invalid invocation or internal failure (its stage and section on stderr).
"""

from __future__ import annotations

import json
import os
import sys

from . import __version__
from . import conelab, divcalc, quotientfan, stages, tilegroup
from .polyhedra import face_lattice_fvector, fan_is_smooth, fan_to_text, is_complete_fan

USAGE = """usage: tilefold COMMAND [options]

commands:
  fan quotient         quotient fan, relevance report, GIT subfans, polytopes
  group verify         tile group relations, derivation pipeline, image table
  intersection table   class lattice, solved adjacency, trilinear tensor
  quartics rank        exact dimension of the quartic system
  cones mori           cone of curves and its face statistics
  cones nef            nef cone, contraction classification, orbits
  cones eff            effective cone generators and dual inclusion
  cones flags          partial-flag nef sections
  report all           every section in one document

options:
  --out PATH     write the JSON report to PATH
  --seed N       group verify / report all: sampling seed (default 0)
  --samples N    group verify / report all: sample count (default 100)
  --golden PATH  compare against a golden report (timings/version ignored)
  --export PATH  fan quotient only: write the fan in the text format
  --csv PATH     intersection table / cones mori|nef: write a CSV table
"""


def check(name: str, expected, computed) -> dict:
    expected, computed = _plain(expected), _plain(computed)
    return {"name": name, "expected": expected, "computed": computed, "pass": expected == computed}


def _plain(obj):
    """JSON-stable structure of exact values: tuples to lists, sets sorted, int keys to str."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(x) for x in obj)
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return obj
    raise TypeError(f"a {type(obj).__name__} is not an exact JSON value; reports hold exact values only")


# ---------------------------------------------------------------------------
# sections

EXPECTED_QUOTIENT_RAYS = sorted(quotientfan.QUOTIENT_RAYS)
EXPECTED_MORI_FVECTOR = (31, 387, 2647, 10942, 28495, 47531, 50616, 33484, 12912, 2544, 189)
EXPECTED_NEF_HISTOGRAM = {0: 20, 1: 6, 2: 24, 4: 6, 5: 48, 14: 6, 16: 15, 18: 16, 22: 48}

# cone/companion partition tags; PARTITION_FACE gives their orthant faces
RELEVANCE_REQUIRED_PAIRS = ("A1/B1", "B2/A2", "C02/C13", "D12/C12", "D12/C03", "C12/C03")


def section_fan_quotient() -> dict:
    checks = []
    fan = quotientfan.chart_quotient_fan()
    checks.append(check("quotient_fan_rays", EXPECTED_QUOTIENT_RAYS, sorted(fan.rays)))
    checks.append(check("quotient_fan_smooth", True, fan_is_smooth(fan)))
    checks.append(check("quotient_fan_complete", True, is_complete_fan(fan)))

    orthant = quotientfan.source_data()
    # only this section reads these two, so they are timed, not kept
    pairs = stages.timed("quotientfan.relevant_pairs", quotientfan.relevant_pairs)
    got = {(p["cone"], p["companion"]) for p in pairs}
    face = quotientfan.PARTITION_FACE
    for name in RELEVANCE_REQUIRED_PAIRS:
        cone, comp = name.split("/")
        checks.append(check(f"relevant_pair_{name}", True, (face[cone], face[comp]) in got))
    c12_c03 = next(
        p for p in pairs if (p["cone"], p["companion"]) == (face["C12"], face["C03"])
    )
    checks.append(
        check("relevance_c12_c03_meets_in_rho6", [[0, 0, -1]], [r for i, r in enumerate(fan.rays) if c12_c03["meet"] >> i & 1])
    )
    checks.append(
        check(
            "unique_non_projected_ray",
            [[0, 0, -1]],
            quotientfan.non_projected_rays(fan, quotientfan.COKERNEL_MATRIX, orthant),
        )
    )

    git = stages.timed("quotientfan.git_subfans", quotientfan.git_subfans)
    checks.append(check("git_subfans_bijective", {"minus": True, "plus": True, "zero": True}, git["bijective"]))
    checks.append(check("git_refinement_is_quotient_fan", True, git["refinement_equals_quotient"]))
    checks.append(check("git_local_flip_structure", True, git["local_flip_over_projected_face"]))
    checks.append(check("git_exchanged_walls_meet_in_rho6", True, git["exchanged_walls_meet_in_extra_ray"]))
    checks.append(check("git_modified_locus_is_rho6_divisor", True, git["modified_locus_is_extra_ray_divisor"]))

    cg = quotientfan.chart_class_group_report()
    checks.append(
        check(
            "chart_class_relations_principal",
            {"E-B2-C02": True, "F-A1-C02": True, "G-A1-B2-C02-D12": True},
            cg["relations_principal"],
        )
    )
    checks.append(
        check("chart_relation_witness_E-B2-C02", [0, 1, 0], cg["witness_characters"]["E-B2-C02"])
    )

    # each polytope is its homogenising cone: a vertex v is the ray (d, d*v)
    ample = quotientfan.chart_ample_polytope()
    checks.append(check("ample_polytope_f_vector", [10, 15, 7], face_lattice_fvector(ample)))
    checks.append(check("ample_polytope_is_lattice", True, all(r[0] == 1 for r in ample.rays)))

    weights, hull = quotientfan.fixed_point_weights()
    checks.append(check("permutohedron_f_vector", [24, 36, 14], face_lattice_fvector(hull)))
    checks.append(check("weights_all_vertices", True, set(hull.rays) == {(1,) + w for w in weights.values()}))

    data = {
        "rays": fan.rays,
        "maximal_cones": [sorted(s) for s in fan.maximal_cones],
        "relevant_pair_count": len(pairs),
        "git_face_counts": git["face_counts"],
        "witness_characters": cg["witness_characters"],
        "fan_text": fan_to_text(fan),
    }
    return {"checks": checks, "data": data}


def section_group_verify(samples: int, seed: int) -> dict:
    checks = []
    group = tilegroup.full_group()
    checks.append(check("group_order", 48, len(group)))
    checks.append(check("label_action_faithful", True, tilegroup.action_is_faithful()))

    relations = stages.timed(
        "tilegroup.relations_hold_pointwise", tilegroup.relations_hold_pointwise, samples, seed
    )
    for name, rep in sorted(relations.items()):
        checks.append(check(f"relation_{name}", True, rep["holds"]))

    derivations = {}
    for gen in ("r1", "r2", "r3", "tau"):
        rep = stages.timed(
            "tilegroup.derivation_agreement", tilegroup.derivation_agreement, gen, samples, seed
        )
        derivations[gen] = rep
        checks.append(check(f"derivation_agrees_{gen}", True, rep["all_agree"]))

    table, trep = stages.timed(
        "tilegroup.boundary_image_table", tilegroup.boundary_image_table, max(10, samples // 4), seed
    )
    checks.append(check("image_table_seed_rows_exact", True, trep["seed_rows_exact"]))
    checks.append(check("image_table_chain_covers_all_rows", True, trep["chain_covers_all_rows"]))
    checks.append(check("image_table_all_rows_verified", True, trep["all_rows_verified"]))
    checks.append(check("image_table_rows_distinct", True, trep["images_pairwise_distinct"]))

    data = {
        "derivations": derivations,
        "image_chain": trep["chain"],
        "table_rows": {
            lab: {"kind": sub.kind, "data": sub.data} for lab, sub in table.items()
        },
    }
    return {"checks": checks, "data": data}


def section_intersection() -> dict:
    checks = []
    pl = divcalc.picard_lattice()
    checks.append(check("picard_rank", 12, pl["rank"]))
    checks.append(check("picard_invariant_factors", [1] * 9, pl["invariant_factors"]))
    checks.append(check("relation_rank", 9, pl["relation_rank"]))

    a2 = divcalc.class_of(
        divcalc.expr(qH=1, B2=-1, C01=-1, D02=-1, D12=-1, D23=-1)
    )
    checks.append(
        check("A2_class_expression", list(a2), list(pl["label_class"]["A2"]))
    )

    pet = divcalc.solve_petersen()
    forced = {frozenset(p) for p in (
        ("B2", "C23"), ("B3", "C23"), ("C23", "D01"), ("B0", "D01"), ("B1", "D01"),
    )}
    checks.append(check("adjacency_edge_count", 15, len(pet["edges"])))
    checks.append(check("adjacency_forced_edges_present", True, forced <= pet["edges"]))
    checks.append(check("adjacency_is_petersen", True, divcalc._graph_is_petersen(pet["edges"])))

    t = divcalc.label_tensor()
    n = divcalc.N_LABELS
    idx = divcalc.LABEL_INDEX
    rels = divcalc.label_relations_in_label_space()
    descent = all(
        sum(c * t[i][e][f] for i, c in enumerate(r) if c) == 0
        for r in rels
        for e in range(n)
        for f in range(n)
    )
    checks.append(check("tensor_descent_on_relations", True, descent))

    # picard_action certifies a homomorphism, so the generators cover all 48
    divcalc.picard_action()
    equivariant = True
    for s in tilegroup.GENERATORS.values():
        p = [idx[tilegroup.act_on_label(s, lab)] for lab in divcalc.LABELS]
        for i in range(n):
            for j in range(n):
                row, prow = t[i][j], t[p[i]][p[j]]
                for k in range(n):
                    if row[k] != prow[p[k]]:
                        equivariant = False
    checks.append(check("tensor_group_equivariant", True, equivariant))

    checks.append(
        check(
            "cubes_by_type",
            {"A": [0] * 4, "B": [0] * 4, "C": [1] * 6, "D": [2] * 6},
            {
                kind: [
                    divcalc.triple_labels(lab, lab, lab)
                    for lab in divcalc.LABELS
                    if lab[0] == kind
                ]
                for kind in "ABCD"
            },
        )
    )
    checks.append(check("entry_A0_B2_C23", 1, divcalc.triple_labels("A0", "B2", "C23")))
    checks.append(check("entry_A0_D01_C23", 1, divcalc.triple_labels("A0", "D01", "C23")))
    checks.append(check("entry_A0_B0_D01", 1, divcalc.triple_labels("A0", "B0", "D01")))
    checks.append(check("entry_A0_C23_C23", -1, divcalc.triple_labels("A0", "C23", "C23")))

    ak = divcalc.anticanonical()
    checks.append(check("anticanonical_cube", 12, ak["top_self_intersection"]))
    checks.append(check("anticanonical_expressions_agree", True, ak["expressions_agree"]))
    checks.append(check("anticanonical_group_invariant", True, ak["group_invariant"]))

    data = {
        "basis": divcalc.BASIS,
        "label_classes": pl["label_class"],
        "adjacency_edges": sorted(sorted(e) for e in pet["edges"]),
        "basis_tensor": divcalc.basis_tensor(),
        "anticanonical_class": ak["class"],
    }
    return {"checks": checks, "data": data}


def section_quartics() -> dict:
    q = divcalc.quartic_system()
    checks = [
        check("quartic_monomials", 35, q["monomial_count"]),
        check("quartic_condition_rank", 21, q["condition_rank"]),
        check("quartic_projective_dimension", 13, q["projective_dimension"]),
        check("quartic_linear_dimension", 14, q["linear_dimension"]),
        check("quartic_discrepancy_flagged", True, q["discrepancy_flag"]),
        check("quadric_square_contained", True, q["quadric_square_contained"]),
        check("single_line_projective_dimension", 29, q["single_line_projective_dimension"]),
    ]
    return {"checks": checks, "data": q}


def section_cones_mori() -> dict:
    checks = []
    mori = conelab.mori_cone()
    deg = {d for r, d in mori["anticanonical_degrees"].items() if d > 0}
    checks.append(check("mori_k_negative_degrees", [1], sorted(deg)))

    orbits = conelab.contraction_orbit_report()
    checks.append(check("mori_k_negative_orbits", [12], [len(o) for o in orbits["k_negative_orbits"]]))
    checks.append(check("mori_k_trivial_orbits", [3, 4, 12], [len(o) for o in orbits["k_trivial_orbits"]]))
    checks.append(check("mori_k_negative_orbit_of_A0xD01", True, orbits["k_negative_is_orbit_of_A0xD01"]))
    checks.append(
        check(
            "mori_k_trivial_orbit_reps",
            {"A0*B1": 12, "A0*B0": 4, "C01*C23": 3},
            orbits["k_trivial_orbit_reps"],
        )
    )

    fv = conelab.mori_f_vector()
    checks.append(check("mori_f_vector", list(EXPECTED_MORI_FVECTOR), fv))

    survey = conelab.all_pair_functionals_report()
    data = {
        "rays": {",".join(names): ray for ray, names in mori["names_by_ray"].items()},
        "pair_survey": survey,
        "f_vector": fv,
        "k_negative_orbits": orbits["k_negative_orbits"],
        "k_trivial_orbits": orbits["k_trivial_orbits"],
    }
    return {"checks": checks, "data": data}


def section_cones_nef() -> dict:
    checks = []
    nef = conelab.nef_cone()
    checks.append(check("nef_histogram", EXPECTED_NEF_HISTOGRAM, nef["histogram"]))
    checks.append(check("nef_duality", True, nef["duality_check"]))
    checks.append(check("anticanonical_in_nef_cone", True, nef["anticanonical_nef"]))
    checks.append(check("anticanonical_in_interior", False, nef["anticanonical_interior"]))

    orbits = conelab.contraction_orbit_report()
    checks.append(check("to_curve_orbits", [1, 8], [len(o) for o in orbits["to_curve_orbits"]]))
    checks.append(check("to_surface_orbits", [1, 2, 8], [len(o) for o in orbits["to_surface_orbits"]]))
    checks.append(check("grass_ray_is_to_curve", True, orbits["grass_ray_is_to_curve"]))
    checks.append(check("grass_ray_invariant", True, orbits["grass_ray_invariant"]))
    checks.append(
        check("surface_reps_in_orbits", {"1": True, "2": True, "8": True},
              {str(k): v for k, v in orbits["surface_rep_in_orbit"].items()})
    )
    sweep = conelab.group_preserves_cones()
    checks.append(check("group_preserves_mori_and_nef", {"mori_preserved": True, "nef_preserved": True}, sweep))
    mk = conelab.multican_nonnegative_on_mori()
    checks.append(check("multican_nonnegative_on_mori", True, mk["multican_nonnegative"]))
    checks.append(
        check("k_trivial_rays_meet_boundary_negatively", True, mk["k_trivial_rays_meet_boundary_negatively"])
    )
    data = {
        "rays": nef["cone"].rays,
        "cubes": {str(i): nef["cube_by_ray"][r] for i, r in enumerate(nef["cone"].rays)},
        "to_curve_orbits": orbits["to_curve_orbits"],
        "to_surface_orbits": orbits["to_surface_orbits"],
    }
    return {"checks": checks, "data": data}


def section_cones_flags() -> dict:
    f = conelab.partial_flag_cones()
    checks = [
        check("flag_section_rays", {"n1": 10, "n1p": 10}, {"n1": f["n1_ray_count"], "n1p": f["n1p_ray_count"]}),
        check("flag_section_facets", {"n1": 10, "n1p": 10}, {"n1": f["n1_facet_count"], "n1p": f["n1p_facet_count"]}),
        check("flag_sections_swapped_by_tau", True, f["tau_swaps_sections"]),
        check("flag_barycenters_match", {"l2": True, "l2p": True},
              {"l2": f["barycenter_matches_l2"], "l2p": f["barycenter_matches_l2p"]}),
        check("flag_l2_cubes", {"l2": 0, "l2p": 0}, {"l2": f["l2_cube"], "l2p": f["l2p_cube"]}),
        check("flag_extra_rays_as_listed", {"n1": True, "n1p": True},
              {"n1": f["n1_rays_are_m1_plus_extra"], "n1p": f["n1p_rays_are_m1p_plus_extra"]}),
        check("flag_x13_ray_invariant", True, f["x13_ray_invariant"]),
        check("flag_restriction_positivity", True, f["restriction_positivity"]),
    ]
    return {"checks": checks, "data": f}


def section_cones_eff() -> dict:
    e = conelab.effective_cone_analysis()
    p = conelab.pairing_checks()
    checks = [
        check("effective_all_generators_extremal", True, e["all_generators_extremal"]),
        check("effective_dual_included_in_moving_dual", True, e["dual_included_in_moving_dual"]),
        check("effective_group_preserves_generators", True, e["group_preserves_generators"]),
        check("k_trivial_face_span_ranks_equal", True, e["span_ranks_equal"]),
        check("pairing_S_gamma1", -1, p["s_dot_gamma1"]),
        check("pairing_H0123_gamma2", -1, p["h0123_dot_gamma2"]),
        check("pairing_gamma1_degrees", True, p["gamma1_degrees_expected"]),
        check("pairing_gamma2_degrees", True, p["gamma2_degrees_expected"]),
    ]
    data = {
        "dual_ray_count": e["dual_ray_count"],
        "gamma1_boundary_degrees": p["gamma1_boundary_degrees"],
        "gamma2_boundary_degrees": p["gamma2_boundary_degrees"],
        "generators": conelab.effective_generators(),
    }
    return {"checks": checks, "data": data}


# command -> (report section key, builder, the options it takes besides
# --out and --golden); the lambdas look the section functions up at call
# time, so a replaced `cli.section_*` is the one run
SECTION_BUILDERS = {
    "fan quotient": ("fan_quotient", lambda samples, seed: section_fan_quotient(), {"export"}),
    "group verify": ("group_verify", lambda samples, seed: section_group_verify(samples, seed), {"seed", "samples"}),
    "intersection table": ("intersection", lambda samples, seed: section_intersection(), {"csv"}),
    "quartics rank": ("quartics", lambda samples, seed: section_quartics(), set()),
    "cones mori": ("cones_mori", lambda samples, seed: section_cones_mori(), {"csv"}),
    "cones nef": ("cones_nef", lambda samples, seed: section_cones_nef(), {"csv"}),
    "cones eff": ("cones_eff", lambda samples, seed: section_cones_eff(), set()),
    "cones flags": ("cones_flags", lambda samples, seed: section_cones_flags(), set()),
}

# acceptance criteria covered by each section of `report all`
CRITERIA_INDEX = {
    "c01_quotient_fan": "fan_quotient",
    "c02_relevance": "fan_quotient",
    "c03_git_subfans": "fan_quotient",
    "c04_polytopes": "fan_quotient",
    "c05_group_relations": "group_verify",
    "c06_derivation_pipeline": "group_verify",
    "c07_image_table": "group_verify",
    "c08_picard_lattice": "intersection",
    "c09_adjacency_solution": "intersection",
    "c10_trilinear_form": "intersection",
    "c11_anticanonical": "intersection",
    "c12_quartic_system": "quartics",
    "c13_mori_cone": "cones_mori",
    "c14_nef_cone": "cones_nef",
    "c15_flag_sections": "cones_flags",
    "c16_effective_cone": "cones_eff",
    "c17_determinism": "meta",
}


def build_report(command: str, samples: int, seed: int) -> dict:
    sections: dict = {}
    stages.self_times.clear()
    # `report all` runs every section in SECTION_BUILDERS order
    commands = list(SECTION_BUILDERS) if command == "report all" else [command]
    for cmd in commands:
        key, builder, _ = SECTION_BUILDERS[cmd]
        sections[key] = stages.timed(cmd, builder, samples, seed)
    all_pass = all(c["pass"] for s in sections.values() for c in s["checks"])
    report = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "samples": samples,
        "sections": _plain(sections),
        "pass": all_pass,
    }
    if command == "report all":
        report["criteria_index"] = dict(CRITERIA_INDEX)
        report["determinism_note"] = (
            "all lattice and cone outputs are seed-independent; sampling uses "
            "the seed above, so equal seeds give byte-identical reports "
            "outside the timings block"
        )
    report["timings"] = {name: round(t, 4) for name, t in stages.self_times.items()}
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# golden comparison


def _strip_volatile(doc):
    return {
        k: v for k, v in doc.items() if k not in ("timings", "version")
    }


def compare_golden(report: dict, golden: dict) -> list[dict]:
    """Structural diff of two reports, ignoring timings and version."""
    diffs: list[dict] = []

    def walk(path, a, b):
        if type(a) is not type(b):
            diffs.append({"path": path, "report": a, "golden": b})
            return
        if isinstance(a, dict):
            for k in sorted(set(a) | set(b)):
                if k not in a or k not in b:
                    diffs.append(
                        {"path": f"{path}/{k}", "report": a.get(k, "<absent>"), "golden": b.get(k, "<absent>")}
                    )
                else:
                    walk(f"{path}/{k}", a[k], b[k])
        elif isinstance(a, list):
            if len(a) != len(b):
                diffs.append({"path": path + "/<length>", "report": len(a), "golden": len(b)})
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}/{i}", x, y)
        elif a != b:
            diffs.append({"path": path, "report": a, "golden": b})

    walk("", _strip_volatile(report), _strip_volatile(golden))
    return diffs


# ---------------------------------------------------------------------------
# csv exports


def intersection_table_csv() -> str:
    lines = ["e,f,g,value"]
    labels = divcalc.LABELS
    t = divcalc.label_tensor()
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            for k, c in enumerate(labels):
                lines.append(f"{a},{b},{c},{t[i][j][k]}")
    return "\n".join(lines) + "\n"


def ray_table_csv(section: dict) -> str:
    rays = section["data"]["rays"]
    if isinstance(rays, dict):
        lines = ["names,ray"]
        for names, ray in sorted(rays.items()):
            lines.append(f"{names}," + " ".join(str(x) for x in ray))
    else:
        lines = ["ray"]
        for ray in rays:
            lines.append(" ".join(str(x) for x in ray))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _parse_args(argv: list[str]):
    opts = {"out": None, "seed": 0, "samples": 100, "golden": None, "export": None, "csv": None}
    given = set()
    words = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--"):
            key = arg[2:]
            if key not in opts:
                raise ValueError(f"unknown option {arg}")
            if key in given:
                raise ValueError(f"option {arg} given twice")
            if i + 1 >= len(argv) or not argv[i + 1]:
                raise ValueError(f"option {arg} needs a value")
            given.add(key)
            value = argv[i + 1]
            opts[key] = int(value) if key in ("seed", "samples") else value
            i += 2
        else:
            words.append(arg)
            i += 1
    return " ".join(words), opts, given


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        command, opts, given = _parse_args(argv)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 2
    if command == "report all":
        takes = {"seed", "samples"}
    elif command in SECTION_BUILDERS:
        takes = SECTION_BUILDERS[command][2]
    else:
        sys.stderr.write(USAGE)
        return 2
    extra = sorted(given - takes - {"out", "golden"})
    if extra:
        sys.stderr.write(f"error: --{extra[0]} does not apply to `{command}`\n")
        return 2
    if opts["samples"] < 1:
        sys.stderr.write("error: --samples must be at least 1\n")
        return 2
    # every file named is distinct, and each output is no directory and
    # lies in a directory that exists
    files = {}
    for key in ("out", "export", "csv", "golden"):
        if opts[key]:
            real = os.path.realpath(opts[key])
            if real in files:
                sys.stderr.write(f"error: --{files[real]} and --{key} name the same file\n")
                return 2
            files[real] = key
            if key == "golden":
                continue
            if os.path.isdir(real):
                sys.stderr.write(f"error: cannot write {opts[key]}: is a directory\n")
                return 2
            if not os.path.isdir(os.path.dirname(real)):
                sys.stderr.write(f"error: cannot write {opts[key]}: no such directory\n")
                return 2
    if opts["golden"]:
        try:
            with open(opts["golden"], "r", encoding="utf-8") as fh:
                golden = json.load(fh)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error reading golden file: {exc}\n")
            return 2
        if not isinstance(golden, dict):
            sys.stderr.write("error reading golden file: not a JSON object\n")
            return 2

    try:
        report = build_report(command, opts["samples"], opts["seed"])
    except Exception as exc:  # internal consistency failure
        import traceback  # only on this path: it loads linecache and tokenize

        path = getattr(exc, "stage_path", ())  # the section, then the stages it ran
        where = f" in stage {path[-1]} (section {path[0]})" if path else ""
        sys.stderr.write(f"internal error{where}:\n" + traceback.format_exc())
        return 2

    writes = []  # (path, text)
    if opts["out"]:
        writes.append((opts["out"], report_to_json(report)))
    else:
        sys.stdout.write(report_to_json(report))
    if opts["export"]:
        writes.append((opts["export"], report["sections"]["fan_quotient"]["data"]["fan_text"]))
    if opts["csv"]:
        if command == "intersection table":
            writes.append((opts["csv"], intersection_table_csv()))
        else:
            writes.append((opts["csv"], ray_table_csv(next(iter(report["sections"].values())))))
    for path, payload in writes:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {path}: {exc.strerror}\n")
            return 2

    failing = [
        f"{key}/{c['name']}"
        for key, section in report["sections"].items()
        for c in section["checks"]
        if not c["pass"]
    ]
    if failing:
        sys.stderr.write(f"{len(failing)} failing check(s): {', '.join(failing)}\n")

    if opts["golden"]:
        diffs = compare_golden(report, golden)
        if diffs:
            sys.stderr.write(f"{len(diffs)} difference(s) against the golden report\n")
            for d in diffs[:20]:
                sys.stderr.write(f"  {d['path']}: {d['report']!r} != {d['golden']!r}\n")
            return 1

    return 1 if failing else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
