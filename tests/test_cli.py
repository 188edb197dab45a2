import json
import os
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from tilefold import cli, conelab, divcalc, stages
from tilefold.conelab import effective_generators, mori_generators, nef_cone

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "goldens", "report_all.json")
# timed calls only the `fan quotient` section reads
FAN_ONLY = {"quotientfan.relevant_pairs", "quotientfan.git_subfans"}


def nef_cone_without_trivial_squares():
    """The nef cone with every square nonzero, so no ray contracts to a curve."""
    nef = nef_cone()
    return {**nef, "square_by_ray": dict.fromkeys(nef["square_by_ray"], (1,))}


def mori_generators_without_ab_diagonal():
    """The curve list less the orbit of the four curves A_i*B_i."""
    return {name: v for name, v in mori_generators().items() if name not in {f"A{i}*B{i}" for i in range(4)}}


def effective_generators_with_anticanonical():
    """The 24 effective generators and the anticanonical class, which is not extremal."""
    return {**effective_generators(), "-K": divcalc.anticanonical()["class"]}


class TestParsing:
    def test_unknown_command(self, capsys):
        assert cli.run(["frob", "nicate"]) == 2

    def test_unknown_option(self):
        assert cli.run(["fan", "quotient", "--frobnicate", "1"]) == 2

    def test_missing_option_value(self):
        assert cli.run(["fan", "quotient", "--out"]) == 2

    def test_empty_option_value_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        for option in ("--golden", "--export", "--csv", "--out"):
            argv = ["quartics", "rank", option, ""]
            if option != "--out":
                argv += ["--out", str(out)]
            assert cli.run(argv) == 2, option
            assert not out.exists()
            assert capsys.readouterr().out == ""

    def test_repeated_option_rejected_before_any_output(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.run(["quartics", "rank", "--out", str(first), "--out", str(second)]) == 2
        assert not first.exists() and not second.exists()
        cases = (("quartics rank", "--golden", GOLDEN_PATH), ("group verify", "--seed", "1"))
        for command, option, value in cases:
            assert cli.run(command.split() + [option, value, option, value]) == 2, option
            assert capsys.readouterr().out == ""

    def test_options_a_command_does_not_take_rejected_before_any_output(self, tmp_path, capsys):
        # each command with each option its table entry does not grant; a
        # --samples that would be invalid is still named as not applying
        out = tmp_path / "r.json"
        values = {"seed": "9", "samples": "-5", "export": str(tmp_path / "f.txt"), "csv": str(tmp_path / "t.csv")}
        cases = [
            (command, option)
            for command, (_, _, takes) in cli.SECTION_BUILDERS.items()
            for option in values
            if option not in takes
        ]
        cases += [("report all", "export"), ("report all", "csv")]
        for command, option in cases:
            argv = command.split() + [f"--{option}", values[option], "--out", str(out)]
            assert cli.run(argv) == 2, (command, option)
            assert list(tmp_path.iterdir()) == []
            out_text, err = capsys.readouterr()
            assert out_text == "" and err == f"error: --{option} does not apply to `{command}`\n"

    def test_sampling_options_rejected_before_any_output(self, tmp_path, capsys):
        # only group verify and report all sample anything
        out = tmp_path / "r.json"
        for command in cli.SECTION_BUILDERS:
            if command == "group verify":
                continue
            for option, value in (("--samples", "-5"), ("--seed", "9"), ("--samples", "100")):
                assert cli.run(command.split() + [option, value, "--out", str(out)]) == 2, command
                assert not out.exists()
                out_text, err = capsys.readouterr()
                assert out_text == "" and err == f"error: {option} does not apply to `{command}`\n"

    def test_samples_zero_invalid(self):
        assert cli.run(["group", "verify", "--samples", "0"]) == 2

    def test_export_only_for_fan(self, tmp_path):
        assert cli.run(["quartics", "rank", "--export", str(tmp_path / "f.txt")]) == 2

    def test_csv_rejected_before_any_output(self, tmp_path):
        # cones eff and flags have no rays table to write
        out = tmp_path / "q.json"
        csv = tmp_path / "q.csv"
        for command in ("quartics rank", "cones eff", "cones flags"):
            assert cli.run(command.split() + ["--out", str(out), "--csv", str(csv)]) == 2, command
            assert not out.exists() and not csv.exists()

    def test_unusable_golden_rejected_before_any_output(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        for content in (None, "{not json", "[]"):
            if content is not None:
                bad.write_text(content)
            assert cli.run(["cones", "mori", "--golden", str(bad)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "golden" in err

    @pytest.mark.parametrize("command, option", [
        ("quartics rank", "--out"),
        ("intersection table", "--csv"),
        ("fan quotient", "--export"),
    ])
    def test_unwritable_output_path_exits_2(self, tmp_path, monkeypatch, capsys, command, option):
        # found before the report is built, and before any file is written
        built = []
        monkeypatch.setattr(cli, "build_report", lambda *args: built.append(args))
        missing = tmp_path / "missing"
        argv = command.split() + [option, str(missing / "x")]
        if option != "--out":
            argv += ["--out", str(tmp_path / "r.json")]
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert f"error: cannot write {missing / 'x'}" in err and "Traceback" not in err
        assert out == "" and built == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option", [
        ("quartics rank", "--out"),
        ("intersection table", "--csv"),
        ("fan quotient", "--export"),
    ])
    def test_output_path_naming_a_directory_exits_2(self, tmp_path, monkeypatch, capsys, command, option):
        # found before the report is built, and before --out is written
        built = []
        monkeypatch.setattr(cli, "build_report", lambda *args: built.append(args))
        directory = tmp_path / "d"
        directory.mkdir()
        argv = command.split() + [option, str(directory)]
        if option != "--out":
            argv += ["--out", str(tmp_path / "r.json")]
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"error: cannot write {directory}: is a directory\n"
        assert out == "" and built == []
        assert list(tmp_path.iterdir()) == [directory] and list(directory.iterdir()) == []

    @pytest.mark.parametrize("command, first, second", [
        ("quartics rank", "--out", "--golden"),
        ("fan quotient", "--out", "--export"),
        ("intersection table", "--out", "--csv"),
    ])
    def test_two_options_naming_one_file_rejected_before_any_output(
        self, tmp_path, monkeypatch, capsys, command, first, second
    ):
        # the report would overwrite a golden it differs from, or the last
        # output written would replace the other; the second option names
        # the file through a symbolic link
        built = []
        monkeypatch.setattr(cli, "build_report", lambda *args: built.append(args))
        target, golden = tmp_path / "f.json", '{"seed": 999}'
        if second == "--golden":
            target.write_text(golden)
        (tmp_path / "link").symlink_to(target)
        assert cli.run(command.split() + [first, str(target), second, str(tmp_path / "link")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and built == []
        assert err == f"error: {first} and {second} name the same file\n"
        if second == "--golden":
            assert target.read_text() == golden
        else:
            assert not target.exists()


class TestReports:
    def test_quartics_report(self, tmp_path):
        out = tmp_path / "q.json"
        assert cli.run(["quartics", "rank", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        checks = {c["name"]: c for c in doc["sections"]["quartics"]["checks"]}
        assert checks["quartic_projective_dimension"]["computed"] == 13
        assert doc["sections"]["quartics"]["data"]["reference_dimension"] == 14
        assert checks["quartic_discrepancy_flagged"]["pass"]
        assert doc["pass"] is True

    def test_fan_quotient_with_export(self, tmp_path):
        out = tmp_path / "fan.json"
        exported = tmp_path / "fan.txt"
        assert cli.run([
            "fan", "quotient", "--out", str(out), "--export", str(exported)
        ]) == 0
        doc = json.loads(out.read_text())
        assert exported.read_text() == doc["sections"]["fan_quotient"]["data"]["fan_text"]

    def test_intersection_csv(self, tmp_path):
        out = tmp_path / "t.json"
        csv = tmp_path / "t.csv"
        assert cli.run([
            "intersection", "table", "--out", str(out), "--csv", str(csv)
        ]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "e,f,g,value"
        assert len(lines) == 1 + 20 ** 3
        doc = json.loads(out.read_text())
        tensor = doc["sections"]["intersection"]["data"]["basis_tensor"]
        assert len(tensor) == 12 and len(tensor[0][0]) == 12

    def test_nef_report_histogram(self, tmp_path):
        out = tmp_path / "nef.json"
        assert cli.run(["cones", "nef", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        checks = {c["name"]: c for c in doc["sections"]["cones_nef"]["checks"]}
        assert checks["nef_histogram"]["computed"] == {
            "0": 20, "1": 6, "2": 24, "4": 6, "5": 48,
            "14": 6, "16": 15, "18": 16, "22": 48,
        }

    def test_anticanonical_record_in_report_all(self):
        rep = cli.build_report("report all", samples=10, seed=0)
        checks = {
            c["name"]: c
            for s in rep["sections"].values()
            for c in s["checks"]
        }
        assert checks["anticanonical_cube"]["expected"] == 12
        assert checks["anticanonical_cube"]["pass"]
        assert rep["pass"] is True
        # every acceptance criterion is indexed exactly once
        assert len(rep["criteria_index"]) == 17
        assert sorted(rep["criteria_index"]) == [f"c{i:02d}" + k for i, k in enumerate([
            "_quotient_fan", "_relevance", "_git_subfans", "_polytopes",
            "_group_relations", "_derivation_pipeline", "_image_table",
            "_picard_lattice", "_adjacency_solution", "_trilinear_form",
            "_anticanonical", "_quartic_system", "_mori_cone", "_nef_cone",
            "_flag_sections", "_effective_cone", "_determinism",
        ], start=1)]

    def test_check_names_are_unique_across_sections(self):
        # perfbench's judge reads checks by name alone, and the list of
        # failing checks on stderr names them, so a name picks out one check
        rep = cli.build_report("report all", samples=10, seed=0)
        names = Counter(c["name"] for s in rep["sections"].values() for c in s["checks"])
        assert [n for n, k in names.items() if k > 1] == []


class TestGoldenComparison:
    def test_report_vs_itself(self):
        rep = cli.build_report("quartics rank", samples=10, seed=0)
        assert cli.compare_golden(rep, rep) == []

    def test_flipped_bit_detected(self):
        rep = cli.build_report("quartics rank", samples=10, seed=0)
        other = json.loads(json.dumps(rep))
        other["sections"]["quartics"]["checks"][0]["pass"] = False
        diffs = cli.compare_golden(rep, other)
        assert len(diffs) == 1
        assert diffs[0]["path"].endswith("/pass")

    def test_timings_and_version_ignored(self):
        rep = cli.build_report("quartics rank", samples=10, seed=0)
        other = json.loads(json.dumps(rep))
        other["timings"] = {"quartics rank": 999.0}
        other["version"] = "different"
        assert cli.compare_golden(rep, other) == []

    def test_golden_exit_codes(self, tmp_path):
        out = tmp_path / "r.json"
        golden = tmp_path / "g.json"
        assert cli.run(["quartics", "rank", "--out", str(out)]) == 0
        golden.write_text(out.read_text())
        assert cli.run(["quartics", "rank", "--golden", str(golden), "--out", str(out)]) == 0
        doc = json.loads(golden.read_text())
        doc["seed"] = 999
        golden.write_text(json.dumps(doc))
        assert cli.run(["quartics", "rank", "--golden", str(golden), "--out", str(out)]) == 1
        golden.write_text("{not json")
        assert cli.run(["quartics", "rank", "--golden", str(golden), "--out", str(out)]) == 2

    def test_failing_report_exits_1_even_when_golden_matches(self, tmp_path, monkeypatch):
        failing = {"checks": [cli.check("forced_mismatch", 1, 2)], "data": {}}
        monkeypatch.setattr(cli, "section_quartics", lambda: failing)
        out = tmp_path / "r.json"
        assert cli.run(["quartics", "rank", "--out", str(out)]) == 1
        again = tmp_path / "again.json"
        assert cli.run(["quartics", "rank", "--golden", str(out), "--out", str(again)]) == 1

    def test_failing_checks_named_on_stderr(self, tmp_path, monkeypatch, capsys):
        failing = {
            "checks": [cli.check("forced_mismatch", 1, 2), cli.check("still_fine", 3, 3)],
            "data": {},
        }
        monkeypatch.setattr(cli, "section_quartics", lambda: failing)
        assert cli.run(["quartics", "rank", "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "quartics/forced_mismatch" in err
        assert "still_fine" not in err

    @pytest.mark.parametrize("command, name, patched, failing", [
        # every nef ray classified as it would be without a trivial square
        ("cones nef", "nef_cone", nef_cone_without_trivial_squares, "cones_nef/to_curve_orbits"),
        # a ray the group moves in place of the invariant X13 ray
        ("cones flags", "FLAG_X13_RAY", ("A0",), "cones_flags/flag_x13_ray_invariant"),
        # a curve list missing one orbit still gives a cone the group permutes
        ("cones mori", "mori_generators", mori_generators_without_ab_diagonal, "cones_mori/mori_f_vector"),
        ("cones mori", "mori_generators", mori_generators_without_ab_diagonal, "cones_mori/mori_k_trivial_orbits"),
        ("cones nef", "mori_generators", mori_generators_without_ab_diagonal, "cones_nef/nef_histogram"),
        # an invariant generator inside the cone
        ("cones eff", "effective_generators", effective_generators_with_anticanonical,
         "cones_eff/effective_all_generators_extremal"),
    ])
    def test_wrong_paper_value_fails_its_check(self, tmp_path, monkeypatch, capsys, command, name, patched, failing):
        monkeypatch.setattr(conelab, name, patched)
        stages.clear()
        try:
            code = cli.run(command.split() + ["--out", str(tmp_path / "r.json")])
        finally:
            monkeypatch.undo()
            stages.clear()
        err = capsys.readouterr().err
        assert code == 1, err
        assert failing in err and "Traceback" not in err

    def test_internal_error_prints_traceback(self, tmp_path, monkeypatch, capsys):
        from tilefold import divcalc

        def broken_quartic_system():
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(divcalc, "quartic_system", broken_quartic_system)
        out = tmp_path / "r.json"
        assert cli.run(["quartics", "rank", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "section_quartics" in err and "broken_quartic_system" in err
        assert "RuntimeError: invariant broken" in err
        assert not out.exists()

    def test_value_without_an_exact_json_form_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        # a Fraction is not written as its str(), nor is any other object
        section = {"checks": [cli.check("still_fine", 3, 3)], "data": {"ratio": Fraction(1, 3)}}
        monkeypatch.setattr(cli, "section_quartics", lambda: section)
        out = tmp_path / "r.json"
        assert cli.run(["quartics", "rank", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("internal error") and "TypeError: a Fraction" in err
        assert not out.exists()

    def test_internal_error_names_its_stage_and_section(self, tmp_path, monkeypatch, capsys):
        from tilefold import divcalc

        def broken_rank(rows):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(divcalc, "rational_rank", broken_rank)
        stages.clear(divcalc.quartic_system)
        assert cli.run(["quartics", "rank", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "internal error in stage divcalc.quartic_system (section quartics rank):\n"
        ), err
        assert "broken_rank" in err

    def test_shipped_golden_matches_fresh_run(self):
        assert os.path.exists(GOLDEN_PATH), "golden report must ship with the repo"
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        stages.clear()
        fresh = cli.build_report("report all", samples=100, seed=0)
        assert cli.compare_golden(fresh, golden) == []
        # a self time for each section and for each kept stage, as every stage
        # ran; the timed calls that are not kept have one too
        ran = set(stages._results)
        assert "conelab.nef_cone" in ran
        assert set(fresh["timings"]) >= set(cli.SECTION_BUILDERS) | ran


class TestDeterminism:
    def test_seed_changes_only_sampling_sections(self):
        a = cli.build_report("quartics rank", samples=10, seed=0)
        b = cli.build_report("quartics rank", samples=10, seed=1)
        a["seed"] = b["seed"] = 0
        assert cli.compare_golden(a, b) == []

    def test_same_seed_same_bytes(self):
        a = cli.build_report("group verify", samples=20, seed=3)
        b = cli.build_report("group verify", samples=20, seed=3)
        ja = json.dumps({k: v for k, v in a.items() if k != "timings"}, sort_keys=True)
        jb = json.dumps({k: v for k, v in b.items() if k != "timings"}, sort_keys=True)
        assert ja == jb


class TestWork:
    def test_cones_sections_act_through_the_generators(self, monkeypatch):
        # every class or curve image the four cones sections ask for; applying
        # all 48 matrices to every ray took 18,404, the generators take 3,164
        from tilefold import conelab, divcalc

        calls = Counter()

        def counted(name):
            real = getattr(divcalc, name)

            def action(g, v):
                calls[name] += 1
                return real(g, v)

            return action

        for name in ("act_on_class", "act_on_curve"):
            action = counted(name)
            for mod in (divcalc, conelab):
                monkeypatch.setattr(mod, name, action)

        stages.clear()
        for builder in (cli.section_cones_mori, cli.section_cones_nef,
                        cli.section_cones_eff, cli.section_cones_flags):
            builder()
        assert sum(calls.values()) < 4000, calls

    def test_report_all_runs_each_stage_once(self, monkeypatch):
        # `timings` has one entry per stage or timed call that ran
        runs = Counter()
        timed = stages.timed

        def counted(name, fn, *args):
            runs[name] += 1
            return timed(name, fn, *args)

        monkeypatch.setattr(stages, "timed", counted)
        stages.clear()
        report = cli.build_report("report all", samples=10, seed=0)
        assert {name: n for name, n in runs.items() if n != 1} == {
            "tilegroup.derivation_agreement": 4  # once per generator
        }
        assert set(report["timings"]) == set(runs)
        assert FAN_ONLY <= set(runs)

    def test_fan_section_keeps_no_fan_only_results(self):
        # the relevance pairs and GIT subfans die with their section, so they
        # are not held through the Mori walk
        cli.section_fan_quotient()
        assert not FAN_ONLY & set(stages._results)

    def test_mori_f_vector_holds_one_level_of_faces(self):
        # a level holds each face it met with its tight and walked masks: with
        # the cone built first, the walk alone peaks at 1.14 MB (1.09 MB when
        # a level held the faces it met and one key per orbit); carrying each
        # representative's packed images into the next level took 2.14 MB,
        # every image of every orbit on a level 4.6 MB, and all 189,780 faces
        # at once 20 MB
        from tilefold import conelab

        conelab.mori_cone()
        stages.clear(conelab.mori_f_vector)
        tracemalloc.start()
        try:
            fvector = conelab.mori_f_vector()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fvector == cli.EXPECTED_MORI_FVECTOR
        assert peak < 1.6e6, f"{peak / 1e6:.2f} MB"

    def test_mori_walk_packs_images_once_per_orbit(self, monkeypatch):
        # the certificate packs the images of each facet once and the walk
        # those of each orbit's representative once: 189 + 4,925 calls, where
        # taking the least image of every face met took 23,336
        from tilefold import conelab, divcalc, polyhedra

        cone = conelab.mori_cone()["cone"]
        perms = divcalc.ray_permutations(cone.rays, divcalc.act_on_curve)
        calls = 0
        packed_images = polyhedra._packed_images

        def counted(images, mask):
            nonlocal calls
            calls += 1
            return packed_images(images, mask)

        monkeypatch.setattr(polyhedra, "_packed_images", counted)
        orbits = polyhedra.face_lattice_raysets(cone, perms)
        assert calls <= len(cone.facets) + len(orbits), calls
