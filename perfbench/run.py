"""tilefold benchmark: cold `report all`, group sampling and random cones.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tilefold checkout.  NAME is one of WORKLOADS or
`all`.  Every job is a fresh interpreter started by child.py, one at a time,
and the program is measured from outside it; nothing under src/ is changed.

--trace 0 repeats the workload's job for about S seconds (at least once) and
reports the end-to-end metrics: medians over jobs, with set-up time also
sampled from extra interpreters that only import the package.
--trace 1 runs the job once under tracer.py (and once untraced, except for
`report_all`, whose untraced reference is the golden report) and reports
the per-layer metrics: calls and self time per function and per module,
work counters, and the tracing overhead.  It also checks that the traced
output matches the untraced one, that every wrapper expected on the
workload fired, and that self times add up to the traced time.

The verdict never trusts the program's exit code: reports are parsed and
every check is recounted, `report all` is diffed against the golden report,
and random cones are cross-checked by cones.check_cone.  Human-readable
lines go first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "goldens", "report_all.json")
CHILD = os.path.join(HERE, "child.py")

GROUP_SAMPLES = 200  # `group verify --samples`: twice the CLI default, ~4 s a job
CONES_PER_JOB = 102  # 17 of each shape in cones.SHAPES; >= 10 cones beyond p90
SETUP_SPAWNS = 5  # import-only interpreters per measured run
JOB_TIMEOUT_S = 170
SELF_SUM_TOLERANCE = 0.03

WORKLOADS = {
    "report_all": "north-star command; Mori face lattice and effective-cone LPs are ~93% of it",
    "group_verify": "Fraction matrix exp/LU/log sampling in tilegroup; bypasses the polyhedral layer",
    "random_cones": "generic pointed cones d=5..7 through DD, face lattices and LP; no group symmetry",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "samples_per_s": "1/s",
}

# Functions whose calls and self time are reported, by module.
LAYER_FUNCS = {
    "polyhedra": ("face_lattice_raysets", "lp_in_cone", "Cone.from_rays",
                  "Cone.from_inequalities", "Cone.contains", "check_fan"),
    "exactlat": ("rational_rank", "hermite_normal_form", "solve_rational", "integer_kernel"),
    "tilegroup": ("derive_generator_pointwise", "evaluate", "evaluate_word",
                  "verify_subvariety_image", "full_group"),
    "conelab": ("mori_cone", "mori_f_vector", "nef_cone", "classify_contractions",
                "contraction_orbit_report", "all_pair_functionals_report",
                "effective_cone_analysis", "partial_flag_cones", "group_preserves_cones"),
    "quotientfan": ("chart_quotient_fan", "relevant_pairs", "git_subfans"),
    "divcalc": ("picard_lattice", "solve_petersen", "label_tensor", "act_on_class", "act_on_curve"),
    "cli": ("section_fan_quotient", "section_group_verify", "section_intersection",
            "section_quartics", "section_cones_mori", "section_cones_nef",
            "section_cones_eff", "section_cones_flags", "report_to_json"),
}
LAYER_EXTRA = {
    "polyhedra.face_lattice_raysets.faces": "count",
    "polyhedra.face_lattice_raysets.faces_per_s": "1/s",
    "tilegroup.sample_retries": "count",
    "random_cones.cones_per_s": "1/s",
    "random_cones.cone_p50_ms": "ms",
    "random_cones.cone_p90_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",  # spans x calibrated cost of one span
    "trace.self_sum_frac": "frac",
    "trace.spans": "count",
}

# Wrappers that must fire on each workload; report_all reaches them all.
MUST_FIRE = {
    "report_all": [f"{m}.{f}" for m, fs in LAYER_FUNCS.items() for f in fs],
    "group_verify": [f"tilegroup.{f}" for f in LAYER_FUNCS["tilegroup"]]
    + ["cli.section_group_verify", "cli.report_to_json"],
    "random_cones": ["polyhedra.face_lattice_raysets", "polyhedra.lp_in_cone",
                     "polyhedra.Cone.from_rays", "polyhedra.Cone.from_inequalities",
                     "polyhedra.Cone.contains", "exactlat.rational_rank"],
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, funcs in LAYER_FUNCS.items():
        for f in funcs:
            units[f"{mod}.{f}.calls"] = "count"
            units[f"{mod}.{f}.self_s"] = "s"
    for mod in LAYER_FUNCS:
        units[f"{mod}.self_s"] = "s"
    units.update(LAYER_EXTRA)
    return units


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One child interpreter: its timings, peak memory and result file."""

    def __init__(self, spec: dict, tmp: str, spans: str | None = None):
        out = os.path.join(tmp, "result.json")
        err = os.path.join(tmp, "stderr.txt")
        for path in (out, spans):
            if path and os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, CHILD, ROOT, json.dumps(spec), out] + ([spans] if spans else [])
        with open(err, "wb") as err_fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err_fh, cwd=ROOT)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.wall_s = t1 - t0
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        with open(err, "r", encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()
        self.result = {}
        if self.exit_code == 0 and os.path.exists(out):
            with open(out, "r", encoding="utf-8") as fh:
                self.result = json.load(fh)
        self.setup_s = self.result["ready"] - t0 if "ready" in self.result else None
        self.report = None


def job_spec(workload: str, seed: int, samples: int, cones: int, tmp: str) -> dict:
    report = os.path.join(tmp, "report.json")
    if workload == "report_all":
        return {"kind": "cli", "argv": ["report", "all", "--seed", str(seed), "--out", report]}
    if workload == "group_verify":
        return {"kind": "cli", "argv": ["group", "verify", "--samples", str(samples),
                                        "--seed", str(seed), "--out", report]}
    return {"kind": "cones", "seed": seed, "count": cones}


def run_job(workload: str, spec: dict, tmp: str, spans: str | None = None) -> Job:
    job = Job(spec, tmp, spans)
    if spec["kind"] == "cli":
        path = spec["argv"][spec["argv"].index("--out") + 1]
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                job.report = json.load(fh)
            os.remove(path)
    return job


# ---------------------------------------------------------------------------
# correctness


def diff_paths(a, b, path="") -> list[str]:
    """Paths where two JSON documents differ.

    Kept apart from cli.compare_golden so that the judge does not rest on
    the code it judges.
    """
    if type(a) is not type(b):
        return [path or "/"]
    if isinstance(a, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{path}/{k}")
            else:
                out.extend(diff_paths(a[k], b[k], f"{path}/{k}"))
        return out
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}/<length>"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_paths(x, y, f"{path}/{i}"))
        return out
    return [] if a == b else [path or "/"]


def comparable(report: dict, seed_dependent: bool) -> dict:
    """A report without the keys golden comparison must ignore."""
    doc = {k: v for k, v in report.items() if k not in ("timings", "version")}
    if seed_dependent:
        doc.pop("seed", None)
        doc["sections"] = dict(doc.get("sections", {}))
        group = dict(doc["sections"].get("group_verify", {}))
        data = {k: v for k, v in group.get("data", {}).items()
                if k not in ("derivations", "image_chain")}
        group["data"] = data
        doc["sections"]["group_verify"] = group
    return doc


def judge_cli(workload: str, job: Job, golden: dict, seed: int, samples: int) -> tuple[int, list[str]]:
    """(operations attempted, names of failed operations) for one CLI report.

    The operations are the checks the golden report names for this command,
    recounted from expected/computed, plus one for the report as a whole:
    exit code, `pass` flag and, for `report all`, the golden diff.
    """
    sections = golden["sections"] if workload == "report_all" else {
        "group_verify": golden["sections"]["group_verify"]}
    names = [c["name"] for s in sections.values() for c in s["checks"]]
    attempted = len(names) + 1
    report = job.report
    if report is None:
        return attempted, [f"no report (exit {job.exit_code}): {job.stderr.strip()[-300:]}"]
    got = {c["name"]: c for s in report.get("sections", {}).values() for c in s.get("checks", [])}
    failed = []
    for name in names:
        c = got.get(name)
        if c is None:
            failed.append(f"{name}: missing")
        elif c["expected"] != c["computed"] or c["pass"] is not True:
            failed.append(f"{name}: expected {c['expected']!r}, computed {c['computed']!r}")
    whole = []
    if job.exit_code != 0 or job.result.get("rc") != 0:
        whole.append(f"exit code {job.result.get('rc', job.exit_code)}")
    if report.get("pass") is not (not failed):
        whole.append(f"pass flag {report.get('pass')!r} with {len(failed)} failed checks")
    if workload == "report_all":
        diffs = diff_paths(comparable(report, seed != 0), comparable(golden, seed != 0))
        if diffs:
            whole.append(f"{len(diffs)} golden differences, first {diffs[:5]}")
    else:
        data = report.get("sections", {}).get("group_verify", {}).get("data", {})
        counts = [d["samples"] for d in data.get("derivations", {}).values()]
        chain = [c["samples"] for c in data.get("image_chain", [])]
        if counts != [samples] * 4 or chain != [max(10, samples // 4)] * 16:
            whole.append(f"sample counts {counts} / {chain}")
    if whole:
        failed.append("report: " + "; ".join(whole))
    return attempted, failed


def group_samples(report: dict, samples: int) -> tuple[int, int]:
    """(points verified, samples redrawn): derivation and image-chain
    `samples` plus 9 relation words x samples; retries are degenerate
    derivation samples plus base-locus hits of the image chain."""
    data = report["sections"]["group_verify"]["data"]
    derivations = data["derivations"].values()
    chain = data["image_chain"]
    verified = sum(d["samples"] for d in derivations) + sum(c["samples"] for c in chain) + 9 * samples
    retries = sum(d["degenerate_skipped"] for d in derivations) + sum(c["base_locus_hits"] for c in chain)
    return verified, retries


def judge_cones(job: Job, cones_count: int) -> tuple[int, list[str]]:
    """(cones attempted, failures), plus one operation: some points fell inside."""
    r = job.result
    if "cones" not in r:
        return cones_count + 1, [f"job failed (exit {job.exit_code}): {job.stderr.strip()[-300:]}"]
    failed = list(r["failures"])
    if r["inside_points"] == 0:
        failed.append("no membership point fell inside any cone")
    return r["cones"] + 1, failed


# ---------------------------------------------------------------------------
# measurement


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, scale: float, tmp: str):
        self.workload, self.seed, self.seconds, self.tmp = workload, seed, seconds, tmp
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            self.golden = json.load(fh)
        # `report all` samples with the CLI default of 100
        self.samples = max(1, round(GROUP_SAMPLES * scale)) if workload == "group_verify" else 100
        self.spec = job_spec(workload, seed, self.samples, max(1, round(CONES_PER_JOB * scale)), tmp)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, failure: str) -> None:
        """Count one operation of the benchmark's own: a set-up or trace check."""
        self.attempted += 1
        if not ok:
            self.failures.append(failure)

    def job(self, spans: str | None = None) -> Job:
        job = run_job(self.workload, self.spec, self.tmp, spans)
        if self.workload == "random_cones":
            attempted, failed = judge_cones(job, self.spec["count"])
        else:
            attempted, failed = judge_cli(self.workload, job, self.golden, self.seed, self.samples)
        self.attempted += attempted
        self.failures += failed
        return job

    def items(self, job: Job) -> int:
        """Sampled points verified by one job."""
        if self.workload == "random_cones":
            return job.result.get("points", 0)
        try:
            return group_samples(job.report, self.samples)[0]
        except (KeyError, TypeError):  # no or malformed report: judged as failed
            return 0

    def measure(self) -> dict:
        setups = []
        for _ in range(SETUP_SPAWNS):
            s = Job({"kind": "setup"}, self.tmp)
            self.check(s.setup_s is not None, f"set-up interpreter failed: {s.stderr.strip()[-300:]}")
            if s.setup_s is not None:
                setups.append(s.setup_s)
        jobs = []
        start = time.monotonic()
        while not jobs or time.monotonic() - start + jobs[-1].wall_s <= self.seconds:
            jobs.append(self.job())
        setups += [j.setup_s for j in jobs if j.setup_s is not None]
        ok = [j for j in jobs if j.setup_s is not None]
        failed = len(self.failures)
        m = {
            "wall_s": statistics.median(j.wall_s for j in jobs),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": max(j.peak_rss_mb for j in jobs),
            "pass_frac": (self.attempted - failed) / self.attempted,
            "samples_per_s": statistics.median(
                self.items(j) / (j.wall_s - j.setup_s) for j in ok) if ok else 0.0,
        }
        print(f"jobs: {len(jobs)}, walls {[round(j.wall_s, 3) for j in jobs]}, "
              f"set-up samples {len(setups)}")
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in m.items()}

    def trace(self) -> dict:
        from tracer import read_spans, self_times

        spans_path = os.path.join(self.tmp, "spans.bin")
        # The untraced reference the traced output must match: a second job,
        # except for `report all`, whose reference is the golden report that
        # judge_cli already diffs every job against.
        ref = None if self.workload == "report_all" else self.job()
        traced = self.job(spans_path)
        units = per_layer_units()
        m = {k: 0.0 for k in units}
        spans, stats, failure = None, None, ""
        if not os.path.exists(spans_path) or "run_s" not in traced.result:
            failure = f"traced job failed: {traced.stderr.strip()[-300:]}"
        else:
            spans = read_spans(spans_path)
            try:
                stats = self_times(spans)
            except ValueError as exc:
                failure = f"trace: {exc}"
            if spans["open"]:
                failure = f"trace: {spans['open']} spans left open"
        self.check(not failure, failure)
        if failure:
            return {k: {"value": v, "unit": units[k]} for k, v in m.items()}
        for name, st in stats.items():
            mod = name.split(".")[0]
            m[f"{mod}.self_s"] += st["self_s"]
            if f"{name}.calls" in m:
                m[f"{name}.calls"] = st["calls"]
                m[f"{name}.self_s"] = st["self_s"]
        faces = spans["counters"].get("polyhedra.face_lattice_raysets.faces", 0)
        m["polyhedra.face_lattice_raysets.faces"] = faces
        fl_self = stats.get("polyhedra.face_lattice_raysets", {}).get("self_s", 0.0)
        m["polyhedra.face_lattice_raysets.faces_per_s"] = faces / fl_self if fl_self else 0.0

        # the checks on the trace itself
        silent = [f for f in MUST_FIRE[self.workload] if stats.get(f, {}).get("calls", 0) == 0]
        self.check(not silent, f"trace: wrappers never fired: {silent}")
        if self.workload == "random_cones":
            covered = sum(traced.result["latencies"])
            self.check(traced.result.get("digests") == ref.result.get("digests"),
                       "trace: traced cone results differ from untraced ones")
        else:
            covered = traced.result["run_s"]
            if ref is not None:
                self.check(ref.report is not None and traced.report is not None and not diff_paths(
                    comparable(traced.report, False), comparable(ref.report, False)),
                    "trace: traced report differs from the untraced one")
        self_sum = sum(st["self_s"] for st in stats.values())
        m["trace.self_sum_frac"] = self_sum / covered
        self.check(abs(self_sum / covered - 1) <= SELF_SUM_TOLERANCE,
                   f"trace: self times sum to {self_sum:.3f} s of {covered:.3f} s traced")
        m["trace.wall_s"] = traced.result["run_s"]
        cost = spans["count"] * traced.result["span_cost_s"]
        m["trace.overhead_frac"] = cost / (traced.result["run_s"] - cost)
        m["trace.spans"] = spans["count"]

        if self.workload != "random_cones" and traced.report is not None:
            try:
                m["tilegroup.sample_retries"] = group_samples(traced.report, self.samples)[1]
            except (KeyError, TypeError):  # malformed report: judged as failed
                pass
        if ref is not None and "latencies" in ref.result:
            lat = ref.result["latencies"]
            m["random_cones.cones_per_s"] = len(lat) / (ref.wall_s - ref.setup_s)
            m["random_cones.cone_p50_ms"] = 1000 * statistics.median(lat)
            m["random_cones.cone_p90_ms"] = 1000 * statistics.quantiles(lat, n=10)[-1]
        top = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:8]
        print("top self time: " + ", ".join(
            f"{k} {v['self_s']:.2f}s/{v['calls']}" for k, v in top))
        return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def machine() -> dict:
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as fh:
            load = fh.read().split()[:3]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_at_start": load,
    }


def run_workload(workload: str, args, tmp: str) -> dict:
    runner = Runner(workload, args.seed, args.seconds, args.scale, tmp)
    metrics = runner.trace() if args.trace else runner.measure()
    for f in runner.failures[:20]:
        print(f"FAILED {workload}: {f}", file=sys.stderr)
    failed = len(runner.failures)
    for name, mv in metrics.items():
        print(f"  {workload:13s} {name:45s} {mv['value']:>14.6g} {mv['unit']}")
    print(f"  {workload:13s} verdict: {'correct' if not failed else 'INCORRECT'}, "
          f"{failed} failed of {runner.attempted} attempted")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink group_verify samples and random_cones count (smoke test)")
    args = ap.parse_args(argv)
    missing = [p for p in (os.path.join(ROOT, "src", "tilefold", "cli.py"), GOLDEN)
               if not os.path.exists(p)]
    if missing:
        print(f"error: not a tilefold checkout, missing {missing}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine()))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args, tmp) for w in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
