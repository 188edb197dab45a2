"""One benchmark job in a fresh interpreter; started by run.py, one at a time.

usage: python3 child.py ROOT SPEC_JSON OUT_JSON [SPANS_FILE]

The job imports tilefold from ROOT/src (the package is not installed),
records the moment it is ready to make its first call, runs the job and
writes a small JSON result to OUT_JSON.  With SPANS_FILE the tracer wraps
the program before the job starts and writes its spans there at the end.
Nothing is imported before tilefold that the program would not load itself,
so the ready time is interpreter start plus `import tilefold.cli`.
"""

import json
import sys
import time


def _run_cones(spec: dict) -> dict:
    import cones
    from tilefold import polyhedra

    todo = cones.make_cones(spec["seed"], spec["count"])
    latencies, failures, digests = [], [], []
    inside = 0
    for i, cone in enumerate(todo):
        t0 = time.perf_counter()
        try:
            out = cones.run_cone(polyhedra, cone)
        except Exception:  # a failing cone is counted, not fatal
            import traceback

            latencies.append(time.perf_counter() - t0)
            failures.append(f"cone {i}: {traceback.format_exc()}")
            digests.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        failed = cones.check_cone(cone, out)
        if failed:
            failures.append(f"cone {i}: " + ", ".join(failed))
        inside += sum(1 for got, _, _ in out["member"] if got)
        digests.append([list(out["fv"]), [m[0] for m in out["member"]]])
    points = sum(len(c["points"]) for c in todo)
    return {
        "cones": len(todo),
        "points": points,
        "inside_points": inside,
        "latencies": latencies,
        "failures": failures,
        "digests": digests,
    }


def main() -> int:
    root, spec_json, out_path = sys.argv[1:4]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    spec = json.loads(spec_json)
    sys.path.insert(0, f"{root}/src")
    import tilefold.cli

    ready = time.monotonic()
    result = {"ready": ready}
    if spec["kind"] != "setup":
        sys.path.insert(1, f"{root}/perfbench")
        tracer = None
        if spans_path:
            from tracer import Tracer, span_cost

            result["span_cost_s"] = span_cost()
            tracer = Tracer()
            tracer.install(tilefold)
        t0 = time.perf_counter()
        if spec["kind"] == "cli":
            result["rc"] = tilefold.cli.run(spec["argv"])
        else:
            result.update(_run_cones(spec))
        result["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.write(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
