"""Check the tracer: known counts on tiny inputs, then repeatability.

    python3 perfbench/check_trace.py

1. Runs one tiny command of each kind in process under the tracer and
   compares the counts with the ones known from reading the code at the
   commit that defined the benchmark: an analytic flat point builds 3
   SphereGrids and 2 sections (full and half resolution), a file point 1
   section, and a ray makes at least one shoot per world-function call.
   A count that differs means either the wrapping missed a binding or the
   code changed on purpose; the message says which count moved.
2. Runs the traced benchmark twice per workload with seed SEED and
   requires identical counts, span coverage of at least 0.9 per command,
   and prints the tracing overhead.

Exits 1 when a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COVERAGE_BAR = 0.9
SEED = 1


def known_counts(seed):
    import run
    run._bootstrap()
    import shutil

    from conerec import cli
    from spans import POINT_SCOPES, Tracer
    from workloads import FRAME_STEPS, CurvedTransport, FlatPoints, _interior_point

    workdir = run.OUT_DIR / "check-trace"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = []
    try:
        flat = FlatPoints(seed=seed, workdir=str(workdir))
        flat.prepare()
        transport = CurvedTransport(seed=seed, workdir=str(workdir))
        rng = flat.rng(0)
        point = [_interior_point(rng, flat.p0)]
        cases = [
            ("analytic flat point", flat._reconstruct("k0", 2, point, None, (8, 16), 1e-3),
             {"grids_per_point": 3, "sections_per_point": 2}),
            ("file flat point", flat._reconstruct("k1", 1, point, flat._tiny, (8, 16), 1e-2),
             {"grids_per_point": 2, "sections_per_point": 1, "loads": 1}),
            ("ray", transport._transport("k2", transport._ray(rng), transport.CHART, 1,
                                         FRAME_STEPS, rng),
             {"shoots_at_least_world_functions": True}),
        ]
        for label, command, expected in cases:
            tracer = Tracer()
            main = tracer.install(cli)
            try:
                passed, _, message, _ = run.run_command(main, command)
            finally:
                tracer.uninstall()
            if not passed:
                failures.append(f"{label}: command failed: {message}")
                continue
            points = sum(tracer.stats[s][0] for s in POINT_SCOPES)
            got = {}
            if points:
                got["grids_per_point"] = tracer.scoped_sum(POINT_SCOPES, "cone.SphereGrid") / points
                got["sections_per_point"] = (tracer.scoped_sum(POINT_SCOPES, "cone.build_section")
                                             / points)
            if "loads" in expected:
                got["loads"] = tracer.stats["nulldata.load_cone_data"][0]
            if "shoots_at_least_world_functions" in expected:
                shoots = tracer.stats["transport.kernels.shoot_endpoint"][0]
                wf = tracer.stats["transport.world_function"][0]
                got["shoots_at_least_world_functions"] = wf > 0 and shoots >= wf
            for key, want in expected.items():
                status = "ok" if got.get(key) == want else "MOVED"
                print(f"  {label:20s} {key:34s} expected {want!s:6s} got {got.get(key)}"
                      f"  {status}")
                if status != "ok":
                    failures.append(f"{label}: {key} is {got.get(key)}, expected {want}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return failures


def traced_twice(workload, seed):
    docs = []
    for _ in range(2):
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            return [f"{workload}: traced run exited {proc.returncode}: {proc.stderr[-300:]}"]
        trace = BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.json"
        docs.append(json.loads(trace.read_text()))
    failures = []
    a, b = docs[0]["counts"], docs[1]["counts"]
    moved = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if moved:
        failures.append(f"{workload}: counts differ between runs: {moved[:5]}")
    coverage = min(d["metrics"]["trace.coverage_min"] for d in docs)
    if coverage < COVERAGE_BAR:
        failures.append(f"{workload}: span coverage {coverage:.3f} below {COVERAGE_BAR}")
    overheads = [d["metrics"]["trace.overhead_s"] for d in docs]
    print(f"  {workload:17s} {len(a)} counts {'identical' if not moved else 'DIFFER'}, "
          f"min coverage {coverage:.3f}, tracing overhead "
          + ", ".join(f"{o:.3f} s" for o in overheads))
    return failures


def main():
    from run import WORKLOAD_NAMES
    print("known counts on tiny inputs:")
    failures = known_counts(SEED)
    print("two traced runs per workload, same seed:")
    for workload in WORKLOAD_NAMES:
        failures += traced_twice(workload, SEED)
    for message in failures:
        print(f"FAILED {message}")
    print("trace check " + ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
