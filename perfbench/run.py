"""conerec benchmark: CLI commands timed in process, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports conerec from its
src/ directory.  One process per workload drives conerec.cli.main as a
closed loop from one client: the next command starts when the previous
one has finished and its output has been checked.  BLAS is pinned to one
thread before numpy loads, and no threads are started.

--trace 0 (timed run) reports the end-to-end metrics:
  setup_s       median over fresh interpreters of launch-to-ready time
                (imports, one small command per code path)
  items_per_s   work items per second of command time
  cmd_ms_p50    median command latency
  cmd_ms_p90    90th-percentile command latency
  success_rate  commands that passed every check / commands attempted
  peak_rss_mb   peak resident memory of this process
--trace 1 (traced run) alternates untraced and traced passes over one
fixed cycle of the workload's commands and reports the per-layer
metrics of the traced passes (see perfbench/README.md).

Every output is parsed strictly and compared with the workload's
reference; a failure is counted, never fatal.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("flat-points", "curved-transport")
SETUP_PROBES = 5
READY_MARK = "ready"
PROBE_TIMEOUT_S = 60

# Rows of the baseline table measured when the roadmap was last re-anchored
# (numpy fallback kernel, 2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
BASELINE_BACKEND = "python"
BASELINE = {
    "shoot_endpoint x400 (48 steps)": 1.123,
    "world_function, one pair": 0.027,
    "transport_k, 10 steps (2247 shoots)": 8.8,
    "van_vleck_k (448 shoots)": 1.58,
    "flat reconstruct_spin_n n=2 per point, 24x48": 0.0028,
    "flat reconstruct_spin_n n=2 per point, 64x128": 0.0129,
    "flat reconstruct_spin_n n=2 per point, 128x256": 0.073,
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap():
    """Pin BLAS and import conerec from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "conerec" / "__init__.py").is_file():
        _fail(f"no conerec sources under {src}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import conerec
    if Path(conerec.__file__).resolve().parent != (src / "conerec").resolve():
        _fail(f"conerec imported from {conerec.__file__}, not from {src}")


# -- provenance ---------------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "conerec").glob("*.py*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, workload):
    import numpy
    import scipy
    from conerec import _backend
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "backend": _backend.BACKEND,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "thread_pin": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": _git_commit(), "src_digest": _src_digest(),
            "sizes": workload.sizes}


# -- running commands ---------------------------------------------------------

def run_command(main, command):
    """(passed, latency_s, message, output bytes) for one CLI command."""
    out = command.argv[-1]
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)             # so a missing output cannot pass as the last one
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(command.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback counts as a failed command
        latency = time.perf_counter() - t0
        return False, latency, f"raised {type(exc).__name__}: {exc}", 0
    latency = time.perf_counter() - t0
    if code != 0:
        return False, latency, f"exit code {code}: {sink.getvalue().strip()[-200:]}", 0
    try:
        command.check(out)
    except Exception as exc:
        return False, latency, f"{type(exc).__name__}: {exc}", 0
    return True, latency, "", os.path.getsize(out)


class Tally:
    """Latencies, items and failures of a sequence of commands."""

    def __init__(self):
        self.latency = []
        self.items = 0
        self.failures = []
        self.output_bytes = 0
        self.seconds = 0.0

    def add(self, command, result):
        passed, latency, message, nbytes = result
        self.latency.append(latency)
        self.seconds += latency
        self.output_bytes += nbytes
        if passed:
            self.items += command.items
        else:
            self.failures.append(f"{command.argv[0]} {command.argv[2]}: {message}")

    @property
    def attempted(self):
        return len(self.latency)


def make_workload(name, seed, workdir):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed=seed, workdir=str(workdir))


def warm_up(main, workload):
    for command in workload.warmups():
        passed, _, message, _ = run_command(main, command)
        if not passed:
            _fail(f"warm-up command {command.argv[0]} failed: {message}")


def setup_probe(args):
    """Set-up only, in this fresh interpreter: the span setup_s measures.

    The parent has prepared the workdir; the probe prints READY_MARK once
    the warm-ups have passed, and the parent's clock stops there.
    """
    _bootstrap()
    from conerec import cli
    warm_up(cli.main, make_workload(args.workload, args.seed, args.setup_only))
    print(READY_MARK, flush=True)


def measure_setup(args, workdir):
    """Launch-to-ready seconds of one fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip() == READY_MARK
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait()
    if not ready or proc.returncode != 0:
        _fail(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


# -- timed run ----------------------------------------------------------------

def timed_run(args, main, workload):
    """Commands for args.seconds of command time, with the set-up probes.

    The host's speed drifts over tens of seconds, so the probes are spread
    evenly over the run to meet the same host states as the commands.
    """
    tally = Tally()
    setup_times = []
    i = 0
    while tally.seconds < args.seconds:
        if tally.seconds >= args.seconds * len(setup_times) / SETUP_PROBES:
            setup_times.append(measure_setup(args, workload.workdir))
        command = workload.command(i)
        tally.add(command, run_command(main, command))
        i += 1
    while len(setup_times) < SETUP_PROBES:     # commands longer than a slot
        setup_times.append(measure_setup(args, workload.workdir))
    return tally, setup_times


def end_to_end(args, tally, setup_times):
    import numpy as np
    lat_ms = [1e3 * x for x in tally.latency]
    n = tally.attempted
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (tally.items / tally.seconds, "1/s"),
        "cmd_ms_p50": (statistics.median(lat_ms), "ms"),
        "cmd_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "success_rate": ((n - len(tally.failures)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    print(f"{args.workload}: {n} commands, {tally.items} items, "
          f"{tally.seconds:.2f} s of command time")
    print(f"  setup_s       {metrics['setup_s'][0]:.4f} s  (median of {len(setup_times)} "
          f"fresh interpreters: {', '.join(f'{t:.3f}' for t in setup_times)})")
    print(f"  items_per_s   {metrics['items_per_s'][0]:.4f} 1/s")
    print(f"  cmd_ms_p50    {metrics['cmd_ms_p50'][0]:.3f} ms  (n={n})")
    tail = n - int(0.9 * n)
    print(f"  cmd_ms_p90    {metrics['cmd_ms_p90'][0]:.3f} ms  (n={n}, {tail} beyond"
          + (")" if n >= 100 else "; fewer than 100 commands, indicative only)"))
    print(f"  error_rate    {len(tally.failures) / n:.4f}  "
          f"({len(tally.failures)} of {n} failed; success_rate "
          f"{metrics['success_rate'][0]:.4f})")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:.2f} MB")
    return metrics


# -- traced run ---------------------------------------------------------------

def _pass(main, deck, tally):
    t0 = time.perf_counter()
    for command in deck:
        tally.add(command, run_command(main, command))
    return time.perf_counter() - t0


def traced_run(args, main, workload, cli):
    from spans import Tracer
    deck = [workload.command(i) for i in range(workload.deck)]
    tally = Tally()
    plain, traced, tracers, output_bytes = [], [], [], []
    t_start = time.perf_counter()
    # stop before a pair of passes would overrun --seconds, after at least one
    while not tracers or (time.perf_counter() - t_start) * (1 + 1 / len(tracers)) \
            <= args.seconds:
        plain.append(_pass(main, deck, tally))
        tracer = Tracer()
        traced_main = tracer.install(cli)
        try:
            # freshly patched functions run slower once; keep that out of the pass
            for command in workload.warmups():
                run_command(traced_main, command)
            tracer.reset()
            before = tally.output_bytes
            traced.append(_pass(traced_main, deck, tally))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        output_bytes.append(tally.output_bytes - before)

    layer = layer_metrics(tracers, plain, traced, output_bytes)
    counts = tracers[0].counts()
    repeats = all(t.counts() == counts for t in tracers[1:])
    coverage = layer["trace.coverage_min"][0]
    overhead = layer["trace.overhead_s"][0]
    print(f"{args.workload} traced: {len(deck)} commands per pass, "
          f"{len(tracers)} untraced + {len(tracers)} traced passes")
    print(f"  pass wall untraced {statistics.median(plain):.4f} s, traced "
          f"{statistics.median(traced):.4f} s, tracing overhead {overhead:.4f} s "
          f"({100 * overhead / statistics.median(plain):.1f}%)")
    print(f"  span coverage per command (median over passes): min {coverage:.4f} "
          f"(bar 0.90{', MET' if coverage >= 0.9 else ', NOT MET'}); "
          f"cli.main.self_s {layer['cli.main.self_s'][0]:.4f} s")
    print(f"  counts repeat across traced passes: {'yes' if repeats else 'NO'}")
    for name, (value, unit) in layer.items():
        print(f"  {name:46s} {value:.6g} {unit}")
    side_by_side(args, workload, tracers)
    write_trace(args, tracers, counts, layer)
    return tally, layer


def layer_metrics(tracers, plain, traced, output_bytes):
    """Per-layer metrics: counts of the first traced pass, median times."""
    from spans import POINT_SCOPES
    first = tracers[0]

    def calls(name):
        return first.stats.get(name, [0])[0]

    def med(name, index):
        return statistics.median(t.stats.get(name, [0, 0.0, 0.0])[index] for t in tracers)

    def ratio(num, den):
        return num / den if den else 0.0

    points = sum(calls(s) for s in POINT_SCOPES)
    wf = calls("transport.world_function")
    layer = {
        "cone.SphereGrid.calls": (calls("cone.SphereGrid"), "count"),
        "cone.grids_per_point": (ratio(first.scoped_sum(POINT_SCOPES, "cone.SphereGrid"),
                                       points), "ratio"),
        "cone.build_section.calls": (calls("cone.build_section"), "count"),
        "cone.build_section.self_s": (med("cone.build_section", 2), "s"),
        "nulldata.ConeData.evaluate.calls": (calls("nulldata.ConeData.evaluate"), "count"),
        "nulldata.ConeData.evaluate.self_s": (med("nulldata.ConeData.evaluate", 2), "s"),
        "nulldata.ConeData.radial_derivative.self_s":
            (med("nulldata.ConeData.radial_derivative", 2), "s"),
        "nulldata.load_cone_data.self_s": (med("nulldata.load_cone_data", 2), "s"),
        "nulldata.load_cone_data.bytes":
            (first.stats["nulldata.load_cone_data"][3], "B"),
        "reconstruct.reconstruct_spin_n.self_s":
            (med("reconstruct.reconstruct_spin_n", 2), "s"),
        "reconstruct.reconstruct_dirac.self_s":
            (med("reconstruct.reconstruct_dirac", 2), "s"),
        "reconstruct.levels_per_point":
            (ratio(first.scoped_sum(POINT_SCOPES, "cone.build_section"), points), "ratio"),
        "transport.chart.omega.calls": (calls("transport.chart.omega"), "count"),
        "transport.chart.omega.s": (med("transport.chart.omega", 1), "s"),
        "transport.world_function.calls": (wf, "count"),
        "transport.world_function.s": (med("transport.world_function", 1), "s"),
        "transport.kernels.shoot_endpoint.calls":
            (calls("transport.kernels.shoot_endpoint"), "count"),
        "transport.kernels.shoot_endpoint.steps":
            (first.stats["transport.kernels.shoot_endpoint"][3], "count"),
        "transport.kernels.shoot_endpoint.s":
            (med("transport.kernels.shoot_endpoint", 1), "s"),
        "transport.shoots_per_world_function":
            (ratio(first.scoped_sum(("transport.world_function",),
                                    "transport.kernels.shoot_endpoint"), wf), "ratio"),
    }
    for fn in ("transport_k", "van_vleck_k", "null_connect", "conformal_k",
               "transport_spin_frame", "make_chart"):
        layer[f"transport.{fn}.s"] = (med(f"transport.{fn}", 1), "s")
    layer.update({
        "cli.main.self_s": (med("cli.main", 2), "s"),
        "cli.write_output.self_s": (med("cli.write_output", 2), "s"),
        "cli.output_bytes": (output_bytes[0], "B"),
        # each command runs once per pass: its median over passes ignores a
        # one-off stall, the minimum over commands keeps the per-command bar
        "trace.coverage_min": (min(statistics.median(c)
                                   for c in zip(*(t.coverage for t in tracers))), "ratio"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    })
    return layer


def side_by_side(args, workload, tracers):
    """Traced figures next to the re-anchor baseline rows."""
    from conerec import _backend
    first = tracers[0]
    rows = []

    def per_call(name):
        return statistics.median(t.stats[name][1] / t.stats[name][0]
                                 for t in tracers if t.stats.get(name, [0])[0])

    shoots = first.stats.get("transport.kernels.shoot_endpoint", [0])[0]
    if shoots:
        rows.append(("shoot_endpoint x400 (48 steps)",
                     400 * per_call("transport.kernels.shoot_endpoint")))
        rows.append(("world_function, one pair", per_call("transport.world_function")))
        tk_shoots = first.scoped.get(("transport.transport_k",
                                      "transport.kernels.shoot_endpoint"), [0])[0]
        tk_calls = first.stats["transport.transport_k"][0]
        if tk_shoots:
            rows.append(("transport_k, 10 steps (2247 shoots)",
                         per_call("transport.transport_k") * 2247 * tk_calls / tk_shoots))
        if first.stats["transport.van_vleck_k"][0]:
            rows.append(("van_vleck_k (448 shoots)", per_call("transport.van_vleck_k")))
    if args.workload == "flat-points":
        rows.extend(flat_per_point(workload))
    if not rows:
        return
    print("  side by side with the re-anchor baseline (seconds):")
    for label, value in rows:
        base = BASELINE[label]
        print(f"    {label:48s} baseline {base:9.4f}  now {value:9.4f}  "
              f"ratio {value / base:6.2f}")
    if _backend.BACKEND != BASELINE_BACKEND:
        print(f"  WARNING: baseline rows used the {BASELINE_BACKEND} kernel backend, "
              f"this run used {_backend.BACKEND}; the comparison mixes backends")


def flat_per_point(workload):
    """Best-of-3 untraced reconstruct_spin_n n=2, one point, per resolution."""
    import numpy as np
    from conerec.nulldata import ConeData
    from conerec.oracles import plane_wave_cone_fn
    from conerec.reconstruct import QuadratureSpec, reconstruct_spin_n
    wave = workload.waves[2]
    fn, fn_dr0 = plane_wave_cone_fn(wave.spec, workload.p0)
    data = ConeData(2, fn=fn, fn_dr0=fn_dr0)
    q = workload.p0 + np.array([1.5, 0.2, -0.1, 0.3])
    rows = []
    for nt, nph in ((24, 48), (64, 128), (128, 256)):
        spec = QuadratureSpec(nt, nph)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reconstruct_spin_n(workload.p0, data, 2, q, spec)
            best = min(best, time.perf_counter() - t0)
        rows.append((f"flat reconstruct_spin_n n=2 per point, {nt}x{nph}", best))
    return rows


def write_trace(args, tracers, counts, layer):
    """Spans of the first traced pass plus the summaries, kept for inspection."""
    first = tracers[0]
    t0 = first.spans[0][1] if first.spans else 0.0
    doc = {"workload": args.workload, "seed": args.seed,
           "span_fields": ["name", "start_s", "end_s", "parent", "command"],
           "spans": [[n, s - t0, e - t0, p, c] for n, s, e, p, c in first.spans],
           "coverage_per_command": [t.coverage for t in tracers],
           "counts": counts,
           "metrics": {k: v for k, (v, _) in layer.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))
    print(f"  spans written to {path.relative_to(ROOT)}")


# -- entry point --------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup_probe(args)
        return 0
    _bootstrap()
    from conerec import cli
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        workload.prepare()
        warm_up(cli.main, workload)
        prov = provenance(args, workload)
        print("provenance " + json.dumps(prov, sort_keys=True))
        if args.trace:
            tally, metrics = traced_run(args, cli.main, workload, cli)
        else:
            tally, setup_times = timed_run(args, cli.main, workload)
            metrics = end_to_end(args, tally, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in tally.failures[:10]:
        print(f"  FAILED {message}")
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, **result}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
