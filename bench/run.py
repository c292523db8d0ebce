"""Run one orientdiam benchmark workload and print its metrics.

    python3 bench/run.py --workload refute --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
load is one process with no threads: a closed loop that runs the workload's
operations back to back, one pass after another, until the next pass would
overrun --seconds (at least one pass; two with --trace 1).  Each pass runs
in a fresh directory under .bench_work/, removed afterwards.

--trace 0 measures the end-to-end metrics with no spans installed; times are
also reported at a reference host speed (see hostprobe.py).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians) and the tracing overhead.
Every output is checked after its pass; a failed check counts as a failed
operation and does not stop the run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from hostprobe import HostProbe
from layers import NodeTap, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 4  # before the first pass; one more before each pass

# One fresh interpreter per sample: import the package and build the
# workload's operations, which is all a run does before its first timed call.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.operations(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Pass:
    wall: float  # without the host probe's own time
    nodes: int
    normalised: float | None = None  # wall at the reference host speed (untraced only)
    probe: float | None = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    layers: dict | None = None
    unmeasured: dict = field(default_factory=dict)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, raw and at the reference host speed."""
    probe = HostProbe()
    probe.sample()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, SRC, BENCH_DIR, workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    probe.sample()
    seconds = float(done.stdout)
    return seconds, probe.normalise(seconds)


def run_pass(ops, traced: bool) -> Pass:
    # traced passes are not probed, so that no span holds probe time
    tap, tracer, probe = NodeTap(), Tracer() if traced else None, HostProbe()
    results = []
    with tap.installed(), tracer.installed() if traced else probe:
        t0 = time.perf_counter()
        for op in ops:
            try:
                results.append((op, op.call(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((op, None, exc))
        wall = time.perf_counter() - t0 - probe.inside
    done = Pass(wall=wall, nodes=tap.nodes, attempted=len(ops))
    if not traced:
        done.normalised = probe.normalise(wall)
        done.probe = statistics.median(probe.samples)
    for op, output, exc in results:
        if exc is None:
            try:
                problems = op.check(output)
            except Exception as check_exc:  # malformed output fails its check
                exc = check_exc
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            done.failures.append(f"{op.name}: {'; '.join(problems)}")
    if traced:
        done.attempted += 1  # the span reconciliation is one more check
        problems = tracer.reconcile()
        if problems:
            done.failures.append("trace reconciliation: " + "; ".join(problems))
        done.layers = tracer.metrics()
        done.unmeasured = dict(tracer.unmeasured)
    return done


def run_passes(ops, seconds: float, trace: bool, setup) -> list[Pass]:
    """Passes until the next would overrun; one set-up sample before each."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        passes = []
        start = time.perf_counter()
        while True:
            setup()
            passes.append(run_pass(ops, traced=trace and len(passes) % 2 == 1))
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if trace else 1) and elapsed + passes[-1].wall > seconds:
                return passes
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"commit": _commit(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu}


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError), open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(untraced, setup_samples) -> dict:
    return {
        "pass_s": metric(statistics.median(p.normalised for p in untraced), "s"),
        "search_nodes": metric(untraced[0].nodes, "count"),
        "setup_s": metric(statistics.median(n for _, n in setup_samples), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spec, traced, untraced, failed_ratio) -> dict:
    values = {}
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_ratio":
            value = (statistics.median(p.wall for p in traced)
                     / statistics.median(p.wall for p in untraced) - 1)
        elif name == "host.wall_s":
            value = statistics.median(p.wall for p in untraced)
        elif name == "host.probe_s":
            value = statistics.median(p.probe for p in untraced)
        elif name == "failed_ratio":
            value = failed_ratio
        else:
            column = [p.layers[name] for p in traced]
            value = None if None in column else statistics.median(column)
        values[name] = metric(value, unit)
    return values


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orientdiam", "__init__.py")):
        print(f"error: no orientdiam package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    # the first child may still be writing bytecode caches: not a sample
    measure_setup(args.workload, args.seed)
    setup_samples = [measure_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    import workloads

    ops = workloads.operations(args.workload, args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    passes = run_passes(ops, args.seconds, bool(args.trace),
                        lambda: setup_samples.append(measure_setup(args.workload, args.seed)))

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    nodes = {p.nodes for p in passes}
    attempted += 1  # every pass of a run must search the same number of nodes
    if len(nodes) != 1:
        failures.append(f"search_nodes differ between passes: {sorted(nodes)}")
    failed_ratio = len(failures) / attempted

    traced = [p for p in passes if p.layers is not None]
    untraced = [p for p in passes if p.layers is None]
    e2e = end_to_end(untraced, setup_samples)
    print(f"environment: {json.dumps({**environment(), 'seed': args.seed})}")
    print(f"workload {args.workload}: {len(passes)} passes, "
          f"{len(traced)} traced, "
          f"operations: {'; '.join(op.name for op in ops)}")
    print("pass walls (s): " + " ".join(f"{p.wall:.4f}" for p in passes))
    print("pass walls at reference speed (s): " + " ".join(f"{p.normalised:.4f}" for p in untraced))
    print("setup samples (s): " + " ".join(f"{raw:.4f}" for raw, _ in setup_samples))
    print("setup samples at reference speed (s): " + " ".join(f"{n:.4f}" for _, n in setup_samples))
    for failure in failures:
        print(f"FAILED {failure}")
    for layer, reason in sorted({k: v for p in passes for k, v in p.unmeasured.items()}.items()):
        print(f"unmeasured: {layer} ({reason})")
    metrics = per_layer(spec, traced, untraced, failed_ratio) if args.trace else e2e
    raw = {"wall_s": metric(statistics.median(p.wall for p in untraced), "s"),
           "setup_raw_s": metric(statistics.median(r for r, _ in setup_samples), "s"),
           "probe_s": metric(statistics.median(p.probe for p in untraced), "s")}
    shown = {**e2e, **raw, "failed_ratio": metric(failed_ratio, "ratio"), **metrics}
    for name, m in shown.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
