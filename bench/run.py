"""Benchmark of the superpoints library: one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload dense-algebra --seed 1 --seconds 30 --trace 0

A run sets the workload up several times (import, seeded input generation,
writing the CLI's input files) and reports the median set-up time; runs the
operations once and checks every result; feeds a corrupted copy of each
checked result to its check, which must reject it; then repeats whole rounds
of the same operations, closed loop with one caller, until ``--seconds`` have
passed.  With ``--trace 1`` it then runs one more round with every layer
wrapped and reports per-layer metrics instead of the end-to-end ones.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

from core import Lib, corrupt, execute, load_library
from inputs import Source
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 7
MIN_SAMPLES = 100

WORKLOADS = {
    "dense-algebra": "dense_algebra",
    "deciders": "deciders",
    "skeletons": "skeletons",
}

# Per-layer metrics taken from the untraced rounds: the median latency of
# the operations whose ``timed`` names them (0 where a workload has none).
TIMED = (
    "skeleton.compose.p50_ms",
    "skeleton.check_supersmooth.p50_ms",
    "points.reconstruct.p50_ms",
    "points.superrep.p50_ms",
    "supermatrix.mat_inv.p50_ms",
    "supermatrix.gl_check.p50_ms",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload: str, seed: int, workdir: str, tracer):
    """Import the library, generate the inputs and write the CLI files.

    Each set-up writes into a fresh directory: on ext4, truncating and
    rewriting a file just written waits for the old data to reach the disk.
    """
    start = perf_counter()
    os.makedirs(workdir)
    package, modules = load_library()
    workload_module = importlib.import_module(WORKLOADS[workload])
    ops = workload_module.build(Lib(package, modules, tracer), Source(workload, seed), workdir)
    return perf_counter() - start, package, modules, ops


def run_round(ops):
    """One pass over the operations; returns results and latencies (s)."""
    out, times = {}, []
    for op in ops:
        start = perf_counter()
        res = execute(op, out)
        times.append(perf_counter() - start)
        out[op.name] = res
    return out, times


def check_round(ops):
    """Run and check every operation once, then feed each checked result,
    corrupted, to its check.  Returns the results, the failure message of
    each operation (None when it passed), the number of corrupted results
    fed and the operations whose check accepted its corrupted result."""
    reference, _ = run_round(ops)
    verdicts = {}
    for op in ops:
        try:
            verdicts[op.name] = op.check(reference[op.name], reference)
        except Exception as exc:  # a check that raises has rejected the result
            verdicts[op.name] = f"check raised {type(exc).__name__}: {exc}"
    corrupted, dead = 0, []
    for op in ops:
        bad = corrupt(reference[op.name]) if verdicts[op.name] is None else None
        if bad is None:
            continue
        corrupted += 1
        try:
            accepted = op.check(bad, dict(reference, **{op.name: bad})) is None
        except Exception:  # raising is rejecting
            accepted = False
        if accepted:
            dead.append(op.name)
    return reference, verdicts, corrupted, dead


def measured_rounds(ops, reference, seconds, mismatches):
    """Whole rounds until ``seconds`` have passed and there are at least
    MIN_SAMPLES latencies.  Returns the latencies by operation and the
    round times; results that differ from the checked ones are counted in
    ``mismatches``."""
    min_rounds = max(2, math.ceil(MIN_SAMPLES / len(ops)))
    latencies: dict[str, list[float]] = {op.name: [] for op in ops}
    round_times = []
    start = perf_counter()
    while len(round_times) < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        out, times = run_round(ops)
        for op, t in zip(ops, times):
            latencies[op.name].append(t)
            if out[op.name] != reference[op.name]:
                mismatches[op.name] = mismatches.get(op.name, 0) + 1
        round_times.append(sum(times))
    return latencies, round_times


def traced_round(ops, reference, tracer, package, modules, mismatches) -> float:
    tracer.install(package, modules)
    gc.collect()
    out = {}
    tracer.on = True
    start = perf_counter()
    for index, op in enumerate(ops):
        tracer.op_id = index
        out[op.name] = execute(op, out)
    wall = perf_counter() - start
    tracer.on = False
    for op in ops:
        if out[op.name] != reference[op.name]:
            mismatches[op.name] = mismatches.get(op.name, 0) + 1
    return wall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superpoints", "__init__.py")):
        print(f"superpoints sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def report(args, workdir) -> None:
    tracer = Tracer() if args.trace else None
    setup_times = []
    for index in range(SETUPS):
        elapsed, package, modules, ops = setup(args.workload, args.seed, os.path.join(workdir, str(index)), tracer)
        setup_times.append(elapsed)
    if len({op.name for op in ops}) != len(ops):
        raise SystemExit("operation names must be unique")

    reference, verdicts, corrupted, dead = check_round(ops)
    mismatches: dict[str, int] = {}
    latencies, round_times = measured_rounds(ops, reference, args.seconds, mismatches)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(round_times)
    if args.trace:
        traced_wall = traced_round(ops, reference, tracer, package, modules, mismatches)
        rounds += 1

    # a failing check fails its operation in every round
    failed_ops = {name: message for name, message in verdicts.items() if message is not None}
    failed = len(failed_ops) * rounds + sum(n for name, n in mismatches.items() if name not in failed_ops)
    attempted = len(ops) * rounds
    known = {op.name: op.known_fault for op in ops}
    unexpected = [name for name in failed_ops if not known[name]] + [
        name for name in mismatches if name not in failed_ops
    ]

    all_lat = [t for op in ops for t in latencies[op.name]]
    cli_lat = [t for op in ops if op.cli for t in latencies[op.name]]
    wall_s = statistics.median(round_times)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (statistics.median(all_lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(all_lat, n=10)[8] * 1e3, "ms"),
        "cli_p50_ms": (statistics.median(cli_lat) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(round_times)}  operations/round {len(ops)}"
          f"  python {sys.version.split()[0]}  cpus {os.cpu_count()}")
    for op in ops:
        print(f"  {statistics.median(latencies[op.name]) * 1e3:10.2f} ms  {op.name}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {attempted}  failed {failed}  latency samples {len(all_lat)}")
    for name, message in failed_ops.items():
        tag = f"known fault: {known[name]}" if known[name] else "UNEXPECTED"
        print(f"  FAILED {args.workload} / {name} / seed {args.seed}: {message} ({tag})")
    for name, count in mismatches.items():
        print(f"  FAILED {args.workload} / {name} / seed {args.seed}: result changed between rounds ({count}x)")
    print(f"self-check: {corrupted} corrupted results, {corrupted - len(dead)} rejected by their checks")
    for name in dead:
        print(f"  DEAD CHECK {args.workload} / {name}: a corrupted result passed its check")

    metrics = end_to_end
    if args.trace:
        timed = {name: [] for name in TIMED}
        for op in ops:
            if op.timed:
                timed[op.timed] += latencies[op.name]
        metrics = tracer.metrics({name: statistics.median(v) * 1e3 if v else 0.0 for name, v in timed.items()})
        trace_dir = os.path.join(HERE, "_traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}.jsonl")
        spans = tracer.write_spans(path)
        print(f"traced round: {traced_wall:.3f} s against {wall_s:.3f} s untraced (x{traced_wall / wall_s:.2f});"
              f" {spans} spans written to {os.path.relpath(path, ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": not dead and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
