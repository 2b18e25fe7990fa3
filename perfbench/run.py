"""Benchmark of evalsim's experiment drivers, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bias-grid --seed 3 --seconds 20 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  Every pass's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the environment, the
pass records and (when traced) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# set-up is timed in fresh interpreters: one untimed run warms the file
# cache and writes bytecode, then the median of the timed ones is reported.
SETUP_REPEATS = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "runs_per_s_per_core": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "kernels.ndtr_ms": "ms",
    "kernels.copula_self_ms": "ms",
    "distributions.inv_cdf_ms": "ms",
    "kernels.subset_mask_ms": "ms",
    "kernels.score_ms": "ms",
    "kernels.draw_ms": "ms",
    "kernels.worker_self_ms": "ms",
    "kernels.tie_redraw_rows": "count",
    "kernels.useful_draw_ratio": "ratio",
    "parallel.tasks": "count",
    "parallel.chunk_ms_p50": "ms",
    "parallel.chunk_ms_p90": "ms",
    "parallel.chunk_samples": "count",
    "parallel.self_ms": "ms",
    "rng.derive_stream_ms": "ms",
    "parallel.pool_overhead_s": "s",
    "parallel.scaling_efficiency": "ratio",
    "experiments.driver_self_ms": "ms",
    "trace.unaccounted_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Pass:
    workers: int
    traced: bool
    wall_s: float | None = None  # None when the driver raised
    rows: tuple | None = None
    failures: list = field(default_factory=list)

    def record(self) -> dict:
        return {
            "workers": self.workers,
            "traced": self.traced,
            "wall_s": self.wall_s,
            "failures": self.failures,
        }


def run_pass(workload, inputs, seed, workers, reference, tracer=None) -> Pass:
    """Call the driver once, timing it, and check its output."""
    from workloads import check_output

    result = Pass(workers=workers, traced=tracer is not None)
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(inputs, seed, workers)
            rows = workload.rows(output)
        else:
            with tracer.span("bench.pass"):
                with tracer.span(workload.driver_span):
                    output = workload.run(inputs, seed, workers)
                rows = workload.rows(output)
        result.wall_s = time.perf_counter() - start
        result.rows = rows
        result.failures = check_output(workload, output, rows, reference)
    except Exception:  # a failed pass is counted, not fatal
        result.failures = [traceback.format_exc()]
    return result


def peak_rss_mb(workers: int) -> float:
    """Benchmark process peak plus ``workers`` times the largest worker peak.

    ``getrusage`` keeps only the largest peak among ended children, so for a
    pool this bounds the concurrent footprint from above.  Read it before
    any other child process is started.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def setup_seconds(workload_name: str, seed: int) -> list:
    """Wall times of fresh interpreters that import evalsim and build inputs."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
        "--workload", workload_name, "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times[1:]


def rounds(seconds: float):
    """Yield once per round of work for about ``seconds``.

    The first round always runs.  Another starts only if a round as long as
    the last would still end within ``seconds``, so the length of a run
    stays predictable however slow its rounds are.
    """
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        yield
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            return


def measure(workload, seed: int, seconds: float, reference: dict) -> tuple:
    """Untraced passes for ``seconds``: end-to-end metrics and pass records."""
    inputs = workload.inputs()
    passes = []
    for _ in rounds(seconds):
        passes.append(run_pass(workload, inputs, seed, workload.workers, reference))
    walls = [p.wall_s for p in passes if p.wall_s is not None]
    if not walls:
        return passes, None
    rss = peak_rss_mb(workload.workers)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "runs_per_s_per_core": workload.points * workload.runs / wall / workload.workers,
        "setup_s": statistics.median(setup_seconds(workload.name, seed)),
        "peak_rss_mb": rss,
    }
    return passes, metrics


def measure_traced(workload, seed: int, seconds: float, reference: dict, tracer) -> tuple:
    """Cycles of untraced and traced passes for ``seconds``: per-layer metrics.

    A cycle is an untraced pass at the workload's worker count, an untraced
    one-worker pass when that count is above one, and a traced one-worker
    pass whose rows must equal the first pass's bit for bit.
    """
    from spans import chunk_percentiles, instrumented, pass_metrics

    inputs = workload.inputs()
    passes, cycles = [], []
    for _ in rounds(seconds):
        cycle = [run_pass(workload, inputs, seed, workload.workers, reference)]
        if workload.workers > 1:
            cycle.append(run_pass(workload, inputs, seed, 1, reference))
        untraced, serial = cycle[0], cycle[-1]
        tracer.pass_id += 1
        with instrumented(tracer):
            traced = run_pass(workload, inputs, seed, 1, reference, tracer)
        if traced.rows is not None and traced.rows != untraced.rows:
            traced.failures.append(
                f"traced rows differ from untraced {workload.workers}-worker rows"
            )
        cycle.append(traced)
        passes += cycle
        if any(p.wall_s is None for p in cycle):
            continue
        spans = [s for s in tracer.spans if s["pass"] == tracer.pass_id]
        figures = pass_metrics(spans, workload.driver_span)
        worker_s = figures.pop("worker_s")
        figures["parallel.pool_overhead_s"] = untraced.wall_s - worker_s / workload.workers
        figures["parallel.scaling_efficiency"] = worker_s / (workload.workers * untraced.wall_s)
        figures["trace.overhead_pct"] = 100.0 * (traced.wall_s / serial.wall_s - 1.0)
        cycles.append(figures)
    if not cycles:
        return passes, None
    metrics = {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
    metrics.update(chunk_percentiles([s for s in tracer.spans if s["pass"] > 0]))
    return passes, metrics


def environment(workload, seed: int, trace: int) -> dict:
    import evalsim
    import numpy
    import scipy
    from workloads import WORKLOADS

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "workers": workload.workers,
        "runs_per_point": workload.runs,
        "points": workload.points,
        "chunk_sizes": {w.name: w.chunk for w in WORKLOADS.values()},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "evalsim": evalsim.__version__,
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evalsim" / "__init__.py").is_file():
        print(f"no evalsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_only:
        workload.inputs()
        return 0

    reference = load_reference()[workload.name]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        passes, metrics = measure_traced(workload, seed, args.seconds, reference, tracer)
        units = PER_LAYER_UNITS
    else:
        passes, metrics = measure(workload, seed, args.seconds, reference)
        units = END_TO_END_UNITS
    failed = sum(1 for p in passes if p.failures)
    for p in passes:
        for failure in p.failures:
            print(f"check failed: {failure}", file=sys.stderr)

    summary = {
        "environment": environment(workload, seed, args.trace),
        "error_rate": failed / len(passes),
        "metrics": metrics,
        "passes": [p.record() for p in passes],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    if metrics is None:
        print("no pass completed", file=sys.stderr)
        return 1

    print(json.dumps({"environment": summary["environment"]}))
    print(f"{workload.name}: error_rate {summary['error_rate']:g} ({failed}/{len(passes)} passes)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
