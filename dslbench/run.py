"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 dslbench/run.py --workload explore-50k --seed 1 --seconds 27 \
        --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced slices of the seconds and reports the per-layer
metrics (see ``README.md``).  ``--cores`` shrinks the generated layer
for the smoke tests.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
#: Where traced runs write their JSONL traces (ignored by git).
TRACE_DIR = os.path.join(REPO, ".dslbench-out")

#: Set-ups per run; ``setup_s`` is their median.  The first one or two
#: in a fresh process took up to twice as long as later ones, so the
#: median of five is taken from set-ups past them.
SETUP_REPEATS = 5
#: Traced runs alternate this many untraced and as many traced slices,
#: so drift in the host's speed falls on both sides of
#: ``trace.overhead_ratio`` alike.
TRACE_SLICES = 4
DEFAULT_CORES = 50000

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "rss_mb": "MB",
    "write_to_read_ms": "ms",
}


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``; the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def throughput(phases) -> float:
    """Operations completed per second over ``phases`` together."""
    return (sum(p.completed for p in phases)
            / sum(p.elapsed for p in phases))


def set_up(workload) -> List[float]:
    """Set the workload up ``SETUP_REPEATS`` times; the last one stays."""
    times = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def end_to_end(workload, seconds: float) -> Tuple[Dict[str, float],
                                                  Dict[str, object], list]:
    """The ``--trace 0`` run: end-to-end metrics, detail, phases."""
    from workloads import Phase
    setups = set_up(workload)
    probes = Phase()
    workload.write_probes(probes)
    phase = workload.measure(seconds)
    rss = peak_rss_mb()
    workload.write_probes(probes)
    write_to_read = phase.write_to_read + probes.write_to_read
    value, percentile = tail(phase.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(phase.latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "throughput_per_s": phase.completed / phase.elapsed,
        "rss_mb": rss,
        "write_to_read_ms": statistics.median(write_to_read) * 1e3,
    }
    detail = {
        "setup_s": setups,
        "samples": len(phase.latencies),
        "tail_percentile": round(percentile, 3),
        "write_to_read_samples": len(write_to_read),
        "measured_s": phase.elapsed,
    }
    return metrics, detail, [probes, phase]


def traced(workload, seconds: float
           ) -> Tuple[Dict[str, float], Dict[str, object], list]:
    """The ``--trace 1`` run: per-layer metrics, detail, phases."""
    from repro.core.obs import profile_events, read_jsonl
    from tracing import SpanTracer, layer_metrics
    tracer = SpanTracer()
    tracer.install()
    set_up(workload)
    builds = [end - start for _, _, name, start, end in tracer.spans
              if name == "core.index.build"]
    tracer.uninstall()
    tracer.reset()
    untraced, phases, invalidations = [], [], 0
    slice_s = seconds / (2 * TRACE_SLICES)
    for _ in range(TRACE_SLICES):
        untraced.append(workload.measure(slice_s))
        generation = workload.invalidations()
        tracer.install()
        phases.append(workload.measure(slice_s, tracer))
        tracer.uninstall()
        invalidations += workload.invalidations() - generation
    builds += [end - start for _, _, name, start, end in tracer.spans
               if name == "core.index.build"]
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}.jsonl")
    tracer.write_trace(path)
    profile = profile_events(read_jsonl(path))
    roots = profile.site(workload.op_span)
    ops = roots.count if roots else 0
    metrics = layer_metrics(profile, tracer, ops,
                            roots.cum_s if roots else 0.0, builds)
    metrics["serve.snapshots.invalidations"] = float(invalidations)
    metrics["trace.overhead_ratio"] = throughput(untraced) / throughput(phases)
    detail = {"trace": os.path.relpath(path, REPO), "traced_ops": ops,
              "untraced_ops": sum(p.completed for p in untraced),
              "spans": len(tracer.spans)}
    return metrics, detail, untraced + phases


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts, on one CPU.

    The serving workloads run client, server and handler threads in one
    interpreter, passing the interpreter lock back and forth.  Free to
    use both CPUs, ``serve-fresh`` swung between ~50 and ~95 requests/s
    from run to run while the single-threaded ``explore-50k`` held
    within 10%; on one CPU it held at ~95 (see README.md).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cores", type=int, default=DEFAULT_CORES)
    args = parser.parse_args(list(argv) or None)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"dslbench: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(sorted(WORKLOADS))}")
    workload = WORKLOADS[args.workload](args.seed, args.cores)
    try:
        if args.trace:
            from tracing import PER_LAYER
            metrics, detail, phases = traced(workload, args.seconds)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, detail, phases = end_to_end(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        workload.teardown()
    mismatches = [m for phase in phases for m in phase.mismatches]
    mismatches += workload.setup_mismatches
    detail["mismatches"] = mismatches[:5]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
