"""Benchmark of the metric-cluster pipeline, end to end and per layer.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 16 --trace 0

Workloads (see bench/README.md for why each was chosen): ``roundtrip``,
``recover-cli`` and ``verdicts``. Every run sets up its seeded inputs several
times (``setup_s`` is the median), then measures a closed loop, one graph at a
time in this single process, over whole passes of a fixed corpus: one pass
per ``PASS_S`` of ``--seconds``. Every answer is checked; a wrong answer, an
exception, a non-zero exit code or a graph over its time budget counts as
failed.

Times are reference seconds: wall seconds scaled by the speed ``Gauge``
measures between graphs, so that the machine's drift does not read as a
change of the program. The raw wall time of the timed phase is printed too.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays the same
corpus, alternating a pass without and a pass with spans around the
library's public functions, and prints the per-layer metrics: calls and self
time per span, exact counts, and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "graphs_per_s": "1/s",
    "graph_p50_ms": "ms",
    "graph_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPANS = (
    "graph_core.isomorphic",
    "metrization.admissible_interval",
    "metrization.check_metrizable",
    "metrization.require_metrizable",
    "metrization.extend_metric",
    "metrization.shortest_path_metric",
    "metrization.forced_completion",
    "fpc.certify_fpc",
    "fpc.witness_is_genuine",
    "fpc.synthesize_weights",
    "realization.build_plan",
    "realization.generate_cloud",
    "realization.cloud_to_json",
    "realization.cloud_from_json",
    "recovery.recover_cluster_float",
    "recovery.recover_cluster_exact",
    "recovery.validate_recovered_cluster",
    "recovery.subsample_levels",
    "cli.main",
)
LAYERS = ("graph_core", "metrization", "fpc", "realization", "recovery", "cli")

# Per pass over the traced set. Counts repeat exactly for a given seed.
COUNTS = {
    "metrization.non_edges": "count",
    "metrization.intervals_per_non_edge": "ratio",
    "metrization.checks_per_interval": "ratio",
    "fpc.certify_fpc.pass": "count",
    "fpc.certify_fpc.fail": "count",
    "fpc.certify_calls_per_graph": "ratio",
    "realization.cloud_bytes": "bytes",
    "realization.levels": "count",
    "realization.family_period": "levels",
    "recovery.pairs_decided": "count",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "cli.exit_nonzero": "count",
}
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **COUNTS,
    "bench.trace_overhead_s": "s",
}


# Reference seconds that one pass of the timed phase stands for: about one
# pass of roundtrip (1.5) or recover-cli (1.9) at the commit that defined the
# benchmark. At --seconds 16 a run makes 8 passes, and each rank statistic
# falls inside the eight times of one graph, away from their ends (see
# bench/README.md).
PASS_S = 2.0


def import_library() -> None:
    """Put the checkout's src/ first on the import path, or stop."""
    if not (SRC / "metric_cluster" / "__init__.py").is_file():
        sys.exit(f"error: no metric_cluster package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class GraphTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler swallows it."""


@contextlib.contextmanager
def time_budget(seconds: int):
    def on_alarm(signum, frame):
        raise GraphTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_one(workload, item, counts=None):
    """Time one graph through the workload; returns (wall seconds, failure or None)."""
    start = time.perf_counter()
    try:
        with time_budget(workload.budget_s):
            failure = workload.run_item(item, counts)
    except GraphTimeout:
        failure = f"{item.name}: {json.dumps({'timeout': workload.budget_s})}"
    except Exception as exc:  # a failing graph is counted, the run goes on
        failure = f"{item.name}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, failure


def set_up(workload, seed: int, workdir: Path, gauge: Gauge):
    """Generate the inputs ``setup_reps`` times; keep the last, report the median.

    The items of a set-up are gauged one by one, like the graphs of the timed
    phase, because one set-up of ``recover-cli`` outlasts a change of the
    machine's speed."""
    times = []
    for _ in range(workload.setup_reps):
        gc.collect()  # every repetition starts from the same heap
        gauge.refresh()  # each repetition is gauged on its own
        items, reference = [], 0.0
        start = time.perf_counter()
        produce = iter(workload.setup(seed, workdir))
        while True:
            item = next(produce, None)
            reference += (time.perf_counter() - start) * gauge.scale_after()
            if item is None:
                break
            items.append(item)
            start = time.perf_counter()
        times.append(reference)
    return items, statistics.median(times)


def tail(latencies: list[float]):
    """Highest percentile with at least ten graphs beyond it: (value, pct, count)."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0, len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def passes(seconds: float) -> int:
    """Whole passes over the corpus that stand for ``seconds``: fixed by
    ``PASS_S``, never by the speed measured in the run, so that the number of
    graphs, and the graph on which each rank statistic lands, stay the same
    however fast the library or the machine is."""
    return max(1, round(seconds / PASS_S))


def timed_phase(workload, items, n_passes: int, gauge: Gauge):
    """Graphs one at a time, in ``n_passes`` whole passes over the corpus."""
    latencies, failures = [], []
    start = time.perf_counter()
    for _ in range(n_passes):
        for item in items:
            elapsed, failure = run_one(workload, item)
            latencies.append(elapsed * gauge.scale_after())
            if failure:
                failures.append(failure)
    return latencies, failures, time.perf_counter() - start


def end_to_end(workload, items, setup_s: float, seconds: float, gauge: Gauge):
    latencies, failures, wall = timed_phase(workload, items, passes(seconds), gauge)
    tail_s, tail_pct, count = tail(latencies)
    metrics = {
        "graphs_per_s": len(latencies) / sum(latencies),
        "graph_p50_ms": 1000 * statistics.median(latencies),
        "graph_tail_ms": 1000 * tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"graph_tail_ms is p{tail_pct:.1f} of {count} graphs",
        f"timed phase: {wall:.3f} s wall, {sum(latencies):.3f} reference s in graphs",
    ]
    return metrics, END_TO_END, len(latencies), failures, notes


def one_pass(workload, trace_set, gauge: Gauge, failures: list, tracer=None) -> float:
    """Reference seconds of one pass over the trace set; scales the tracer's
    self times by the pass's reference over wall time."""
    wall = reference = 0.0
    for item in trace_set:
        elapsed, failure = run_one(workload, item, tracer.counts if tracer else None)
        wall += elapsed
        reference += elapsed * gauge.scale_after()
        if failure:
            failures.append(failure)
    if tracer:
        for span in tracer.self_s:
            tracer.self_s[span] *= reference / wall
    return reference


def traced(workload, trace_set, seconds: float, gauge: Gauge):
    """Alternate untraced and traced passes over the corpus, ``passes(seconds)`` of each."""
    from tracer import Tracer, instrument

    untraced_s, traced_s, tracers, failures = [], [], [], []
    for _ in range(passes(seconds)):
        untraced_s.append(one_pass(workload, trace_set, gauge, failures))
        tracer = Tracer()
        with instrument(tracer):
            traced_s.append(one_pass(workload, trace_set, gauge, failures, tracer))
        tracers.append(tracer)
    attempted = 2 * len(tracers) * len(trace_set)
    metrics = layer_metrics(tracers, trace_set)
    traced_pass, untraced_pass = statistics.median(traced_s), statistics.median(untraced_s)
    metrics["bench.trace_overhead_s"] = traced_pass - untraced_pass
    shares = {
        layer: sum(v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
        / traced_pass
        for layer in LAYERS
    }
    shares["outside spans"] = 1 - sum(shares.values())
    notes = [
        f"{len(tracers)} untraced and traced passes over {len(trace_set)} graphs: "
        f"median {untraced_pass:.3f} reference s untraced, {traced_pass:.3f} traced",
        "self-time share of a traced pass: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()),
    ]
    return metrics, PER_LAYER, attempted, failures, notes


def layer_metrics(tracers, trace_set) -> dict:
    first = tracers[0]
    counts = Counter(first.counts)
    for item in trace_set:
        counts.update(item.sizes)
    metrics: dict = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = first.calls[span]
        metrics[f"{span}.self_s"] = statistics.median(t.self_s.get(span, 0.0) for t in tracers)
    intervals = first.calls["metrization.admissible_interval"]
    certifies = first.calls["fpc.certify_fpc"]
    for name in COUNTS:
        metrics[name] = counts[name]
    metrics["metrization.intervals_per_non_edge"] = intervals / max(counts["metrization.non_edges"], 1)
    metrics["metrization.checks_per_interval"] = counts["metrization.checks_in_intervals"] / max(intervals, 1)
    metrics["fpc.certify_calls_per_graph"] = certifies / len(trace_set)
    metrics["realization.family_period"] = counts["realization.family_period"] / max(counts["clouds"], 1)
    return metrics


def main(argv=None) -> int:
    import_library()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        gauge = Gauge()
        items, setup_s = set_up(workload, args.seed, workdir, gauge)
        # One untimed pass first, so that first-call costs of the interpreter
        # and allocator are not charged to the first graphs; it is checked too.
        warm_up = [run_one(workload, item)[1] for item in items]
        if args.trace:
            metrics, units, attempted, failures, notes = traced(workload, items, args.seconds, gauge)
        else:
            metrics, units, attempted, failures, notes = end_to_end(
                workload, items, setup_s, args.seconds, gauge
            )
        attempted += len(warm_up)
        failures = [f for f in warm_up if f] + failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# {workload.name} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_ratio {len(failures) / attempted} ratio")
    for note in notes:
        print(f"# {note}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
