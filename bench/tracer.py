"""Spans around the library's public functions, recorded from outside.

``instrument`` replaces each traced function in every module namespace that
holds it, so calls between modules (``build_plan`` calling
``realization.admissible_interval``, ``cli.main`` calling
``cli.recover_cluster``) pass through the wrapper as well as calls from the
benchmark. ``src/`` is not edited. Generators (``enumerate_cycles``,
``enumerate_simple_paths``) are not wrapped: a wrapper would time only their
creation, so their cost stays in the self time of the span that consumes them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import metric_cluster
from metric_cluster import cli, fpc, graph_core, metrization, realization, recovery
from metric_cluster.realization import LeveledPointCloud

MODULES = (graph_core, metrization, fpc, realization, recovery, cli)

FUNCTIONS = {
    graph_core: ("isomorphic",),
    metrization: (
        "admissible_interval",
        "check_metrizable",
        "require_metrizable",
        "extend_metric",
        "shortest_path_metric",
        "forced_completion",
    ),
    fpc: ("certify_fpc", "witness_is_genuine", "synthesize_weights"),
    realization: ("build_plan", "generate_cloud"),
    recovery: ("recover_cluster", "validate_recovered_cluster", "subsample_levels"),
    cli: ("main",),
}
# Cloud (de)serialisation is a pair of LeveledPointCloud methods.
SPAN_NAMES = {
    "to_json": "realization.cloud_to_json",
    "from_json_dict": "realization.cloud_from_json",
}


class Tracer:
    """Per-span call counts and self times, plus counts taken at the spans.

    A span's self time is its duration minus the durations of the traced
    calls it made. Time outside every span is the benchmark's own work.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []  # [name, start, time in child spans]

    def enter(self, name: str) -> None:
        if name == "metrization.check_metrizable" and any(
            frame[0] == "metrization.admissible_interval" for frame in self._stack
        ):
            self.counts["metrization.checks_in_intervals"] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration


def _span_name(module, func_name: str, kwargs) -> str:
    if func_name in SPAN_NAMES:
        return SPAN_NAMES[func_name]
    if func_name == "recover_cluster":
        return "recovery.recover_cluster_exact" if kwargs.get("use_exact") else "recovery.recover_cluster_float"
    return f"{module.__name__.rsplit('.', 1)[1]}.{func_name}"


def _count_result(tracer: Tracer, func_name: str, args, result) -> None:
    """Exact counts read from arguments and results, outside the timed span."""
    if func_name == "certify_fpc":
        tracer.counts["fpc.certify_fpc.pass" if result.ok else "fpc.certify_fpc.fail"] += 1
    elif func_name in ("build_plan", "forced_completion"):
        tracer.counts["metrization.non_edges"] += len(args[0].non_edges())
    elif func_name == "recover_cluster":
        tracer.counts["recovery.pairs_decided"] += len(result.diagnostics)


def _wrap(tracer: Tracer, module, func_name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(_span_name(module, func_name, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _count_result(tracer, func_name, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced function through ``tracer`` while the block runs."""
    namespaces = [vars(m) for m in MODULES] + [vars(metric_cluster)]
    saved: list = []
    for module, names in FUNCTIONS.items():
        for func_name in names:
            fn = getattr(module, func_name)
            wrapper = _wrap(tracer, module, func_name, fn)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        saved.append((ns, key, value))
                        ns[key] = wrapper
    to_json = LeveledPointCloud.__dict__["to_json"]
    from_json_dict = LeveledPointCloud.__dict__["from_json_dict"]
    LeveledPointCloud.to_json = _wrap(tracer, realization, "to_json", to_json)
    LeveledPointCloud.from_json_dict = classmethod(
        _wrap(tracer, realization, "from_json_dict", from_json_dict.__func__)
    )
    try:
        yield tracer
    finally:
        LeveledPointCloud.to_json = to_json
        LeveledPointCloud.from_json_dict = from_json_dict
        for ns, key, value in reversed(saved):
            ns[key] = value
