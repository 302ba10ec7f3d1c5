"""Seeded inputs, per-graph operations and correctness checks of the workloads.

Every workload turns a seed into a corpus of items in set-up and then runs one
item at a time through ``run_item``, which returns ``None`` when every answer
is right and otherwise a message naming the graph and the wrong answer. The
library sees only the generated graphs and files.

Each corpus is a short fixed list of graph shapes that a timed phase repeats
in whole passes, and ``--seed`` renames the non-root vertices of every graph.
Renaming changes the inputs the library sees (vertex order, the order of
enumerations and, in ``roundtrip``, which edge gets which synthesized weight)
but hardly the amount of work, so runs with different seeds measure the same
work and their spread comes from the program and the machine, not the draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import metric_cluster as mc
from metric_cluster import cli

ROOT = "r"
CORPUS_SEED = 2018
FLOAT_TOL = Fraction(1, 10**9)
REFERENCE_FILE = Path(__file__).resolve().parent / "verdicts_reference.json"


def vertex_names(n: int) -> list[str]:
    return [ROOT] + [f"v{i}" for i in range(1, n)]


def edge_count(n: int, p: float) -> int:
    """Non-root edges of a stratum: p times the non-root pairs, rounded half up."""
    return int(p * (n - 1) * (n - 2) / 2 + 0.5)


def dominating_shape(rng: random.Random, n: int, p: float) -> mc.WeightedRootedGraph:
    """Root joined to every vertex, plus a fixed number of random other edges."""
    names = vertex_names(n)
    pairs = list(combinations(names[1:], 2))
    weights = {(ROOT, v): Fraction(1) for v in names[1:]}
    weights.update((e, Fraction(1)) for e in rng.sample(pairs, edge_count(n, p)))
    return mc.WeightedRootedGraph(names, weights, ROOT)


def renaming(rng: random.Random, n: int) -> dict[str, str]:
    """A random bijection of the vertex names that keeps the root."""
    names = vertex_names(n)
    return dict(zip(names, [ROOT] + rng.sample(names[1:], n - 1)))


def renamed(g: mc.WeightedRootedGraph, rng: random.Random) -> mc.WeightedRootedGraph:
    return g.relabel(renaming(rng, len(g)))


def cloud_depth(g: mc.WeightedRootedGraph) -> int:
    """Fixed from the graph, not from the plan, so the input size stays put
    when the realization family changes."""
    return max(12, 2 * len(g.non_edges()) + 4)


def cloud_sizes(cloud, nbytes: int) -> dict:
    return {
        "realization.cloud_bytes": nbytes,
        "realization.levels": len(cloud.levels),
        "realization.family_period": cloud.period,
        "clouds": 1,
    }


@dataclass
class Item:
    name: str
    data: object
    sizes: dict = field(default_factory=dict)


@dataclass
class Workload:
    """One corpus and the operation applied to each of its items.

    A run repeats the corpus in whole passes, so every graph recurs equally
    often and a rank statistic (median, tail) always lands on the same graph
    instead of on the gap between two; with a fresh graph in every place, the
    statistics jumped by 15 % between runs as the number of graphs changed.
    A traced run replays the corpus too, so its counts repeat exactly.
    """

    name: str
    setup: Callable[[int, Path], Iterable[Item]]
    run_item: Callable[[Item, Optional[dict]], Optional[str]]
    budget_s: int
    setup_reps: int


# ---------------------------------------------------------------------------
# roundtrip: synthesize -> certify -> build_plan -> generate_cloud -> recover
# ---------------------------------------------------------------------------

# In eight passes (40 graphs), the median lies between the 4th and 5th of the
# eight times of the n = 8 graph, and the highest percentile with ten graphs
# beyond it (rank 30) is the 6th of the eight times of the lighter n = 9 graph.
ROUNDTRIP_SIZES = (6, 7, 8, 9, 9)
ROUNDTRIP_P = 0.5


def roundtrip_setup(seed: int, workdir: Path) -> list[Item]:
    shapes, names = random.Random(CORPUS_SEED), random.Random(seed)
    return [
        Item(f"roundtrip n={n} [{i}]", renamed(dominating_shape(shapes, n, ROUNDTRIP_P), names))
        for i, n in enumerate(ROUNDTRIP_SIZES)
    ]


def roundtrip_item(item: Item, counts: Optional[dict]) -> Optional[str]:
    g = mc.synthesize_weights(item.data)
    cert = mc.certify_fpc(g)
    if not cert.ok:
        return f"{item.name}: synthesized weights fail certification ({cert.failure})"
    cloud = mc.generate_cloud(mc.build_plan(g, cloud_depth(g)))
    if not item.sizes:  # once, in the untimed warm-up pass
        item.sizes = cloud_sizes(cloud, len(cloud.to_json()))
    rc_float = mc.recover_cluster(cloud)
    rc_exact = mc.recover_cluster(cloud, use_exact=True)
    if rc_exact.graph != g:
        return f"{item.name}: exact recovery differs from the input graph"
    if mc.isomorphic(g, rc_float.graph, weighted=True, weight_tol_rel=FLOAT_TOL) is None:
        return f"{item.name}: float recovery is not isomorphic to the input within 1e-9"
    return None


ROUNDTRIP = Workload(
    name="roundtrip",
    setup=roundtrip_setup,
    run_item=roundtrip_item,
    budget_s=20,
    setup_reps=21,
)


# ---------------------------------------------------------------------------
# recover-cli: point data on disk, through cli.main
# ---------------------------------------------------------------------------

# In eight passes (24 graphs), the median lies between the 4th and 5th of the
# eight times of the n = 12 cloud, and the highest percentile with ten graphs
# beyond it (rank 14) is the 6th of them.
RECOVER_CLI_SIZES = (11, 12, 13)
RECOVER_CLI_P = 0.2


def recover_cli_setup(seed: int, workdir: Path) -> Iterator[Item]:
    """Writes one graph file and one cloud file (1-3 MB) per stratum, and
    yields each item as soon as it is written, so set-up is gauged per item.

    Weights are synthesized before the renaming, so every seed realizes the
    same weighted graph under other vertex names and set-up does the same work.
    """
    shapes, names = random.Random(CORPUS_SEED), random.Random(seed)
    for i, n in enumerate(RECOVER_CLI_SIZES):
        g = renamed(mc.synthesize_weights(dominating_shape(shapes, n, RECOVER_CLI_P)), names)
        cloud = mc.realize(g, cloud_depth(g))
        base = workdir / f"g{i}"
        graph_path, cloud_path = Path(f"{base}.graph.json"), Path(f"{base}.cloud.json")
        graph_path.write_text(g.to_json() + "\n", encoding="utf-8")
        cloud_path.write_text(cloud.to_json() + "\n", encoding="utf-8")
        sizes = cloud_sizes(cloud, cloud_path.stat().st_size)
        yield Item(f"recover-cli[{i}] n={n}", (g, base), sizes)


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def recover_cli_item(item: Item, counts: Optional[dict]) -> Optional[str]:
    g, base = item.data
    graph, cloud = f"{base}.graph.json", f"{base}.cloud.json"
    h, h_exact, diag = f"{base}.h.json", f"{base}.hx.json", f"{base}.diag.json"
    sub, h_sub = f"{base}.sub.json", f"{base}.hs.json"
    steps = [
        (["recover", cloud, "--out", h], [cloud], [h]),
        (["recover", cloud, "--exact", "--out", h_exact, "--diag-out", diag], [cloud], [h_exact, diag]),
        (["subsample", cloud, "--alternate-periods", "--out", sub], [cloud], [sub]),
        (["recover", sub, "--out", h_sub], [sub], [h_sub]),
        (["isomorphic", graph, h], [graph, h], []),
    ]
    for argv, reads, writes in steps:
        code = _run_cli(argv)
        if code != 0:
            if counts is not None:
                counts["cli.exit_nonzero"] += 1
            return f"{item.name}: `metric-cluster {' '.join(argv)}` exited {code}"
        if counts is not None:
            counts["cli.bytes_read"] += sum(os.path.getsize(p) for p in reads)
            counts["cli.bytes_written"] += sum(os.path.getsize(p) for p in writes)
    if mc.WeightedRootedGraph.from_json(Path(h_exact).read_text(encoding="utf-8")) != g:
        return f"{item.name}: exact recovery from file differs from the input graph"
    recovered_sub = mc.WeightedRootedGraph.from_json(Path(h_sub).read_text(encoding="utf-8"))
    identity = {v: v for v in g.vertices}
    if not mc.is_weight_preserving_monomorphism(g, recovered_sub, identity, FLOAT_TOL):
        return f"{item.name}: subsample recovery receives no identity monomorphism"
    return None


RECOVER_CLI = Workload(
    name="recover-cli",
    setup=recover_cli_setup,
    run_item=recover_cli_item,
    budget_s=30,
    setup_reps=5,
)


# ---------------------------------------------------------------------------
# verdicts: decision queries against answers recorded in verdicts_reference.json
# ---------------------------------------------------------------------------

# One round: five metrizable lattice graphs on 7 to 9 vertices, two graphs
# with an inflated edge, two certifications that pass and two that fail.
# Three rounds make the corpus of 33 graphs; the six failing certifications
# cover all four failure kinds. An early exit on a witness costs more or less
# depending on the vertex order, so renaming moves the cost of these graphs.
VERDICT_ROUND = (
    "metric7", "metric8", "metric9", "metric7", "metric8",
    "inflated", "inflated", "pass", "pass", "fail", "fail",
)
VERDICT_ROUNDS = 3


def graph_from_record(rec: dict, mapping: dict[str, str]) -> mc.WeightedRootedGraph:
    names = [mapping[v] for v in vertex_names(rec["n"])]
    return mc.WeightedRootedGraph(
        names, {(names[i], names[j]): Fraction(w) for i, j, w in rec["edges"]}, ROOT
    )


def _renamed_pair(key: str, mapping: dict[str, str]) -> str:
    return "|".join(sorted(mapping[v] for v in key.split("|")))


def renamed_answers(ref: dict, mapping: dict[str, str]) -> dict:
    """Recorded answers carried through a renaming of the vertices."""
    out = dict(ref)
    for key in ("intervals", "forced"):
        if key in ref:
            out[key] = {_renamed_pair(k, mapping): v for k, v in ref[key].items()}
    return out


def verdicts_setup(seed: int, workdir: Path, reference: Optional[dict] = None) -> list[Item]:
    """Takes the recorded pools in order, one category per round position."""
    if reference is None:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    used = dict.fromkeys(reference["pools"], 0)
    items = []
    for _ in range(VERDICT_ROUNDS):
        for cat in VERDICT_ROUND:
            index = used[cat]
            used[cat] += 1
            rec = reference["pools"][cat][index]
            mapping = renaming(rng, rec["n"])
            data = (graph_from_record(rec, mapping), renamed_answers(rec["ref"], mapping))
            items.append(Item(f"verdicts {cat}[{index}]", data))
    return items


def metric_answers(g: mc.WeightedRootedGraph):
    """Metrizability class, every non-edge interval and the forced edges,
    with the verdict that carries the witness."""
    verdict = mc.check_metrizable(g)
    out: dict = {"class": verdict.classification.value}
    if not verdict.metrizable:
        return out, verdict
    intervals = {}
    for u, v in g.non_edges():
        iv = mc.admissible_interval(g, u, v)
        intervals[f"{u}|{v}"] = [str(iv.lo), str(iv.hi)]
    completed = mc.forced_completion(g)
    out["intervals"] = intervals
    out["forced"] = {
        f"{u}|{v}": str(w) for (u, v), w in completed.weights.items() if not g.has_edge(u, v)
    }
    return out, verdict


def _genuine_cycle(g: mc.WeightedRootedGraph, cycle) -> bool:
    k = len(cycle.vertices)
    return not cycle.satisfies_cycle_inequality() and all(
        g.has_edge(cycle.vertices[i], cycle.vertices[(i + 1) % k])
        and g.weight(cycle.vertices[i], cycle.vertices[(i + 1) % k]) == cycle.weights[i]
        for i in range(k)
    )


def verdicts_item(item: Item, counts: Optional[dict]) -> Optional[str]:
    g, ref = item.data
    if "ok" in ref:
        cert = mc.certify_fpc(g)
        if cert.ok != ref["ok"]:
            return f"{item.name}: certify_fpc says {'pass' if cert.ok else 'fail'}, reference says otherwise"
        if not cert.ok and not mc.witness_is_genuine(g, cert):
            return f"{item.name}: certification witness is not genuine"
        return None
    answers, verdict = metric_answers(g)
    if answers != ref:
        wrong = sorted(k for k in set(answers) | set(ref) if answers.get(k) != ref.get(k))
        return f"{item.name}: {', '.join(wrong)} differ from the reference"
    if verdict.classification is mc.Metrizability.NOT_PSEUDOMETRIZABLE:
        cycle = verdict.witness_cycle
        if cycle is None or not _genuine_cycle(g, cycle):
            return f"{item.name}: violating-cycle witness is not genuine"
    return None


VERDICTS = Workload(
    name="verdicts",
    setup=verdicts_setup,
    run_item=verdicts_item,
    budget_s=20,
    setup_reps=9,
)

WORKLOADS = {w.name: w for w in (ROUNDTRIP, RECOVER_CLI, VERDICTS)}
