"""Record the graph pools and reference answers of the verdicts workload.

    python3 bench/make_reference.py

Writes bench/verdicts_reference.json. Run it only to re-record the answers on
a commit whose answers are trusted; the benchmark compares every later commit
against them. Witness cycles and failure kinds are not recorded, because a
different correct algorithm may return another genuine witness.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import combinations

import run  # puts the checkout's src/ on the import path

run.import_library()

import metric_cluster as mc  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = 20131
METRIC_SIZES = (7, 8, 9)
FAIL_KINDS = (
    "root_not_dominating",
    "labeling_not_injective",
    "cycle_inequality_violated",
    "tight_cycle_not_clique",
)


def pool_size(category: str) -> int:
    """Graphs of a category that the verdicts corpus takes, each once."""
    return wl.VERDICT_ROUND.count(category) * wl.VERDICT_ROUNDS
LATTICE = [(x, y) for x in range(5) for y in range(5)]


def l1(a, b) -> Fraction:
    return Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1]))


def lattice_graph(rng: random.Random, n: int) -> mc.WeightedRootedGraph:
    """Connected graph on n lattice points with L1 weights, half the pairs as edges.

    Metrizable by construction; L1 betweenness makes tight cycles common.
    """
    names = wl.vertex_names(n)
    while True:
        points = rng.sample(LATTICE, n)
        pairs = list(combinations(range(n), 2))
        chosen = rng.sample(pairs, int(len(pairs) / 2 + 0.5))
        g = mc.WeightedRootedGraph(
            names, {(names[i], names[j]): l1(points[i], points[j]) for i, j in chosen}, wl.ROOT
        )
        if g.is_connected():
            return g


def inflate_edge(rng: random.Random, g: mc.WeightedRootedGraph) -> mc.WeightedRootedGraph:
    """Raise one edge on a cycle just above its shortest detour."""
    for u, v in rng.sample(g.edges(), len(g.edges())):
        rest = g.without_edge(u, v)
        if rest.is_connected():
            detour = mc.shortest_path_metric(rest).get(u, v)
            return g.with_weight(u, v, detour + 1)
    raise AssertionError("graph has no cycle")


def rooted_lattice_graph(rng: random.Random, n: int) -> mc.WeightedRootedGraph:
    """Dominating root at the origin, other points with distinct L1 norms."""
    names = wl.vertex_names(n)
    norms = rng.sample(range(1, 9), n - 1)
    points = [(0, 0)] + [rng.choice([p for p in LATTICE if sum(p) == k]) for k in norms]
    pairs = list(combinations(range(1, n), 2))
    chosen = [(0, i) for i in range(1, n)] + rng.sample(pairs, wl.edge_count(n, 0.5))
    return mc.WeightedRootedGraph(
        names, {(names[i], names[j]): l1(points[i], points[j]) for i, j in chosen}, wl.ROOT
    )


def failing_graph(rng: random.Random, n: int, kind: str) -> mc.WeightedRootedGraph:
    if kind == "tight_cycle_not_clique":
        return rooted_lattice_graph(rng, n)
    g = mc.synthesize_weights(wl.dominating_shape(rng, n, 0.5))
    a, b = rng.sample(g.vertices[1:], 2)
    if kind == "root_not_dominating":
        return g.without_edge(wl.ROOT, a)
    if kind == "labeling_not_injective":
        return g.with_weight(wl.ROOT, b, g.weight(wl.ROOT, a))
    non_root = [e for e in g.edges() if wl.ROOT not in e]
    u, v = rng.choice(non_root)
    return g.with_weight(u, v, Fraction(5))  # above w(r,u) + w(r,v) < 4


def record(g: mc.WeightedRootedGraph, ref: dict) -> dict:
    """Edges by vertex index; answers keyed by the unrenamed vertex names."""
    index = {v: i for i, v in enumerate(wl.vertex_names(len(g)))}
    edges = [[index[u], index[v], str(w)] for (u, v), w in sorted(g.weights.items())]
    return {"n": len(g), "edges": edges, "ref": ref}


def main() -> int:
    rng = random.Random(POOL_SEED)
    pools: dict[str, list] = {}
    for n in METRIC_SIZES:
        pools[f"metric{n}"] = [
            record(g, wl.metric_answers(g)[0])
            for g in (lattice_graph(rng, n) for _ in range(pool_size(f"metric{n}")))
        ]
    pools["inflated"] = [
        record(g, wl.metric_answers(g)[0])
        for g in (
            inflate_edge(rng, lattice_graph(rng, METRIC_SIZES[i % 3]))
            for i in range(pool_size("inflated"))
        )
    ]
    pools["pass"] = []
    for i in range(pool_size("pass")):
        g = mc.synthesize_weights(wl.dominating_shape(rng, METRIC_SIZES[i % 3], 0.5))
        assert mc.certify_fpc(g).ok
        pools["pass"].append(record(g, {"ok": True}))
    pools["fail"] = []
    assert pool_size("fail") >= len(FAIL_KINDS), "every failure kind needs a graph"
    for i in range(pool_size("fail")):
        kind = FAIL_KINDS[i % len(FAIL_KINDS)]
        while True:
            g = failing_graph(rng, METRIC_SIZES[i % 3], kind)
            if mc.certify_fpc(g).failure == kind:
                break
        pools["fail"].append(record(g, {"ok": False}))
    data = {
        "about": "verdicts workload pools with answers recorded by make_reference.py",
        "pools": pools,
    }
    text = json.dumps(data, separators=(",", ":"))
    wl.REFERENCE_FILE.write_text(text.replace('{"n"', '\n{"n"') + "\n", encoding="utf-8")
    counts = {cat: len(pool) for cat, pool in pools.items()}
    print(f"wrote {wl.REFERENCE_FILE.name}: {counts}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
