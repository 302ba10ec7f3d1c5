"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Exact criteria use rational arithmetic end to end; the only tolerances
are the ones stated with the criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from metric_cluster.graph_core import (
    WeightedRootedGraph,
    GraphError,
    isomorphic,
)
from metric_cluster.metrization import (
    Metrizability,
    admissible_interval,
    check_metrizable,
    extend_metric,
    shortest_path_metric,
)
from metric_cluster.fpc import (
    FAIL_CYCLE_INEQUALITY,
    FAIL_LABELING_NOT_INJECTIVE,
    FAIL_TIGHT_CYCLE_NOT_CLIQUE,
    certify_fpc,
    clique_bound_check,
    moon_moser_f,
    synthesize_weights,
    witness_is_genuine,
)
from metric_cluster.realization import build_plan, generate_cloud, single_point_space
from metric_cluster.recovery import (
    alternating_period_indices,
    period_stride_indices,
    recover_cluster,
    subsample_levels,
    validate_recovered_cluster,
)
from metric_cluster.graph_core import (
    is_weight_preserving_homomorphism,
    is_weight_preserving_monomorphism,
)

from oracles import (
    atlas_connected_graphs,
    brute_force_maximal_cliques,
    collinear_k4,
    complete_multipartite,
    dominating_rooted_shapes,
    enumerate_cycles,
    metric_agrees_with_weights,
    moon_moser_parts,
    nx_to_graph,
    random_metrizable_graph,
    random_rational,
    rooted_extremal_cluster,
    tight_cycle_through_pair,
)

WEIGHT_TOL = Fraction(1, 10**9)


def report(n: int, message: str) -> None:
    print(f"\nACCEPTANCE criterion {n:2d}: PASS - {message}")


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------

_cache: dict = {}


def round_trip_results():
    """Certified graph, cloud, float and exact recoveries for every
    dominating-rooted shape with at most 6 vertices."""
    if "round_trips" not in _cache:
        start = time.monotonic()
        data = []
        for shape in dominating_rooted_shapes(6):
            weighted = synthesize_weights(shape)
            cert = certify_fpc(weighted)
            assert cert.ok, f"synthesized weighting failed to certify on {shape!r}"
            m = len(weighted.non_edges())
            depth = max(12, 2 * m + 4)
            plan = build_plan(weighted, depth)
            cloud = generate_cloud(plan)
            rc_float = recover_cluster(cloud)
            rc_exact = recover_cluster(cloud, use_exact=True)
            data.append((weighted, cloud, rc_float, rc_exact))
        _cache["round_trips"] = data
        _cache["round_trip_seconds"] = time.monotonic() - start
    return _cache["round_trips"], _cache["round_trip_seconds"]


def metrizable_corpus():
    """50 random strictly metrizable graphs with at most 7 vertices, each
    with at least one non-adjacent pair, plus constructed tight graphs."""
    if "metrizable" not in _cache:
        rng = random.Random(2024)
        corpus = []
        while len(corpus) < 50:
            g = random_metrizable_graph(rng, rng.randint(4, 7))
            if g.non_edges():
                corpus.append(g)
        _cache["metrizable"] = corpus
    return _cache["metrizable"]


def tight_extras():
    """Cycles that force unique distances on every non-adjacent pair."""
    if "tight" not in _cache:
        rng = random.Random(4096)
        extras = []
        for n in (4, 5, 6):
            for _ in range(3):
                arc = [random_rational(rng) for _ in range(n - 1)]
                verts = [f"c{i}" for i in range(n)]
                weights = {}
                for i in range(n - 1):
                    key = tuple(sorted((verts[i], verts[i + 1])))
                    weights[key] = arc[i]
                weights[tuple(sorted((verts[0], verts[-1])))] = sum(arc, Fraction(0))
                extras.append(WeightedRootedGraph(verts, weights, verts[0]))
        _cache["tight"] = extras
    return _cache["tight"]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_metrizability_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(101)
    shapes = atlas_connected_graphs(7)
    checked = 0
    for G in shapes:
        base = nx_to_graph(G, Fraction(1), None)
        cycle_orders = [c.vertices for c in enumerate_cycles(base)]
        edge_names = base.edges()
        for _ in range(3):
            weights = {e: random_rational(rng) for e in edge_names}
            g = WeightedRootedGraph(base.vertices, weights, base.root)
            violated = False
            for order in cycle_orders:
                ws = [
                    g.weight(order[i], order[(i + 1) % len(order)])
                    for i in range(len(order))
                ]
                if 2 * max(ws) > sum(ws):
                    violated = True
                    break
            oracle = (
                Metrizability.NOT_PSEUDOMETRIZABLE if violated else Metrizability.METRIZABLE
            )
            verdict = check_metrizable(g)
            assert verdict.classification is oracle, f"disagreement on {g!r}"
            if verdict.witness_cycle is not None:
                c = verdict.witness_cycle
                assert 2 * c.max_weight() > c.total_weight()
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 1 overran its budget: {elapsed:.1f}s"
    report(
        1,
        f"edge-detour check matches the all-cycles oracle on {checked} weighted "
        f"graphs over {len(shapes)} connected shapes (|V| <= 7) in {elapsed:.1f}s",
    )


def test_criterion_02_quadrilateral_formulas():
    rng = random.Random(202)
    metrizable_seen = 0
    for _ in range(100):
        a, b, c, k = (random_rational(rng, 12, 4) for _ in range(4))
        g = WeightedRootedGraph(
            ["nu1", "nu2", "nu3", "nu4"],
            {
                ("nu1", "nu2"): a,
                ("nu2", "nu3"): b,
                ("nu3", "nu4"): c,
                ("nu1", "nu4"): k,
            },
            "nu1",
        )
        printed = 2 * max(a, b, c, k) <= a + b + c + k
        verdict = check_metrizable(g)
        assert verdict.metrizable == printed
        if not printed:
            continue
        metrizable_seen += 1
        i24 = admissible_interval(g, "nu2", "nu4")
        assert i24.lo == max(abs(b - c), abs(a - k))
        assert i24.hi == min(b + c, a + k)
        i13 = admissible_interval(g, "nu1", "nu3")
        assert i13.lo == max(abs(a - b), abs(c - k))
        assert i13.hi == min(a + b, c + k)
    assert 0 < metrizable_seen < 100, "draws must exercise both verdicts"
    report(
        2,
        f"verdict criterion and both diagonal interval formulas reproduced "
        f"exactly on 100 random weighted quadrilaterals ({metrizable_seen} metrizable)",
    )


def test_criterion_03_interval_achievability():
    pairs_checked = 0
    for g in metrizable_corpus():
        for u, v in g.non_edges():
            interval = admissible_interval(g, u, v)
            targets = [(interval.lo + interval.hi) / 2, interval.hi]
            if interval.lo > 0:
                targets.insert(0, interval.lo)
            for t in targets:
                d = extend_metric(g, u, v, t)
                assert d.get(u, v) == t
                assert metric_agrees_with_weights(d, g)
                augmented = g.with_edge(u, v, t)
                assert check_metrizable(augmented).classification is Metrizability.METRIZABLE
            with pytest.raises(GraphError):
                extend_metric(g, u, v, interval.hi + 1)
            pairs_checked += 1
    report(
        3,
        f"extensions achieved at lo/midpoint/hi and rejected beyond hi on "
        f"{pairs_checked} non-adjacent pairs across 50 metrizable graphs",
    )


def test_criterion_04_unique_pair_equivalence():
    pairs = degenerate = 0
    for g in metrizable_corpus() + tight_extras():
        for u, v in g.non_edges():
            by_interval = admissible_interval(g, u, v).degenerate
            by_cycles = tight_cycle_through_pair(g, u, v)
            assert by_interval == by_cycles, f"disagreement at ({u},{v}) of {g!r}"
            pairs += 1
            degenerate += by_interval
    assert degenerate > 0, "corpus must exercise the degenerate case"
    report(
        4,
        f"interval degeneracy matches tight-cycle search on {pairs} pairs "
        f"({degenerate} forced)",
    )


def test_criterion_05_fpc_round_trip():
    data, elapsed = round_trip_results()
    for weighted, cloud, rc_float, rc_exact in data:
        witness = isomorphic(
            weighted, rc_float.graph, weighted=True, weight_tol_rel=WEIGHT_TOL
        )
        assert witness is not None, f"round trip failed for {weighted!r}"
        assert witness.verify(weighted, rc_float.graph, True, WEIGHT_TOL)
        assert rc_exact.graph == weighted  # bit-exact on the rational shadows
    assert elapsed < 300, f"criterion 5 overran its budget: {elapsed:.1f}s"
    report(
        5,
        f"synthesize -> certify -> realize -> recover -> isomorphic on all "
        f"{len(data)} dominating-rooted shapes (|V| <= 6) in {elapsed:.1f}s",
    )


def test_criterion_06_negative_certification_witnesses():
    rng = random.Random(606)
    shapes = [g for g in dominating_rooted_shapes(6) if len(g) >= 3]
    with_inner_edge = [
        g for g in shapes if any(g.root not in e for e in g.weights)
    ]
    checked = {"label": 0, "clique": 0, "cycle": 0}
    for i in range(200):
        kind = ("label", "clique", "cycle")[i % 3]
        if kind == "label":
            base = synthesize_weights(rng.choice(shapes))
            others = [v for v in base.vertices if v != base.root]
            v1, v2 = rng.sample(others, 2)
            broken = base.with_weight(base.root, v2, base.weight(base.root, v1))
            expected = FAIL_LABELING_NOT_INJECTIVE
        elif kind == "clique":
            a, b, c = (random_rational(rng) for _ in range(3))
            base = collinear_k4(a, b, c)
            assert certify_fpc(base).ok
            broken = base.without_edge("u", "z")
            expected = FAIL_TIGHT_CYCLE_NOT_CLIQUE
        else:
            base = synthesize_weights(rng.choice(with_inner_edge))
            inner = [e for e in base.edges() if base.root not in e]
            u, v = rng.choice(inner)
            bad = base.weight(base.root, u) + base.weight(base.root, v) + 1
            broken = base.with_weight(u, v, bad)
            expected = FAIL_CYCLE_INEQUALITY
        cert = certify_fpc(broken)
        assert not cert.ok and cert.failure == expected
        assert witness_is_genuine(broken, cert), f"stale witness for {kind}"
        checked[kind] += 1
    report(
        6,
        "200 perturbed certifications failed with re-checkable witnesses "
        f"({checked['label']} label, {checked['clique']} clique, {checked['cycle']} cycle)",
    )


def test_criterion_07_extremal_clique_counts():
    for n in range(2, 10):
        vertices, adj = complete_multipartite(moon_moser_parts(n))
        brute = len(brute_force_maximal_cliques(set(vertices), adj))
        assert brute == moon_moser_f(n)
        cluster = rooted_extremal_cluster(n)
        bound_report = clique_bound_check(cluster)
        assert bound_report.clique_count == bound_report.bound == moon_moser_f(n)
        assert bound_report.holds and bound_report.slack == 0
    report(
        7,
        "f(2..9) equals brute-force maximal-clique counts on the extremal "
        "multipartite graphs; the bound is met with equality on rooted clusters",
    )


def test_criterion_08_single_point_example():
    cloud = single_point_space(depth=12, base=2)
    rc = recover_cluster(cloud)
    assert len(rc.graph.vertices) == 1
    assert list(rc.rho0.values()) == [Fraction(0)]
    _cache["single_point_recovery"] = rc

    # points from lower levels contribute nothing at deep scales: every
    # off-level normalized value from level 8 on sits far below 1e-3
    worst_off_level = 0.0
    for i, lvl in enumerate(cloud.levels):
        if lvl.n < 8:
            continue
        for other in cloud.levels[:i]:
            x = other.points[1].coords[0]
            worst_off_level = max(worst_off_level, x / lvl.r)
    assert worst_off_level < 1e-3

    # the sequence's own normalized values decay monotonically through the
    # same threshold inside the truncation
    trace = [lvl.points[1].coords[0] / lvl.r for lvl in cloud.levels]
    assert all(b2 < b1 for b1, b2 in zip(trace, trace[1:]))
    assert trace[-1] < 1e-3
    report(
        8,
        f"one-vertex recovery with zero root label; worst off-level value "
        f"from level 8 is {worst_off_level:.2e} (< 1e-3), final trace value "
        f"{trace[-1]:.2e}",
    )


def test_criterion_09_recovered_cluster_invariants():
    data, _ = round_trip_results()
    recoveries = [rc for _, _, rc, _ in data]
    if "single_point_recovery" not in _cache:
        _cache["single_point_recovery"] = recover_cluster(single_point_space(12, 2))
    recoveries.append(_cache["single_point_recovery"])
    failures = []
    for rc in recoveries:
        problems = validate_recovered_cluster(rc)
        if problems:
            failures.append((rc.graph, problems))
    assert not failures, f"invariant violations: {failures}"
    report(
        9,
        f"dominating root, distinct root labels, the cycle inequality and no "
        f"near-forced non-edge hold on all {len(recoveries)} recoveries",
    )


def test_criterion_10_subsequence_monomorphism():
    data, _ = round_trip_results()
    for weighted, cloud, _, rc_exact in data:
        full = rc_exact.graph
        identity = {v: v for v in full.vertices}

        alt = subsample_levels(cloud, alternating_period_indices(cloud))
        rc_alt = recover_cluster(alt, use_exact=True, window=alt.depth)
        assert rc_alt.graph == full, f"alternating-period subsample changed {weighted!r}"

        stride = subsample_levels(cloud, period_stride_indices(cloud, offset=0))
        rc_stride = recover_cluster(stride, use_exact=True, window=stride.depth)
        assert is_weight_preserving_homomorphism(full, rc_stride.graph, identity)
        assert is_weight_preserving_monomorphism(full, rc_stride.graph, identity)
        # a fixed family member pins every pair: the image is complete
        n = len(rc_stride.graph)
        assert len(rc_stride.graph.weights) == n * (n - 1) // 2
    report(
        10,
        f"alternating-period subsamples reproduce every recovery exactly; "
        f"period-stride subsamples receive weight preserving monomorphisms "
        f"({len(data)} clouds, exact rational shadows)",
    )
