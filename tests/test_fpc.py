import json
import random
from fractions import Fraction

import pytest

from metric_cluster.graph_core import (
    Cycle,
    GraphError,
    WeightedRootedGraph,
    _require_dominating_root,
    _root_labels,
    maximal_cliques,
)
from metric_cluster.metrization import (
    Metrizability,
    admissible_interval,
    check_metrizable,
    forced_completion,
    shortest_path_metric,
)
from metric_cluster.fpc import (
    FAIL_CYCLE_INEQUALITY,
    FAIL_LABELING_NOT_INJECTIVE,
    FAIL_ROOT_NOT_DOMINATING,
    FAIL_TIGHT_CYCLE_NOT_CLIQUE,
    FpcCertificate,
    certify_fpc,
    clique_bound_check,
    graph_from_metric_space,
    moon_moser_f,
    synthesize_weights,
    witness_is_genuine,
)
from metric_cluster.metrization import DistanceMatrix, line_distance_matrix
from metric_cluster.cli import main
from metric_cluster.realization import build_plan

from oracles import (
    assert_two_member_family,
    brute_force_maximal_cliques,
    certifies_by_cycles,
    collinear_k4,
    complete_multipartite,
    dominating_rooted_shapes,
    metric_agrees_with_weights,
    moon_moser_parts,
    random_dominating_shape,
    rooted_extremal_cluster,
    scaled_weights,
    with_mixed_denominators,
)


def graph(vertices, edges, root):
    return WeightedRootedGraph(vertices, {e: Fraction(w) for e, w in edges.items()}, root)


def star(weights_by_leaf):
    edges = {("r", leaf): w for leaf, w in weights_by_leaf.items()}
    return WeightedRootedGraph(["r", *weights_by_leaf], edges, "r")


# ---------------------------------------------------------------------------
# root labeling
# ---------------------------------------------------------------------------


def test_star_labeling_injective():
    g = star({"c": 3, "a": 1, "b": 2})
    labels = _root_labels(g)
    # the root first, then vertex order
    assert list(labels.items()) == [("r", 0), ("a", 1), ("b", 2), ("c", 3)]
    assert certify_fpc(g).ok


def test_star_labeling_collision_witness():
    g = star({"a": 2, "b": 2, "c": 3})
    cert = certify_fpc(g)
    assert cert.failure == FAIL_LABELING_NOT_INJECTIVE and cert.witness_pair == ("a", "b")
    assert witness_is_genuine(g, cert)


def test_single_vertex_labeling():
    g = WeightedRootedGraph(["r"], {}, "r")
    assert _root_labels(g) == {"r": 0} and certify_fpc(g).ok


def test_labeling_requires_dominating_root():
    g = graph(["r", "a", "b", "c"], {("r", "a"): 1, ("r", "c"): 2, ("a", "b"): 1}, "r")
    # the labels never raise: a vertex the root misses has none
    assert _root_labels(g) == {"r": 0, "a": 1, "c": 2}
    message = "root 'r' is not dominating: no edge to 'b'"
    for refuse in (_require_dominating_root, synthesize_weights, clique_bound_check):
        with pytest.raises(GraphError) as err:
            refuse(g)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# witness checks
# ---------------------------------------------------------------------------


TRIANGLE = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): Fraction(5, 2)}, "r")


@pytest.mark.parametrize(
    "cert",
    [
        FpcCertificate(True),
        FpcCertificate(False, "no_such_condition", witness_vertex="u"),
        # a witness vertex must be a vertex that the root misses
        FpcCertificate(False, FAIL_ROOT_NOT_DOMINATING),
        FpcCertificate(False, FAIL_ROOT_NOT_DOMINATING, witness_vertex="zzz"),
        FpcCertificate(False, FAIL_ROOT_NOT_DOMINATING, witness_vertex="r"),
        FpcCertificate(False, FAIL_ROOT_NOT_DOMINATING, witness_vertex="u"),
        # a witness pair must be two distinct vertices with one label
        FpcCertificate(False, FAIL_LABELING_NOT_INJECTIVE),
        FpcCertificate(False, FAIL_LABELING_NOT_INJECTIVE, witness_pair=("r", "zzz")),
        FpcCertificate(False, FAIL_LABELING_NOT_INJECTIVE, witness_pair=("u", "u")),
        FpcCertificate(False, FAIL_LABELING_NOT_INJECTIVE, witness_pair=("u", "v")),
        # a violated cycle must be one of the graph's, with its weights
        FpcCertificate(False, FAIL_CYCLE_INEQUALITY),
        FpcCertificate(False, FAIL_CYCLE_INEQUALITY, witness_cycle=Cycle(("r", "u", "x"), (1, 5, 1))),
        FpcCertificate(False, FAIL_CYCLE_INEQUALITY, witness_cycle=Cycle(("r", "u", "v"), (1, 4, 2))),
        FpcCertificate(
            False, FAIL_CYCLE_INEQUALITY, witness_cycle=Cycle(("r", "u", "v"), (1, Fraction(5, 2), 2))
        ),
    ],
    ids=[
        "ok", "unknown_condition", "no_vertex", "not_a_vertex", "the_root", "a_neighbour",
        "no_pair", "pair_with_a_non_vertex", "one_vertex_twice", "distinct_labels",
        "no_cycle", "not_in_the_graph", "weights_not_the_graphs", "cycle_inequality_holds",
    ],
)
def test_forged_witnesses_are_not_genuine(cert):
    assert not witness_is_genuine(TRIANGLE, cert)


def test_forged_tight_cycle_witnesses_are_not_genuine():
    g = collinear_k4(Fraction(1), Fraction(2), Fraction(3)).without_edge("u", "z")
    cert = certify_fpc(g)
    assert cert.failure == FAIL_TIGHT_CYCLE_NOT_CLIQUE and witness_is_genuine(g, cert)
    tight, pair = cert.witness_cycle, cert.witness_pair
    for cycle, witness_pair in (
        (None, pair),
        (tight, None),
        (Cycle(tight.vertices, tight.weights[::-1]), pair),  # not the graph's weights
        (tight, ("u", "zzz")),  # off the cycle
        (tight, ("r", "z")),  # adjacent
    ):
        forged = FpcCertificate(False, FAIL_TIGHT_CYCLE_NOT_CLIQUE, None, witness_pair, cycle)
        assert not witness_is_genuine(g, forged)
    # a cycle of a graph through a non-edge u-z, strictly slack: 2 * 3 < 1 + 2 + 2 + 3
    square = graph(
        ["r", "u", "v", "z"],
        {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 2, ("v", "z"): 2},
        "r",
    )
    slack = Cycle.from_graph(square, ("r", "u", "v", "z"))
    forged = FpcCertificate(False, FAIL_TIGHT_CYCLE_NOT_CLIQUE, None, ("u", "z"), slack)
    assert not witness_is_genuine(square, forged)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_slack_triangle_passes():
    g = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): Fraction(5, 2)}, "r")
    assert certify_fpc(g).ok


def test_certify_four_cycle_fails_domination():
    g = graph(
        ["v1", "v2", "v3", "v4"],
        {("v1", "v2"): 1, ("v2", "v3"): 1, ("v3", "v4"): 1, ("v1", "v4"): 3},
        "v1",
    )
    cert = certify_fpc(g)
    assert not cert.ok and cert.failure == FAIL_ROOT_NOT_DOMINATING
    assert witness_is_genuine(g, cert)


def test_certify_tight_cycles_that_are_cliques():
    g = graph(
        ["r", "u", "v", "z"],
        {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 3, ("v", "z"): 5},
        "r",
    )
    # triangles (r,u,v) and (r,v,z) are tight and are cliques; the
    # quadrilateral r-u-v-z is strictly slack
    cert = certify_fpc(g)
    assert cert.ok


def test_certify_label_collision():
    g = star({"a": 2, "b": 2})
    cert = certify_fpc(g)
    assert not cert.ok and cert.failure == FAIL_LABELING_NOT_INJECTIVE
    assert cert.witness_pair == ("a", "b")
    assert witness_is_genuine(g, cert)


def test_certify_cycle_violation():
    g = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): 4}, "r")
    cert = certify_fpc(g)
    assert not cert.ok and cert.failure == FAIL_CYCLE_INEQUALITY
    assert witness_is_genuine(g, cert)


def test_certify_tight_cycle_not_clique():
    g = collinear_k4(Fraction(1), Fraction(2), Fraction(3))
    assert certify_fpc(g).ok
    broken = g.without_edge("u", "z")
    cert = certify_fpc(broken)
    assert not cert.ok and cert.failure == FAIL_TIGHT_CYCLE_NOT_CLIQUE
    assert cert.witness_pair == ("u", "z")
    assert witness_is_genuine(broken, cert)


def test_zero_weight_root_edge_collides_labels():
    g = star({"a": 0, "b": 1})
    cert = certify_fpc(g)
    assert not cert.ok and cert.failure == FAIL_LABELING_NOT_INJECTIVE
    assert cert.witness_pair == ("a", "r")


def test_zero_weight_inner_edge_violates_a_cycle():
    g = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): 0}, "r")
    cert = certify_fpc(g)
    assert not cert.ok and cert.failure == FAIL_CYCLE_INEQUALITY


def test_certified_graphs_have_positive_weights():
    rng = random.Random(61)
    for g in rng.sample(dominating_rooted_shapes(6), 25):
        weighted = synthesize_weights(g)
        assert certify_fpc(weighted).ok
        assert all(w > 0 for w in weighted.weights.values())


def test_certification_invariant_under_renaming_and_rescaling():
    rng = random.Random(67)
    for g in rng.sample(dominating_rooted_shapes(6), 15):
        weighted = synthesize_weights(g)
        renamed = weighted.relabel(
            {v: f"x{i}" for i, v in enumerate(sorted(weighted.vertices))}
        )
        scaled = scaled_weights(weighted, Fraction(7, 3))
        assert certify_fpc(renamed).ok
        assert certify_fpc(scaled).ok
        # rescaling a failing graph keeps the same failure
        broken = collinear_k4(Fraction(1), Fraction(1), Fraction(2)).without_edge("u", "z")
        assert certify_fpc(scaled_weights(broken, Fraction(5, 2))).failure == FAIL_TIGHT_CYCLE_NOT_CLIQUE


def test_certification_matches_cycle_oracle_on_all_small_shapes():
    rng = random.Random(607)
    failures = set()
    for shape in dominating_rooted_shapes(7):
        # points of a half line, the root at 0: labels are injective, every
        # cycle inequality holds and tight cycles abound
        others = [v for v in shape.vertices if v != shape.root]
        position = {shape.root: 0, **dict(zip(others, rng.sample(range(1, 25), len(others))))}
        line = {(u, v): abs(position[u] - position[v]) for u, v in shape.edges()}
        small = {e: rng.randint(1, 6) for e in shape.edges()}
        for g in (
            synthesize_weights(shape),
            WeightedRootedGraph(shape.vertices, line, shape.root),
            WeightedRootedGraph(shape.vertices, small, shape.root),
        ):
            cert = certify_fpc(g)
            assert cert.ok == certifies_by_cycles(g), f"disagreement on {g.to_json()}"
            if not cert.ok:
                assert witness_is_genuine(g, cert), f"stale witness on {g.to_json()}"
                failures.add(cert.failure)
    assert failures == {
        FAIL_LABELING_NOT_INJECTIVE,
        FAIL_CYCLE_INEQUALITY,
        FAIL_TIGHT_CYCLE_NOT_CLIQUE,
    }


def test_certification_matches_cycle_oracle_on_mixed_denominators():
    rng = random.Random(613)
    failures = set()
    for k in range(200):
        shape = random_dominating_shape(rng, rng.randint(3, 7), rng.random())
        g = with_mixed_denominators(rng, shape, max_num=rng.choice((6, 40)))
        if k % 2:
            # the same denominators as points of a half line, the root at 0:
            # tight cycles abound
            line = {v: g.weight(g.root, v) for v in g.vertices if v != g.root}
            line[g.root] = Fraction(0)
            g = WeightedRootedGraph(
                g.vertices, {(u, v): abs(line[u] - line[v]) for u, v in g.edges()}, g.root
            )
        cert = certify_fpc(g)
        assert cert.ok == certifies_by_cycles(g), f"disagreement on {g.to_json()}"
        if not cert.ok:
            assert witness_is_genuine(g, cert), f"stale witness on {g.to_json()}"
        failures.add(cert.failure)
    assert failures == {
        None,
        FAIL_LABELING_NOT_INJECTIVE,
        FAIL_CYCLE_INEQUALITY,
        FAIL_TIGHT_CYCLE_NOT_CLIQUE,
    }


@pytest.mark.parametrize(
    "g, expected",
    [
        (
            collinear_k4(Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)).without_edge("u", "z"),
            {
                "verdict": "fail",
                "failed_condition": "tight_cycle_not_clique",
                "witness_pair": ["u", "z"],
                "witness_cycle": {
                    "vertices": ["r", "u", "v", "z"],
                    "weights": ["1/3", "2/7", "5/11", "248/231"],
                },
            },
        ),
        (
            graph(
                ["r", "u", "v", "w"],
                {
                    ("r", "u"): 3,
                    ("r", "v"): Fraction(1, 7),
                    ("r", "w"): Fraction(2, 3),
                    ("v", "w"): Fraction(2, 11),
                    ("u", "w"): Fraction(5, 13),
                },
                "r",
            ),
            {
                "verdict": "fail",
                "failed_condition": "cycle_inequality_violated",
                "witness_cycle": {
                    "vertices": ["r", "v", "w", "u"],
                    "weights": ["1/7", "2/11", "5/13", "3"],
                },
            },
        ),
    ],
    ids=["tight_cycle_not_clique", "cycle_inequality_violated"],
)
def test_failure_certificates_are_pinned(g, expected):
    # weights over several denominators; the witnesses name the same cycles
    # as the Fraction-valued decisions did
    assert certify_fpc(g).to_json() == json.dumps(expected)


def test_large_synthesized_graph_certifies_and_gets_a_plan():
    g = synthesize_weights(random_dominating_shape(random.Random(24), 24))
    assert certify_fpc(g).ok
    non_edges = g.non_edges()
    assert forced_completion(g) == g  # every interval, none of them degenerate
    for u, v in (non_edges[0], non_edges[-1]):
        interval = admissible_interval(g, u, v)
        assert 0 <= interval.lo < interval.hi
    assert_two_member_family(g, build_plan(g, depth=12).family)


# ---------------------------------------------------------------------------
# weight synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_vertex():
    g = synthesize_weights(WeightedRootedGraph(["r"], {}, "r"))
    assert certify_fpc(g).ok and len(g.weights) == 0


def test_synthesize_star_weights_schedule():
    g = synthesize_weights(star({"a": 1, "b": 1, "c": 1}))
    assert sorted(g.weights.values()) == [Fraction(5, 4), Fraction(6, 4), Fraction(7, 4)]
    assert certify_fpc(g).ok


def test_synthesize_needs_dominating_root():
    path = graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, "b")
    assert certify_fpc(synthesize_weights(path)).ok
    rooted_at_end = graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, "a")
    with pytest.raises(GraphError):
        synthesize_weights(rooted_at_end)


def test_synthesis_sweep_all_shapes_up_to_seven_vertices():
    for g in dominating_rooted_shapes(7):
        assert certify_fpc(synthesize_weights(g)).ok


def test_synthesis_on_random_larger_shapes():
    rng = random.Random(71)
    for n in (8, 9, 10):
        for _ in range(8):
            names = ["root"] + [f"v{i}" for i in range(n - 1)]
            edges = {("root", v): Fraction(1) for v in names[1:]}
            for i in range(1, n - 1):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        edges[(names[i], names[j])] = Fraction(1)
            g = WeightedRootedGraph(names, edges, "root")
            assert certify_fpc(synthesize_weights(g)).ok


def test_certified_trees_are_stars():
    from networkx.generators.nonisomorphic_trees import nonisomorphic_trees

    certified = 0
    for n in range(2, 9):
        for T in nonisomorphic_trees(n):
            names = {node: f"v{node}" for node in T.nodes()}
            edges = {
                tuple(sorted((names[a], names[b]))): Fraction(1) for a, b in T.edges()
            }
            for root_node in T.nodes():
                g = WeightedRootedGraph(names.values(), edges, names[root_node])
                try:
                    cert = certify_fpc(synthesize_weights(g))
                except GraphError:
                    cert = certify_fpc(g)  # root not dominating: must also fail
                if cert.ok:
                    certified += 1
                    # certified tree: every non-root vertex is a leaf of the root
                    degree = {v: len(g.adjacency()[v]) for v in g.vertices}
                    assert degree[names[root_node]] == n - 1
                    assert all(
                        degree[v] == 1 for v in g.vertices if v != names[root_node]
                    )
    assert certified == 8  # one star center per size 3..8, both ends of the 2-path


# ---------------------------------------------------------------------------
# graphs from metric spaces
# ---------------------------------------------------------------------------


def test_line_points_to_certified_triangle():
    d = line_distance_matrix({"o": Fraction(0), "a": Fraction(1), "b": Fraction(3)})
    g = graph_from_metric_space(d, "o")
    assert sorted(g.weights.values()) == [1, 2, 3]
    assert g.root == "o"
    assert certify_fpc(g).ok
    assert check_metrizable(g).classification is Metrizability.METRIZABLE
    assert metric_agrees_with_weights(shortest_path_metric(g), g)


def test_equilateral_space_has_no_valid_basepoint():
    d = DistanceMatrix(
        ["a", "b", "c"], [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]
    )
    for base in ("a", "b", "c"):
        with pytest.raises(GraphError):
            graph_from_metric_space(d, base)


def test_single_point_space_to_k1():
    d = DistanceMatrix(["p"], [["0"]])
    g = graph_from_metric_space(d, "p")
    assert len(g) == 1 and g.root == "p"


def test_from_metric_requires_a_metric():
    pseudo = DistanceMatrix(["a", "b"], [["0", "0"], ["0", "0"]])
    with pytest.raises(GraphError):
        graph_from_metric_space(pseudo, "a")


def test_from_metric_round_trips_random_line_configurations():
    rng = random.Random(73)
    for _ in range(10):
        coords = {
            f"q{i}": Fraction(rng.randint(0, 200), rng.randint(1, 4)) for i in range(5)
        }
        d = line_distance_matrix(coords)
        base = min(coords, key=lambda v: coords[v])
        dists = sorted(abs(coords[v] - coords[base]) for v in coords if v != base)
        if 0 in dists or len(set(dists)) != len(dists):
            continue
        g = graph_from_metric_space(d, base)
        assert certify_fpc(g).ok
        assert metric_agrees_with_weights(shortest_path_metric(g), g)


# ---------------------------------------------------------------------------
# extremal clique counts
# ---------------------------------------------------------------------------


def test_extremal_values():
    assert [moon_moser_f(n) for n in range(2, 10)] == [2, 3, 4, 6, 9, 12, 18, 27]
    with pytest.raises(GraphError):
        moon_moser_f(1)


def test_extremal_values_match_brute_force_counts():
    for n in range(2, 10):
        vertices, adj = complete_multipartite(moon_moser_parts(n))
        assert len(brute_force_maximal_cliques(set(vertices), adj)) == moon_moser_f(n)


def test_clique_bound_on_tiny_clusters():
    k1 = WeightedRootedGraph(["r"], {}, "r")
    report = clique_bound_check(k1)
    assert (report.clique_count, report.bound) == (1, 1)
    k2 = graph(["r", "a"], {("r", "a"): 1}, "r")
    report = clique_bound_check(k2)
    assert (report.clique_count, report.bound) == (1, 1)


def test_clique_bound_tight_on_root_plus_extremal():
    g = rooted_extremal_cluster(6)  # 7 vertices total
    report = clique_bound_check(g)
    assert report.clique_count == 9 == report.bound
    assert report.slack == 0


def test_clique_bound_with_slack_on_root_plus_path():
    g = graph(
        ["r", "a", "b", "c"],
        {("r", "a"): 1, ("r", "b"): 1, ("r", "c"): 1, ("a", "b"): 1, ("b", "c"): 1},
        "r",
    )
    report = clique_bound_check(g)
    assert report.clique_count == 2 and report.bound == 3 and report.slack == 1


def test_clique_bound_requires_dominating_root():
    g = graph(["r", "a", "b"], {("r", "a"): 1, ("a", "b"): 1}, "r")
    with pytest.raises(GraphError):
        clique_bound_check(g)


def test_cluster_cliques_match_deleted_subgraph_cliques(tmp_path, capsys):
    # with a dominating root, maximal cliques of the graph and of the
    # root-deleted subgraph correspond one to one, so the bound counts g's;
    # fpc bound prints the count of the root-deleted subgraph's, brute force
    rng = random.Random(79)
    shapes = rng.sample(dominating_rooted_shapes(6), 20)
    shapes += [random_dominating_shape(rng, n, p) for n in range(1, 12) for p in (0.2, 0.5, 0.8)]
    shapes += [rooted_extremal_cluster(n) for n in range(1, 9)]
    path = tmp_path / "g.json"
    for g in shapes:
        with_root = maximal_cliques(g)
        report = clique_bound_check(g)
        assert len(with_root) == report.clique_count
        assert all(g.root in c for c in with_root)
        rest = set(g.vertices) - {g.root}
        count = len(brute_force_maximal_cliques(rest, {v: g._adj[v] & rest for v in rest})) or 1
        bound = 1 if len(g) <= 2 else moon_moser_f(len(g) - 1)
        path.write_text(g.to_json(), encoding="utf-8")
        assert main(["fpc", "bound", str(path), "--json"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "vertices": len(g),
            "maximal_cliques_without_root": count,
            "bound": bound,
            "slack": bound - count,
        }) + "\n"
