import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from metric_cluster import metrization
from metric_cluster.fpc import FAIL_TIGHT_CYCLE_NOT_CLIQUE, certify_fpc
from metric_cluster.graph_core import Cycle, GraphError, WeightedRootedGraph
from metric_cluster.metrization import (
    DistanceMatrix,
    Metrizability,
    _classify,
    _ScaledGraph,
    admissible_interval,
    check_metrizable,
    cycle_from_graph,
    embed_cycle_on_circle,
    embed_tight_cycle_on_line,
    extend_metric,
    forced_completion,
    line_distance_matrix,
    shortest_path_metric,
    unique_pairs,
)

from oracles import (
    collinear_k4,
    interval_by_paths,
    least_interval_width,
    metric_agrees_with_weights,
    metrizability_by_cycles,
    minor_arc_rows_by_fractions,
    random_connected_graph,
    random_metrizable_graph,
    random_rational,
    random_weighted_graph,
    shortest_paths_by_fractions,
    tight_cycle_through_pair,
    with_mixed_denominators,
)


def graph(vertices, edges, root):
    return WeightedRootedGraph(vertices, {e: Fraction(w) for e, w in edges.items()}, root)


def quad_cycle(a, b, c, k):
    """The quadrilateral nu1-nu2-nu3-nu4 with consecutive weights a, b, c, k."""
    return graph(
        ["nu1", "nu2", "nu3", "nu4"],
        {
            ("nu1", "nu2"): a,
            ("nu2", "nu3"): b,
            ("nu3", "nu4"): c,
            ("nu1", "nu4"): k,
        },
        "nu1",
    )


TIGHT4 = graph(
    ["v1", "v2", "v3", "v4"],
    {("v1", "v2"): 1, ("v2", "v3"): 1, ("v3", "v4"): 1, ("v1", "v4"): 3},
    "v1",
)


# ---------------------------------------------------------------------------
# DistanceMatrix
# ---------------------------------------------------------------------------


def test_distance_matrix_validation():
    with pytest.raises(GraphError, match="asymmetry"):
        DistanceMatrix(["a", "b"], [["0", "1"], ["2", "0"]])
    with pytest.raises(GraphError, match="nonzero diagonal"):
        DistanceMatrix(["a", "b"], [["1", "1"], ["1", "0"]])
    with pytest.raises(GraphError, match="triangle inequality fails"):
        DistanceMatrix(
            ["a", "b", "c"],
            [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
        )
    with pytest.raises(GraphError, match="negative distance"):
        DistanceMatrix(["a", "b"], [["0", "-1/2"], ["-0.5", "0"]])
    # entries over 2, 4 and 5 are compared over their common denominator 20
    with pytest.raises(GraphError, match="triangle inequality fails"):
        DistanceMatrix(["a", "b", "c"], [["0", "1/2", "4/5"], ["1/2", "0", "0.25"], ["0.8", "0.25", "0"]])
    tight = DistanceMatrix(["a", "b", "c"], [["0", "1/2", "3/4"], ["1/2", "0", "0.25"], ["0.75", "0.25", "0"]])
    assert tight.get("a", "c") == tight.get("a", "b") + tight.get("b", "c")


def test_distance_matrix_holds_integers_over_its_least_common_denominator():
    vertices = ["a", "b", "c"]
    fractions = [
        [Fraction(0), Fraction(1, 2), Fraction(5, 6)],
        [Fraction(1, 2), Fraction(0), Fraction(1, 3)],
        [Fraction(5, 6), Fraction(1, 3), Fraction(0)],
    ]
    parsed = DistanceMatrix(vertices, fractions)
    # the same values over 36, six times their least common denominator
    unreduced = DistanceMatrix._from_numerators(vertices, [[int(x * 36) for x in row] for row in fractions], 36)
    assert parsed == unreduced
    assert parsed.to_json() == unreduced.to_json()
    assert json.loads(unreduced.to_json())["matrix"][0] == ["0", "1/2", "5/6"]
    for d in (parsed, unreduced):
        # no attribute holds a Fraction: one int denominator, rows of int numerators
        assert d._q == 6 and all(type(a) is int for row in d._num for a in row)
        handed_out = [x for row in d.rows for x in row] + [d.get(u, v) for u in vertices for v in vertices]
        assert all(type(x) is Fraction for x in handed_out)
        assert [(x.numerator, x.denominator) for x in d.rows[0]] == [(0, 1), (1, 2), (5, 6)]
        assert (d.get("b", "c").numerator, d.get("b", "c").denominator) == (1, 3)
    assert unreduced.rows == fractions


def test_distance_matrix_metric_flag_and_json():
    d = DistanceMatrix(["a", "b"], [["0", "1/2"], ["1/2", "0"]])
    assert d.is_metric
    again = DistanceMatrix.from_json(d.to_json())
    assert again == d
    pseudo = DistanceMatrix(["a", "b"], [["0", "0"], ["0", "0"]])
    assert not pseudo.is_metric


# ---------------------------------------------------------------------------
# shortest-path pseudometric
# ---------------------------------------------------------------------------


def test_two_edge_path_adds_weights():
    g = graph(["a", "b", "c"], {("a", "b"): 2, ("b", "c"): 3}, "a")
    d = shortest_path_metric(g)
    assert d.get("a", "c") == 5


def test_single_vertex_zero_matrix():
    d = shortest_path_metric(WeightedRootedGraph(["a"], {}, "a"))
    assert d.vertices == ("a",) and d.rows == [[0]]


def test_quad_cycle_1234_distances():
    d = shortest_path_metric(quad_cycle(1, 2, 3, 4))
    # both arcs enumerated by hand: min(1+2, 3+4) and min(2+3, 1+4)
    assert d.get("nu1", "nu3") == 3
    assert d.get("nu2", "nu4") == 5


def test_disconnected_graph_is_an_error():
    g = graph(["a", "b", "c", "d"], {("a", "b"): 1, ("c", "d"): 1}, "a")
    with pytest.raises(GraphError):
        shortest_path_metric(g)


def test_spm_satisfies_pseudometric_axioms_exactly():
    rng = random.Random(23)
    for _ in range(15):
        g = random_weighted_graph(rng, rng.randint(2, 7))
        d = shortest_path_metric(g)
        d.validate()  # exact axiom check over all triples


def test_spm_agrees_with_weights_on_metrizable_graphs():
    rng = random.Random(29)
    for _ in range(15):
        g = random_metrizable_graph(rng, rng.randint(3, 7))
        assert metric_agrees_with_weights(shortest_path_metric(g), g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spm_pseudometric_property(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    names = [f"v{i}" for i in range(n)]
    weights = {}
    for i in range(1, n):  # random spanning tree keeps the graph connected
        j = data.draw(st.integers(min_value=0, max_value=i - 1))
        weights[(names[j], names[i])] = Fraction(
            data.draw(st.integers(min_value=0, max_value=12)),
            data.draw(st.integers(min_value=1, max_value=4)),
        )
    for u, v in combinations(names, 2):
        if (u, v) not in weights and data.draw(st.booleans()):
            weights[(u, v)] = Fraction(
                data.draw(st.integers(min_value=0, max_value=12)),
                data.draw(st.integers(min_value=1, max_value=4)),
            )
    g = WeightedRootedGraph(names, weights, names[0])
    shortest_path_metric(g).validate()


# ---------------------------------------------------------------------------
# metrizability
# ---------------------------------------------------------------------------


def test_violating_triangle_with_witness():
    g = graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3}, "a")
    verdict = check_metrizable(g)
    assert verdict.classification is Metrizability.NOT_PSEUDOMETRIZABLE
    c = verdict.witness_cycle
    assert c is not None and 2 * c.max_weight() > c.total_weight()


def test_tight_four_cycle_is_metrizable():
    assert check_metrizable(TIGHT4).classification is Metrizability.METRIZABLE


def test_zero_weight_edge_pseudometrizable_only():
    g = graph(["a", "b"], {("a", "b"): 0}, "a")
    verdict = check_metrizable(g)
    assert verdict.classification is Metrizability.PSEUDOMETRIZABLE_ONLY
    assert verdict.zero_weight_edge == ("a", "b")


def test_detour_check_agrees_with_cycle_oracle():
    rng = random.Random(31)
    for _ in range(40):
        g = random_weighted_graph(rng, rng.randint(3, 8))
        assert check_metrizable(g).classification.value == metrizability_by_cycles(g)


def test_early_exit_matches_full_matrix_verdict_and_witness():
    rng = random.Random(37)
    failing = 0
    for _ in range(120):
        g = random_weighted_graph(rng, rng.randint(3, 9))
        full = _ScaledGraph.of(g)
        full.matrix()  # every Dijkstra row run before the verdict
        expected = _classify(g, full)
        assert check_metrizable(g) == expected
        failing += expected.classification is Metrizability.NOT_PSEUDOMETRIZABLE
    assert failing >= 60


@pytest.fixture
def dijkstra_runs(monkeypatch):
    """Every Dijkstra run as (adjacency list, source); holding the lists
    keeps their ids distinct."""
    runs = []
    run = metrization._dijkstra

    def recording(adj, source):
        runs.append((adj, source))
        return run(adj, source)

    monkeypatch.setattr(metrization, "_dijkstra", recording)
    return runs


def assert_no_source_runs_twice(runs):
    sources = [(id(adj), source) for adj, source in runs]
    assert len(set(sources)) == len(sources)


def test_tight_cycle_witness_reuses_the_interval_rows(dijkstra_runs):
    broken = collinear_k4(Fraction(1), Fraction(2), Fraction(3)).without_edge("u", "z")
    cert = certify_fpc(broken)
    assert cert.failure == FAIL_TIGHT_CYCLE_NOT_CLIQUE and cert.witness_pair == ("u", "z")
    assert {source for _, source in dijkstra_runs} >= {broken.vertices.index(v) for v in "uz"}
    assert_no_source_runs_twice(dijkstra_runs)


def test_violating_cycle_takes_one_detour_search(dijkstra_runs):
    rng = random.Random(43)
    failing = 0
    for _ in range(30):
        dijkstra_runs.clear()
        g = random_weighted_graph(rng, rng.randint(3, 8))
        if check_metrizable(g).classification is not Metrizability.NOT_PSEUDOMETRIZABLE:
            continue
        failing += 1
        detours = dijkstra_runs[-1][0]
        assert sum(adj is detours for adj, _ in dijkstra_runs) == 1
        assert_no_source_runs_twice(dijkstra_runs)
    assert failing >= 10


# ---------------------------------------------------------------------------
# admissible intervals
# ---------------------------------------------------------------------------


def test_quad_cycle_interval_formulas():
    g = quad_cycle(1, 2, 3, 4)
    i24 = admissible_interval(g, "nu2", "nu4")
    assert (i24.lo, i24.hi) == (Fraction(3), Fraction(5))
    i13 = admissible_interval(g, "nu1", "nu3")
    assert (i13.lo, i13.hi) == (Fraction(1), Fraction(3))


def test_tight_four_cycle_interval_degenerate():
    interval = admissible_interval(TIGHT4, "v1", "v3")
    assert (interval.lo, interval.hi) == (Fraction(2), Fraction(2))


def test_star_interval():
    g = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 5}, "r")
    interval = admissible_interval(g, "u", "v")
    assert (interval.lo, interval.hi) == (Fraction(4), Fraction(6))


def test_interval_rejects_adjacent_and_nonmetrizable():
    g = quad_cycle(1, 2, 3, 4)
    with pytest.raises(GraphError):
        admissible_interval(g, "nu1", "nu2")
    bad = graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3}, "a")
    with pytest.raises(GraphError):
        admissible_interval(bad, "a", "b")


def test_interval_rejects_equal_and_unknown_endpoints():
    g = quad_cycle(1, 2, 3, 4)
    for mu, nu in (("nu2", "nu2"), ("nu2", "x")):
        with pytest.raises(GraphError):
            admissible_interval(g, mu, nu)


def line_restricted_graph(rng, n):
    """Random connected graph on distinct integer points of a line, weighted
    by their distances: metrizable, with many tight cycles and forced pairs."""
    G = random_connected_graph(rng, n)
    x = rng.sample(range(20), n)
    names = [f"v{i}" for i in range(n)]
    weights = {(names[a], names[b]): Fraction(abs(x[a] - x[b])) for a, b in G.edges()}
    return WeightedRootedGraph(names, weights, names[0])


def test_interval_matches_simple_path_oracle():
    rng = random.Random(53)
    corpus = [random_metrizable_graph(rng, rng.randint(3, 8)) for _ in range(60)]
    corpus += [line_restricted_graph(rng, rng.randint(3, 8)) for _ in range(30)]
    pairs = degenerate = 0
    for g in corpus:
        for u, v in g.non_edges():
            interval = admissible_interval(g, u, v)
            assert interval == interval_by_paths(g, u, v), f"({u},{v}) of {g.to_json()}"
            pairs += 1
            degenerate += interval.degenerate
    assert pairs > 300 and degenerate > 10


def mixed_denominator_corpus(rng):
    """Metrizable graphs with weights over 1, 2, 3, 7, 11 and 13: random
    weights, and distances between points of a line at such positions, which
    give tight cycles and forced pairs."""
    corpus = []
    while len(corpus) < 40:
        g = with_mixed_denominators(rng, random_weighted_graph(rng, rng.randint(3, 8)))
        if check_metrizable(g).metrizable:
            corpus.append(g)
    positions = sorted({Fraction(a, q) for q in (1, 2, 3, 7, 11, 13) for a in range(2 * q)})
    for _ in range(30):
        n = rng.randint(3, 8)
        x = rng.sample(positions, n)
        names = [f"v{i}" for i in range(n)]
        edges = random_connected_graph(rng, n).edges()
        weights = {(names[a], names[b]): abs(x[a] - x[b]) for a, b in edges}
        corpus.append(WeightedRootedGraph(names, weights, names[0]))
    return corpus


def test_least_interval_width_oracle_matches_admissible_intervals():
    rng = random.Random(61)
    corpus = mixed_denominator_corpus(rng) + [random_metrizable_graph(rng, rng.randint(3, 8)) for _ in range(40)]
    checked = 0
    for g in corpus:
        if g.non_edges():
            intervals = [admissible_interval(g, u, v) for u, v in g.non_edges()]
            assert least_interval_width(g) == min(i.hi - i.lo for i in intervals), g.to_json()
            checked += 1
    assert checked > 50


def test_integer_decisions_match_fraction_oracles_on_mixed_denominators():
    rng = random.Random(59)
    pairs = degenerate = 0
    for g in mixed_denominator_corpus(rng):
        assert shortest_path_metric(g).rows == shortest_paths_by_fractions(g)
        forced = {}
        for u, v in g.non_edges():
            interval = interval_by_paths(g, u, v)
            assert admissible_interval(g, u, v) == interval, f"({u},{v}) of {g.to_json()}"
            if interval.degenerate:
                forced[u, v] = interval.lo
            else:
                # a value over a denominator that no weight has
                t = interval.lo + (interval.hi - interval.lo) * Fraction(4, 17)
                expected = shortest_paths_by_fractions(g.with_edge(u, v, t))
                assert extend_metric(g, u, v, t).rows == expected
        assert unique_pairs(g) == tuple(forced)
        completed = g
        for (u, v), t in forced.items():
            completed = completed.with_edge(u, v, t)
        assert forced_completion(g) == completed
        pairs += len(g.non_edges())
        degenerate += len(forced)
    assert pairs > 200 and degenerate > 10


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


def test_star_extension_at_five():
    g = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 5}, "r")
    d = extend_metric(g, "u", "v", 5)
    assert d.get("u", "v") == 5
    assert d.get("r", "u") == 1
    assert d.get("r", "v") == 5


def test_extension_at_upper_end_matches_spm():
    rng = random.Random(37)
    for _ in range(10):
        g = random_metrizable_graph(rng, 6)
        spm = shortest_path_metric(g)
        for u, v in g.non_edges():
            hi = admissible_interval(g, u, v).hi
            d = extend_metric(g, u, v, hi)
            assert d.get(u, v) == spm.get(u, v) == hi
            break


def test_extension_outside_interval_fails():
    g = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 5}, "r")
    with pytest.raises(GraphError):
        extend_metric(g, "u", "v", 7)  # above 6
    with pytest.raises(GraphError):
        extend_metric(g, "u", "v", 1)  # below 4
    with pytest.raises(GraphError):
        extend_metric(g, "u", "v", 0)


def test_extension_restriction_and_domination():
    # 100 random (graph, pair, admissible t) instances: the extension agrees
    # with the weights and never exceeds the shortest-path metric
    rng = random.Random(41)
    done = 0
    while done < 100:
        g = random_metrizable_graph(rng, rng.randint(4, 7))
        pairs = g.non_edges()
        if not pairs:
            continue
        u, v = pairs[rng.randrange(len(pairs))]
        interval = admissible_interval(g, u, v)
        t = interval.lo + (interval.hi - interval.lo) * Fraction(rng.randint(0, 8), 8)
        if t == 0:
            t = interval.hi / 2
        d = extend_metric(g, u, v, t)
        assert metric_agrees_with_weights(d, g)
        assert d.get(u, v) == t
        spm = shortest_path_metric(g)
        assert all(
            d.get(x, y) <= spm.get(x, y) for x, y in combinations(g.vertices, 2)
        )
        done += 1


# ---------------------------------------------------------------------------
# unique pairs and completion
# ---------------------------------------------------------------------------


def test_tight_four_cycle_unique_pairs_and_completion():
    assert unique_pairs(TIGHT4) == (("v1", "v3"), ("v2", "v4"))
    completed = forced_completion(TIGHT4)
    assert len(completed.weights) == 6  # complete on 4 vertices
    assert completed.weight("v1", "v3") == 2
    assert completed.weight("v2", "v4") == 2


def test_strict_quad_has_no_unique_pairs():
    assert unique_pairs(quad_cycle(1, 2, 3, 4)) == ()


def test_complete_graph_has_no_unique_pairs():
    g = graph(
        ["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): Fraction(5, 2)}, "a"
    )
    assert unique_pairs(g) == ()
    assert forced_completion(g) == g


def test_unique_pair_iff_tight_cycle_through_pair():
    rng = random.Random(43)
    corpus = [random_metrizable_graph(rng, rng.randint(4, 7)) for _ in range(15)]
    corpus.append(TIGHT4)
    corpus.append(quad_cycle(1, 2, 3, 4))
    for g in corpus:
        uniq = set(unique_pairs(g))
        for u, v in g.non_edges():
            assert ((u, v) in uniq) == tight_cycle_through_pair(g, u, v)


def random_tight_cycle(rng, n):
    """Cycle whose closing edge weighs as much as the rest of the arc."""
    arc = [random_rational(rng) for _ in range(n - 1)]
    verts = tuple(f"c{i}" for i in range(n))
    return Cycle(verts, tuple(arc) + (sum(arc, Fraction(0)),))


def cycle_graph(cycle):
    weights = {}
    n = len(cycle.vertices)
    for i, w in enumerate(cycle.weights):
        u, v = cycle.vertices[i], cycle.vertices[(i + 1) % n]
        weights[(u, v) if u < v else (v, u)] = w
    return WeightedRootedGraph(cycle.vertices, weights, cycle.vertices[0])


def test_tight_cycle_completion_is_complete():
    rng = random.Random(47)
    for n in (4, 5, 6):
        for _ in range(5):
            g = cycle_graph(random_tight_cycle(rng, n))
            completed = forced_completion(g)
            assert len(completed.weights) == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_equilateral_triangle_on_circle():
    c = Cycle(("a", "b", "c"), (Fraction(1), Fraction(1), Fraction(1)))
    positions, d = embed_cycle_on_circle(c)
    assert positions == {"a": 0, "b": 1, "c": 2}
    assert all(d.get(u, v) == 1 for u, v in [("a", "b"), ("b", "c"), ("a", "c")])


def test_tight_quad_on_circle():
    c = cycle_from_graph(TIGHT4)
    positions, d = embed_cycle_on_circle(c)
    assert positions == {"v1": 0, "v2": 1, "v3": 2, "v4": 3}
    assert d.get("v1", "v3") == 2
    assert metric_agrees_with_weights(d, TIGHT4)


def test_violating_quad_rejected_by_circle():
    c = Cycle(("a", "b", "c", "d"), (Fraction(1), Fraction(1), Fraction(1), Fraction(4)))
    with pytest.raises(GraphError):
        embed_cycle_on_circle(c)


def test_tight_quad_on_line():
    coords = embed_tight_cycle_on_line(cycle_from_graph(TIGHT4))
    assert coords == {"v1": 0, "v2": 1, "v3": 2, "v4": 3}


def test_tight_triangle_on_line():
    c = Cycle(("v1", "v2", "v3"), (Fraction(1), Fraction(2), Fraction(3)))
    coords = embed_tight_cycle_on_line(c)
    assert coords == {"v1": 0, "v2": 1, "v3": 3}


def test_strict_triangle_rejected_by_line():
    c = Cycle(("a", "b", "c"), (Fraction(1), Fraction(1), Fraction(1)))
    with pytest.raises(GraphError) as err:
        embed_tight_cycle_on_line(c)
    assert "circle" in str(err.value)


def test_embeddings_match_fraction_distances_on_mixed_denominators():
    rng = random.Random(61)
    checked = 0
    for n in range(3, 9):
        for _ in range(8):
            arc = [Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 7, 11, 13))) for _ in range(n - 1)]
            closing = sum(arc) if rng.random() < 0.5 else sum(arc) - Fraction(1, rng.choice((5, 6, 9)))
            c = Cycle(tuple(rng.sample("abcdefghij", n)), tuple(arc) + (closing,))
            if closing <= 0 or not c.satisfies_cycle_inequality():
                continue
            positions, circle = embed_cycle_on_circle(c)
            assert list(positions.values()) == [sum(c.weights[:i], Fraction(0)) for i in range(n)]
            assert circle.vertices == tuple(sorted(c.vertices))
            assert circle.rows == minor_arc_rows_by_fractions(c)
            if c.is_tight():
                coords = embed_tight_cycle_on_line(c)
                line = line_distance_matrix(coords)
                verts = sorted(coords)
                assert line.rows == [[abs(coords[u] - coords[v]) for v in verts] for u in verts]
                assert line == circle
            checked += 1
    assert checked > 30


def test_circle_and_line_embeddings_isometric_on_tight_cycles():
    rng = random.Random(53)
    for n in (3, 4, 5, 6):
        for _ in range(5):
            c = random_tight_cycle(rng, n)
            _, circle = embed_cycle_on_circle(c)
            line = line_distance_matrix(embed_tight_cycle_on_line(c))
            assert circle == line
