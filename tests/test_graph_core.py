import json
import random
import types
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from metric_cluster import synthesize_weights
from metric_cluster.graph_core import (
    Cycle,
    GraphError,
    IsoMapping,
    WeightedRootedGraph,
    is_dominating,
    is_weight_preserving_homomorphism,
    is_weight_preserving_monomorphism,
    isomorphic,
    maximal_cliques,
    parse_rational,
    _weights_close,
)

from oracles import (
    atlas_connected_graphs,
    brute_force_maximal_cliques,
    brute_force_simple_paths,
    cycle_count_networkx,
    enumerate_cycles,
    is_isomorphism_by_pairs,
    isomorphic_by_networkx,
    nx_to_graph,
    random_dominating_shape,
    random_weighted_graph,
)


def graph(vertices, edges, root):
    return WeightedRootedGraph(vertices, {e: parse_rational(w) for e, w in edges.items()}, root)


def triangle(w_ab="1", w_bc="1", w_ac="1"):
    return graph(
        ["a", "b", "c"], {("a", "b"): w_ab, ("b", "c"): w_bc, ("a", "c"): w_ac}, "a"
    )


def complete(names, w="1", root=None):
    from itertools import combinations

    return graph(
        names, {(u, v): w for u, v in combinations(sorted(names), 2)}, root or sorted(names)[0]
    )


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------


def test_rejects_loops_and_duplicates():
    with pytest.raises(GraphError):
        graph(["a"], {("a", "a"): "1"}, "a")
    with pytest.raises(GraphError):
        WeightedRootedGraph(["a", "b"], [(("a", "b"), Fraction(1)), (("b", "a"), Fraction(2))], "a")


def test_rejects_bad_root_and_negative_weight():
    with pytest.raises(GraphError):
        graph(["a", "b"], {("a", "b"): "1"}, "z")
    with pytest.raises(GraphError):
        graph(["a", "b"], {("a", "b"): "-1"}, "a")


def test_rejects_float_weights():
    with pytest.raises(GraphError):
        WeightedRootedGraph(["a", "b"], {("a", "b"): 1.5}, "a")


def test_construction_refuses_in_order_with_exact_messages():
    """Each refusal names its fault; an edge with two faults names the one
    checked first: loop, unknown end, duplicate, no rational, negative."""
    ab = ("a", "b")
    cases = [
        ([], {}, "a", "graph needs at least one vertex"),
        (["a", "b"], {}, "z", "root 'z' is not a vertex"),
        (["a"], {("a", "a"): "1"}, "a", "loop edge {'a','a'} is not allowed"),
        (["a"], {("z", "z"): "-1"}, "a", "loop edge {'z','z'} is not allowed"),
        (["a"], {("a", "z"): "1"}, "a", "edge ('a', 'z') uses unknown vertices"),
        (["a"], {("z", "a"): "x"}, "a", "edge ('a', 'z') uses unknown vertices"),
        (["a", "b"], [(ab, "1"), (("b", "a"), "1")], "a", "duplicate edge ('a', 'b')"),
        (["a", "b"], [(ab, "1"), (("b", "a"), "-1")], "a", "duplicate edge ('a', 'b')"),
        (["a", "b"], {ab: 1.5}, "a",
         "refusing float weight 1.5: pass a string ('3/2' or '1.5') for exactness"),
        (["a", "b"], {ab: True}, "a", "not a rational literal: True"),
        (["a", "b"], {ab: "x"}, "a", "not a rational literal: 'x'"),
        (["a", "b"], {ab: "-1"}, "a", "negative weight -1 on edge ('a', 'b')"),
        (["a", "b"], {("b", "a"): Fraction(-1, 2)}, "a", "negative weight -1/2 on edge ('a', 'b')"),
        # vertex ids are strings: the root and the vertices first, then each
        # edge end where it is compared, before its weight is read
        ([], {}, None, "vertex id None is not a string"),
        (["a", 1], {}, "z", "vertex id 1 is not a string"),
        ([1, 2], {(1, 2): "1"}, 1, "vertex id 1 is not a string"),
        (["a", "b"], {ab: "1", ("a", None): "x"}, "a", "vertex id None is not a string"),
        (["a", "b"], [((1, "b"), "-1")], "a", "vertex id 1 is not a string"),
        (["a", "b"], [((["a"], ["b"]), "1")], "a", "vertex id ['a'] is not a string"),
        (["a", "b"], {(1, 2): "1"}, "a", "edge (1, 2) uses unknown vertices"),
    ]
    for vertices, weights, root, message in cases:
        with pytest.raises(GraphError) as caught:
            WeightedRootedGraph(vertices, weights, root)
        assert str(caught.value) == message

    for zero in ("0", "-0"):
        assert WeightedRootedGraph(["a", "b"], {("b", "a"): zero}, "a").weights == {ab: 0}

    pairs = [(("c", "a"), "1/2"), (ab, Fraction(3)), (("c", "b"), 2)]
    built = [
        WeightedRootedGraph("cab", given, "b")
        for given in (dict(pairs), types.MappingProxyType(dict(pairs)), pairs)
    ]
    assert built[0] == built[1] == built[2]
    for g in built:
        assert list(g.weights.items()) == [
            (("a", "c"), Fraction(1, 2)), (ab, Fraction(3)), (("b", "c"), Fraction(2))
        ]


def test_a_graph_file_names_the_fault_the_constructor_names():
    """The reader hands each raw weight to the constructor, so a file and
    the same graph in code name the same first fault: here the duplicate,
    which the constructor checks before it reads the weight."""
    edges = [(("a", "b"), "1"), (("b", "a"), "x")]
    text = json.dumps({
        "vertices": ["a", "b"], "root": "a",
        "edges": [{"u": u, "v": v, "w": w} for (u, v), w in edges],
    })
    messages = set()
    for build in (lambda: WeightedRootedGraph(["a", "b"], edges, "a"),
                  lambda: WeightedRootedGraph.from_json(text)):
        with pytest.raises(GraphError) as refused:
            build()
        messages.add(str(refused.value))
    assert messages == {"duplicate edge ('a', 'b')"}


def test_parse_rational_formats():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)


def test_json_round_trip_bit_exact():
    g = graph(
        ["a", "b", "c"],
        {("a", "b"): "3/2", ("b", "c"): "0.1", ("a", "c"): "17"},
        "b",
    )
    text = g.to_json()
    again = WeightedRootedGraph.from_json(text)
    assert again == g
    assert again.weight("b", "c") == Fraction(1, 10)
    # round-trip through the dict twice stays identical
    assert json.loads(text) == json.loads(again.to_json())


def test_json_missing_weight_defaults_to_one():
    data = {"vertices": ["a", "b"], "root": "a", "edges": [{"u": "a", "v": "b"}]}
    g = WeightedRootedGraph.from_json_dict(data)
    assert g.weight("a", "b") == 1


def test_components_and_require_connected():
    g = graph(["a", "b", "c", "d"], {("a", "b"): "1", ("c", "d"): "1"}, "a")
    assert len(g.components()) == 2
    with pytest.raises(GraphError) as err:
        g.require_connected()
    assert "'a'" in str(err.value) and "'c'" in str(err.value)


# ---------------------------------------------------------------------------
# cycles: the enumeration oracle of oracles.py
# ---------------------------------------------------------------------------


def test_triangle_has_exactly_one_cycle():
    cycles = list(enumerate_cycles(triangle()))
    assert len(cycles) == 1
    assert set(cycles[0].vertices) == {"a", "b", "c"}


def test_tree_has_no_cycles():
    g = graph(["a", "b", "c", "d"], {("a", "b"): "1", ("a", "c"): "1", ("c", "d"): "1"}, "a")
    assert list(enumerate_cycles(g)) == []


def test_k4_has_seven_cycles():
    g = complete(["a", "b", "c", "d"])
    cycles = list(enumerate_cycles(g))
    assert len(cycles) == 7
    assert sum(1 for c in cycles if len(c.vertices) == 3) == 4
    assert sum(1 for c in cycles if len(c.vertices) == 4) == 3
    # no duplicates up to rotation/reflection
    keys = {
        frozenset(map(frozenset, zip(c.vertices, c.vertices[1:] + c.vertices[:1])))
        for c in cycles
    }
    assert len(keys) == 7


def test_cycle_counts_match_networkx_on_atlas():
    rng = random.Random(1)
    shapes = [G for G in atlas_connected_graphs(6) if G.number_of_nodes() >= 3]
    for G in rng.sample(shapes, 40):
        g = nx_to_graph(G, Fraction(1), None)
        assert sum(1 for _ in enumerate_cycles(g)) == cycle_count_networkx(g)


def test_cycle_multiset_invariant_under_renaming():
    rng = random.Random(7)
    for _ in range(10):
        g = random_weighted_graph(rng, 6)
        names = sorted(g.vertices)
        permuted = dict(zip(names, rng.sample(names, len(names))))
        h = g.relabel(permuted)
        orig = sorted(
            tuple(sorted(permuted[v] for v in c.vertices)) for c in enumerate_cycles(g)
        )
        relab = sorted(tuple(sorted(c.vertices)) for c in enumerate_cycles(h))
        assert orig == relab


def test_cycle_type_validation():
    with pytest.raises(GraphError):
        Cycle(("a", "b"), (Fraction(1), Fraction(1)))
    with pytest.raises(GraphError):
        Cycle(("a", "b", "a"), (Fraction(1),) * 3)


def test_a_cycle_of_the_graph_needs_each_edge_once():
    g = graph(["r", "u", "v", "z"], {("r", "u"): "1", ("u", "v"): "2", ("r", "v"): "3", ("r", "z"): "1"}, "r")
    assert Cycle.from_graph(g, ["r", "u", "v"]).weights == (1, 2, 3)
    with pytest.raises(GraphError, match="^'v'-'z' is not an edge; not a cycle of the graph$"):
        Cycle.from_graph(g, ["r", "u", "v", "z"])
    with pytest.raises(GraphError, match="^'u'-'z' is not an edge; not a cycle of the graph$"):
        Cycle.from_graph(g, ["r", "u", "z"])
    # an id that is no string, also one that does not hash, is refused as one
    for order, bad in ((["r", 1, "v"], "1"), (["r", ["u"], "v"], r"\['u'\]")):
        with pytest.raises(GraphError, match=f"^vertex id {bad} is not a string$"):
            Cycle.from_graph(g, order)
    for lookup in (g.has_edge, g.weight, g.without_edge, lambda u, v: g.with_edge(u, v, 1)):
        with pytest.raises(GraphError, match=r"^vertex id \[1\] is not a string$"):
            lookup([1], [2])


# ---------------------------------------------------------------------------
# paths: the path oracle of oracles.py
# ---------------------------------------------------------------------------


def test_path_graph_single_path():
    g = graph(["a", "b", "c"], {("a", "b"): "1", ("b", "c"): "1"}, "a")
    assert brute_force_simple_paths(g.adjacency(), "a", "c") == [("a", "b", "c")]


def test_four_cycle_opposite_corners_two_paths():
    g = graph(
        ["a", "b", "c", "d"],
        {("a", "b"): "1", ("b", "c"): "1", ("c", "d"): "1", ("a", "d"): "1"},
        "a",
    )
    assert len(brute_force_simple_paths(g.adjacency(), "a", "c")) == 2


def test_k4_five_paths_and_oracle_agreement():
    g = complete(["a", "b", "c", "d"])
    paths = sorted(brute_force_simple_paths(g.adjacency(), "a", "b"))
    assert len(paths) == 5
    G = nx.Graph(list(g.edges()))
    assert paths == sorted(tuple(p) for p in nx.all_simple_paths(G, "a", "b"))


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def test_complete_graph_single_clique():
    g = complete(["a", "b", "c", "d", "e"])
    assert maximal_cliques(g) == [frozenset(["a", "b", "c", "d", "e"])]


def test_empty_edge_set_singletons():
    g = WeightedRootedGraph(["a", "b", "c"], {}, "a")
    assert maximal_cliques(g) == [frozenset(["a"]), frozenset(["b"]), frozenset(["c"])]


def test_complete_tripartite_3_3_3_has_27_cliques():
    from oracles import complete_multipartite

    vertices, adj = complete_multipartite([3, 3, 3])
    weights = {
        (u, v): Fraction(1) for u in vertices for v in adj[u] if u < v
    }
    g = WeightedRootedGraph(vertices, weights, sorted(vertices)[0])
    cliques = maximal_cliques(g)
    assert len(cliques) == 27
    assert cliques == brute_force_maximal_cliques(set(vertices), adj)


def test_cliques_cover_vertices_and_match_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        g = random_weighted_graph(rng, rng.randint(2, 8))
        cliques = maximal_cliques(g)
        assert set().union(*cliques) == set(g.vertices)
        assert cliques == brute_force_maximal_cliques(set(g.vertices), g.adjacency())


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def test_star_center_dominates_leaves_do_not():
    g = graph(
        ["r", "x", "y", "z"],
        {("r", "x"): "1", ("r", "y"): "1", ("r", "z"): "1"},
        "r",
    )
    assert is_dominating(g, "r")
    assert not is_dominating(g, "x")


def test_single_vertex_dominates_vacuously():
    g = WeightedRootedGraph(["r"], {}, "r")
    assert is_dominating(g, "r")


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def injective_rooted_graph(rng, n):
    """A root joined to n - 1 vertices by pairwise distinct weights, and each
    other pair an edge of a random weight with probability 1/2: the labels
    of every cluster are injective."""
    names = [f"v{i}" for i in range(n)]
    root = rng.choice(names)
    others = [v for v in names if v != root]
    weights = {(root, v): Fraction(a, 3) for v, a in zip(others, rng.sample(range(1, 40), n - 1))}
    for e in combinations(others, 2):
        if rng.random() < 0.5:
            weights[e] = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    return WeightedRootedGraph(names, weights, root)


def test_self_isomorphism_is_identity():
    rng = random.Random(11)
    for _ in range(10):
        g = injective_rooted_graph(rng, 6)
        witness = isomorphic(g, g)
        assert witness is not None
        assert witness.mapping == {v: v for v in g.vertices}


def test_renamed_copy_recovers_the_renaming():
    rng = random.Random(13)
    for _ in range(10):
        g = injective_rooted_graph(rng, 6)
        names = sorted(g.vertices)
        renaming = dict(zip(names, [f"w{i}" for i in rng.sample(range(20), len(names))]))
        h = g.relabel(renaming)
        witness = isomorphic(g, h)
        assert witness is not None and witness.mapping == renaming
        assert witness.verify(g, h)


def test_changed_weight_breaks_weighted_isomorphism():
    g = triangle("1", "2", "3")
    h = triangle("1", "2", "7/2")
    assert isomorphic(g, h) is None
    # weights are what a cluster is compared by
    with pytest.raises(GraphError, match="weighted=False is refused"):
        isomorphic(g, h, weighted=False)


def test_root_must_map_to_root():
    g = graph(["a", "b"], {("a", "b"): "1"}, "a")
    h = graph(["a", "b"], {("a", "b"): "1"}, "b")
    witness = isomorphic(g, h)
    assert witness is not None
    assert witness.mapping == {"a": "b", "b": "a"}


def test_isomorphism_symmetry_composes_to_identity():
    rng = random.Random(17)
    for _ in range(10):
        g = injective_rooted_graph(rng, 5)
        h = g.relabel({v: f"n{i}" for i, v in enumerate(sorted(g.vertices))})
        f = isomorphic(g, h)
        b = isomorphic(h, g)
        assert f is not None and b is not None
        assert all(b.mapping[f.mapping[v]] == v for v in g.vertices)
        assert all(f.mapping[b.mapping[v]] == v for v in h.vertices)


def test_injective_labels_decide_twenty_vertices():
    # injective root labels force the mapping, at any size
    n = 20
    names = [f"v{i:02d}" for i in range(n)]
    weights = {("v00", v): Fraction(i + 1) for i, v in enumerate(names[1:])}
    g = WeightedRootedGraph(names, weights, "v00")
    renamed = g.relabel({v: f"w{i:02d}" for i, v in enumerate(names)})
    witness = isomorphic(g, renamed)
    assert witness is not None and witness.verify(g, renamed)


def test_weight_tolerance_mode():
    g = triangle("1", "2", "3")
    h = triangle("1", "2", "3.000000000001")
    assert isomorphic(g, h) is None
    assert isomorphic(g, h, weight_tol_rel=Fraction(1, 10**6)) is not None
    # a negative tolerance would answer "no" to g against itself; NaN and the
    # infinities have no rational value
    identity = {v: v for v in g.vertices}
    for tol in (-1, Fraction(-1, 10**6), -1e-9, float("nan"), float("inf"), float("-inf")):
        for check in (
            lambda: isomorphic(g, g, weight_tol_rel=tol),
            lambda: IsoMapping(identity).verify(g, g, tol),
            lambda: is_weight_preserving_homomorphism(g, g, identity, tol),
            lambda: is_weight_preserving_monomorphism(g, g, identity, tol),
        ):
            with pytest.raises(GraphError, match="finite and non-negative"):
                check()


def test_weight_tolerance_near_tie_crossing():
    # two root labels within tolerance of each other, but the extra edge
    # forces the mapping to cross the label ranking; the sorted pairing fails,
    # and with a near-tie in both graphs that is refused, not answered "no"
    eps = Fraction(1, 10**12)
    g = graph(
        ["r", "u", "v", "w"],
        {("r", "u"): 1, ("r", "v"): 1 + eps, ("r", "w"): 3, ("u", "w"): 7},
        "r",
    )
    h = graph(
        ["r", "x", "y", "z"],
        {("r", "x"): 1 + eps, ("r", "y"): 1, ("r", "z"): 3, ("x", "z"): 7},
        "r",
    )
    assert isomorphic(g, h) is None  # exact weights differ
    tol = Fraction(1, 10**6)
    assert isomorphic_by_networkx(g, h, tol)
    with pytest.raises(GraphError, match="'u' and 'v' of the first graph"):
        isomorphic(g, h, weight_tol_rel=tol)
    # at t = 1/10 the labels 85 and 100 are a near-tie, as 85 >= (1 - t)**2 * 100,
    # though 85 < (1 - t) * 100; the edge to w maps 85 onto 94 and 100 onto 91
    g = graph(["r", "u", "v", "w"], {("r", "u"): 85, ("r", "v"): 100, ("r", "w"): 300, ("u", "w"): 7}, "r")
    h = graph(["r", "x", "y", "z"], {("r", "x"): 94, ("r", "y"): 91, ("r", "z"): 300, ("x", "z"): 7}, "r")
    assert isomorphic_by_networkx(g, h, Fraction(1, 10))
    with pytest.raises(GraphError, match="'u' and 'v'"):
        isomorphic(g, h, weight_tol_rel=Fraction(1, 10))


def test_tolerant_isomorphism_without_a_near_tie_answers_without_search():
    # labels 1 + j/(m+1) lie further apart than any tolerance below 1/(m+1)
    # can close, so the sorted pairing is the one candidate, and its failure
    # answers: against one weight 1 % heavier, off the root or on it, and
    # against the second non-root label set equal to the first, either way round
    for n in (14, 100):
        g = synthesize_weights(random_dominating_shape(random.Random(n), n, 0.5))
        u, v = next(e for e in g.edges() if g.root not in e)
        first, second = [x for x in g.vertices if x != g.root][:2]
        heavier = [g.with_weight(a, b, g.weight(a, b) * Fraction(101, 100)) for a, b in ((u, v), (g.root, first))]
        tied = g.with_weight(g.root, second, g.weight(g.root, first))
        for tol in (0, Fraction(1, 10**9)):
            for h in heavier:
                assert isomorphic(g, h, weight_tol_rel=tol) is None
            assert isomorphic(g, tied, weight_tol_rel=tol) is None
            assert isomorphic(tied, g, weight_tol_rel=tol) is None
        tol = Fraction(1, 10**9)
        nudged = g.with_weight(u, v, g.weight(u, v) * (1 + Fraction(1, 10**12)))
        assert isomorphic(g, nudged, weight_tol_rel=tol).verify(g, nudged, tol)


def test_near_tied_labels_are_refused_by_name_at_any_size():
    # unit weights: every label ties, so the label order cannot decide a
    # pairing that fails, and the refusal names the first two tied vertices
    g = random_dominating_shape(random.Random(14), 14, 0.5)
    others = [v for v in g.vertices if v != g.root]
    h = g.relabel({g.root: g.root, **dict(zip(others, random.Random(3).sample(others, len(others))))})
    for tol in (0, Fraction(1, 10**9)):
        with pytest.raises(GraphError, match="'v00' and 'v01' of the first graph") as caught:
            isomorphic(g, h, weight_tol_rel=tol)
        assert "cap" not in str(caught.value)


def has_near_tie(g, tol):
    """Two non-root labels a <= b of g, out of every pair, with
    a >= (1 - tol)**2 * b, or any two when tol >= 1."""
    labels = sorted(g.weight(g.root, v) for v in g.vertices if v != g.root)
    return any(tol >= 1 or a >= (1 - tol) ** 2 * b for a, b in combinations(labels, 2))


def check_against_networkx(g, h, tol):
    """isomorphic(g, h) agrees with networkx, or refuses where it may: when
    neither root dominates, or when both graphs have a near-tie. Returns the
    verdict, None for a refusal."""
    try:
        witness = isomorphic(g, h, weight_tol_rel=tol)
    except GraphError as exc:
        if "is not dominating" in str(exc):
            assert not is_dominating(g, g.root) and not is_dominating(h, h.root)
        else:
            assert "label order does not decide" in str(exc)
            assert has_near_tie(g, tol) and has_near_tie(h, tol), (g.to_json(), h.to_json(), tol)
        return None
    assert (witness is not None) == isomorphic_by_networkx(g, h, tol), (g.to_json(), h.to_json(), tol)
    assert witness is None or is_isomorphism_by_pairs(g, h, witness.mapping, tol)
    return witness is not None


def test_tolerant_isomorphism_on_injective_labels_matches_networkx():
    # dominating roots with distinct labels from a small range, so that near-ties
    # come and go with the tolerance; h is a renamed copy with each weight times
    # or over a factor 1, 1 + t/2, 1 + t or 1 + 2t, and two root edges
    # sometimes swapped
    rng = random.Random(2)
    tolerances = [Fraction(0), Fraction(1, 10**9), Fraction(1, 20), Fraction(1, 5), Fraction(1, 2), 1, 2]
    answered = 0
    for _ in range(600):
        n = rng.randint(2, 7)
        names = [f"v{i}" for i in range(n)]
        weights = {("v0", v): Fraction(a) for v, a in zip(names[1:], rng.sample(range(4, 4 + 3 * n), n - 1))}
        for e in combinations(names[1:], 2):
            if rng.random() < 0.5:
                weights[e] = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        t = Fraction(rng.choice(tolerances))
        moved = {}
        for e, w in weights.items():
            f = rng.choice([1, 1 + t / 2, 1 + t, 1 + 2 * t])
            moved[e] = w * f if rng.random() < 0.5 else w / f
        if n > 2 and rng.random() < 0.3:
            a, b = (("v0", v) for v in rng.sample(names[1:], 2))
            moved[a], moved[b] = moved[b], moved[a]
        g = WeightedRootedGraph(names, weights, "v0")
        h = WeightedRootedGraph(names, moved, "v0").relabel(dict(zip(names, rng.sample([f"w{i}" for i in range(n)], n))))
        answered += check_against_networkx(g, h, t) is not None
    assert 300 < answered < 550
def test_weights_close_is_the_fraction_formula():
    rng = random.Random(403)
    pool = [Fraction(0), Fraction(1), Fraction(7, 3), Fraction(10**12 + 1, 10**12)]
    for _ in range(20000):
        a = rng.choice(pool) if rng.random() < 0.2 else Fraction(rng.randint(0, 60), rng.randint(1, 9))
        near = a * (1 + Fraction(rng.randint(-40, 40), rng.choice([10, 100, 10**9])))
        b = rng.choice([a, near, near, Fraction(rng.randint(0, 60), rng.randint(1, 9))])
        t = rng.choice([Fraction(0), Fraction(1, 10**9), Fraction(1, 2), Fraction(1), Fraction(3)])
        assert _weights_close(a, b, t) == (abs(a - b) <= t * max(a, b)), (a, b, t)


def random_rooted_graph(rng, n, dominating):
    """n vertices, each pair an edge with probability 1/2, weights from a
    small set (ties, automorphisms) or over random denominators; the root
    joined to everything when ``dominating``."""
    names = [f"v{i}" for i in range(n)]
    root = rng.choice(names)
    pool = [Fraction(1), Fraction(2), Fraction(3)] if rng.random() < 0.5 else None
    weights = {}
    for u, v in combinations(names, 2):
        if (dominating and root in (u, v)) or rng.random() < 0.5:
            weights[u, v] = rng.choice(pool) if pool else Fraction(rng.randint(1, 50), rng.randint(1, 7))
    return WeightedRootedGraph(names, weights, root)


def renamed_variant(rng, g):
    """A renamed copy of g, as it is or with one weight nudged (within and
    beyond a 1e-5 tolerance), one edge dropped or the root moved."""
    h = g.relabel(dict(zip(g.vertices, rng.sample([f"w{i}" for i in range(len(g))], len(g)))))
    change = rng.choice(["none", "none", "nudge", "push", "drop", "root"])
    if change in ("nudge", "push") and h.weights:
        (u, v), w = rng.choice(sorted(h.weights.items()))
        return h.with_weight(u, v, w * (1 + (Fraction(1, 10**6) if change == "nudge" else Fraction(1, 100))))
    if change == "drop" and h.weights:
        return h.without_edge(*rng.choice(h.edges()))
    if change == "root":
        return WeightedRootedGraph(h.vertices, h.weights, rng.choice(h.vertices))
    return h


def test_isomorphism_verdicts_match_networkx():
    rng = random.Random(71)
    found = {True: 0, False: 0, None: 0}
    for _ in range(450):
        g = random_rooted_graph(rng, rng.randint(1, 8), dominating=rng.random() < 0.5)
        h = renamed_variant(rng, g)
        for tol in (Fraction(0), Fraction(1, 10**5)):
            found[check_against_networkx(g, h, tol)] += 1
    assert min(found[True], found[False]) > 200


def test_nonisomorphic_same_degree_sequence():
    # C6 against two triangles, the classic degree-sequence tie, each with a
    # root joined to all six vertices by the weights 1 to 6: every vertex has
    # degree 3 in both, and the labels pair the vertices by name
    six = ["a", "b", "c", "d", "e", "f"]
    spokes = {("r", v): str(i) for i, v in enumerate(six, 1)}
    cycle = {("a", "b"): "1", ("b", "c"): "1", ("c", "d"): "1", ("d", "e"): "1", ("e", "f"): "1", ("a", "f"): "1"}
    triangles = {("a", "b"): "1", ("b", "c"): "1", ("a", "c"): "1", ("d", "e"): "1", ("e", "f"): "1", ("d", "f"): "1"}
    g = graph(["r", *six], {**spokes, **cycle}, "r")
    h = graph(["r", *six], {**spokes, **triangles}, "r")
    assert isomorphic(g, h) is None
    assert not isomorphic_by_networkx(g, h, Fraction(0))
    # without the root a is no dominating root, and nothing else decides
    with pytest.raises(GraphError, match="root 'a' is not dominating"):
        isomorphic(graph(six, cycle, "a"), graph(six, triangles, "a"))


# ---------------------------------------------------------------------------
# homomorphism checks
# ---------------------------------------------------------------------------


def test_weight_preserving_homomorphism_checks():
    g = graph(["r", "u"], {("r", "u"): "2"}, "r")
    h = graph(["r", "u", "v"], {("r", "u"): "2", ("r", "v"): "3", ("u", "v"): "2"}, "r")
    assert is_weight_preserving_homomorphism(g, h, {"r": "r", "u": "u"})
    assert is_weight_preserving_monomorphism(g, h, {"r": "r", "u": "u"})
    assert not is_weight_preserving_homomorphism(g, h, {"r": "r", "u": "v"})  # weight 3 != 2
    assert not is_weight_preserving_homomorphism(g, h, {"r": "u", "u": "r"})  # root moves
