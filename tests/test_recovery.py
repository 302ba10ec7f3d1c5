import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import metric_cluster
from metric_cluster import cli, fpc, graph_core
from metric_cluster.graph_core import (
    GraphError,
    WeightedRootedGraph,
    is_weight_preserving_homomorphism,
    is_weight_preserving_monomorphism,
    isomorphic,
)
from metric_cluster.fpc import (
    FAIL_CYCLE_INEQUALITY,
    FAIL_LABELING_NOT_INJECTIVE,
    FAIL_ROOT_NOT_DOMINATING,
    FAIL_TIGHT_CYCLE_NOT_CLIQUE,
    certify_fpc,
    synthesize_weights,
)
from metric_cluster.realization import (
    CloudLevel,
    CloudPoint,
    LeveledPointCloud,
    ScalingRule,
    _level_floats,
    build_plan,
    generate_cloud,
    realize,
    single_point_space,
)
from metric_cluster.recovery import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    RecoveredCluster,
    alternating_period_indices,
    annulus_diameter_table,
    period_stride_indices,
    recover_cluster,
    spread_functional,
    subsample_levels,
    validate_recovered_cluster,
)

from oracles import (
    atlas_connected_graphs,
    certifies_by_cycles,
    cloud_json_dict,
    dominating_rooted_shapes,
    legacy_cloud_json_dict,
    level_from_fractions,
    normalized_values_by_fractions,
    nx_to_graph,
    random_dominating_shape,
    random_rational,
    random_weighting,
    recover_by_fractions,
    rooted_extremal_cluster,
)


def graph(vertices, edges, root):
    return WeightedRootedGraph(vertices, {e: Fraction(w) for e, w in edges.items()}, root)


def shadowless(cloud: LeveledPointCloud) -> LeveledPointCloud:
    """The cloud written without its exact shadows: recovery reads its binary64
    coordinates as the dyadic rationals they are."""
    return LeveledPointCloud.from_json(cloud.to_json(include_exact=False))


ONE_GAP = graph(
    ["r", "u", "v", "z"],
    {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 3, ("v", "z"): 5},
    "r",
)

CERT_TRIANGLE = graph(
    ["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): Fraction(5, 2)}, "r"
)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_float_recovery():
    rc = recover_cluster(shadowless(realize(ONE_GAP, depth=12)))
    assert rc.diagnostics_json_dict()["decided"] == "on binary64 coordinates, exactly"
    assert rc.graph.root == "r"
    assert not rc.warnings
    witness = isomorphic(ONE_GAP, rc.graph, weight_tol_rel=Fraction(1, 10**9))
    assert witness is not None


def test_round_trip_exact_recovery_reproduces_weights():
    cloud = realize(ONE_GAP, depth=12)
    rc = recover_cluster(cloud, use_exact=True)
    assert rc.graph == ONE_GAP
    # --diag-out's root-distance values are the root-edge weights
    assert rc.diagnostics_json_dict()["rho0"] == {"r": "0", "u": "1", "v": "2", "z": "3"}


def test_round_trip_sweep_over_shapes():
    rng = random.Random(89)
    for g in rng.sample(dominating_rooted_shapes(5), 12):
        weighted = synthesize_weights(g)
        depth = max(8, 2 * len(weighted.non_edges()) + 2)
        cloud = realize(weighted, depth=depth)
        rc = recover_cluster(cloud, use_exact=True)
        assert rc.graph == weighted, f"round trip failed for {weighted!r}"


def test_large_synthesized_graph_round_trips_at_default_depth():
    # 24 vertices, 127 non-edges: the family period stays 2, so depth 12 suffices
    g = synthesize_weights(random_dominating_shape(random.Random(24), 24))
    cloud = realize(g, depth=12)
    assert recover_cluster(cloud, use_exact=True).graph == g


def hand_built_cloud() -> LeveledPointCloud:
    """Non-integer scales, negative coordinates and mixed denominators; 'b'
    swaps its coordinates every level, so 'a|b' and 'b|c' oscillate."""
    a = (Fraction(-1, 2), Fraction(2, 5))
    c = (Fraction(-7, 3), Fraction(1, 9))
    levels = []
    for n in range(1, 9):
        r = Fraction(7 * n**3, 3)
        b = (Fraction(3, 4), Fraction(-5, 6))[:: 1 if n % 2 else -1]
        points = {"p": (Fraction(0), Fraction(0))}
        for label, vec in (("a", a), ("b", b), ("c", c)):
            points[label] = tuple(r * x for x in vec)
        levels.append(level_from_fractions(n, r, points))
    return LeveledPointCloud(dimension=2, levels=levels, period=2)


def oracle_clouds():
    shape = next(g for g in dominating_rooted_shapes(6) if len(g.non_edges()) == 4)
    factorial = realize(synthesize_weights(shape), depth=20)
    alternating = alternating_period_indices(factorial)
    return {
        "factorial": (factorial, None),
        "power_square": (realize(ONE_GAP, depth=6, rule=ScalingRule("power_square", 3)), None),
        "hand_built": (hand_built_cloud(), None),
        "alternating_periods": (subsample_levels(factorial, alternating), len(alternating)),
    }


# the names of oracle_clouds, whose clouds are built in the test: a cloud the
# constructor refuses then fails that test, not the module's collection
@pytest.mark.parametrize("name", ["alternating_periods", "factorial", "hand_built", "power_square"])
def test_exact_values_match_fraction_oracle(name):
    cloud, window = oracle_clouds()[name]
    rc = recover_cluster(cloud, use_exact=True, window=window)
    base, pairs = normalized_values_by_fractions(cloud, rc.window)
    root = rc.graph.root

    def values(a, b):
        # the root class is measured at the basepoint, every other class at its name
        if root in (a, b):
            return base[b if a == root else a]
        return pairs[min(a, b), max(a, b)]

    def mean(vals):
        return sum(vals) / len(vals)

    others = [x for x in rc.graph.vertices if x != root]
    assert [rc.graph.weight(root, x) for x in others] == [mean(base[x]) for x in others]
    assert rc.graph.weights == {e: mean(values(*e)) for e in rc.graph.weights}
    assert len(rc.diagnostics) == len(rc.graph) * (len(rc.graph) - 1) // 2
    for diag in rc.diagnostics:
        vals = values(*diag["pair"].split("|"))
        estimates = diag["liminf_estimate"], diag["limsup_estimate"], diag["mean"]
        assert estimates == (float(min(vals)), float(max(vals)), float(mean(vals)))
    # the numerators the loader derives from the JSON strings recover the same
    loaded = LeveledPointCloud.from_json(cloud.to_json())
    assert recover_cluster(loaded, use_exact=True, window=window) == rc


# ---------------------------------------------------------------------------
# exact decisions against the Fraction oracle
# ---------------------------------------------------------------------------


def positions_cloud(sequences: dict, scales=(1, 2)) -> LeveledPointCloud:
    """A period-less cloud from {label: one normalized position per level}:
    level n has exact scale scales[n - 1] and holds r_n times each position."""
    levels = []
    for n, r in enumerate(map(Fraction, scales), 1):
        points = {lbl: tuple(r * Fraction(c) for c in seq[n - 1]) for lbl, seq in sequences.items()}
        levels.append(level_from_fractions(n, r, points))
    dimension = len(next(iter(sequences.values()))[0])
    return LeveledPointCloud(dimension=dimension, levels=levels)


def decaying_and_drifting_cloud() -> LeveledPointCloud:
    """'d' halves its normalized basepoint distance every level, 'w' keeps
    growing it, 's' and 't' stay put."""
    levels = 6
    return positions_cloud(
        {
            "d": [(Fraction(8, 2**n), 0) for n in range(levels)],
            "w": [(0, 1 + n) for n in range(levels)],
            "s": [(Fraction(-3, 2), 1)] * levels,
            "t": [(Fraction(5, 3), Fraction(-2, 7))] * levels,
        },
        scales=[Fraction(n**3, 3) for n in range(1, levels + 1)],
    )


def chain_cloud() -> LeveledPointCloud:
    """Five sequences a tenth apart in a row: tolerances that identify
    neighbors chain the ends 0.4 apart into one class."""
    return positions_cloud(
        {"far": [(1,)] * 4} | {f"t{i}": [(Fraction(1, 2) + Fraction(i, 10),)] * 4 for i in range(5)},
        scales=(1, 2, 6, 24),
    )


def fraction_oracle_clouds():
    rng = random.Random(12)
    clouds = [hand_built_cloud(), decaying_and_drifting_cloud(), chain_cloud()]
    for n in (3, 4, 5, 6):
        g = synthesize_weights(random_dominating_shape(rng, n))
        factorial = realize(g, depth=8)
        clouds.append(factorial)
        clouds.append(realize(g, depth=4, rule=ScalingRule("power_square", 2)))
        clouds.append(subsample_levels(factorial, [1, 2, 4, 7]))  # no period
    return clouds


def outcome(recover, *args, **kwargs):
    """The recovered cluster, or the message of the GraphError raised."""
    try:
        return recover(*args, **kwargs)
    except GraphError as exc:
        return str(exc)


def test_exact_recovery_matches_fraction_oracle():
    # (0.125, 0) chains the sequences of chain_cloud, and (10, 3) merges
    # every class of the synthesized clouds
    seen = set()
    for cloud in fraction_oracle_clouds():
        for window in (None, 2, cloud.depth):
            for tol_rel, tol_abs in ((0, 0), (1e-6, 1e-9), (0.125, 0), (10.0, 3.0)):
                expected = outcome(recover_by_fractions, cloud, tol_rel, tol_abs, window)
                got = outcome(recover_cluster, cloud, tol_rel, tol_abs, window, use_exact=True)
                assert got == expected, (window, tol_rel, tol_abs)
                # shadows decide exactly by default, at explicit tolerances too
                assert outcome(recover_cluster, cloud, tol_rel, tol_abs, window) == got
                if isinstance(got, str):
                    seen.add("closure" if "closure" in got else got)
                else:
                    seen.add("merged" * any(len(m) > 1 for m in got.classes.values()))
                    seen.add("decayed" * bool(got.merge_log))
                    seen.add("dropped" * bool(got.warnings))
    assert {"closure", "merged", "decayed", "dropped"} <= seen


def partly_shadowed(cloud: LeveledPointCloud, rng: random.Random) -> LeveledPointCloud:
    """The cloud with half of each level's points, and about half of its
    exact scales, replaced by their binary64 values: edits of a document with
    absolute shadows, which need no r_exact."""
    doc, floats = legacy_cloud_json_dict(cloud), cloud_json_dict(cloud, include_exact=False)
    for level, rounded in zip(doc["levels"], floats["levels"]):
        points = level["points"]
        for i in rng.sample(range(len(points)), len(points) // 2):
            points[i] = rounded["points"][i]
        if rng.random() < 0.5:
            del level["r_exact"]
            level["r"] = rounded["r"]
    return LeveledPointCloud.from_json_dict(doc)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 9),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    rule=st.sampled_from([ScalingRule(), ScalingRule("power_square", 2)]),
    seed=st.integers(0, 2**16),
    zero=st.booleans(),
)
def test_binary64_coordinates_decide_as_the_fraction_oracle(n, p, rule, seed, zero):
    # clouds without shadows and with some: each binary64 coordinate is the
    # rational it equals, at the default tolerances (the oracle's) and at 0
    rng = random.Random(seed)
    cloud = realize(synthesize_weights(random_dominating_shape(rng, n, p)), 12, rule)
    tolerances = (0, 0) if zero else ()
    for mixed in (shadowless(cloud), partly_shadowed(cloud, rng)):
        assert not mixed.has_exact()
        got = outcome(recover_cluster, mixed, *tolerances)
        assert got == outcome(recover_by_fractions, mixed, *tolerances)


def test_shadows_and_binary64_values_of_a_level_share_one_denominator():
    # the hand-built cloud's shadows and scales are not dyadic, so a level
    # with both kinds of points puts its shadows over a multiple of their q
    for seed in range(4):
        mixed = partly_shadowed(hand_built_cloud(), random.Random(seed))
        for tolerances in ((), (0, 0), (0.125, 0)):
            got = outcome(recover_cluster, mixed, *tolerances)
            assert got == outcome(recover_by_fractions, mixed, *tolerances)


# binary tolerances: every threshold below is exact in binary64 as well
TOL_REL, TOL_ABS = 0.5, 0.25


def decide(cloud):
    """Recovery with TOL_REL and TOL_ABS of the cloud and of its copy without
    shadows, each checked against the Fraction oracle: every position is a
    multiple of 1/8, exact in binary64, so both copies decide alike. The
    GraphError message stands in for a raised error."""
    got = outcome(recover_cluster, cloud, TOL_REL, TOL_ABS, use_exact=True)
    assert got == outcome(recover_by_fractions, cloud, TOL_REL, TOL_ABS)
    floats = shadowless(cloud)
    from_floats = outcome(recover_cluster, floats, TOL_REL, TOL_ABS)
    assert from_floats == outcome(recover_by_fractions, floats, TOL_REL, TOL_ABS)
    assert from_floats == (got if isinstance(got, str) else dataclasses.replace(got, _exact=False))
    return got


def test_adjacency_at_its_threshold():
    # every basepoint distance is 3; a|b has values 1 and 2, so its spread 1
    # equals 1/4 + 1/2 * mean 3/2, and a|c exceeds that by the least step 1/8
    rc = decide(
        positions_cloud(
            {
                "a": [(3, 0), (3, 0)],
                "b": [(3, 1), (3, 2)],
                "c": [(3, -1), (3, Fraction(-17, 8))],
            }
        )
    )
    by_pair = {d["pair"]: d for d in rc.diagnostics}
    assert by_pair["a|b"]["adjacent"] and rc.graph.weights["a", "b"] == Fraction(3, 2)
    assert not by_pair["a|c"]["adjacent"] and ("a", "c") not in rc.graph.weights
    assert by_pair["a|c"]["spread"] == 9 / 8


def test_basepoint_stability_at_its_threshold():
    # a's basepoint values 1 and 2 spread by exactly 1/4 + 1/2 * 3/2; b's
    # values 1 and 17/8 exceed that by 1/8, so b is dropped
    rc = decide(positions_cloud({"a": [(1, 0), (2, 0)], "b": [(0, 1), (0, Fraction(17, 8))]}))
    assert set(rc.graph.vertices) == {"nu0", "a"}
    assert rc.warnings == ["dropped 'b': normalized basepoint distance does not stabilize (spread 1.12)"]


def test_identification_at_its_threshold():
    # the largest basepoint distance 25/8 puts the identification threshold
    # at E = 1/4 + 25/16 = 29/16, between the grid's 7/4 and 15/8: a and b,
    # 7/4 apart, are identified, while c, 15/8 from a, is not
    rc = decide(
        positions_cloud(
            {
                "a": [(3, 0)] * 2,
                "b": [(3, Fraction(7, 4))] * 2,
                "c": [(3, Fraction(-15, 8))] * 2,
                "far": [(Fraction(-25, 8), 0)] * 2,
            }
        )
    )
    assert rc.classes["a"] == ("a", "b") and rc.classes["c"] == ("c",)
    # and at E exactly: with the largest basepoint distance 3, E = 7/4
    rc = decide(positions_cloud({"a": [(3, 0)] * 2, "b": [(3, Fraction(7, 4))] * 2}))
    assert rc.classes["a"] == ("a", "b")
    rc = decide(positions_cloud({"a": [(3, 0)] * 2, "b": [(3, Fraction(15, 8))] * 2}))
    assert rc.classes["a"] == ("a",)


def test_decay_at_its_threshold():
    # d's basepoint distance falls from 4 to exactly half of it and is
    # absorbed into the root class; e's falls from 31/8 to 2, the step of
    # eighths just above half of it
    rc = decide(positions_cloud({"d": [(4,), (2,)]}))
    assert rc.graph.vertices == ("d",) and rc.graph.root == "d"
    assert rc.merge_log == [
        "'d' absorbed into the root class: normalized basepoint distance decays 4 -> 2"
    ]
    rc = decide(positions_cloud({"e": [(Fraction(31, 8),), (2,)]}))
    assert not rc.merge_log and rc.warnings[0].startswith("dropped 'e'")
    # a rise by at most E still counts as non-increasing: with 'far' at
    # distance 10, E = 1/4 + 5 = 21/4, and d rises from 4 to 4 + E
    rise = [(4,), (Fraction(37, 4),), (2,)]
    far = [(-10,)] * 3
    rc = decide(positions_cloud({"d": rise, "far": far}, scales=(1, 2, 3)))
    assert rc.classes["d"] == ("d",) and rc.merge_log
    rise[1] = (Fraction(75, 8),)
    rc = decide(positions_cloud({"d": rise, "far": far}, scales=(1, 2, 3)))
    assert not rc.merge_log


def test_closure_error_at_its_threshold():
    # with every basepoint distance 4, E = 1/4 + 2 = 9/4; four sequences E
    # apart chain into one class whose ends are exactly 3E apart, and a fifth
    # one the least step beyond the last makes the ends exceed 3E
    row = [Fraction(-27, 8) + i * Fraction(9, 4) for i in range(4)]
    sequences = {f"t{i}": [(4, x)] * 2 for i, x in enumerate(row)}
    rc = decide(positions_cloud(sequences))
    assert rc.classes["t0"] == ("t0", "t1", "t2", "t3")
    sequences["t4"] = [(4, row[-1] + Fraction(1, 8))] * 2
    message = decide(positions_cloud(sequences))
    assert "'t0' and 't4' have mean normalized distance 6.88 > 3x tolerance" in message


def test_round_trip_diagnostics_capture_oscillation():
    cloud = realize(ONE_GAP, depth=12)
    rc = recover_cluster(cloud)
    by_pair = {d["pair"]: d for d in rc.diagnostics}
    osc = by_pair["u|z"]
    assert not osc["adjacent"]
    assert osc["limsup_estimate"] == pytest.approx(4.0, rel=1e-9)
    assert osc["liminf_estimate"] == pytest.approx(3.0, rel=1e-9)
    assert by_pair["u|v"]["adjacent"]


def test_recovered_invariants_hold():
    for g in (ONE_GAP, CERT_TRIANGLE):
        cloud = realize(g, depth=12)
        for decided in (cloud, shadowless(cloud)):  # on shadows and on binary64 coordinates
            assert validate_recovered_cluster(recover_cluster(decided)) == []


def test_round_trip_with_tight_cycles_tolerates_float_noise():
    # complete graph of collinear points: every triangle is exactly tight, so
    # rounding the coordinates to binary64 can tip cycle sums either way; the
    # invariant check must absorb that while the shadows reproduce the graph verbatim
    from oracles import collinear_k4

    g = collinear_k4(Fraction(1, 3), Fraction(1, 7), Fraction(2, 5))
    cloud = realize(g, depth=12)
    rc = recover_cluster(shadowless(cloud))
    assert rc.diagnostics_json_dict()["decided"] == "on binary64 coordinates, exactly"
    assert validate_recovered_cluster(rc) == []
    assert isomorphic(g, rc.graph, weight_tol_rel=Fraction(1, 10**9))
    assert recover_cluster(cloud, use_exact=True).graph == g


def hand_recovery(
    g: WeightedRootedGraph, tol_rel=DEFAULT_TOL_REL, tol_abs=DEFAULT_TOL_ABS
) -> RecoveredCluster:
    """g as a recovery at these tolerances would hand it out."""
    classes = {v: (v,) for v in g.vertices}
    return RecoveredCluster(g, classes, [], [], [], window=2, tol_rel=tol_rel, tol_abs=tol_abs)


EPS = Fraction(1, 10**12)


def near_tight(eps) -> WeightedRootedGraph:
    """Root r, r-u 1, r-x 2, r-z 3 - eps and u-x = x-z = 1: the non-edge u-z
    has admissible interval [2 - eps, 2], pinned by the root edge of z."""
    edges = {("r", "u"): 1, ("r", "x"): 2, ("r", "z"): 3 - eps, ("u", "x"): 1, ("x", "z"): 1}
    return graph(["r", "u", "x", "z"], edges, "r")


def two_triangles(ab) -> RecoveredCluster:
    edges = {("r", "a"): 1, ("r", "b"): 2, ("a", "b"): ab, ("r", "c"): 4, ("r", "d"): 5, ("c", "d"): 100}
    return hand_recovery(graph(["r", "a", "b", "c", "d"], edges, "r"))


def test_validation_reports_every_edge_beyond_its_distance():
    # a-b exceeds d(a, b) = 3 by 1e-12, within tolerance; c-d exceeds d(c, d) = 9 by 91
    problems = validate_recovered_cluster(two_triangles(3 + EPS))
    assert len(problems) == 1 and "edge 'c'-'d' of weight 100 exceeds their distance by 91" in problems[0]
    # judged while c-d breaks the cycle inequality, the intervals of a-c, a-d,
    # b-c and b-d would come out degenerate: (iii) waits for (ii)
    assert validate_recovered_cluster(two_triangles(3)) == problems


def test_validation_reports_a_disconnected_graph_by_its_root():
    # no shortest-path rows exist across components; (i) already names the fault
    g = graph(["r", "a", "b"], {("a", "b"): 1}, "r")
    assert validate_recovered_cluster(hand_recovery(g)) == ["root 'r' is not dominating"]


def test_validation_reports_a_non_edge_forced_within_tolerance():
    # u-z has admissible interval [2 - 1e-12, 2], pinned by the root edge of z
    g = near_tight(EPS)
    assert certify_fpc(g).ok
    problems = validate_recovered_cluster(hand_recovery(g))
    assert len(problems) == 1
    assert "non-edge 'u'-'z' has admissible interval [2, 2] of width 1e-12" in problems[0]
    assert problems[0].endswith("pinned by edge 'r'-'z'")
    assert validate_recovered_cluster(hand_recovery(g, 0, 0)) == []


@pytest.mark.parametrize("eps", [Fraction(1, 10**6), Fraction(1, 10**9), Fraction(1, 10**12)])
def test_validation_reads_the_tolerances_of_the_recovery(eps):
    # u-z has admissible interval [2 - eps, 2]: exact recovery at tolerance 0
    # gives the graph back, and validation at the default tolerances would
    # call u-z forced
    g = near_tight(eps)
    rc = recover_cluster(realize(g, 12), tol_rel=0, tol_abs=0, use_exact=True)
    assert rc.graph == g and (rc.tol_rel, rc.tol_abs) == (0, 0)
    assert validate_recovered_cluster(rc) == []
    assert validate_recovered_cluster(hand_recovery(g))[0].startswith("near-tight cycle: non-edge 'u'-'z'")


@pytest.mark.parametrize("eps", [Fraction(1, 10**k) for k in (3, 6, 9, 12)])
def test_shadows_decide_by_default(eps):
    # from eps = 1e-6 on, the default recovery decided in binary64 at tolerance
    # 1e-6, took u-z for an edge and validated to []
    cloud = realize(near_tight(eps), 12)
    rc = recover_cluster(cloud)
    assert rc.graph == near_tight(eps) and rc.tol_rel == rc.tol_abs == 0
    assert validate_recovered_cluster(rc) == []
    # explicit tolerances apply on shadows as well, as exact recovery applied them
    explicit = recover_cluster(cloud, tol_rel=1e-6, tol_abs=1e-9)
    assert explicit == recover_by_fractions(cloud, 1e-6, 1e-9)
    assert ("u", "z") in explicit.graph.weights or eps == Fraction(1, 10**3)
    # without their shadows, the same points decide at the defaults 1e-6 and
    # 1e-9, and take the same edges
    floats = recover_cluster(shadowless(cloud))
    assert (floats.tol_rel, floats.tol_abs) == (DEFAULT_TOL_REL, DEFAULT_TOL_ABS) == (1e-6, 1e-9)
    assert floats.graph.weights.keys() == explicit.graph.weights.keys()


def test_validation_at_zero_tolerance_is_certification():
    # two random weightings per shape, and one by points on a line, which
    # makes tight cycles
    rng = random.Random(16)
    outcomes = set()
    for shape in dominating_rooted_shapes(5):
        points = iter(rng.sample(range(1, 10), len(shape) - 1))
        at = {v: 0 if v == shape.root else next(points) for v in shape.vertices}
        weightings = [{e: random_rational(rng, 6, 2) for e in shape.edges()} for _ in range(2)]
        weightings.append({(u, v): Fraction(abs(at[u] - at[v])) for u, v in shape.edges()})
        for weights in weightings:
            g = WeightedRootedGraph(shape.vertices, weights, shape.root)
            problems = validate_recovered_cluster(hand_recovery(g, 0, 0))
            assert (problems == []) == certifies_by_cycles(g), g.to_json()
            outcomes.add(certify_fpc(g).failure)
    # passes and every metric failure occur
    assert {None, FAIL_TIGHT_CYCLE_NOT_CLIQUE, FAIL_CYCLE_INEQUALITY} <= outcomes


# the condition each validation text names, by its opening words
CONDITION_OF_TEXT = {
    "root '": FAIL_ROOT_NOT_DOMINATING,
    "root-distance values": FAIL_LABELING_NOT_INJECTIVE,
    "cycle inequality fails": FAIL_CYCLE_INEQUALITY,
    "near-tight cycle": FAIL_TIGHT_CYCLE_NOT_CLIQUE,
}


def condition_named(text: str) -> str:
    return next(kind for opening, kind in CONDITION_OF_TEXT.items() if text.startswith(opening))


def test_certification_and_validation_make_one_decision():
    # random weightings of every dominating-root shape on up to 6 vertices, and
    # of every connected graph on up to 6 vertices rooted at a dominating vertex;
    # each shape also weighted by points on a line, which makes tight cycles
    rng = random.Random(21)
    graphs = []
    for shape in dominating_rooted_shapes(6):
        weights = random_weighting(nx.Graph(shape.edges()), rng)
        graphs.append(WeightedRootedGraph(shape.vertices, dict(zip(shape.edges(), weights)), shape.root))
        at = dict(zip(shape.vertices, rng.sample(range(1, 12), len(shape))), **{shape.root: 0})
        line = {(u, v): Fraction(abs(at[u] - at[v])) for u, v in shape.edges()}
        graphs.append(WeightedRootedGraph(shape.vertices, line, shape.root))
    for G in atlas_connected_graphs(6):
        g = nx_to_graph(G, random_weighting(G, rng), None)
        rooted = (WeightedRootedGraph(g.vertices, g.weights, v) for v in g.vertices)
        graphs += [h for h in rooted if graph_core._undominated_vertex(h) is None]
    outcomes = set()
    for g in graphs:
        cert = certify_fpc(g)
        problems = validate_recovered_cluster(hand_recovery(g, 0, 0))
        assert (problems == []) == cert.ok, g.to_json()
        assert cert.ok or condition_named(problems[0]) == cert.failure, (g.to_json(), problems[0])
        outcomes.add(cert.failure)
    assert {None, FAIL_LABELING_NOT_INJECTIVE, FAIL_CYCLE_INEQUALITY, FAIL_TIGHT_CYCLE_NOT_CLIQUE} <= outcomes


def test_label_pairs_keep_their_two_orders():
    # labels a = 1, b = 2, c = 2, d = 1: certification names the first vertex whose
    # label an earlier one has, c, with b; validation lists the pairs in sorted order
    g = graph(["r", "a", "b", "c", "d"], {("r", "a"): 1, ("r", "b"): 2, ("r", "c"): 2, ("r", "d"): 1}, "r")
    assert certify_fpc(g).witness_pair == ("b", "c")
    problems = validate_recovered_cluster(hand_recovery(g, 0, 0))
    assert problems == [
        f"root-distance values of {u!r} and {v!r} are not distinct beyond tolerance"
        for u, v in (("a", "d"), ("b", "c"))
    ]


def test_validation_enumerates_no_cliques(monkeypatch):
    # a root and the complete 12-partite graph with parts of 3: it has 3**12
    # maximal cliques, the most any graph on 36 vertices has
    g = synthesize_weights(rooted_extremal_cluster(36))
    rc = recover_cluster(realize(g, depth=12))

    def refuse(*args):
        raise AssertionError("maximal cliques enumerated")

    # the one clique routine, wherever the package imports it
    routine = graph_core.maximal_cliques
    for module in (graph_core, fpc, cli, metric_cluster):
        assert module.maximal_cliques is routine
        monkeypatch.setattr(module, "maximal_cliques", refuse)
    assert validate_recovered_cluster(rc) == []


def test_single_point_cloud_recovers_one_vertex():
    rc = recover_cluster(single_point_space(depth=12, base=2))
    assert rc.graph.vertices == ("p",)
    assert rc.diagnostics_json_dict()["rho0"] == {"p": "0"}
    assert rc.merge_log  # the decaying sequence was absorbed
    assert validate_recovered_cluster(rc) == []


def test_basepoint_only_cloud_recovers_k1():
    levels = [level_from_fractions(n, Fraction(n), {"p": (Fraction(0),)}) for n in (1, 2, 3, 4)]
    rc = recover_cluster(LeveledPointCloud(dimension=1, levels=levels))
    assert rc.graph.vertices == ("p",) and rc.graph.root == "p"


def test_a_cloud_of_pointless_levels_is_refused_at_construction():
    # a level without points has no q, and a cloud of them no sequence to recover
    levels = [CloudLevel(1, 1.0, Fraction(1), []), CloudLevel(2, 2.0, Fraction(2), [])]
    with pytest.raises(GraphError, match="^cloud JSON has no points$"):
        LeveledPointCloud(1, levels)
    # a subsample skips the checks its levels have passed, but not this one
    cloud = LeveledPointCloud(1, levels + [CloudLevel(3, 3.0, None, [CloudPoint("p", (0.0,))])])
    assert subsample_levels(cloud, [2, 3]).depth == 2
    with pytest.raises(GraphError, match="^cloud JSON has no points$"):
        subsample_levels(cloud, [1, 2])


def test_empty_cloud_rejected():
    with pytest.raises(GraphError, match="^cloud JSON has no points$"):
        recover_cluster(LeveledPointCloud(dimension=1, levels=[]))


def test_window_shorter_than_period_rejected():
    cloud = realize(ONE_GAP, depth=12)
    assert cloud.period == 2
    with pytest.raises(GraphError):
        recover_cluster(cloud, window=1)


def test_default_window_spans_two_levels_when_the_period_is_one():
    # a window of one level has spread 0 and would make the non-edge u|z an edge
    cloud = realize(ONE_GAP, depth=12)
    period_one = LeveledPointCloud(cloud.dimension, cloud.levels, period=1)
    rc = recover_cluster(period_one, use_exact=True)
    assert rc.window == 2 and rc.graph == ONE_GAP
    rc = recover_cluster(period_one)
    assert isomorphic(ONE_GAP, rc.graph, weight_tol_rel=Fraction(1, 10**9))
    # a complete graph is realized with period 1 and still recovers
    complete = realize(CERT_TRIANGLE, depth=12)
    assert complete.period == 1
    rc = recover_cluster(complete, use_exact=True)
    assert rc.window == 2 and rc.graph == CERT_TRIANGLE


def test_non_finite_float_values_rejected():
    cloud = realize(ONE_GAP, depth=12)
    # a subnormal scale, exact and so also in binary64, under the same
    # coordinates: every normalized distance of the level overflows binary64
    # where recovery reports it
    last, tiny_scale = cloud.levels[-1], Fraction(1, 2**1074)
    factor = int(last.r_exact / tiny_scale)
    points = [dataclasses.replace(p, exact=tuple(factor * a for a in p.exact)) for p in last.points]
    levels = cloud.levels[:-1] + [dataclasses.replace(last, r=None, r_exact=tiny_scale, points=points)]
    tiny = LeveledPointCloud(cloud.dimension, levels, cloud.period)
    assert tiny.levels[-1].r == 5e-324
    # its shadows, and its floats once the shadows are gone, both decide exactly
    for decided in (tiny, shadowless(tiny)):
        with pytest.raises(GraphError, match="does not fit binary64: a level's coordinates are too large for its scale"):
            recover_cluster(decided)
    floats = shadowless(cloud)
    # a threshold beyond binary64 is a tolerance like any other, on floats as on
    # shadows: it identifies every sequence with the basepoint
    for tol_rel in (1e308, 10**400):
        merged = recover_cluster(floats, tol_rel=tol_rel).graph
        assert merged == recover_cluster(cloud, tol_rel=tol_rel).graph and merged.vertices == ("r",)
    # tolerances that are not numbers, a Decimal NaN (it raised a bare
    # decimal.InvalidOperation), and a NaN, an infinity or a negative value
    # on a cloud without shadows
    for check in (
        lambda: validate_recovered_cluster(dataclasses.replace(recover_cluster(cloud), tol_rel=None)),
        lambda: recover_cluster(cloud, tol_abs="1e-9", use_exact=True),
        lambda: validate_recovered_cluster(dataclasses.replace(recover_cluster(cloud), tol_abs="1e-9")),
        lambda: recover_cluster(cloud, tol_rel=Decimal("NaN")),
        lambda: validate_recovered_cluster(dataclasses.replace(recover_cluster(cloud), tol_rel=Decimal("NaN"))),
        lambda: recover_cluster(floats, tol_rel=math.nan),
        lambda: recover_cluster(floats, tol_abs=math.inf),
        lambda: recover_cluster(floats, tol_rel=-1e-6),
    ):
        with pytest.raises(GraphError, match="tolerances must be finite and non-negative, got"):
            check()
    # values whose window sum leaves binary64: the exact sum does not overflow,
    # and the tail mean is the value itself
    huge = LeveledPointCloud(1, [
        CloudLevel(n=n, r=1.0, r_exact=None, points=[CloudPoint("a", (1e308,))])
        for n in (1, 2, 3, 4)
    ])
    assert recover_cluster(huge).graph.weight("nu0", "a") == Fraction(1e308)


def test_decimal_and_fraction_tolerances_read_as_their_values():
    # a Decimal tolerance met a float in float recovery's threshold arithmetic
    # and raised a bare TypeError
    point = single_point_space(4)
    realized = realize(ONE_GAP, depth=12)
    for cloud, exact in ((point, False), (shadowless(realized), False), (realized, False), (realized, True)):
        expected = recover_cluster(cloud, tol_rel=1e-6, use_exact=exact)
        for tol in (Decimal("1e-6"), Fraction(1, 10**6)):
            rc = recover_cluster(cloud, tol_rel=tol, use_exact=exact)
            assert rc.graph == expected.graph and rc.diagnostics == expected.diagnostics
            # recorded as given, and validation reads the value it equals
            assert rc.tol_rel is tol and rc.tol_abs == expected.tol_abs
            assert validate_recovered_cluster(rc) == validate_recovered_cluster(expected)
    # the one-point space has no r_exact: use_exact refuses it alike
    for tol in (1e-6, Decimal("1e-6"), Fraction(1, 10**6)):
        with pytest.raises(GraphError, match="^use_exact needs every point's exact shadow"):
            recover_cluster(point, tol_rel=tol, use_exact=True)


def test_missing_label_rejected():
    cloud = realize(CERT_TRIANGLE, depth=4)
    cloud.levels[-1].points.pop()
    with pytest.raises(GraphError):
        recover_cluster(cloud)


def test_closure_never_chains_far_apart_sequences():
    # five stable sequences spaced 0.9 tolerance apart: pairwise neighbors
    # merge, but the chain ends sit 3.6 tolerances apart, which must abort
    spacing = 0.9e-6
    labels = [f"t{i}" for i in range(5)]
    levels = []
    for n in (1, 2, 3, 4):
        pts = [CloudPoint("far", (1.0,))]
        pts += [CloudPoint(lbl, (0.5 + i * spacing,)) for i, lbl in enumerate(labels)]
        levels.append(CloudLevel(n=n, r=1.0, r_exact=None, points=pts))
    cloud = LeveledPointCloud(dimension=1, levels=levels)
    with pytest.raises(GraphError) as err:
        recover_cluster(cloud)
    assert "closure" in str(err.value)


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def test_identity_subsample_recovers_identically():
    cloud = realize(ONE_GAP, depth=12)
    sub = subsample_levels(cloud, [lvl.n for lvl in cloud.levels])
    full = recover_cluster(cloud, use_exact=True)
    again = recover_cluster(sub, use_exact=True, window=cloud.period)
    assert again.graph == full.graph


def test_alternating_period_subsample_preserves_the_cluster():
    cloud = realize(ONE_GAP, depth=12)
    indices = alternating_period_indices(cloud)
    assert indices == [1, 2, 5, 6, 9, 10]
    sub = subsample_levels(cloud, indices)
    full = recover_cluster(cloud, use_exact=True)
    got = recover_cluster(sub, use_exact=True, window=len(indices))
    assert got.graph == full.graph


def test_a_subsample_of_whole_periods_in_order_keeps_the_period():
    """The k-th kept level at a position of the cloud that is k modulo the
    period keeps the period, as alternating whole periods and any selection
    from a period-1 cloud do; stride selections and shifted ones clear it. A
    kept period makes the default window one period, which decides."""
    cloud = realize(ONE_GAP, depth=12)
    assert cloud.period == 2
    kept = [alternating_period_indices(cloud), [1, 2], [3, 4, 7, 8], [1, 4, 5], [1], list(range(1, 13))]
    cleared = [period_stride_indices(cloud, 0), period_stride_indices(cloud, 1), [2, 3], [1, 2, 4], [2]]
    assert [subsample_levels(cloud, indices).period for indices in kept + cleared] == [2] * 6 + [None] * 5
    sub = subsample_levels(cloud, alternating_period_indices(cloud))
    rc = recover_cluster(sub)
    assert (rc.window, rc.graph) == (2, ONE_GAP)
    # a subsample's positions are its own: levels 5 and 6 are its third and fourth
    assert [subsample_levels(sub, indices).period for indices in ([5, 6], [2, 5])] == [2, None]
    complete = realize(CERT_TRIANGLE, depth=6)
    for indices in ([1, 3, 5], [2], [2, 3]):
        assert subsample_levels(complete, indices).period == 1


def test_period_stride_subsample_gains_edges():
    cloud = realize(ONE_GAP, depth=12)
    plan = build_plan(ONE_GAP, depth=12)
    full = recover_cluster(cloud, use_exact=True)
    for offset, member in enumerate(plan.family):
        expected = member.get("u", "z")
        indices = period_stride_indices(cloud, offset)
        sub = subsample_levels(cloud, indices)
        got = recover_cluster(sub, use_exact=True, window=len(indices))
        # the non-edge of the full cluster is now adjacent, at the value the
        # chosen family member assigns it
        assert got.graph.has_edge("u", "z")
        assert got.graph.weight("u", "z") == expected
        # and the full recovery maps into it edge by edge
        identity = {v: v for v in full.graph.vertices}
        assert is_weight_preserving_homomorphism(full.graph, got.graph, identity)
        assert is_weight_preserving_monomorphism(full.graph, got.graph, identity)


def test_every_subsample_receives_a_weight_preserving_homomorphism():
    rng = random.Random(97)
    cloud = realize(ONE_GAP, depth=12)
    full = recover_cluster(cloud, use_exact=True)
    all_ns = [lvl.n for lvl in cloud.levels]
    for _ in range(8):
        chosen = sorted(rng.sample(all_ns, rng.randint(4, len(all_ns))))
        sub = subsample_levels(cloud, chosen)
        got = recover_cluster(sub, use_exact=True, window=len(chosen))
        identity = {v: v for v in full.graph.vertices}
        assert is_weight_preserving_homomorphism(full.graph, got.graph, identity)
        assert is_weight_preserving_monomorphism(full.graph, got.graph, identity)


def test_subsample_validation():
    cloud = realize(CERT_TRIANGLE, depth=6)
    with pytest.raises(GraphError):
        subsample_levels(cloud, [])
    with pytest.raises(GraphError):
        subsample_levels(cloud, [3, 2])
    with pytest.raises(GraphError):
        subsample_levels(cloud, [1, 99])
    with pytest.raises(GraphError):
        period_stride_indices(single_point_space(depth=4), offset=0)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_spread_functional_conventions():
    p = (0.0,)
    assert spread_functional([p, p], p) == 0.0
    assert spread_functional([(1.0,), (1.0,)], p) == 0.0  # repeated point
    assert spread_functional([(1.0,), (2.0,)], p) == pytest.approx(0.25)
    with pytest.raises(GraphError):
        spread_functional([(1.0,)], p)
    # zip would drop the missing coordinate; NaN would come back as the value
    with pytest.raises(GraphError, match="2 coordinates"):
        spread_functional([(1.0, 5.0), (2.0,)], (0.0, 0.0))
    with pytest.raises(GraphError, match="finite"):
        spread_functional([(math.nan,), (1.0,)], p)


def test_spread_functional_is_scale_free():
    # the largest basepoint distance, 10**11, to the power 10 * 9 / 2 + 1
    # leaves binary64; the value itself is far inside it
    exact = [Fraction(10**10 * k) for k in range(1, 11)]
    product = math.prod(abs(a - b) for i, a in enumerate(exact) for b in exact[i + 1 :])
    expected = min(exact) * product / max(exact) ** (10 * 9 // 2 + 1)
    assert spread_functional([(float(x),) for x in exact], (0.0,)) == pytest.approx(float(expected), rel=1e-12)
    # finite points whose distance, and so the value, is not
    with pytest.raises(GraphError, match="not finite"):
        spread_functional([(1e308,), (-1e308,)], (0.0,))


def test_spread_functional_on_cloud_levels():
    cloud = realize(CERT_TRIANGLE, depth=8)
    lvl = cloud.levels[-1]
    pts = dict(zip([p.label for p in lvl.points], _level_floats(lvl)))
    basepoint = (0.0,) * cloud.dimension
    # scale-free: min * d / max^2 = (r * 5r/2) / (2r)^2 = 5/8 at every level
    val = spread_functional([pts["u"], pts["v"]], basepoint)
    assert val == pytest.approx(5 / 8, rel=1e-9)


def test_annulus_table_exact_sphere_counts_one_point():
    cloud = realize(CERT_TRIANGLE, depth=8)
    lvl = cloud.levels[5]
    table = annulus_diameter_table(cloud, k=1.0, radii=[lvl.r])
    assert table[0]["value"] == 0.0
    assert table[0]["points"] == 1  # only the norm-1 point sits on that sphere


def test_annulus_table_single_point_space_is_empty_between_gaps():
    cloud = single_point_space(depth=8, base=2)
    radii = [3.0 * (2 ** (n * n)) for n in range(1, 8)]
    table = annulus_diameter_table(cloud, k=2.0, radii=radii)
    assert all(row["points"] <= 1 for row in table)
    assert all(row["value"] == 0.0 for row in table)


def test_annulus_table_recovers_edge_weight():
    cloud = realize(CERT_TRIANGLE, depth=8)
    lvl = cloud.levels[5]
    table = annulus_diameter_table(cloud, k=2.0, radii=[lvl.r])
    assert table[0]["points"] == 2
    assert table[0]["value"] == pytest.approx(5 / 2, rel=1e-12)


def test_annulus_table_refuses_a_value_beyond_binary64():
    # finite points whose distance, and so the diameter ratio, is not
    level = CloudLevel(n=1, r=1.0, r_exact=None, points=[CloudPoint("a", (1e308,)), CloudPoint("b", (-1e308,))])
    cloud = LeveledPointCloud(1, [level])
    with pytest.raises(GraphError, match="^the annulus diameter ratio at radius 1e[+]308 is not finite in binary64$"):
        annulus_diameter_table(cloud, k=2.0, radii=[1e308])
    # a radius whose annulus holds neither point
    assert annulus_diameter_table(cloud, k=2.0, radii=[1.0]) == [{"r": 1.0, "value": 0.0, "points": 0}]


def test_annulus_parameter_validation():
    cloud = single_point_space(depth=4)
    with pytest.raises(GraphError):
        annulus_diameter_table(cloud, k=0.5, radii=[1.0])
    with pytest.raises(GraphError):
        annulus_diameter_table(cloud, k=2.0, radii=[0.0])
    for k, radii in ((math.nan, [1.0]), (math.inf, [1.0]), (2.0, [math.nan]), (2.0, [1.0, math.inf])):
        with pytest.raises(GraphError, match="finite"):
            annulus_diameter_table(cloud, k=k, radii=radii)


# ---------------------------------------------------------------------------
# unlabeled clouds
# ---------------------------------------------------------------------------


def strip_labels(cloud):
    levels = [
        CloudLevel(
            n=lvl.n,
            r=lvl.r,
            r_exact=lvl.r_exact,
            points=[CloudPoint(None, p.coords, p.exact) for p in lvl.points],
            q=lvl.q,
        )
        for lvl in cloud.levels
    ]
    return LeveledPointCloud(cloud.dimension, levels, cloud.period)


def test_unlabeled_cloud_rejected_then_recovered_after_matching():
    matched = realize(ONE_GAP, depth=12)
    cloud = strip_labels(matched)
    with pytest.raises(GraphError, match="unlabeled points"):
        recover_cluster(cloud)
    rc = recover_cluster(matched)
    witness = isomorphic(ONE_GAP, rc.graph, weight_tol_rel=Fraction(1, 10**9))
    assert witness is not None
