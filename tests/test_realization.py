import math
import random
from fractions import Fraction

import pytest

from metric_cluster.graph_core import GraphError, WeightedRootedGraph
from metric_cluster.fpc import synthesize_weights
from metric_cluster.realization import (
    LeveledPointCloud,
    ScalingRule,
    build_plan,
    cross_level_separation,
    generate_cloud,
    realize,
    single_point_space,
    sup_distance,
)

from oracles import assert_two_member_family, dominating_rooted_shapes


def graph(vertices, edges, root):
    return WeightedRootedGraph(vertices, {e: Fraction(w) for e, w in edges.items()}, root)


CERT_TRIANGLE = graph(
    ["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): Fraction(5, 2)}, "r"
)

ONE_GAP = graph(
    ["r", "u", "v", "z"],
    {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 3, ("v", "z"): 5},
    "r",
)  # single non-edge (u, z)

STAR_15 = graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 5}, "r")


# ---------------------------------------------------------------------------
# scaling rules
# ---------------------------------------------------------------------------


def test_factorial_rule_values_and_ratios():
    rule = ScalingRule()
    values = [rule.value(n) for n in range(1, 8)]
    assert values == [1, 2, 6, 24, 120, 720, 5040]
    ratios = [Fraction(b, a) for a, b in zip(values, values[1:])]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_power_square_rule():
    rule = ScalingRule("power_square", base=3)
    assert [rule.value(n) for n in (1, 2, 3)] == [3, 81, 19683]
    for base in (1, 0, -2):  # scales that do not tend to infinity
        with pytest.raises(GraphError, match="base"):
            ScalingRule("power_square", base)


def test_unknown_rule_rejected():
    with pytest.raises(GraphError):
        ScalingRule("fibonacci").value(3)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_complete_graph_has_single_member_family():
    plan = build_plan(CERT_TRIANGLE, depth=6)
    assert len(plan.family) == 1
    assert plan.non_edges == []
    assert plan.family[0].get("u", "v") == Fraction(5, 2)


def test_star_plan_picks_midpoint_and_upper_end():
    plan = build_plan(STAR_15, depth=8)
    assert plan.non_edges == [("u", "v")]
    assert [d.get("u", "v") for d in plan.family] == [5, 6]


def test_plan_family_members_agree_with_weights_and_split_pairs():
    plan = build_plan(ONE_GAP, depth=12)
    m = len(plan.non_edges)
    for d in plan.family:
        for (a, b), w in plan.graph.weights.items():
            assert d.get(a, b) == w
    for i, (u, v) in enumerate(plan.non_edges):
        assert plan.family[i].get(u, v) != plan.family[i + m].get(u, v)


def test_uncertified_graph_rejected():
    bad = graph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, "a")
    with pytest.raises(GraphError):
        build_plan(bad, depth=6)


def test_shallow_depth_warns():
    plan = build_plan(ONE_GAP, depth=1)
    assert any("period" in w for w in plan.warnings)
    assert build_plan(ONE_GAP, depth=12).warnings == []


# ---------------------------------------------------------------------------
# clouds
# ---------------------------------------------------------------------------


def test_root_is_origin_at_every_level():
    cloud = realize(ONE_GAP, depth=10)
    for lvl in cloud.levels:
        root_pt = cloud.points_by_label(lvl)["r"]
        assert all(c == 0 for c in root_pt.coords)
        assert all(x == 0 for x in root_pt.exact)


def test_within_level_distances_reproduce_scaled_metric_exactly():
    plan = build_plan(ONE_GAP, depth=8)
    cloud = generate_cloud(plan)
    for idx, lvl in enumerate(cloud.levels):
        d = plan.family[idx % len(plan.family)]
        pts = cloud.points_by_label(lvl)
        for u in plan.graph.vertices:
            for v in plan.graph.vertices:
                if u < v:
                    got = sup_distance(pts[u].exact, pts[v].exact)
                    assert got == lvl.r_exact * d.get(u, v)


def test_norm_over_scaling_equals_root_labels():
    plan = build_plan(ONE_GAP, depth=8)
    cloud = generate_cloud(plan)
    origin = (Fraction(0),) * cloud.dimension
    for lvl in cloud.levels:
        pts = cloud.points_by_label(lvl)
        for v in plan.graph.vertices:
            norm = sup_distance(pts[v].exact, origin)
            expected = Fraction(0) if v == "r" else plan.graph.weight("r", v)
            assert norm / lvl.r_exact == expected


def test_cloud_generation_is_deterministic():
    a = realize(ONE_GAP, depth=10).to_json()
    b = realize(ONE_GAP, depth=10).to_json()
    assert a == b


def test_depth_overflow_guard():
    with pytest.raises(GraphError):
        realize(CERT_TRIANGLE, depth=200)


def test_cloud_json_round_trip():
    cloud = realize(ONE_GAP, depth=6)
    again = LeveledPointCloud.from_json(cloud.to_json())
    assert again.dimension == cloud.dimension
    assert again.period == cloud.period
    assert [l.n for l in again.levels] == [l.n for l in cloud.levels]
    for la, lb in zip(again.levels, cloud.levels):
        assert la.r == lb.r and la.r_exact == lb.r_exact
        for pa, pb in zip(la.points, lb.points):
            assert pa.label == pb.label
            assert pa.coords == pb.coords
            assert pa.exact == pb.exact
    stripped = LeveledPointCloud.from_json(cloud.to_json(include_exact=False))
    assert not stripped.has_exact()


def test_realization_of_synthesized_shapes_has_full_family():
    rng = random.Random(83)
    for g in rng.sample(dominating_rooted_shapes(5), 10):
        assert_two_member_family(build_plan(synthesize_weights(g), depth=4))


# ---------------------------------------------------------------------------
# cross-level separation
# ---------------------------------------------------------------------------


def test_normalized_cross_level_distances_diverge_beyond_one_gap():
    cloud = realize(ONE_GAP, depth=10)
    gaps = cross_level_separation(cloud)
    for gapsize in range(2, 9):
        assert gaps[gapsize + 1] > gaps[gapsize]
    assert gaps[9] > 1000  # far levels are far apart after rescaling


# ---------------------------------------------------------------------------
# the one-point space
# ---------------------------------------------------------------------------


def test_single_point_space_values():
    cloud = single_point_space(depth=3, base=2)
    xs = [lvl.points[1].coords[0] for lvl in cloud.levels]
    assert xs == [2.0, 16.0, 512.0]
    assert cloud.levels[0].r == pytest.approx(math.sqrt(32), rel=1e-15)
    assert cloud.levels[1].r == pytest.approx(math.sqrt(8192), rel=1e-15)


def test_single_point_normalized_values_decay():
    cloud = single_point_space(depth=12, base=2)
    values = [lvl.points[1].coords[0] / lvl.r for lvl in cloud.levels]
    for n, got in enumerate(values, start=1):
        assert got == pytest.approx(2 ** (-(2 * n + 1) / 2), rel=1e-12)
    assert all(b2 < b1 for b1, b2 in zip(values, values[1:]))


def test_single_point_basepoint_is_exact_zero():
    cloud = single_point_space(depth=5, base=3)
    for lvl in cloud.levels:
        assert lvl.points[0].label == "p"
        assert lvl.points[0].coords == (0.0,)
        assert lvl.points[0].exact == (Fraction(0),)


def test_single_point_guards():
    with pytest.raises(GraphError):
        single_point_space(depth=1)
    with pytest.raises(GraphError):
        single_point_space(depth=5, base=1)
    with pytest.raises(GraphError):
        single_point_space(depth=40, base=2)  # overflow
