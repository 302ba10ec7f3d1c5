import dataclasses
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from metric_cluster import realization
from metric_cluster.graph_core import GraphError, WeightedRootedGraph, isomorphic
from metric_cluster.fpc import synthesize_weights
from metric_cluster.metrization import DistanceMatrix, shortest_path_metric
from metric_cluster.realization import (
    CloudLevel,
    CloudPoint,
    LeveledPointCloud,
    ScalingRule,
    _level_at_once,
    _level_floats,
    _level_numerators,
    _shadows_at_once,
    _unpacked_level,
    build_plan,
    generate_cloud,
    realize,
    single_point_space,
    sup_distance,
)
from metric_cluster.recovery import (
    alternating_period_indices,
    period_stride_indices,
    recover_cluster,
    subsample_levels,
)

from oracles import (
    assert_two_member_family,
    cloud_by_coordinates,
    cloud_json_dict,
    cross_level_separation,
    dominating_rooted_shapes,
    file_shadow,
    halfway_past_binary64,
    least_interval_width,
    legacy_cloud_json_dict,
    lower_member_by_fractions,
    point_floats,
    point_shadow,
    random_dominating_shape,
    scaled_weights,
    shadows_by_fractions,
    shadows_in_units,
    with_unrelated_denominators,
)


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
    for base in (2.5, 2.0, True):  # no integer base: refused before any cloud is built
        with pytest.raises(GraphError, match="base"):
            ScalingRule("power_square", base)


def test_unknown_rule_rejected():
    with pytest.raises(GraphError):
        ScalingRule("fibonacci").value(3)


def test_levels_and_depths_count_from_one():
    for rule in (ScalingRule(), ScalingRule("power_square", 3)):
        with pytest.raises(GraphError, match="^levels are numbered from 1$"):
            rule.value(0)
    with pytest.raises(GraphError, match="^depth must be at least 1$"):
        build_plan(CERT_TRIANGLE, 0)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_complete_graph_has_single_member_family():
    plan = build_plan(CERT_TRIANGLE, depth=6)
    assert len(plan.family) == 1
    assert plan.graph.non_edges() == ()
    assert plan.family[0].get("u", "v") == Fraction(5, 2)


def test_star_plan_picks_midpoint_and_upper_end():
    plan = build_plan(STAR_15, depth=8)
    assert plan.graph.non_edges() == (("u", "v"),)
    assert [d.get("u", "v") for d in plan.family] == [5, 6]


def test_plan_family_members_agree_with_weights_and_split_pairs():
    plan = build_plan(ONE_GAP, depth=12)
    m = len(plan.graph.non_edges())
    for d in plan.family:
        for (a, b), w in plan.graph.weights.items():
            assert d.get(a, b) == w
    for i, (u, v) in enumerate(plan.graph.non_edges()):
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
        assert root_pt.coords is None
        assert all(x == 0 for x in root_pt.exact)
    # a label names one point of a level; unlabeled points may repeat and are left out
    lvl = cloud.levels[0]
    labeled = cloud.points_by_label(lvl)
    unlabeled = [CloudPoint(None, (0.0,) * cloud.dimension)] * 2
    assert cloud.points_by_label(dataclasses.replace(lvl, points=lvl.points + unlabeled)) == labeled
    twice = dataclasses.replace(lvl, points=lvl.points + unlabeled + [labeled["u"]])
    with pytest.raises(GraphError, match="^duplicate label 'u' at level 1$"):
        cloud.points_by_label(twice)


def test_within_level_distances_reproduce_scaled_metric_exactly():
    plan = build_plan(ONE_GAP, depth=8)
    cloud = generate_cloud(plan)
    for idx, lvl in enumerate(cloud.levels):
        d = plan.family[idx % len(plan.family)]
        pts = cloud.points_by_label(lvl)
        for u in plan.graph.vertices:
            for v in plan.graph.vertices:
                if u < v:
                    # the shadows are held in units of r_n
                    got = lvl.r_exact * Fraction(sup_distance(pts[u].exact, pts[v].exact), lvl.q)
                    assert got == lvl.r_exact * d.get(u, v)


def test_norm_over_scaling_equals_root_labels():
    plan = build_plan(ONE_GAP, depth=8)
    cloud = generate_cloud(plan)
    origin = (0,) * cloud.dimension
    for lvl in cloud.levels:
        pts = cloud.points_by_label(lvl)
        for v in plan.graph.vertices:
            # over q, a shadow is in units of r_n already
            norm = Fraction(sup_distance(pts[v].exact, origin), lvl.q)
            expected = Fraction(0) if v == "r" else plan.graph.weight("r", v)
            assert norm == expected


@pytest.mark.parametrize("n", range(1, 16))
def test_realized_levels_are_isometric_whatever_the_columns(n):
    """Every level of a realized cloud is an isometric copy of (V, r_n * d_i),
    checked on distances, not on the coordinate layout: the sup distance of
    two shadows over q, which are in units of r_n, is d_i(u, v) as a
    Fraction, and the root sits at the origin. There is one column per
    non-root vertex, and one for a one-vertex graph. The cloud and its alternating-period subsample, which
    keeps the period, recover the graph at the default window."""
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = synthesize_weights(random_dominating_shape(rng, n, p))
        for rule in (ScalingRule(), ScalingRule("power_square", 2)):
            plan = build_plan(g, 12, rule)
            cloud = generate_cloud(plan)
            assert cloud.dimension == max(1, n - 1)
            for i, lvl in enumerate(cloud.levels):
                d = plan.family[i % plan.period]
                pts = cloud.points_by_label(lvl)
                assert not any(pts[g.root].exact)
                for u, v in combinations(g.vertices, 2):
                    assert Fraction(sup_distance(pts[u].exact, pts[v].exact), lvl.q) == d.get(u, v)
            sub = subsample_levels(cloud, alternating_period_indices(cloud))
            assert sub.period == cloud.period
            assert recover_cluster(cloud).graph == g
            assert recover_cluster(sub).graph == g


def test_cloud_generation_is_deterministic():
    a = realize(ONE_GAP, depth=10).to_json()
    b = realize(ONE_GAP, depth=10).to_json()
    assert a == b


def test_depth_overflow_guard():
    with pytest.raises(GraphError):
        realize(CERT_TRIANGLE, depth=200)


# the default factorial rule and power_square
RULES = [None, ScalingRule("power_square", 3)]


@pytest.mark.parametrize("rule", RULES, ids=["factorial", "power_square"])
@pytest.mark.parametrize(
    "g",
    [
        CERT_TRIANGLE,
        # largest distances over 3 that bring r_n * largest within a bit of
        # the limit at the boundary, under the factorial rule for 61/3 and
        # under power_square for 25769803780/3
        scaled_weights(ONE_GAP, Fraction(61, 15)),
        scaled_weights(ONE_GAP, Fraction(25769803780, 15)),
        # the largest distance, 27 between u and v, is no coordinate: a guard
        # on it refuses level 170 of the factorial rule, where every
        # coordinate, at most 14 * 170!, fits
        graph(["r", "u", "v"], {("r", "u"): 13, ("r", "v"): 14}, "r"),
        # a coordinate below 2**1024 that rounds to infinity at level 170
        halfway_past_binary64(),
    ],
    ids=["triangle", "largest_61/3", "largest_25769803780/3", "largest_off_the_root", "halfway"],
)
def test_depth_overflow_guard_at_its_boundary(g, rule):
    # the deepest cloud the oracle accepts, refusing a level when float() of
    # one of its coordinates or of r overflows, ends a level before the
    # first level it refuses
    with pytest.raises(GraphError, match="overflows binary64") as caught:
        cloud_by_coordinates(build_plan(g, 400, rule))
    last = int(re.search(r"level (\d+)", str(caught.value)).group(1)) - 1
    cloud = realize(g, last, rule)
    assert cloud == cloud_by_coordinates(build_plan(g, last, rule))
    assert all(math.isfinite(c) for row in _level_floats(cloud.levels[-1]) for c in row)
    with pytest.raises(GraphError, match=f"level {last + 1} overflows binary64"):
        realize(g, last + 1, rule)


def test_a_coordinate_that_rounds_to_infinity_is_refused_at_its_level():
    g = halfway_past_binary64()
    cloud = realize(g, 169)
    assert all(math.isfinite(c) for lvl in cloud.levels for row in _level_floats(lvl) for c in row)
    with pytest.raises(GraphError, match="level 170 overflows binary64"):
        realize(g, 170)


def _generation_cases():
    rng = random.Random(19)
    return [
        pytest.param(WeightedRootedGraph(["r"], {}, "r"), None, id="one_vertex"),
        pytest.param(synthesize_weights(dominating_rooted_shapes(6)[-1]), None, id="complete"),
        *(
            pytest.param(g, rule, id=f"{name}-{rule.name if rule else 'factorial'}")
            for name, g in (("one_gap", ONE_GAP), ("triangle", CERT_TRIANGLE))
            for rule in RULES
        ),
        *(
            pytest.param(synthesize_weights(random_dominating_shape(rng, n, p)), None, id=f"random-{n}-{p}")
            for n in (12, 40)
            for p in (0.2, 0.5)
        ),
    ]


def check_generation(plan):
    cloud, expected = generate_cloud(plan), cloud_by_coordinates(plan)
    assert cloud == expected
    for include_exact in (True, False):
        assert cloud.to_json(include_exact) == expected.to_json(include_exact)


@pytest.mark.parametrize("g, rule", _generation_cases())
def test_generation_matches_the_coordinate_oracle(g, rule):
    check_generation(build_plan(g, 12, rule))


def test_generation_matches_the_coordinate_oracle_on_synthesized_shapes():
    for shape in dominating_rooted_shapes(6):
        check_generation(build_plan(synthesize_weights(shape), 12))


def test_cloud_of_a_family_loaded_from_json_is_the_same():
    # members built from Fractions, not from the plan's integer rows
    plan = build_plan(ONE_GAP, depth=12)
    loaded = [DistanceMatrix.from_json(d.to_json()) for d in plan.family]
    assert loaded == plan.family
    cloud = generate_cloud(dataclasses.replace(plan, family=loaded))
    assert cloud.to_json() == generate_cloud(plan).to_json()


def test_generate_cloud_refuses_a_plan_it_cannot_realize():
    # a plan is a mutable dataclass: each field generate_cloud reads is named
    plan = build_plan(graph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2}, "r"), 4)
    family = "plan family must be a non-empty list of distance matrices on the graph's vertices"
    for field, value, message in (
        ("depth", True, "depth must be at least 1"),
        ("depth", -3, "depth must be at least 1"),
        ("graph", None, "plan graph must be a WeightedRootedGraph, got NoneType"),
        ("rule", None, "plan rule must be a ScalingRule, got NoneType"),
        ("family", [], family),
        ("family", plan.family[0], family),
        ("family", [plan.family[0], None], family),
        ("family", [DistanceMatrix(["r", "u"], [[0, 1], [1, 0]])], family),
    ):
        with pytest.raises(GraphError) as refused:
            generate_cloud(dataclasses.replace(plan, **{field: value}))
        assert str(refused.value) == message


def test_cloud_json_round_trip():
    cloud = realize(ONE_GAP, depth=6)
    again = LeveledPointCloud.from_json(cloud.to_json())
    assert again.dimension == cloud.dimension
    assert again.period == cloud.period
    assert [l.n for l in again.levels] == [l.n for l in cloud.levels]
    for la, lb in zip(again.levels, cloud.levels):
        assert la.r == lb.r and la.r_exact == lb.r_exact and la.q == lb.q
        for pa, pb in zip(la.points, lb.points):
            assert pa.label == pb.label
            assert pa.coords == pb.coords
            assert pa.exact == pb.exact
    stripped = LeveledPointCloud.from_json(cloud.to_json(include_exact=False))
    assert not stripped.has_exact()


def _both_halves(cloud) -> str:
    """The cloud's text as the writer laid it out while it wrote both halves
    of a shadowed point: each point's coords before its exact, and each
    level's r before its points and r_exact after them, with absolute shadows."""
    doc, shadows = cloud_json_dict(cloud, include_exact=False), legacy_cloud_json_dict(cloud)
    for level, shadowed in zip(doc["levels"], shadows["levels"]):
        for point, exact in zip(level["points"], shadowed["points"]):
            point.update({"exact": exact["exact"]} if "exact" in exact else {})
        level.update({"r_exact": shadowed["r_exact"]} if "r_exact" in shadowed else {})
    return json.dumps(doc, indent=2)


# SHA-256 of the cloud bytes: of two files with absolute shadows, which the
# writer wrote before it wrote shadows in units of their level's scale and
# which must still load, both halves, the binary64 one rounded by the oracle
# from Fractions, and the shadows alone; and of the text now written. The
# binary64 half of every shadowed value is derived; a change of the
# realization family or of its columns (the root has none) changes them by design
PINNED_CLOUDS = [
    (12, None, "152c69d94c9b7f964821258481e5ec3229ad579c2f3bb24713b7b94688daada7",
     "60f6dc067687247d1a96f66045162e9f5e69006bc1ceec2ca23e979cdfae8903",
     "0bb619878e6a8810201dd1df17fe7c922ee4b0a18916353bdf72f12cb4191a67"),
    (6, ScalingRule("power_square", 3), "c0b0f6e75d25ed09cea5e08bd28b2c41d24be2e346da539853e9b3fc75947a08",
     "37064f4cecc4c822d4e692f44b4b5a7c7fb7d0f2fe3471d4ffc045a94d8d6679",
     "7a707bbe6988d34f493b52c0df3e21b8f5e4f298949fa67c0de6cdbd9c87b68f"),
]


@pytest.mark.parametrize(
    "depth, rule, both_digest, legacy_digest, digest",
    PINNED_CLOUDS,
    ids=[f"{depth}-{'rule1' if rule else None}" for depth, rule, *_ in PINNED_CLOUDS],
)
def test_cloud_bytes_are_pinned(depth, rule, both_digest, legacy_digest, digest):
    cloud = realize(ONE_GAP, depth, rule)
    text, both, legacy = cloud.to_json(), _both_halves(cloud), json.dumps(legacy_cloud_json_dict(cloud), indent=2)
    assert hashlib.sha256(both.encode()).hexdigest() == both_digest
    assert hashlib.sha256(legacy.encode()).hexdigest() == legacy_digest
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the files with absolute shadows, the one with both halves, which
    # agree, among them, load to the same cloud
    for old in (both, legacy):
        assert LeveledPointCloud.from_json(old) == cloud
        assert LeveledPointCloud.from_json(old).to_json() == text


# SHA-256 of the files that write no shadow in units of a scale, taken while
# the cloud held absolute shadows: each pinned cloud written without shadows,
# and the one-point space, whose levels have no r_exact
PINNED_WITHOUT_UNITS = {
    "12-None-floats": (lambda: realize(ONE_GAP, 12).to_json(include_exact=False),
                       "d6b19cde0b1d758efd7bae4b975da92e1567e34431d05bfde17c032f643cbc63"),
    "6-rule1-floats": (lambda: realize(ONE_GAP, 6, ScalingRule("power_square", 3)).to_json(include_exact=False),
                       "ba8048e951f71fc98a87d743221ca223057bf45dd34042c0047aee4a60e2c78e"),
    "single_point-12": (lambda: single_point_space(12).to_json(),
                        "7140f7b9e677769a7c12c0e69013cf1e57082785d2131d3ed8d146df0c0d29f3"),
}


@pytest.mark.parametrize("case", sorted(PINNED_WITHOUT_UNITS))
def test_files_without_shadows_in_units_are_pinned(case):
    write, digest = PINNED_WITHOUT_UNITS[case]
    assert hashlib.sha256(write().encode()).hexdigest() == digest


def _partly_shadowed_file_cloud():
    """A realized cloud whose file has the coordinates of its second point,
    rounded, in place of its shadow at every level."""
    data = json.loads(realize(CERT_TRIANGLE, 8).to_json())
    floats = json.loads(realize(CERT_TRIANGLE, 8).to_json(include_exact=False))
    for entry, rounded in zip(data["levels"], floats["levels"]):
        entry["points"][1] = rounded["points"][1]
    return LeveledPointCloud.from_json_dict(data)


# built in the tests that take them: the partly shadowed cloud goes through
# the reader, whose refusal then fails a test, not the module's collection
WRITTEN_CLOUDS = {
    "factorial": (lambda: realize(ONE_GAP, 12), True),
    "power_square": (lambda: realize(ONE_GAP, 6, ScalingRule("power_square", 3)), True),
    "deep": (lambda: realize(ONE_GAP, 110), True),
    "partly_shadowed": (_partly_shadowed_file_cloud, False),
    "single_point": (lambda: single_point_space(12), False),
}


@pytest.mark.parametrize("name", list(WRITTEN_CLOUDS))
def test_a_level_holds_its_shadows_as_its_file_writes_them(name):
    """A level with r_exact holds its written ``over`` as q and each point's
    written values as its shadow; the levels of one family member hold equal
    rows; and the constructor takes the cloud's own levels as they are."""
    build, realized = WRITTEN_CLOUDS[name]
    cloud = build()
    for entry, lvl in zip(json.loads(cloud.to_json())["levels"], cloud.levels):
        assert ("over" in entry) == (lvl.r_exact is not None and lvl.q is not None)
        if "over" in entry:
            assert lvl.q == entry["over"]
            written = [tuple(map(int, item["exact"])) if "exact" in item else None for item in entry["points"]]
            assert [p.exact for p in lvl.points] == written
    if realized:
        for lvl, later in zip(cloud.levels, cloud.levels[cloud.period:]):
            assert (lvl.q, lvl.points) == (later.q, later.points)
    assert LeveledPointCloud(cloud.dimension, cloud.levels, cloud.period) == cloud
    copies = [dataclasses.replace(lvl, points=[dataclasses.replace(p) for p in lvl.points]) for lvl in cloud.levels]
    assert LeveledPointCloud(cloud.dimension, copies, cloud.period).to_json() == cloud.to_json()


@pytest.mark.parametrize(
    "cloud",
    [
        realize(ONE_GAP, 12),
        realize(CERT_TRIANGLE, 6, ScalingRule("power_square", 3)),
        realize(synthesize_weights(next(iter(dominating_rooted_shapes(6)))), 20),
        single_point_space(8),
    ],
    ids=["factorial", "power_square", "synthesized", "single_point"],
)
def test_load_and_write_reproduces_the_cloud(cloud):
    for include_exact in (True, False):
        text = cloud.to_json(include_exact)
        again = LeveledPointCloud.from_json(text)
        assert again.to_json() == text
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud
    # the layout with absolute shadows, written before, loads to an equal cloud
    legacy = json.dumps(legacy_cloud_json_dict(cloud), indent=2)
    assert LeveledPointCloud.from_json(legacy) == cloud
    assert ('"over"' in cloud.to_json()) == any(lvl.r_exact is not None for lvl in cloud.levels)


@pytest.mark.parametrize("depth, rule", [(12, None), (6, ScalingRule("power_square", 3)), (110, None)])
def test_shadows_are_written_in_units_of_their_level_scale(depth, rule):
    """Each ``exact`` value of a realized level is an integer over the level's
    ``over``, in lowest terms together, and r_exact times value / over is the
    shadow; r_exact's digits are not repeated in the values."""
    cloud = realize(ONE_GAP, depth, rule)
    data = json.loads(cloud.to_json())
    for entry, lvl in zip(data["levels"], cloud.levels):
        values = [int(x) for item in entry["points"] for x in item["exact"]]
        assert math.gcd(entry["over"], *values) == 1
        assert all(str(int(x)) == x for item in entry["points"] for x in item["exact"])
        for item, p in zip(entry["points"], lvl.points):
            assert file_shadow(entry, item) == list(point_shadow(lvl, p))
    assert max(len(x) for item in data["levels"][-1]["points"] for x in item["exact"]) < 4
    assert len(cloud.to_json()) < len(json.dumps(legacy_cloud_json_dict(cloud), indent=2))


def test_unreduced_shadows_load_over_the_least_denominator():
    cloud = realize(CERT_TRIANGLE, 8)
    level = next(lvl for lvl in cloud.levels if lvl.q > 1)
    data = legacy_cloud_json_dict(cloud)
    for item in data["levels"][level.n - 1]["points"]:
        # a/b becomes 6a/6b, and an integer a becomes 6a/6
        item["exact"] = [
            "{}/{}".format(6 * x.numerator, 6 * x.denominator) for x in map(Fraction, item["exact"])
        ]
    again = LeveledPointCloud.from_json(json.dumps(data))
    assert again.levels[level.n - 1] == level
    assert again.to_json() == cloud.to_json()
    # in units of the scale: every value and over times 6
    for n in (level.n, cloud.depth // 2, cloud.depth):
        data = json.loads(cloud.to_json())
        entry = data["levels"][n - 1]
        entry["over"] *= 6
        for item in entry["points"]:
            item["exact"] = [str(6 * int(x)) for x in item["exact"]]
        assert taken_levels(data) == [True] * cloud.depth
        again = LeveledPointCloud.from_json(json.dumps(data))
        assert again.levels[n - 1] == cloud.levels[n - 1] and again == checked_path(data)
        assert again.to_json() == cloud.to_json()


def test_partly_shadowed_level_loads_writes_back_and_is_not_exact():
    realized = realize(CERT_TRIANGLE, 12)
    first = realized.levels[0]
    assert first.q > 1
    # keep the shadow only where a coordinate has a denominator, and the
    # coordinates elsewhere
    points = [p if any(a % first.q for a in p.exact) else CloudPoint(p.label, point_floats(first, p)) for p in first.points]
    assert 0 < sum(p.exact is None for p in points) < len(points)
    built = LeveledPointCloud(realized.dimension, [dataclasses.replace(first, points=points), *realized.levels[1:]])
    data = cloud_json_dict(built)
    assert "over" in data["levels"][0]
    cloud = LeveledPointCloud.from_json(json.dumps(data))
    assert cloud == built and json.loads(cloud.to_json()) == data
    # and with absolute shadows, as written before
    assert LeveledPointCloud.from_json_dict(legacy_cloud_json_dict(built)) == cloud
    assert not cloud.has_exact()
    with pytest.raises(GraphError, match="^use_exact needs every point's exact shadow"):
        recover_cluster(cloud, use_exact=True)
    assert isomorphic(CERT_TRIANGLE, recover_cluster(cloud).graph, weight_tol_rel=Fraction(1, 10**9))
    # the floats derived from the shadows decide as the floats of a file without them
    floats = LeveledPointCloud.from_json(cloud.to_json(include_exact=False))
    assert all(p.exact is None for lvl in floats.levels for p in lvl.points)
    assert recover_cluster(cloud) == recover_cluster(floats)


# the least integer that rounds beyond binary64, halfway between the largest
# binary64 number and 2**1024, where rounding to even goes up
_PAST_BINARY64 = 2**1024 - 2**970


@pytest.mark.parametrize("q", [1, 3])
def test_the_level_guard_refuses_exactly_a_shadow_beyond_binary64(q):
    """One division of the level's largest |a| by q is the guard: a shadow
    value just below the halfway point rounds to the largest binary64 number
    and loads, and one at it is refused. The one pass takes the level only in
    units of its scale, and declines it there beyond binary64; the checked
    path names the first point beyond binary64, in a file and in code alike,
    with the text of the per-point rounding, in either layout."""
    for (a, fits), units in product(((_PAST_BINARY64 * q - 1, True), (_PAST_BINARY64 * q, False)), (False, True)):
        shadows = {"r": (0, 0), "u": (1, 2), "v": (1, -a), "w": (-a, 0)}
        points = [CloudPoint(v, None, x) for v, x in shadows.items()]
        # in units of the scale 7, each numerator itself is the value over 7q
        level = CloudLevel(1, None, Fraction(7), points, 7 * q) if units else CloudLevel(1, 1.0, None, points, q)
        entry = {"n": 1, "r_exact": "7", "over": 7 * q} if units else {"n": 1, "r": "1.0"}
        entry["points"] = [
            {"label": v, "exact": [str(c) if units else str(Fraction(c, q)) for c in x]} for v, x in shadows.items()
        ]
        document = {"dimension": 2, "levels": [entry]}
        if fits:
            in_code = LeveledPointCloud(2, [level])
            assert LeveledPointCloud.from_json_dict(document) == in_code
            assert taken_levels(document) == [units]
            assert _level_floats(in_code.levels[0])[2] == (1 / q, -sys.float_info.max)
            continue
        with pytest.raises(OverflowError if units else ValueError):
            _level_at_once(entry, 0, 2)
        text = "point 'v' at level 1 has a coordinate beyond binary64: integer division result too large for a float"
        for build in (lambda: LeveledPointCloud(2, [level]), lambda: LeveledPointCloud.from_json_dict(document)):
            with pytest.raises(GraphError) as caught:
                build()
            assert str(caught.value) == text


# what the loader's fast path reads: signs, digits from several scripts,
# separators and the characters of decimal and exponent literals
_RATIONAL_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    st.text(alphabet="0123456789-+/ _.eE\t٣²０", max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _RATIONAL_TEXT,
        st.integers(),
        st.floats(),
        st.booleans(),
        st.none(),
        st.lists(st.integers(), max_size=2),
    )
)
def test_exact_coordinate_parse_accepts_what_parse_rational_accepts(value):
    check_level([[value]])


@pytest.mark.parametrize(
    "value",
    ["-0", "0/7", "2/4", "-3/9", "+3", " 3", "3 ", "1_000", "1.5", "-1.5e3", "1E-2",
     "x/0", "3/0", "0/0", "3/-3", "-3/3", "3/", "/3", "--3", "", "-", "٣/٤", "²", "０",
     "1" * 5000, "1/" + "1" * 5000],
)
def test_exact_coordinate_parse_edge_cases(value):
    check_level([[value]])


# what int() reads but Fraction may refuse ("1_000" on Python 3.10, blanks,
# "+"), what a loose split takes ("3/", "1/-2"), zero and unreduced
# denominators, other scripts' digits, digits beyond the interpreter's limit
# and JSON values that are not strings
ONE_PASS_CASES = [
    "1_000", "3/", "1/-2", "1/0", "1/00", " 1", "+1", "١/٢", "2/4", "1" * 5000, 3, 1.5, True,
    "-0", "0/7", "-3/9", "007/014", "1/2/3", "", "-", "/3", "--3", "1 /2", "1/+2", "1,2",
    "1.5", "1e3", None, [1],
]


def check_level(shadows):
    """The per-value level parse gives what the per-value oracle gives: the
    same q and numerators, or the same GraphError message. The one pass over
    the level's values takes integers only, none that the oracle refuses, and
    reads those it takes as the oracle does."""
    values = list(chain.from_iterable(row for row in shadows if row))
    try:
        distinct, numerators = _shadows_at_once(values)
        at_once = (1, [(dict(zip(distinct, numerators))[x],) for x in values]) if values else None
    except (TypeError, ValueError, OverflowError):
        at_once = None
    try:
        expected = shadows_by_fractions(shadows)
    except GraphError as exc:
        assert at_once is None
        with pytest.raises(GraphError) as caught:
            _level_numerators(shadows)
        assert str(caught.value) == str(exc)
        return
    assert _level_numerators(shadows) == expected
    if at_once is not None:
        assert at_once == (expected[0], [(a,) for a in chain.from_iterable(filter(None, expected[1]))])


@pytest.mark.parametrize("value", ONE_PASS_CASES)
def test_one_pass_level_parse_matches_the_per_value_oracle(value):
    check_level([[value]])
    # one value among canonical ones, and points without a shadow
    check_level([["1/2", value, "-3"], None, ["4", "5/6", value]])
    check_level([None, ["10", "-20"], [value, "0"]])


def test_two_faults_in_a_level_are_named_in_point_order():
    shadows = [["1/2", "3"], ["1/4", "3/"], ["1/-2", "4"]]
    check_level(shadows)
    with pytest.raises(GraphError, match="'3/'"):
        _level_numerators(shadows)
    with pytest.raises(GraphError, match="'1/-2'"):
        _level_numerators([["1/-2", "3/"]])


# no exponents: Fraction reads "1e9999999" as a number of ten million digits,
# which takes seconds to build; "1e3" is one of the cases above
_LEVEL_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    st.text(alphabet="0123456789-+/ _.\t٣²０,", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | st.lists(_LEVEL_TEXT, min_size=1, max_size=3), max_size=4))
def test_one_pass_level_parse_matches_the_oracle_on_random_levels(shadows):
    check_level(shadows)


def test_a_malformed_shadow_is_named_before_a_later_point_fault():
    data = json.loads(realize(CERT_TRIANGLE, 4).to_json())
    points = data["levels"][1]["points"]
    points[2]["coords"] = ["x", 0.0, 0.0]
    points[1]["exact"][0] = "1/-2"
    points[0]["exact"][1] = "3/"

    def error():
        with pytest.raises(GraphError) as caught:
            LeveledPointCloud.from_json_dict(json.loads(json.dumps(data)))
        return str(caught.value)

    assert "'3/'" in error()
    points[0]["exact"][1] = "0"
    assert "'1/-2'" in error()
    points[1]["exact"][0] = "0"
    assert "non-numeric coordinate" in error()


def checked_path(data):
    """The reader's checked path, the reference for the one pass: the
    document's fields checked, then each level object unpacked as it is and
    checked alone, in level order, by the constructor's level check."""
    dimension = realization._checked_fields(data["dimension"], data.get("period"), data["levels"])
    levels = []
    for entry in data["levels"]:
        levels.append(realization._checked_level(_unpacked_level(entry), levels[-1].n if levels else 0, dimension))
    return LeveledPointCloud(dimension, levels, data.get("period"))


def taken_levels(data) -> list[bool]:
    """Whether the one pass, ``_level_at_once``, takes each level of a
    document, in level order."""
    taken, previous = [], 0
    for entry in data["levels"]:
        try:
            _level_at_once(entry, previous, data["dimension"])
            taken.append(True)
        except (KeyError, TypeError, ValueError, OverflowError):
            taken.append(False)
        previous = entry["n"]
    return taken


def test_a_level_checked_at_once_reads_as_point_by_point():
    """The one pass takes unlabeled points; it leaves a level with a repeated
    label, coords beside a shadow, even its rounding, an empty shadow, points
    with and without shadows or an int coordinate to the checked path, and
    takes every other level. The reader gives the checked path's cloud or
    refusal either way."""
    text = realize(ONE_GAP, 6).to_json()
    dimension = json.loads(text)["dimension"]
    edits = [
        (4, lambda points: points[0].update(label=None), True),
        (4, lambda points: [point.update(label=None) for point in points], True),
        (4, lambda points: points[1].update(label=points[0]["label"]), False),  # refused
        (5, lambda points: points[0].update(coords=[0.0] * dimension), False),  # the root's shadow rounded
        (2, lambda points: points[1].update(coords=[0.5] * dimension, exact=[]), False),
        (3, lambda points: points.__setitem__(2, {"label": "v", "coords": [1.5] * dimension}), False),
        # the writer writes no int coordinate
        (0, lambda points: points[0].update(coords=[0] * dimension), False),
    ]
    for level, edit, taken in edits:
        data = json.loads(text)
        edit(data["levels"][level]["points"])
        assert taken_levels(data) == [taken or i != level for i in range(len(data["levels"]))]
        try:
            expected = checked_path(data)
        except GraphError as exc:
            assert refusal(data) == str(exc) == "duplicate label 'r' at level 5"
            continue
        assert LeveledPointCloud.from_json_dict(data) == expected
    # coords next to a shadow, once they equal its rounding, are not held
    assert LeveledPointCloud.from_json_dict(data).levels[0].points[0].coords is None


def with_coords(cloud) -> str:
    """The cloud's file as the writer wrote it before a shadow stood alone:
    each shadowed point with its coords as well, and each level with r."""
    data = cloud_json_dict(cloud)
    for entry, lvl in zip(data["levels"], cloud.levels):
        entry["r"] = repr(lvl.r)
        for item, p in zip(entry["points"], lvl.points):
            item["coords"] = list(point_floats(lvl, p))
    return json.dumps(data, indent=2)


@pytest.mark.parametrize("n", range(2, 14))
def test_one_pass_loads_every_layout_as_the_checked_path(n):
    """Realized clouds and their alternating-period subsamples, written with
    shadows alone or without them, load through the one pass at every level;
    written with both halves, in units of the scale or as absolute shadows,
    or with absolute shadows alone, as the writer wrote them before, they
    take the checked path at every level. Each loads to the checked path's
    cloud, signed zeros included, and as a value the constructor keeps."""
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = synthesize_weights(random_dominating_shape(rng, n, p))
        for rule in (ScalingRule(), ScalingRule("power_square", 2)):
            cloud = realize(g, 12, rule)
            for c in (cloud, subsample_levels(cloud, alternating_period_indices(cloud))):
                earlier = (with_coords(c), _both_halves(c), json.dumps(legacy_cloud_json_dict(c)))
                for text in (c.to_json(), c.to_json(include_exact=False), *earlier):
                    data = json.loads(text)
                    assert taken_levels(data) == [text not in earlier] * c.depth
                    loaded, expected = LeveledPointCloud.from_json(text), checked_path(data)
                    assert loaded == expected
                    assert loaded.to_json(include_exact=False) == expected.to_json(include_exact=False)
                    assert LeveledPointCloud(loaded.dimension, loaded.levels, loaded.period) == loaded
                assert LeveledPointCloud.from_json(c.to_json()) == c


# the reader's refusal of each of ONE_PASS_CASES in the last level of a
# realized file, as the checked path words it, or None where the file loads
ONE_PASS_REFUSALS = [
    # Fraction reads "1_000" from Python 3.11 on
    None if sys.version_info >= (3, 11) else "not a rational literal: '1_000'",
    "not a rational literal: '3/'",
    "not a rational literal: '1/-2'",
    "not a rational literal: '1/0'",
    "not a rational literal: '1/00'",
    None,
    None,
    None,
    None,
    "not a rational literal: '" + "1" * 5000 + "'",
    None,
    "refusing float weight 1.5: pass a string ('3/2' or '1.5') for exactness",
    "not a rational literal: True",
    None,
    None,
    None,
    None,
    "not a rational literal: '1/2/3'",
    "not a rational literal: ''",
    "not a rational literal: '-'",
    "not a rational literal: '/3'",
    "not a rational literal: '--3'",
    "not a rational literal: '1 /2'",
    "not a rational literal: '1/+2'",
    "not a rational literal: '1,2'",
    None,
    None,
    "not a rational literal: None",
    "not a rational literal: [1]",
]


def refusal(data):
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud.from_json(json.dumps(data))
    return str(caught.value)


@pytest.mark.parametrize("index", range(len(ONE_PASS_CASES)))
def test_a_value_in_the_last_level_loads_or_is_refused_as_on_the_checked_path(index):
    # absolute shadows, as the writer wrote them before it wrote them in
    # units of their level's scale
    assert len(ONE_PASS_REFUSALS) == len(ONE_PASS_CASES)
    data = legacy_cloud_json_dict(realize(CERT_TRIANGLE, 4))
    data["levels"][-1]["points"][1]["exact"][0] = ONE_PASS_CASES[index]
    if ONE_PASS_REFUSALS[index] is None:
        assert LeveledPointCloud.from_json(json.dumps(data)) == checked_path(data)
    else:
        assert refusal(data) == ONE_PASS_REFUSALS[index]


# the cases above that read as a rational which is no integer
_NOT_INTEGERS = ["١/٢", "2/4", "-3/9", "007/014", "1.5"]


@pytest.mark.parametrize("index", range(len(ONE_PASS_CASES)))
def test_a_value_in_units_of_the_scale_loads_or_is_refused_as_on_the_checked_path(index):
    """In a level with ``over``, each value is read as with absolute shadows,
    and one that is no integer is refused too."""
    value = ONE_PASS_CASES[index]
    data = json.loads(realize(CERT_TRIANGLE, 4).to_json())
    level = data["levels"][-1]
    level["points"][1]["exact"][0] = value
    expected = ONE_PASS_REFUSALS[index]
    if value in _NOT_INTEGERS:
        expected = f"level 4 has exact value {value!r} over {level['over']}; it must be an integer"
    if expected is None:
        assert LeveledPointCloud.from_json(json.dumps(data)) == checked_path(data)
    else:
        assert refusal(data) == expected


def test_of_two_faults_in_different_levels_the_checked_path_names_the_first():
    """The fields are checked before the levels, and the levels in level
    order, each unpacked and checked alone: a fault of an earlier level is
    named before a malformed shadow literal of a later one. The reader
    refuses as the checked path does."""

    def faults(*edits):
        data = json.loads(realize(CERT_TRIANGLE, 4).to_json())
        levels = data["levels"]
        for level, point, field, value in edits:
            target = data if level is None else levels[level] if point is None else levels[level]["points"][point]
            if field == "exact":
                target["exact"][0] = value
            else:
                target[field] = value
        with pytest.raises(GraphError) as caught:
            checked_path(data)
        assert refusal(data) == str(caught.value)
        return str(caught.value)

    assert faults((0, 2, "label", "u"), (-1, 1, "exact", "3/")) == "duplicate label 'u' at level 1"
    assert faults((-1, 1, "exact", "3/"), (-1, 2, "label", "u")) == "not a rational literal: '3/'"
    assert faults((1, 1, "coords", [0.5] * 2), (-1, 2, "label", "u")) == (
        "point 'u' at level 2 has coords [0.5, 0.5], but its exact shadow rounds to [-2.0, 1.0]"
    )
    assert faults((None, None, "dimension", "2"), (0, 2, "label", "u")) == (
        "cloud dimension must be a positive integer, got '2'"
    )
    assert faults((2, None, "n", 2), (-1, 1, "coords", [0.5] * 2)) == (
        "level 2 follows level 2: levels must strictly increase"
    )
    assert faults((1, None, "r_exact", "0"), (-1, None, "n", 1)) == (
        "level 2 has exact scale r_exact = 0; it must be positive"
    )


def test_a_file_without_shadows_loads_or_is_refused_as_on_the_checked_path():
    """The one pass takes finite float coordinates only, and JSON arrays only,
    where a dict built in code may hold tuples; the reader loads or refuses
    the rest as the checked path does."""
    text = realize(CERT_TRIANGLE, 4).to_json(include_exact=False)

    def edited(level, point, value):
        data = json.loads(text)
        data["levels"][level]["points"][point]["coords"][0] = value
        return data

    refused = {
        float("nan"): "point 'u' at level 4 has a NaN or infinite coordinate",
        float("-inf"): "point 'u' at level 4 has a NaN or infinite coordinate",
        True: "point 'u' at level 4 has a non-numeric coordinate: a JSON true or false",
        "1.5": "point 'u' at level 4 has a non-numeric coordinate: a JSON string",
    }
    for value, text_of_refusal in refused.items():
        assert refusal(edited(-1, 1, value)) == text_of_refusal
    data = edited(-1, 1, 2)
    assert taken_levels(data) == [True] * 3 + [False]
    assert LeveledPointCloud.from_json_dict(data) == checked_path(data)
    assert LeveledPointCloud.from_json_dict(data).levels[-1].points[1].coords == (2.0, 12.0)
    data = json.loads(text)
    data["levels"][-1]["points"] = tuple(data["levels"][-1]["points"])
    point = "{'label': 'r', 'coords': [0.0, 0.0]}"
    with pytest.raises(GraphError, match=re.escape(f"point {point} at level 4 is not an object")):
        LeveledPointCloud.from_json_dict(data)
    data = json.loads(text)
    data["levels"] = tuple(data["levels"])
    level = (
        "{'n': 1, 'r': '1.0', 'points': [{'label': 'r', 'coords': [0.0, 0.0]}, "
        "{'label': 'u', 'coords': [-1.0, 0.5]}, {'label': 'v', 'coords': [1.5, -2.0]}]}"
    )
    with pytest.raises(GraphError, match=re.escape(f"cloud level {level} is not an object")):
        LeveledPointCloud.from_json_dict(data)


@pytest.mark.parametrize("name", ["partly_shadowed", "single_point"])
def test_a_file_of_a_cloud_not_realized_takes_the_checked_path(name):
    """The one pass declines every level of a file the writer writes for a
    cloud with points without a shadow, or without r_exact, as the one-point
    space has none; the file loads to the checked path's cloud, and back."""
    cloud = WRITTEN_CLOUDS[name][0]()
    data = json.loads(cloud.to_json())
    assert taken_levels(data) == [False] * cloud.depth
    assert LeveledPointCloud.from_json_dict(data) == checked_path(data) == cloud


def test_a_level_the_pass_declines_alone_takes_the_checked_path(monkeypatch):
    """A partly shadowed level, which the writer writes for a cloud built in
    code with partial shadows, and a level with an int coordinate reach the
    constructor's level check alone, and the pass reads every other level;
    each file loads to the checked path's cloud. A fault of an earlier level
    is named before a malformed literal of a later one."""
    cloud = realize(ONE_GAP, 12)
    partly = json.loads(cloud.to_json())
    point = cloud.levels[0].points[1]
    partly["levels"][0]["points"][1] = {"label": point.label, "coords": list(point_floats(cloud.levels[0], point))}
    floats = json.loads(cloud.to_json(include_exact=False))
    floats["levels"][5]["points"][1]["coords"][0] = 2
    files = [(partly, 0, checked_path(partly)), (floats, 5, checked_path(floats))]
    checked_level, checked = realization._checked_level, []

    def counted(lvl, *rest):
        checked.append(lvl.n)
        return checked_level(lvl, *rest)

    monkeypatch.setattr(realization, "_checked_level", counted)
    for data, level, expected in files:
        assert taken_levels(data) == [i != level for i in range(12)]
        checked.clear()
        loaded = LeveledPointCloud.from_json(json.dumps(data))
        assert checked == [level + 1]
        assert loaded == expected
    assert not files[0][2].has_exact() and files[0][2].levels[0].points[1].exact is None
    partly["levels"][1]["r_exact"] = "0"
    partly["levels"][-1]["points"][1]["exact"][0] = "3/"
    assert refusal(partly) == "level 2 has exact scale r_exact = 0; it must be positive"


def check_writer(cloud):
    for include_exact in (True, False):
        assert cloud.to_json(include_exact) == json.dumps(cloud_json_dict(cloud, include_exact), indent=2)


def _odd_cloud():
    """Unlabeled and non-ASCII points, shadowed points with and without their
    coordinates, an int coordinate, subnormal and huge ones, an empty shadow,
    a level without points and one without exact data."""
    return LeveledPointCloud(
        dimension=2,
        levels=[
            CloudLevel(1, None, Fraction(2), [
                CloudPoint(None, None, (0, 3)),
                CloudPoint("é\n\"µ", (0.5, -1.5), (1, -3)),
                CloudPoint("v", (1, -5e-324), None),
                CloudPoint("w", (2.5e-300, -0.0), ()),
            ], q=4),
            CloudLevel(2, 6.0, None, [], q=None),
            CloudLevel(3, 1e300, None, [CloudPoint("z", (0.1, 1e22))], q=None),
        ],
        period=None,
    )


def _equal_but_spelled_apart_cloud():
    """Values that compare equal but print apart, which a table keyed on the
    values of a level would print alike: 0.0 before -0.0 and 1.0 before an
    int 1, which the cloud holds as 1.0, in one level; -0.0 before 0.0 among
    repeated values and shadows in another, on a point without a shadow, as
    a shadow's 0 is 0.0."""
    return LeveledPointCloud(
        dimension=2,
        levels=[
            CloudLevel(1, 1.0, None, [
                CloudPoint("a", (0.0, 1.0)),
                CloudPoint("b", (-0.0, 1)),
                CloudPoint("c", (1.0, -0.0)),
            ]),
            CloudLevel(2, 6.0, Fraction(6), [
                CloudPoint("a", (-0.0, 0.0)),
                CloudPoint("b", (1.5, -2.5), (3, -5)),
                CloudPoint("c", (1.5, 1.5), (3, 3)),
                CloudPoint("d", (0.0, -2.5), (0, -5)),
            ], q=12),
        ],
        period=None,
    )


@pytest.mark.parametrize(
    "cloud",
    [
        realize(ONE_GAP, 12),
        subsample_levels(realize(ONE_GAP, 12), alternating_period_indices(realize(ONE_GAP, 12))),
        realize(CERT_TRIANGLE, 6, ScalingRule("power_square", 3)),
        single_point_space(8),
        _odd_cloud(),
        _equal_but_spelled_apart_cloud(),
    ],
    ids=["factorial", "subsample", "power_square", "single_point", "odd", "equal_apart"],
)
def test_writer_prints_what_json_dumps_prints(cloud):
    check_writer(cloud)
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud


def test_signed_zeros_of_one_level_load_and_write_back_with_their_signs():
    # the level of floats alone: the loader reads an int coordinate as a float
    text = LeveledPointCloud(2, _equal_but_spelled_apart_cloud().levels[1:]).to_json(include_exact=False)
    assert '"coords": [\n            -0.0,\n            0.0\n          ]' in text
    level = LeveledPointCloud.from_json(text).levels[0]
    signs = [math.copysign(1.0, x) for p in level.points for x in p.coords if x == 0]
    assert signs == [-1.0, 1.0, 1.0]
    assert LeveledPointCloud.from_json(text).to_json() == text


_COORDINATE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)


@st.composite
def _clouds(draw):
    dimension = draw(st.integers(1, 3))
    row = st.tuples(*[_COORDINATE] * dimension)
    levels = []
    for n in draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True).map(sorted)):
        labels = draw(st.lists(st.text(max_size=3), unique=True, min_size=not levels, max_size=3))
        q = draw(st.integers(1, 60))
        points, shadows = [], []
        for label in labels:
            # a shadow's coordinates are its numerators over q, given or derived
            shadow = draw(st.none() | st.tuples(*[st.integers(-10**30, 10**30)] * dimension))
            coords = draw(row) if shadow is None else draw(st.sampled_from([None, tuple(a / q for a in shadow)]))
            points.append((None if draw(st.booleans()) else label, coords))
            shadows.append(shadow and [Fraction(a, q) for a in shadow])
        r_exact = draw(st.none() | st.fractions(min_value=Fraction(1, 10**6), max_value=10**30))
        r = draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)) if r_exact is None else None
        # the level holds each shadow in units of its scale
        q, shadows = shadows_in_units(shadows, Fraction(r) if r_exact is None else r_exact) if any(shadows) else (q, shadows)
        points = [CloudPoint(label, coords, shadow) for (label, coords), shadow in zip(points, shadows)]
        levels.append(CloudLevel(n, r, r_exact, points, q))
    return LeveledPointCloud(dimension, levels, period=draw(st.none() | st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(_clouds())
def test_writer_prints_what_json_dumps_prints_on_random_clouds(cloud):
    check_writer(cloud)
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud


# r-u, r-v: the cloud that a bad cloud below is made from, in code and as JSON
R_UV = realize(synthesize_weights(WeightedRootedGraph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 1}, "r")), 8)
NAN, INF = float("nan"), float("inf")
U_4 = point_floats(R_UV.levels[3], R_UV.levels[3].points[1])


class _InCode:
    """R_UV's fields in code, to edit: ``dimension``, ``period`` and copies
    of its levels and their point lists."""

    def __init__(self):
        levels = [dataclasses.replace(lvl, points=list(lvl.points)) for lvl in R_UV.levels]
        self.fields = {"dimension": R_UV.dimension, "period": R_UV.period, "levels": levels}

    def level(self, i, **values):
        self.fields["levels"][i] = dataclasses.replace(self.fields["levels"][i], **values)

    def points(self, i):
        return self.fields["levels"][i].points

    def point(self, i, j, **values):
        self.points(i)[j] = dataclasses.replace(self.points(i)[j], **values)

    def cut(self, i, j, size):
        p = self.points(i)[j]
        self.point(i, j, exact=p.exact[:size])

    def build(self):
        return LeveledPointCloud(**self.fields)


class _InFile(_InCode):
    """The same fields of R_UV's JSON document with absolute shadows, as the
    writer wrote it before it wrote them in units of their level's scale, to
    edit; a Fraction is written as its literal."""

    def __init__(self):
        self.fields = json.loads(json.dumps(legacy_cloud_json_dict(R_UV)))

    def level(self, i, **values):
        self.fields["levels"][i].update({k: str(v) if isinstance(v, Fraction) else v for k, v in values.items()})

    def points(self, i):
        return self.fields["levels"][i]["points"]

    def point(self, i, j, **values):
        self.points(i)[j].update(values)

    def cut(self, i, j, size):
        p = self.points(i)[j]
        self.point(i, j, exact=p["exact"][:size])

    def build(self):
        return LeveledPointCloud.from_json(json.dumps(self.fields))


class _InUnits(_InFile):
    """R_UV's JSON document as the writer writes it, to edit: a shadow
    written in code is read in units of its level's scale, r_exact / over."""

    def __init__(self):
        self.fields = json.loads(R_UV.to_json())


def _cut_u(edit):
    for i in range(R_UV.depth):
        edit.cut(i, 1, 1)


def _points_cleared(edit):
    for i in range(R_UV.depth):
        edit.level(i, points=[])


# each case is one bad cloud, as a change that makes it from R_UV in code and
# in its JSON document alike, with the text both are refused with. Left in
# code, the first four mislead: exact recovery of the cut cloud finds an extra
# edge u-v of weight 1/3, the zero scale divides by zero, recovery of the
# reversed levels decides on levels 2 and 1, and annulus_diameter_table drops
# the NaN point.
REFUSALS = {
    "u cut to one entry": (_cut_u, "point 'u' at level 1 does not have 2 coordinates"),
    "last scale zero": (
        lambda e: e.level(-1, r=0.0, r_exact=Fraction(0)),
        "level 8 has scale r = 0.0; it must be finite and positive",
    ),
    "levels reversed": (
        lambda e: e.fields.update(levels=e.fields["levels"][::-1]),
        "level 7 follows level 8: levels must strictly increase",
    ),
    "NaN coordinate": (
        lambda e: e.point(0, 1, coords=(NAN, 0.0, 1.0)),
        "point 'u' at level 1 has a NaN or infinite coordinate",
    ),
    "infinite coordinate": (
        lambda e: e.point(2, 2, coords=(0.0, 1.0, -INF)),
        "point 'v' at level 3 has a NaN or infinite coordinate",
    ),
    "coordinate a string": (
        lambda e: e.point(0, 1, coords=("1.5", 0.0, 1.0)),
        "point 'u' at level 1 has a non-numeric coordinate: a JSON string",
    ),
    "coordinate true": (
        lambda e: e.point(0, 1, coords=(True, 0.0, 1.0)),
        "point 'u' at level 1 has a non-numeric coordinate: a JSON true or false",
    ),
    "coordinate null": (
        lambda e: e.point(0, 1, coords=(None, 0.0, 1.0)),
        "point 'u' at level 1 has a non-numeric coordinate: "
        "float() argument must be a string or a real number, not 'NoneType'",
    ),
    "coordinate beyond binary64": (
        lambda e: e.point(0, 1, coords=(10**400, 0.0, 1.0)),
        "point 'u' at level 1 has a coordinate beyond binary64: int too large to convert to float",
    ),
    "coordinates a string": (
        lambda e: e.point(0, 1, coords="123"),
        "point 'u' at level 1 has coordinates that are not a JSON list",
    ),
    "shadow a string": (
        lambda e: e.point(0, 1, exact="123"),
        "point 'u' at level 1 has coordinates that are not a JSON list",
    ),
    "short shadow": (
        lambda e: e.point(0, 2, exact=(0,)),
        "point 'v' at level 1 does not have 2 coordinates",
    ),
    "label an int": (
        lambda e: e.point(0, 1, label=1),
        "point label 1 at level 1 is not a string",
    ),
    "label repeated": (
        lambda e: e.point(1, 2, label="u"),
        "duplicate label 'u' at level 2",
    ),
    "dimension 0": (lambda e: e.fields.update(dimension=0), "cloud dimension must be a positive integer, got 0"),
    "dimension 3.0": (
        lambda e: e.fields.update(dimension=3.0), "cloud dimension must be a positive integer, got 3.0"
    ),
    "period 0": (lambda e: e.fields.update(period=0), "cloud period must be a positive integer, got 0"),
    "period true": (lambda e: e.fields.update(period=True), "cloud period must be a positive integer, got True"),
    "level n 0": (
        lambda e: e.level(0, n=0), "cloud level n must be a positive integer, got 0"
    ),
    "level n 1.5": (
        lambda e: e.level(0, n=1.5), "cloud level n must be a positive integer, got 1.5"
    ),
    "level n repeated": (
        lambda e: e.level(1, n=1), "level 1 follows level 1: levels must strictly increase"
    ),
    "scale NaN": (
        lambda e: e.level(0, r=NAN),
        "level 1 has scale r = nan; it must be finite and positive",
    ),
    "scale negative": (
        lambda e: e.level(1, r=-2.0),
        "level 2 has scale r = -2.0; it must be finite and positive",
    ),
    "scale a word": (
        lambda e: e.level(1, r="x"),
        "level 2 has a scale r that is not a binary64 number: could not convert string to float: 'x'",
    ),
    "scale true": (
        lambda e: e.level(1, r=True),
        "level 2 has a scale r that is not a binary64 number: True",
    ),
    "exact scale zero": (
        lambda e: e.level(2, r_exact=Fraction(0)),
        "level 3 has exact scale r_exact = 0; it must be positive",
    ),
    "exact scale a float": (
        lambda e: e.level(2, r_exact=1.5),
        "refusing float weight 1.5: pass a string ('3/2' or '1.5') for exactness",
    ),
    "exact scale a word": (lambda e: e.level(2, r_exact="x"), "not a rational literal: 'x'"),
    "coordinates apart from their shadow": (
        lambda e: e.point(0, 1, coords=tuple(1.5 * x for x in point_floats(R_UV.levels[0], R_UV.levels[0].points[1]))),
        "point 'u' at level 1 has coords [-2.0, 0.0], but its exact shadow rounds to "
        "[-1.3333333333333333, 0.0]",
    ),
    "coordinate one ulp apart from its shadow": (
        lambda e: e.point(3, 1, coords=(math.nextafter(U_4[0], INF), *U_4[1:])),
        "point 'u' at level 4 has coords [-31.999999999999996, 32.0], but its exact shadow rounds to "
        "[-32.0, 32.0]",
    ),
    "scale one ulp apart from r_exact": (
        lambda e: e.level(3, r=math.nextafter(R_UV.levels[3].r, 0)),
        "level 4 has scale r = 23.999999999999996, but r_exact rounds to 24.0",
    ),
    "shadow beyond binary64": (
        lambda e: e.point(0, 1, exact=(10**400, 0)),
        "point 'u' at level 1 has a coordinate beyond binary64: integer division result too large for a float",
    ),
    # every shadow in code is in units of the scale: the scale is named first
    "exact scale beyond binary64": (
        lambda e: e.level(2, r_exact=Fraction(10**400)),
        "level 3 has a scale r that is not a binary64 number: integer division result too large for a float",
    ),
    "neither coords nor shadow": (
        lambda e: e.point(0, 1, coords=None, exact=None),
        "point 'u' at level 1 has neither coords nor an exact shadow",
    ),
    "neither r nor r_exact": (
        lambda e: e.level(0, r=None, r_exact=None),
        "level 1 has neither r nor r_exact",
    ),
    "no points": (_points_cleared, "cloud JSON has no points"),
    "no levels": (lambda e: e.fields.update(levels=[]), "cloud JSON has no points"),
    "levels a string": (lambda e: e.fields.update(levels="x"), "cloud JSON levels must be a list"),
    "level a number": (
        lambda e: e.fields["levels"].__setitem__(1, 5), "cloud level 5 is not an object"
    ),
    "points a string": (lambda e: e.level(1, points="x"), "points of level 2 must be a list"),
    "point a number": (
        lambda e: e.points(1).__setitem__(2, 5),
        "point 5 at level 2 is not an object",
    ),
}


# the case refused with another text in the file as the writer writes it,
# where a level with over needs r_exact for its shadows
IN_UNITS = {
    "neither r nor r_exact": "level 1 has exact values over 3 but no r_exact",
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_file_and_code_refuse_alike(case):
    change, text = REFUSALS[case]
    for edit in (_InCode(), _InFile(), _InUnits()):
        change(edit)
        with pytest.raises(GraphError) as caught:
            edit.build()
        expected = IN_UNITS.get(case, text) if isinstance(edit, _InUnits) else text
        assert str(caught.value) == expected, type(edit).__name__


def test_construction_holds_values_as_the_reader_does():
    """What a cloud holds of a value built in code: an int coordinate as its
    float, an empty shadow as none, shadows in lowest terms and without the
    coordinates given next to them, no q without them, a list of coordinates
    as a tuple and a level's r as a float; the reader gives the same cloud."""
    cloud = LeveledPointCloud(2, [
        CloudLevel(1, 6, "6", [CloudPoint("a", [1, -0.5], [6, -3]), CloudPoint("b", (0, 2.0), ())], q=36),
        CloudLevel(2, "3.5", None, [CloudPoint("a", [1.0, 2.0])], q=7),
    ])
    level, other = cloud.levels
    assert level == CloudLevel(1, 6.0, Fraction(6), [
        CloudPoint("a", None, (2, -1)), CloudPoint("b", (0.0, 2.0), None)
    ], q=12)
    assert other == CloudLevel(2, 3.5, None, [CloudPoint("a", (1.0, 2.0))], q=None)
    assert type(level.points[1].coords[0]) is float
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud


@pytest.mark.parametrize(
    "points, q, text",
    [
        ([CloudPoint("a", (1.0,), (1.5,))], 1, "level 1 has a shadow numerator that is no int: 1.5"),
        ([CloudPoint("a", (1.0,), (True,))], 1, "level 1 has a shadow numerator that is no int: True"),
        ([CloudPoint("a", (1.0,), (1,))], 0, "level 1 has exact shadows over q = 0; q must be a positive integer"),
        ([CloudPoint("a", (1.0,), (1,))], None, "level 1 has exact shadows over q = None; q must be a positive integer"),
        ([CloudPoint("a", (1.0,), (1,))], 2.0, "level 1 has exact shadows over q = 2.0; q must be a positive integer"),
    ],
)
def test_construction_refuses_shadows_no_file_holds(points, q, text):
    # the reader makes every numerator and q itself; code may hand in others
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud(1, [CloudLevel(1, 1.0, None, points, q)])
    assert str(caught.value) == text


def _rebuilt(cloud):
    """The cloud built anew through the checked constructor."""
    return LeveledPointCloud(cloud.dimension, cloud.levels, cloud.period)


def test_the_unchecked_path_builds_only_what_construction_accepts():
    # generate_cloud, single_point_space and subsample_levels skip the checks
    rules = [ScalingRule(), ScalingRule("power_square", 2)]
    for shape in dominating_rooted_shapes(6):
        g = synthesize_weights(shape)
        for rule in rules:
            plan = build_plan(g, 12, rule)
            for depth in range(1, 13):
                cloud = generate_cloud(dataclasses.replace(plan, depth=depth))
                assert _rebuilt(cloud) == cloud
            selections = [alternating_period_indices(cloud), [1], [2, 5, 12], list(range(1, 13))]
            selections += [period_stride_indices(cloud, k) for k in range(cloud.period)]
            for indices in selections:
                sub = subsample_levels(cloud, indices)
                assert _rebuilt(sub) == sub
    for base in (2, 3, 5):
        for depth in range(2, 24):
            try:
                cloud = single_point_space(depth, base)
            except GraphError:
                continue
            assert _rebuilt(cloud) == cloud


def test_realization_of_synthesized_shapes_has_full_family():
    rng = random.Random(83)
    for g in rng.sample(dominating_rooted_shapes(5), 10):
        assert_two_member_family(build_plan(synthesize_weights(g), depth=4))


@pytest.mark.parametrize("n", range(3, 13))
def test_lower_member_equals_the_fraction_construction(n):
    rng = random.Random(n)
    shape = random_dominating_shape(rng, n)
    while not shape.non_edges():
        shape = random_dominating_shape(rng, n)
    g = synthesize_weights(shape)
    assert build_plan(g, depth=12).family == [lower_member_by_fractions(g), shortest_path_metric(g)]


def test_lower_member_with_unrelated_denominators():
    # weights over 7, 11 and 13: the integer scale is their product, 1001
    rng = random.Random(89)
    for n in range(3, 9):
        for _ in range(3):
            shape = random_dominating_shape(rng, n)
            if not shape.non_edges():
                continue
            g = with_unrelated_denominators(rng, shape)
            plan = build_plan(g, depth=12)
            assert plan.family == [lower_member_by_fractions(g), shortest_path_metric(g)]
            assert_two_member_family(plan)


@pytest.mark.parametrize("n, m", [(40, 374), (64, 968)], ids=["40", "64"])
def test_forty_vertex_shape_round_trips_exactly(n, m):
    # m non-edges; guards the combinatorics against sliding back to
    # per-coordinate Fraction cost, which took about 10 s at n = 40
    g = synthesize_weights(random_dominating_shape(random.Random(n), n))
    assert len(g.non_edges()) == m
    plan = build_plan(g, depth=12)
    # each non-edge sits at least delta / min(m + 1, n) below d in the lower member
    margin = least_interval_width(g) / min(m + 1, n)
    lower, d = plan.family
    for u, v in g.non_edges():
        assert d.get(u, v) - lower.get(u, v) >= margin, (u, v)
    cloud = generate_cloud(plan)
    assert recover_cluster(cloud, use_exact=True).graph == g


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
    xs = [_level_floats(lvl)[1][0] for lvl in cloud.levels]
    assert xs == [2.0, 16.0, 512.0]
    assert [point_shadow(lvl, lvl.points[1]) for lvl in cloud.levels] == [(2,), (16,), (512,)]
    assert cloud.levels[0].r == pytest.approx(math.sqrt(32), rel=1e-15)
    assert cloud.levels[1].r == pytest.approx(math.sqrt(8192), rel=1e-15)
    # the last level's scale needs x_21 = 5**441, about 1.76e308, which fits binary64
    cloud = single_point_space(depth=20, base=5)
    assert all(math.isfinite(lvl.r) and math.isfinite(_level_floats(lvl)[1][0]) for lvl in cloud.levels)
    assert len(recover_cluster(cloud).graph) == 1
    with pytest.raises(GraphError, match="^depth 21 overflows binary64 for base 5$"):
        single_point_space(depth=21, base=5)


def test_single_point_normalized_values_decay():
    cloud = single_point_space(depth=12, base=2)
    values = [_level_floats(lvl)[1][0] / lvl.r for lvl in cloud.levels]
    for n, got in enumerate(values, start=1):
        assert got == pytest.approx(2 ** (-(2 * n + 1) / 2), rel=1e-12)
    assert all(b2 < b1 for b1, b2 in zip(values, values[1:]))


def test_single_point_basepoint_is_exact_zero():
    cloud = single_point_space(depth=5, base=3)
    for lvl in cloud.levels:
        assert lvl.points[0].label == "p"
        assert lvl.points[0].exact == (Fraction(0),)
        assert _level_floats(lvl)[0] == (0.0,)


def test_single_point_guards():
    with pytest.raises(GraphError):
        single_point_space(depth=1)
    with pytest.raises(GraphError):
        single_point_space(depth=5, base=1)
    with pytest.raises(GraphError):
        single_point_space(depth=40, base=2)  # overflow
    # a depth is refused exactly when x_{depth+1} rounds beyond binary64
    for base in range(2, 65):
        for depth in range(2, 40):
            try:
                float(base ** ((depth + 1) ** 2))
            except OverflowError:
                with pytest.raises(GraphError, match="overflows binary64"):
                    single_point_space(depth, base)
            else:
                assert single_point_space(depth, base).depth == depth


def test_single_point_space_refuses_a_base_that_is_not_an_int():
    # a float base used to build a float shadow where a cloud holds int numerators
    for base in (2.5, True):
        with pytest.raises(GraphError, match="base"):
            single_point_space(3, base)
