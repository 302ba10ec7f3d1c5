import dataclasses
import hashlib
import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from metric_cluster import graph_core, realization
from metric_cluster.graph_core import GraphError, WeightedRootedGraph, _digit_limit, isomorphic, parse_rational
from metric_cluster.fpc import synthesize_weights
from metric_cluster.metrization import DistanceMatrix, shortest_path_metric
from metric_cluster.realization import (
    CloudLevel,
    LeveledPointCloud,
    RealizationPlan,
    _level_floats,
    _level_numerators,
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
    validate_recovered_cluster,
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
    lower_member_by_fractions,
    point_floats,
    point_shadow,
    power_square_scaled,
    random_dominating_shape,
    scaled_weights,
    shadows_by_spelling,
    spelled_out,
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

TWO_PATHS = graph(
    ["r", "u", "x", "z"],
    {("r", "u"): 1, ("r", "x"): 2, ("r", "z"): Fraction(5, 2), ("u", "x"): 1, ("x", "z"): 1},
    "r",
)  # single non-edge (u, z), of distance 2 along u-x-z


# ---------------------------------------------------------------------------
# the scaling sequence
# ---------------------------------------------------------------------------


def test_factorial_rule_values_and_ratios():
    # level n is scaled by n!: the ratio of consecutive scales grows without bound
    values = [lvl.r_exact for lvl in realize(CERT_TRIANGLE, 7).levels]
    assert values == [1, 2, 6, 24, 120, 720, 5040]
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_power_square_rule():
    # the one-point space's points are x_n = 2**(n*n), level n scaled by 2**(n*n + n)
    cloud = single_point_space(3)
    assert [point_shadow(lvl, lvl.rows[1]) for lvl in cloud.levels] == [(2,), (16,), (512,)]
    assert [lvl.r_exact for lvl in cloud.levels] == [4, 64, 4096]
    ratios = [b.r_exact / a.r_exact for a, b in zip(cloud.levels, cloud.levels[1:])]
    assert ratios == [16, 64]  # r_n = r_{n-1} * 4**n


def test_levels_and_depths_count_from_one():
    assert [lvl.n for lvl in realize(CERT_TRIANGLE, 3).levels] == [1, 2, 3]
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


def test_a_depth_shorter_than_the_family_period_is_refused():
    # a non-edge shows only as the oscillation between the two members
    with pytest.raises(GraphError) as caught:
        build_plan(ONE_GAP, 1)
    assert str(caught.value) == (
        "depth 1 is shorter than one full metric-family period (2): recovery cannot see every member"
    )
    # a complete graph has one member: depth 1 realizes and recovers it
    cloud = realize(CERT_TRIANGLE, 1)
    assert cloud.depth == 1 and cloud.period == 1
    assert isomorphic(recover_cluster(cloud).graph, CERT_TRIANGLE)


def test_a_plan_is_made_by_build_plan_alone():
    # a family handed in or edited after the fact made a cloud of another
    # graph, whose exact recovery had 6 edges where TWO_PATHS has 5
    plan = build_plan(TWO_PATHS, 12)
    lower, d = plan.family
    for make in (
        lambda: RealizationPlan(TWO_PATHS, (d, d), 12),
        lambda: RealizationPlan(graph=TWO_PATHS, family=(lower,), depth=12),
        lambda: dataclasses.replace(plan, family=(d, d)),
        lambda: dataclasses.replace(plan, depth=1),
    ):
        with pytest.raises(TypeError) as caught:
            make()
        assert str(caught.value) == "a RealizationPlan is made by build_plan"
    with pytest.raises(dataclasses.FrozenInstanceError) as caught:
        plan.family = [d, d]
    assert str(caught.value) == "cannot assign to field 'family'"
    with pytest.raises(TypeError) as caught:
        plan.family[0] = d
    assert str(caught.value) == "'tuple' object does not support item assignment"
    assert plan.family == (lower, d)
    assert recover_cluster(generate_cloud(plan), use_exact=True).graph == TWO_PATHS


def test_the_family_oracle_refuses_each_family_build_plan_does_not_make():
    lower, d = build_plan(TWO_PATHS, 12).family
    assert_two_member_family(TWO_PATHS, (lower, d))
    order = TWO_PATHS.vertices
    far = DistanceMatrix(order, [[0 if a == b else 100 for b in order] for a in order])
    backwards = DistanceMatrix(order[::-1], [row[::-1] for row in lower.rows[::-1]])
    for family in ((d, d), (lower,), (far, d), (backwards, d)):
        with pytest.raises(AssertionError):
            assert_two_member_family(TWO_PATHS, family)


# ---------------------------------------------------------------------------
# clouds
# ---------------------------------------------------------------------------


def test_root_is_origin_at_every_level():
    cloud = realize(ONE_GAP, depth=10)
    for lvl in cloud.levels:
        assert lvl.q is not None
        assert all(x == 0 for x in cloud.points_by_label(lvl)["r"])
    # a label names one point of a level; unlabeled points may repeat and are left out
    lvl = cloud.levels[0]
    labeled = cloud.points_by_label(lvl)
    origin = (0,) * cloud.dimension
    unlabeled = dataclasses.replace(lvl, labels=lvl.labels + (None, None), rows=lvl.rows + (origin, origin))
    assert cloud.points_by_label(unlabeled) == labeled
    twice = dataclasses.replace(unlabeled, labels=unlabeled.labels + ("u",), rows=unlabeled.rows + (labeled["u"],))
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
                    # the rows are held in units of r_n
                    got = lvl.r_exact * Fraction(sup_distance(pts[u], pts[v]), lvl.q)
                    assert got == lvl.r_exact * d.get(u, v)


def test_norm_over_scaling_equals_root_labels():
    plan = build_plan(ONE_GAP, depth=8)
    cloud = generate_cloud(plan)
    origin = (0,) * cloud.dimension
    for lvl in cloud.levels:
        pts = cloud.points_by_label(lvl)
        for v in plan.graph.vertices:
            # over q, a row is in units of r_n already
            norm = Fraction(sup_distance(pts[v], origin), lvl.q)
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
        plan = build_plan(g, 12)
        cloud = generate_cloud(plan)
        assert cloud.dimension == max(1, n - 1)
        for i, lvl in enumerate(cloud.levels):
            d = plan.family[i % plan.period]
            pts = cloud.points_by_label(lvl)
            assert not any(pts[g.root])
            for u, v in combinations(g.vertices, 2):
                assert Fraction(sup_distance(pts[u], pts[v]), lvl.q) == d.get(u, v)
        sub = subsample_levels(cloud, alternating_period_indices(cloud))
        assert sub.period == cloud.period
        assert recover_cluster(cloud).graph == g
        assert recover_cluster(sub).graph == g


def test_cloud_generation_is_deterministic():
    a = realize(ONE_GAP, depth=10).to_json()
    b = realize(ONE_GAP, depth=10).to_json()
    assert a == b


@pytest.mark.parametrize("n", [6, 13, 40])
def test_a_depth_300_cloud_round_trips_exactly(n):
    """Realization and exact recovery have no binary64 bound: r_300 = 300!
    is far beyond it, yet a depth-300 cloud of a corpus shape, written and
    read back, recovers g at weight tolerance 0."""
    g = synthesize_weights(random_dominating_shape(random.Random(n), n))
    cloud = realize(g, 300)
    assert cloud.has_exact()
    loaded = LeveledPointCloud.from_json(cloud.to_json())
    assert loaded == cloud
    assert isomorphic(g, recover_cluster(loaded).graph, weight_tol_rel=0) is not None


def test_realization_refuses_the_first_scale_the_writer_cannot_spell(int_max_str_digits):
    """Under an int-to-str digit limit one digit short of the first r_n = n!
    past 640 digits, realization refuses that level, whose r_n str() cannot
    spell, and the cloud one level shorter is written."""
    last = next(n for n in range(1, 1000) if len(str(math.factorial(n))) > 640)
    limit = len(str(math.factorial(last))) - 1
    int_max_str_digits(limit)
    with pytest.raises(ValueError):
        str(math.factorial(last))
    refusal = f"level {last} has a scale r_exact of more than {limit} digits, which to_json cannot write"
    with pytest.raises(GraphError, match=f"^{refusal}$"):
        realize(CERT_TRIANGLE, last)
    assert LeveledPointCloud.from_json(realize(CERT_TRIANGLE, last - 1).to_json()).depth == last - 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit")
def test_the_scale_loop_refuses_the_first_scale_past_the_digit_limit_exactly(int_max_str_digits):
    """Under the least digit limit, 640, whose bit-length bound is 640 * 33219
    // 10000 = 2126 bits: 10**640 - 1 (640 digits, 2127 bits, past the bound)
    is built and 10**640 refused; the refusal names the first level past the
    limit, and no factor past it is taken. 310! (640 digits, 2124 bits) is the
    last scale of realize(g, 310), and 311! (642 digits) is refused at level 311."""
    int_max_str_digits(640)
    assert list(realization._exact_scales(1, lambda n: 10**640 - 1)) == [(1, 10**640 - 1)]
    refusal = "has a scale r_exact of more than 640 digits, which to_json cannot write"
    with pytest.raises(GraphError, match=f"^level 1 {refusal}$"):
        list(realization._exact_scales(1, lambda n: 10**640))
    taken, built = [], []
    with pytest.raises(GraphError, match=f"^level 2 {refusal}$"):
        for n, r in realization._exact_scales(5, lambda n: taken.append(n) or (10**639 if n == 1 else 10)):
            built.append(n)
    assert (taken, built) == ([1, 2], [1])
    cloud = realize(CERT_TRIANGLE, 310)
    assert (cloud.depth, cloud.levels[-1].r_exact) == (310, math.factorial(310))
    with pytest.raises(GraphError, match=f"^level 311 {refusal}$"):
        realize(CERT_TRIANGLE, 311)


def first_level_beyond_binary64(cloud) -> int:
    """The first level, by Fraction arithmetic, whose r_exact or some
    coordinate rounds beyond binary64 under ``float``, or 0 for none."""
    for lvl in cloud.levels:
        try:
            float(lvl.r_exact)
            [float(x) for row in lvl.rows for x in point_shadow(lvl, row)]
        except OverflowError:
            return lvl.n
    return 0


@pytest.mark.parametrize("base", [None, 3], ids=["factorial", "power_square"])
@pytest.mark.parametrize(
    "g",
    [
        CERT_TRIANGLE,
        # largest distances over 3 that bring r_n * largest within a bit of
        # the limit at the boundary, at the scales n! for 61/3 and at the
        # scales 3**(n*n) for 25769803780/3
        scaled_weights(ONE_GAP, Fraction(61, 15)),
        scaled_weights(ONE_GAP, Fraction(25769803780, 15)),
        # the largest distance, 27 between u and v, is no coordinate: every
        # coordinate of level 170, at most 14 * 170!, fits
        graph(["r", "u", "v"], {("r", "u"): 13, ("r", "v"): 14}, "r"),
        # a coordinate below 2**1024 that rounds to infinity at level 170
        halfway_past_binary64(),
    ],
    ids=["triangle", "largest_61/3", "largest_25769803780/3", "largest_off_the_root", "halfway"],
)
def test_binary64_readers_refuse_at_the_first_value_beyond_binary64(g, base):
    """Realization has no binary64 bound; a binary64 reader rounds r_exact
    and each coordinate when it asks, and refuses with GraphError at the
    first level, by the Fraction oracle, where one leaves binary64: the
    float writer at that level, and every level before it reads."""
    cloud = realize(g, 200) if base is None else power_square_scaled(realize(g, 30), base)
    first = first_level_beyond_binary64(cloud)
    assert first > 1
    readable = LeveledPointCloud(cloud.dimension, cloud.levels[:first - 1], cloud.period)
    assert readable.to_json(include_exact=False) == json.dumps(cloud_json_dict(readable, include_exact=False))
    assert all(math.isfinite(c) for lvl in readable.levels for row in _level_floats(lvl) for c in row)
    with pytest.raises(GraphError, match=f"level {first} ") as caught:
        cloud.to_json(include_exact=False)
    assert "beyond binary64" in str(caught.value)


def test_a_coordinate_that_rounds_to_infinity_is_refused_by_each_binary64_reader():
    # level 170 holds it exactly; only its float is beyond binary64
    g = halfway_past_binary64()
    cloud = realize(g, 171)
    assert recover_cluster(LeveledPointCloud.from_json(cloud.to_json())).graph == g
    text = "point 'v' at level 170 has a coordinate beyond binary64: integer division result too large for a float"
    for read in (lambda: _level_floats(cloud.levels[169]), lambda: cloud.to_json(include_exact=False)):
        with pytest.raises(GraphError) as caught:
            read()
        assert str(caught.value) == text
    # the float writer writes a level's r before its points: r_171 = 171! is refused first
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud(1, cloud.levels[170:]).to_json(include_exact=False)
    assert str(caught.value) == "level 171 has a scale r_exact beyond binary64: integer division result too large for a float"


def _generation_cases():
    rng = random.Random(19)
    return [
        pytest.param(WeightedRootedGraph(["r"], {}, "r"), id="one_vertex"),
        pytest.param(synthesize_weights(dominating_rooted_shapes(6)[-1]), id="complete"),
        pytest.param(ONE_GAP, id="one_gap"),
        pytest.param(CERT_TRIANGLE, id="triangle"),
        *(
            pytest.param(synthesize_weights(random_dominating_shape(rng, n, p)), id=f"random-{n}-{p}")
            for n in (12, 40)
            for p in (0.2, 0.5)
        ),
    ]


def check_generation(plan):
    cloud, expected = generate_cloud(plan), cloud_by_coordinates(plan)
    assert cloud == expected
    for include_exact in (True, False):
        assert cloud.to_json(include_exact) == expected.to_json(include_exact)


@pytest.mark.parametrize("g", _generation_cases())
def test_generation_matches_the_coordinate_oracle(g):
    check_generation(build_plan(g, 12))


def test_generation_matches_the_coordinate_oracle_on_synthesized_shapes():
    for shape in dominating_rooted_shapes(6):
        check_generation(build_plan(synthesize_weights(shape), 12))


def test_cloud_json_round_trip():
    cloud = realize(ONE_GAP, depth=6)
    again = LeveledPointCloud.from_json(cloud.to_json())
    assert again.dimension == cloud.dimension
    assert again.period == cloud.period
    assert [l.n for l in again.levels] == [l.n for l in cloud.levels]
    for la, lb in zip(again.levels, cloud.levels):
        assert la.r == lb.r and la.r_exact == lb.r_exact and la.q == lb.q
        assert la.labels == lb.labels and la.rows == lb.rows
    stripped = LeveledPointCloud.from_json(cloud.to_json(include_exact=False))
    assert not stripped.has_exact()


# SHA-256 of the cloud bytes as the writer writes them, and of the same file
# spelled out, as the writer wrote it before points_of; a change of the
# realization family, of its columns (the root has none) or of the layout,
# json.dumps(value)'s, changes them by design
PINNED_CLOUDS = [
    (12, None, "3ee8dc5a149e08d79621fc803fdc8ce95bf10d4ec4db39c46758e10878a83752",
     "03c186f99a55f067e22219ae19804eca5fc65e77972d99cf6a9a786272ce2927"),
    (6, 3, "c888ebaf1180722a1ea9a0e3c2d75f730b2cfa03bb41a9606184f4a9f0b8b238",
     "beffcc9edc3aeb661d63ec44ddfb3d2af0f2141d035a663401ed3efe8eaa172e"),
]


def one_gap_cloud(depth, base=None):
    """ONE_GAP realized at the scales n!, or, with a base, at base**(n*n)."""
    cloud = realize(ONE_GAP, depth)
    return cloud if base is None else power_square_scaled(cloud, base)


@pytest.mark.parametrize(
    "depth, base, digest, spelled_digest",
    PINNED_CLOUDS,
    ids=[f"{depth}-{'rule1' if base else None}" for depth, base, *_ in PINNED_CLOUDS],
)
def test_cloud_bytes_are_pinned(depth, base, digest, spelled_digest):
    cloud = one_gap_cloud(depth, base)
    text = cloud.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert LeveledPointCloud.from_json(text) == cloud
    spelled = json.dumps(spelled_out(json.loads(text)))
    assert hashlib.sha256(spelled.encode()).hexdigest() == spelled_digest
    assert LeveledPointCloud.from_json(spelled) == cloud


# SHA-256 of the files that write no shadow in units of a scale, each pinned
# cloud written without shadows: the values are those written while the cloud
# held absolute shadows, in json.dumps(value)'s layout
PINNED_WITHOUT_UNITS = {
    "12-None-floats": (lambda: realize(ONE_GAP, 12).to_json(include_exact=False),
                       "55e05974466b2f37ac7386bde3f4d2c7c231206e3c8eefb6db4e876895b0b5d1"),
    "6-rule1-floats": (lambda: one_gap_cloud(6, 3).to_json(include_exact=False),
                       "a8d32d285a17cb6307551a7ad6b684a3e7431adbc296a2cc90a63fd1fd124934"),
}


@pytest.mark.parametrize("case", sorted(PINNED_WITHOUT_UNITS))
def test_files_without_shadows_in_units_are_pinned(case):
    write, digest = PINNED_WITHOUT_UNITS[case]
    assert hashlib.sha256(write().encode()).hexdigest() == digest


def test_a_single_point_file_is_pinned_and_reads_back():
    """The one-point space has r_exact = 2**(n*n + n) at every level, so its
    file writes shadows over ``over`` as a realized cloud's does."""
    cloud = single_point_space(12)
    text = cloud.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SINGLE_POINT_DIGEST
    assert len(text) == 1669
    data = json.loads(text)
    assert all("over" in entry and "r" not in entry for entry in data["levels"])
    assert LeveledPointCloud.from_json(text) == cloud
    assert [lvl.r_exact for lvl in cloud.levels] == [2 ** (n * n + n) for n in range(1, 13)]


SINGLE_POINT_DIGEST = "fb494b95b667fddf20943a09ec133ba0d758faf0b639284edc60545d6807a9cd"


def _exact_and_binary64_levels_file_cloud():
    """A realized cloud whose file has every other level, from the second,
    as the float writer writes it: its r and rounded coordinates."""
    data = json.loads(realize(CERT_TRIANGLE, 8).to_json())
    floats = json.loads(realize(CERT_TRIANGLE, 8).to_json(include_exact=False))
    data["levels"][1::2] = floats["levels"][1::2]
    return LeveledPointCloud.from_json_dict(data)


# built in the tests that take them: a cloud read from a file goes through
# the reader, whose refusal then fails a test, not the module's collection
WRITTEN_CLOUDS = {
    "factorial": (lambda: realize(ONE_GAP, 12), True),
    "power_square": (lambda: one_gap_cloud(6, 3), True),
    "deep": (lambda: realize(ONE_GAP, 110), True),
    "exact_and_binary64_levels": (_exact_and_binary64_levels_file_cloud, False),
    "single_point": (lambda: single_point_space(12), False),
}


@pytest.mark.parametrize("name", list(WRITTEN_CLOUDS))
def test_a_level_holds_its_shadows_as_its_file_writes_them(name):
    """A level with r_exact holds its written ``over`` as q and its points'
    written values as its rows, and a level with r its written coords; the
    levels of one family member share their labels and rows; and the
    constructor takes the cloud's own levels as they are, and fresh lists
    of their labels and rows as equal tuples."""
    build, realized = WRITTEN_CLOUDS[name]
    cloud = build()
    for entry, lvl in zip(spelled_file(cloud)["levels"], cloud.levels):
        assert ("over" in entry) == (lvl.r_exact is not None) == (lvl.q is not None)
        assert lvl.labels == tuple(item["label"] for item in entry["points"])
        if "over" in entry:
            assert lvl.q == entry["over"]
            assert lvl.rows == tuple(tuple(map(int, item["exact"])) for item in entry["points"])
        else:
            assert lvl.rows == tuple(tuple(item["coords"]) for item in entry["points"])
    if realized:
        for lvl, later in zip(cloud.levels, cloud.levels[cloud.period:]):
            assert lvl.q == later.q and lvl.labels is later.labels and lvl.rows is later.rows
    assert LeveledPointCloud(cloud.dimension, cloud.levels, cloud.period) == cloud
    copies = [dataclasses.replace(lvl, labels=list(lvl.labels), rows=list(map(list, lvl.rows))) for lvl in cloud.levels]
    rebuilt = LeveledPointCloud(cloud.dimension, copies, cloud.period)
    assert rebuilt == cloud and rebuilt.to_json() == cloud.to_json()


@pytest.mark.parametrize(
    "cloud",
    [
        realize(ONE_GAP, 12),
        power_square_scaled(realize(CERT_TRIANGLE, 6), 3),
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
    assert '"over"' in cloud.to_json()


def test_threads_each_loading_and_writing_a_cloud_reproduce_the_serial_results():
    """The reader's and writer's tables of repeated points live within one
    call, and levels share their rows without writing to them: threads,
    each loading its own file, writing the cloud back and recovering it,
    give what one thread gives."""
    rng = random.Random(7)
    clouds = [realize(synthesize_weights(random_dominating_shape(rng, n, 0.5)), 24) for n in range(3, 11)]
    texts = [cloud.to_json() for cloud in clouds]

    def load_and_write(text):
        cloud = LeveledPointCloud.from_json(text)
        diagnostics = recover_cluster(cloud).diagnostics_json_dict()
        return cloud, cloud.to_json(), cloud.to_json(include_exact=False), diagnostics

    serial = list(map(load_and_write, texts * 3))
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(load_and_write, texts * 3)) == serial
    assert [cloud for cloud, *_ in serial[:len(clouds)]] == clouds


@pytest.mark.parametrize("depth, base", [(12, None), (6, 3), (110, None)], ids=["12-None", "6-rule1", "110-None"])
def test_shadows_are_written_in_units_of_their_level_scale(depth, base):
    """Each ``exact`` value of a realized level is an integer over the level's
    ``over``, in lowest terms together, and r_exact times value / over is the
    shadow; r_exact's digits are not repeated in the values."""
    cloud = one_gap_cloud(depth, base)
    data = spelled_file(cloud)
    for entry, lvl in zip(data["levels"], cloud.levels):
        values = [int(x) for item in entry["points"] for x in item["exact"]]
        assert math.gcd(entry["over"], *values) == 1
        assert all(str(int(x)) == x for item in entry["points"] for x in item["exact"])
        for item, row in zip(entry["points"], lvl.rows):
            assert file_shadow(entry, item) == list(point_shadow(lvl, row))
    assert max(len(x) for item in data["levels"][-1]["points"] for x in item["exact"]) < 4


def test_unreduced_shadows_load_over_the_least_denominator():
    """A level written over six times its ``over``, each value six times its
    own, loads to the realized level, in lowest terms."""
    cloud = realize(CERT_TRIANGLE, 8)
    level = next(lvl for lvl in cloud.levels if lvl.q > 1)
    for n in (level.n, cloud.depth // 2, cloud.depth):
        data = spelled_file(cloud)
        entry = data["levels"][n - 1]
        entry["over"] *= 6
        for item in entry["points"]:
            item["exact"] = [str(6 * int(x)) for x in item["exact"]]
        again = LeveledPointCloud.from_json(json.dumps(data))
        assert again == cloud
        assert again.to_json() == cloud.to_json()


def test_a_level_whose_points_are_not_of_one_kind_is_refused():
    """A level is exact or binary64 whole. The file of a realized cloud
    whose first level keeps the shadow only where a coordinate has a
    denominator, and the coordinates elsewhere, is refused at the first
    point of the other kind; so is the file whose first level has every
    point's coordinates beside its r_exact, and that level in code, rows
    of coordinates without a q beside r_exact."""
    realized = realize(CERT_TRIANGLE, 12)
    first = realized.levels[0]
    assert first.q > 1
    data = cloud_json_dict(realized)
    entry = data["levels"][0]
    shadowed = [any(a % first.q for a in row) for row in first.rows]
    assert shadowed.index(False) < shadowed.index(True)
    for item, row, keep in zip(entry["points"], first.rows, shadowed):
        if not keep:
            item["coords"] = list(point_floats(first, row))
            del item["exact"]
    other = first.labels[shadowed.index(True)]
    assert refusal(data) == f"level 1 is in a retired layout: exact and coords mixed at point {other!r}"
    beside = f"level 1 is in a retired layout: coords beside r_exact at point {first.labels[0]!r}"
    for item, row in zip(entry["points"], first.rows):
        item.pop("exact", None)
        item["coords"] = list(point_floats(first, row))
    del entry["over"]
    assert refusal(data) == beside
    coords = dataclasses.replace(first, rows=_level_floats(first), q=None)
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud(realized.dimension, [coords, *realized.levels[1:]])
    assert str(caught.value) == beside


# the least integer that rounds beyond binary64, halfway between the largest
# binary64 number and 2**1024, where rounding to even goes up
_PAST_BINARY64 = 2**1024 - 2**970


@pytest.mark.parametrize("q", [1, 3])
def test_a_binary64_reader_refuses_exactly_a_shadow_beyond_binary64(q):
    """A level holds any shadow: the reader loads it, in a file and in code
    alike. A binary64 reader rounds a shadow just below the halfway point to
    the largest binary64 number, and refuses one at it, naming the first
    point beyond binary64 with the text of the per-point rounding."""
    for a, fits in ((_PAST_BINARY64 * q - 1, True), (_PAST_BINARY64 * q, False)):
        shadows = {"r": (0, 0), "u": (1, 2), "v": (1, -a), "w": (-a, 0)}
        # in units of the scale 7, each numerator itself is the value over 7q
        in_code = LeveledPointCloud(2, [CloudLevel(1, None, Fraction(7), tuple(shadows), tuple(shadows.values()), 7 * q)])
        entry = {"n": 1, "r_exact": "7", "over": 7 * q}
        entry["points"] = [{"label": v, "exact": list(map(str, x))} for v, x in shadows.items()]
        document = {"dimension": 2, "levels": [entry]}
        assert LeveledPointCloud.from_json_dict(document) == in_code
        assert in_code.has_exact()
        if fits:
            assert _level_floats(in_code.levels[0])[2] == (1 / q, -sys.float_info.max)
            continue
        text = "point 'v' at level 1 has a coordinate beyond binary64: integer division result too large for a float"
        for read in (lambda: _level_floats(in_code.levels[0]), lambda: in_code.to_json(include_exact=False)):
            with pytest.raises(GraphError) as caught:
                read()
            assert str(caught.value) == text


# a level's values: signs, digits from several scripts, separators and the
# characters of rational, decimal and exponent literals
_VALUE_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    st.text(alphabet="0123456789-+/ _.,eE\t٣²０", max_size=12),
)

# the refusal of an exact value in any spelling but the writer's
SPELLING = "it must be an integer spelled -?[0-9]+ in ASCII digits, within the interpreter's digit limit"

# a level object whose values are over 1, as the reader unpacks its shadows
_OVER_ONE = {"n": 1, "over": 1, "r_exact": "1"}


def check_level(shadows):
    """The level parse reads what the per-value oracle reads: each value a
    string of ASCII digits, ``-?[0-9]+``, as its int over ``over``, here 1.
    It refuses the first other value, in point order, with its text."""
    rows, refused = shadows_by_spelling(shadows)
    if refused:
        with pytest.raises(GraphError) as caught:
            _level_numerators(_OVER_ONE, shadows)
        assert str(caught.value) == f"level 1 has exact value {refused[0]!r} over 1; {SPELLING}"
    else:
        assert _level_numerators(_OVER_ONE, shadows) == (1 if any(rows) else None, rows)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _VALUE_TEXT,
        st.integers(),
        st.floats(),
        st.booleans(),
        st.none(),
        st.lists(st.integers(), max_size=2),
    )
)
def test_exact_value_parse_reads_the_writers_spelling_alone(value):
    check_level([[value]])


# the writer's spelling with leading zeros and signs; integer-valued and other
# rational, decimal and exponent literals; what a loose split takes ("3/",
# "1/-2"); zero denominators; other scripts' digits; digits beyond the
# interpreter's limit and JSON values that are not strings
EDGE_VALUES = [
    "-0", "007", "-007", "0/7", "2/4", "-3/9", "6/2", "0/1", "007/014", "+3", " 3", "3 ", "1_000", "1.5",
    "3.0", "-1.5e3", "1E-2", "1e3", "x/0", "3/0", "0/0", "3/-3", "-3/3", "3/", "/3", "1/-2", "1/2/3", "1 /2",
    "1/+2", "1,2", "3-", "1-2", "--3", "", "-", "٣", "٣/٤", "²", "０", "1" * 5000, "1/" + "1" * 5000,
    3, 1.5, True, None, [1],
]


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_exact_coordinate_parse_edge_cases(value):
    check_level([[value]])


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_a_value_among_spelled_values_is_read_or_refused_at_its_point(value):
    # one value among spelled ones, and points without a shadow
    check_level([["1", value, "-3"], None, ["4", "56", value]])
    check_level([None, ["10", "-20"], [value, "0"]])


def check_value_at_level(value, index):
    """The realized file of CERT_TRIANGLE with ``value`` as the first value
    of u in ``levels[index]`` loads to the cloud that the constructor builds
    of the oracle's numerators, or is refused with the value's text. Every
    level of that file repeats the points of level 1, which the file spelled
    out spells at every level, so the last level is one that names level 1
    in the file as written."""
    cloud = realize(CERT_TRIANGLE, 4)
    data = spelled_file(cloud)
    entry = data["levels"][index]
    assert entry["points"] == data["levels"][0]["points"]
    entry["points"][1]["exact"][0] = value
    rows, refused = shadows_by_spelling([item["exact"] for item in entry["points"]])
    if refused:
        assert refusal(data) == f"level {entry['n']} has exact value {refused[0]!r} over {entry['over']}; {SPELLING}"
        return
    levels = list(cloud.levels)
    level = levels[index]
    levels[index] = CloudLevel(level.n, None, level.r_exact, level.labels, rows, entry["over"])
    assert LeveledPointCloud.from_json(json.dumps(data)) == LeveledPointCloud(cloud.dimension, levels, cloud.period)


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_a_value_in_the_first_level_loads_or_is_refused_at_its_point(value):
    check_value_at_level(value, 0)


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_a_value_in_the_last_level_loads_or_is_refused_at_its_point(value):
    check_value_at_level(value, -1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.none() | st.lists(_VALUE_TEXT, max_size=3), max_size=4))
def test_level_parse_matches_the_oracle_on_random_levels(shadows):
    check_level(shadows)


def test_two_faults_in_a_level_are_named_in_point_order():
    shadows = [["12", "3"], ["14", "3/"], ["1/-2", "4"]]
    check_level(shadows)
    with pytest.raises(GraphError, match="'3/'"):
        _level_numerators(_OVER_ONE, shadows)
    with pytest.raises(GraphError, match="'1/-2'"):
        _level_numerators(_OVER_ONE, [["1/-2", "3/"]])


def test_a_level_reads_each_distinct_value_once(monkeypatch):
    read = []
    monkeypatch.setattr(realization, "_integers", lambda texts: read.extend(texts) or graph_core._integers(texts))
    shadows = [["2", "3"], None, ["3", "2"], ["-4", "3"]]
    assert _level_numerators(_OVER_ONE, shadows) == (1, [(2, 3), None, (3, 2), (-4, 3)])
    assert sorted(read) == ["-4", "2", "3"]


def test_a_malformed_shadow_is_named_before_a_later_point_fault():
    data = spelled_file(realize(CERT_TRIANGLE, 4))
    points = data["levels"][1]["points"]
    points[2] = {"label": "v", "coords": ["x", 0.0, 0.0]}
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
    assert error() == "level 2 is in a retired layout: exact and coords mixed at point 'v'"


def test_each_point_edit_of_a_level_loads_or_is_refused_at_its_point():
    """Unlabeled points load; a repeated label, coords beside a shadow, even
    its rounding, an empty shadow beside coords, points with and without
    shadows and a point with neither are refused, named by their level and
    point."""
    cloud = realize(ONE_GAP, 6)
    text, dimension = json.dumps(spelled_file(cloud)), cloud.dimension
    edits = [
        (4, lambda points: points[0].update(label=None), None),
        (4, lambda points: [point.update(label=None) for point in points], None),
        (4, lambda points: points[1].update(label=points[0]["label"]), "duplicate label 'r' at level 5"),
        # the root's shadow rounded, beside it
        (5, lambda points: points[0].update(coords=[0.0] * dimension),
         "level 6 is in a retired layout: coords beside exact at point 'r'"),
        (2, lambda points: points[1].update(coords=[0.5] * dimension, exact=[]),
         "level 3 is in a retired layout: exact and coords mixed at point 'u'"),
        (3, lambda points: points.__setitem__(2, {"label": "v", "coords": [1.5] * dimension}),
         "level 4 is in a retired layout: exact and coords mixed at point 'v'"),
        # the first point's kind is the level's
        (0, lambda points: points.__setitem__(0, {"label": "r", "coords": [0] * dimension}),
         "level 1 is in a retired layout: exact and coords mixed at point 'u'"),
        # a point with neither is named by the level check
        (1, lambda points: points[0].update(exact=None), "point 'r' at level 2 has neither coords nor an exact shadow"),
    ]
    for level, edit, refused in edits:
        data = json.loads(text)
        points = data["levels"][level]["points"]
        edit(points)
        if refused is not None:
            assert refusal(data) == refused
            continue
        levels = list(cloud.levels)
        levels[level] = dataclasses.replace(levels[level], labels=tuple(point["label"] for point in points))
        assert LeveledPointCloud.from_json_dict(data) == LeveledPointCloud(dimension, levels, cloud.period)


def retired_files(cloud) -> dict[str, str]:
    """The cloud's file in each layout that a writer wrote before and no
    writer writes now, by name: each ``exact`` value the coordinate itself,
    without ``over``, beside r_exact or r; each shadowed point with its
    coords as well; each level with r beside r_exact; the last two with
    absolute shadows, as the writer wrote both halves; each level's second
    point with its coords in place of its shadow; and each level's points
    with their coords beside r_exact."""

    def absolute(data):
        for entry in data["levels"]:
            for item in entry["points"]:
                if "exact" in item:
                    item["exact"] = list(map(str, file_shadow(entry, item)))
            entry.pop("over", None)
        return data

    def with_r(data, drop_r_exact=False):
        for entry, lvl in zip(data["levels"], cloud.levels):
            entry["r"] = repr(float(lvl.r_exact))
            if drop_r_exact:
                del entry["r_exact"]
        return data

    def with_coords(data, points=slice(None), drop_exact=False):
        for entry, lvl in zip(data["levels"], cloud.levels):
            for item, row in list(zip(entry["points"], lvl.rows))[points]:
                item["coords"] = list(point_floats(lvl, row))
                if drop_exact:
                    del item["exact"]
            if drop_exact and all("coords" in item for item in entry["points"]):
                del entry["over"]
        return data

    def spelled():
        return spelled_out(cloud_json_dict(cloud))

    layouts = {
        "absolute": absolute(spelled()),
        "absolute_beside_r": with_r(absolute(spelled()), drop_r_exact=True),
        "coords_beside_exact": with_coords(spelled()),
        "r_beside_r_exact": with_r(spelled()),
        "both_halves": with_r(with_coords(absolute(spelled()))),
        "exact_and_coords_mixed": with_coords(spelled(), slice(1, 2), drop_exact=True),
        "coords_beside_r_exact": with_coords(spelled(), drop_exact=True),
    }
    return {name: json.dumps(data, indent=2) for name, data in layouts.items()}


# the refusal of each retired layout of a realized file, at level 1, whose
# first point is the root 'r'
RETIRED_REFUSALS = {
    "absolute": "level 1 is in a retired layout: exact values without over",
    "absolute_beside_r": "level 1 is in a retired layout: exact values without over",
    "coords_beside_exact": "level 1 is in a retired layout: coords beside exact at point 'r'",
    "r_beside_r_exact": "level 1 is in a retired layout: r beside r_exact",
    "both_halves": "level 1 is in a retired layout: exact values without over",
    "exact_and_coords_mixed": "level 1 is in a retired layout: exact and coords mixed at point 'u'",
    "coords_beside_r_exact": "level 1 is in a retired layout: coords beside r_exact at point 'r'",
}


@pytest.mark.parametrize("layout", sorted(RETIRED_REFUSALS))
def test_each_retired_layout_is_refused_at_its_level(layout):
    """A file in a layout that no writer writes now is refused with the text
    that names its level and layout."""
    cloud = realize(ONE_GAP, 6)
    data = json.loads(retired_files(cloud)[layout])
    assert refusal(data) == RETIRED_REFUSALS[layout]
    # a later level alone in the layout is named by its number
    mixed = json.loads(cloud.to_json())
    mixed["levels"][4] = data["levels"][4]
    assert refusal(mixed) == RETIRED_REFUSALS[layout].replace("level 1 ", "level 5 ")


def test_each_retired_shape_built_in_code_is_refused():
    """The constructor refuses rows of coordinates, without a q, beside
    r_exact, a level with r beside r_exact, and numerators over a q on a
    level without r_exact, named as a file in the same layout is."""
    first = realize(ONE_GAP, 6).levels[0]
    retired = "level 1 is in a retired layout: "
    shapes = {
        retired + "coords beside r_exact at point 'r'": dataclasses.replace(first, rows=_level_floats(first), q=None),
        retired + "r beside r_exact": dataclasses.replace(first, r=1.0),
        "level 1 has exact values over 1 but no r_exact": dataclasses.replace(first, r=1.0, r_exact=None),
    }
    for text, level in shapes.items():
        with pytest.raises(GraphError) as caught:
            LeveledPointCloud(3, [level])
        assert str(caught.value) == text


def spelled_file(cloud) -> dict:
    """The cloud's file with every level's points spelled out."""
    return spelled_out(json.loads(cloud.to_json()))


def binary64_copy(cloud):
    """The cloud that its file without shadows spells, built by the
    constructor: each level's r and coordinates rounded."""
    levels = [CloudLevel(lvl.n, float(lvl.r_exact), None, lvl.labels, _level_floats(lvl)) for lvl in cloud.levels]
    return LeveledPointCloud(cloud.dimension, levels, cloud.period)


@pytest.mark.parametrize("n", range(2, 14))
def test_the_reader_loads_every_layout_the_writer_writes(n):
    """Realized clouds and their alternating-period subsamples, written with
    shadows alone or without them, load to the cloud the constructor builds
    of the same levels, signed zeros included, and as a value the
    constructor keeps. Each layout the writer wrote before is refused at
    level 1."""
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = synthesize_weights(random_dominating_shape(rng, n, p))
        cloud = realize(g, 12)
        for c in (cloud, subsample_levels(cloud, alternating_period_indices(cloud))):
            for text in retired_files(c).values():
                assert refusal(json.loads(text)).startswith("level 1 is in a retired layout: ")
            for text, expected in ((c.to_json(), c), (c.to_json(include_exact=False), binary64_copy(c))):
                loaded = LeveledPointCloud.from_json(text)
                assert loaded == expected
                assert loaded.to_json(include_exact=False) == c.to_json(include_exact=False)
                assert LeveledPointCloud(loaded.dimension, loaded.levels, loaded.period) == loaded


def refusal(data):
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud.from_json(json.dumps(data))
    return str(caught.value)


def test_of_two_faults_in_different_levels_the_first_is_named():
    """The fields are checked before the levels, and the levels in level
    order, each unpacked and checked alone: a fault of an earlier level is
    named before a malformed exact value of a later one."""
    written = spelled_file(realize(CERT_TRIANGLE, 4))

    def faults(*edits):
        data = json.loads(json.dumps(written))
        levels = data["levels"]
        for level, point, field, value in edits:
            target = data if level is None else levels[level] if point is None else levels[level]["points"][point]
            if field == "exact":
                target["exact"][0] = value
            else:
                target[field] = value
        return refusal(data)

    last = written["levels"][-1]["over"]
    assert faults((0, 2, "label", "u"), (-1, 1, "exact", "3/")) == "duplicate label 'u' at level 1"
    assert faults((-1, 1, "exact", "3/"), (-1, 2, "label", "u")) == f"level 4 has exact value '3/' over {last}; {SPELLING}"
    assert faults((1, 1, "coords", [0.5] * 2), (-1, 2, "label", "u")) == (
        "level 2 is in a retired layout: coords beside exact at point 'u'"
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
    assert faults((1, None, "r_exact", "0"), (-1, 1, "exact", "3/")) == (
        "level 2 has exact scale r_exact = 0; it must be positive"
    )


def test_a_file_without_shadows_loads_or_is_refused_at_its_point():
    """A level without shadows takes finite numbers only, an int as its
    float, and JSON arrays only, where a dict built in code may hold
    tuples."""
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
    loaded = LeveledPointCloud.from_json_dict(edited(-1, 1, 2))
    assert loaded.levels[-1].rows[1] == (2.0, 12.0) and type(loaded.levels[-1].rows[1][0]) is float
    assert loaded.levels[:-1] == LeveledPointCloud.from_json(text).levels[:-1]
    data = json.loads(text)
    data["levels"][-1]["points"] = tuple(data["levels"][-1]["points"])
    with pytest.raises(GraphError, match="^points of level 4 must be a list$"):
        LeveledPointCloud.from_json_dict(data)
    data = json.loads(text)
    data["levels"] = tuple(data["levels"])
    with pytest.raises(GraphError, match="^cloud JSON levels must be a list$"):
        LeveledPointCloud.from_json_dict(data)


def test_a_file_of_exact_and_binary64_levels_loads_to_its_levels():
    """A file whose levels are of both kinds loads to the cloud the
    constructor builds of its exact and its rounded levels."""
    cloud = _exact_and_binary64_levels_file_cloud()
    assert [lvl.r_exact is None for lvl in cloud.levels] == [False, True] * (cloud.depth // 2)
    realized = realize(CERT_TRIANGLE, 8)
    levels = [lvl if lvl.n % 2 else rounded for lvl, rounded in zip(realized.levels, binary64_copy(realized).levels)]
    assert cloud == LeveledPointCloud(realized.dimension, levels, realized.period)
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud


# a fault in level 3 of ONE_GAP's file spelled out, whose points repeat level
# 1's, and the refusal it gets, or None where the level loads
REPEATED_LEVEL_FAULTS = {
    "malformed_value": (
        lambda entry: entry["points"][1]["exact"].__setitem__(0, "3/"),
        f"level 3 has exact value '3/' over 1; {SPELLING}",
    ),
    "repeated_label": (lambda entry: entry["points"][2].update(label="u"), "duplicate label 'u' at level 3"),
    "over_true": (
        lambda entry: entry.update(over=True),
        "level 3 has exact values over True; over must be a positive integer",
    ),
    "another_over": (lambda entry: entry.update(over=3), None),
    "r_instead_of_r_exact": (
        lambda entry: entry.update(r=repr(float(entry.pop("r_exact")))),
        "level 3 has exact values over 1 but no r_exact",
    ),
    "r_beside_r_exact": (lambda entry: entry.update(r=6.0), "level 3 is in a retired layout: r beside r_exact"),
    "r_exact_zero": (
        lambda entry: entry.update(r_exact="0"),
        "level 3 has exact scale r_exact = 0; it must be positive",
    ),
    "n_repeated": (lambda entry: entry.update(n=2), "level 2 follows level 2: levels must strictly increase"),
    # a level holds its shadows whatever its scale: r_exact beyond binary64 loads
    "r_exact_beyond_binary64": (lambda entry: entry.update(r_exact=str(2**1100)), None),
}


@pytest.mark.parametrize("fault", list(REPEATED_LEVEL_FAULTS))
def test_a_level_that_repeats_an_earlier_one_but_for_a_fault_is_read_alone(fault):
    """A level of a file spelled out whose points repeat those of an earlier
    exact level is read in full: one that differs in a value, a label or
    ``over``, or that has no r_exact or a faulty n or scale of its own,
    loads to the cloud the constructor builds of its values or is refused
    with its text."""
    edit, text = REPEATED_LEVEL_FAULTS[fault]
    cloud = realize(ONE_GAP, 6)
    data = spelled_file(cloud)
    entry = data["levels"][2]
    assert entry["points"] == data["levels"][0]["points"] and data["levels"][0]["over"] == 1
    edit(entry)
    if text is not None:
        assert refusal(data) == text
        return
    first, levels = cloud.levels[0], list(cloud.levels)
    levels[2] = CloudLevel(3, None, parse_rational(entry["r_exact"]), first.labels, first.rows, entry["over"])
    assert LeveledPointCloud.from_json(json.dumps(data)) == LeveledPointCloud(cloud.dimension, levels, cloud.period)


def test_each_distinct_points_array_is_read_once(monkeypatch):
    """Of the levels of a realized file, the reader unpacks and checks the
    one per family member that spells its points, and reads each other from
    the earlier level it names by points_of, sharing its labels and rows; of
    the same file spelled out, of a file whose levels all differ, and of a
    file without shadows, it checks every level. The cloud loaded is the
    realized one either way."""
    checked_level, checked = realization._checked_level, []

    def counted(lvl, *rest):
        checked.append(lvl.n)
        return checked_level(lvl, *rest)

    monkeypatch.setattr(realization, "_checked_level", counted)
    cloud = realize(ONE_GAP, 12)
    data = json.loads(cloud.to_json())
    loaded = LeveledPointCloud.from_json_dict(data)
    assert loaded == cloud and checked == [1, 2]
    assert all(lvl.rows is later.rows and lvl.labels is later.labels for lvl, later in zip(loaded.levels, loaded.levels[2:]))
    assert [entry.get("points_of") for entry in data["levels"]] == [None, None] + [1, 2] * 5
    data = spelled_out(data)
    checked.clear()
    assert LeveledPointCloud.from_json_dict(data) == cloud and checked == list(range(1, 13))
    # each level over i times its over, each value i times its own
    for i, entry in enumerate(data["levels"], 1):
        entry["over"] *= i
        for item in entry["points"]:
            item["exact"] = [str(i * int(x)) for x in item["exact"]]
    checked.clear()
    assert LeveledPointCloud.from_json_dict(data) == cloud and checked == list(range(1, 13))
    floats = binary64_copy(cloud)
    checked.clear()
    assert LeveledPointCloud.from_json(cloud.to_json(include_exact=False)) == floats
    assert checked == list(range(1, 13))


@pytest.mark.parametrize("n", range(2, 30))
def test_a_file_spelled_out_loads_and_recovers_as_the_file_written(n):
    """The corpus clouds of n vertices (p = 0.2, 0.5 and 0.8, depth 12) and
    their alternating-period subsamples, written with
    each distinct points array spelled once and named by points_of at every
    later level that repeats it, load from that file and from it spelled out
    to the cloud written, and recover equal graphs from both."""
    for p in (0.2, 0.5, 0.8):
        g = synthesize_weights(random_dominating_shape(random.Random(n), n, p))
        cloud = realize(g, 12)
        for c in (cloud, subsample_levels(cloud, alternating_period_indices(cloud))):
            text = c.to_json()
            data = json.loads(text)
            assert json.dumps(data) == text
            spelling = [entry for entry in data["levels"] if "points" in entry]
            assert len(spelling) == len({(lvl.q, lvl.labels, lvl.rows) for lvl in c.levels}) < c.depth
            written, spelled_out_file = LeveledPointCloud.from_json(text), LeveledPointCloud.from_json_dict(spelled_out(data))
            assert written == spelled_out_file == c
            assert recover_cluster(written).graph == recover_cluster(spelled_out_file).graph


def check_writer(cloud):
    """The writer prints what json.dumps prints of the oracle's dict; where
    the oracle's ``float`` of a value overflows, the float writer refuses
    with GraphError."""
    assert cloud.to_json() == json.dumps(cloud_json_dict(cloud))
    try:
        expected = json.dumps(cloud_json_dict(cloud, include_exact=False))
    except OverflowError:
        with pytest.raises(GraphError, match="beyond binary64"):
            cloud.to_json(include_exact=False)
    else:
        assert cloud.to_json(include_exact=False) == expected


def _odd_cloud():
    """Unlabeled and non-ASCII points, an exact level, an int coordinate,
    subnormal and huge ones, and a level without points."""
    return LeveledPointCloud(
        dimension=2,
        levels=[
            CloudLevel(1, None, Fraction(2), (None, "é\n\"µ", "v"), ((0, 3), (1, -3), (2, 5)), q=4),
            CloudLevel(2, 6.0, None, (), ()),
            CloudLevel(3, 1e300, None, ("z",), ((0.1, 1e22),)),
            CloudLevel(4, 0.5, None, ("v", "w"), ((1, -5e-324), (2.5e-300, -0.0))),
        ],
        period=None,
    )


def _equal_but_spelled_apart_cloud():
    """Values that compare equal but print apart, which a table keyed on the
    values of a level would print alike: 0.0 before -0.0 and 1.0 before an
    int 1, which the cloud holds as 1.0, in one level; an exact level
    between; and a last level whose labels and rows compare equal to the
    first level's, with the signs of its zeros turned."""
    return LeveledPointCloud(
        dimension=2,
        levels=[
            CloudLevel(1, 1.0, None, ("a", "b", "c"), ((0.0, 1.0), (-0.0, 1), (1.0, -0.0))),
            CloudLevel(2, None, Fraction(6), ("b", "c", "d"), ((3, -5), (3, 3), (0, -5)), q=12),
            CloudLevel(3, 1.0, None, ("a", "b", "c"), ((-0.0, 1.0), (0.0, 1.0), (1.0, 0.0))),
        ],
        period=None,
    )


@pytest.mark.parametrize(
    "cloud",
    [
        realize(ONE_GAP, 12),
        subsample_levels(realize(ONE_GAP, 12), alternating_period_indices(realize(ONE_GAP, 12))),
        power_square_scaled(realize(CERT_TRIANGLE, 6), 3),
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
    # the last level alone, whose zeros compare equal to the first level's
    text = LeveledPointCloud(2, _equal_but_spelled_apart_cloud().levels[2:]).to_json()
    assert '"coords": [-0.0, 1.0]' in text
    level = LeveledPointCloud.from_json(text).levels[0]
    signs = [math.copysign(1.0, x) for row in level.rows for x in row if x == 0]
    assert signs == [-1.0, 1.0, 1.0]
    assert LeveledPointCloud.from_json(text).to_json() == text


_COORDINATE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)


@st.composite
def _clouds(draw):
    dimension = draw(st.integers(1, 3))
    levels = []
    for n in draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True).map(sorted)):
        labels = draw(st.lists(st.text(max_size=3), unique=True, min_size=not levels, max_size=3))
        labels = [None if draw(st.booleans()) else label for label in labels]
        # an exact scale within binary64 or beyond it, its rows numerators
        # over q, or a binary64 one, its rows coordinates
        r_exact = draw(
            st.none()
            | st.fractions(min_value=Fraction(1, 10**6), max_value=10**30)
            | st.integers(2**1024, 2**1100).map(Fraction)
        )
        if r_exact is None:
            r = draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
            rows = [draw(st.tuples(*[_COORDINATE] * dimension)) for _ in labels]
            levels.append(CloudLevel(n, r, None, labels, rows))
        else:
            rows = [draw(st.tuples(*[st.integers(-10**30, 10**30)] * dimension)) for _ in labels]
            levels.append(CloudLevel(n, None, r_exact, labels, rows, draw(st.integers(1, 60))))
    return LeveledPointCloud(dimension, levels, period=draw(st.none() | st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(_clouds())
def test_writer_prints_what_json_dumps_prints_on_random_clouds(cloud):
    check_writer(cloud)
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud


# r-u, r-v: the cloud that a bad cloud below is made from, in code and as JSON
R_UV = realize(synthesize_weights(WeightedRootedGraph(["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 1}, "r")), 8)
NAN, INF = float("nan"), float("inf")


class _InCode:
    """R_UV's fields in code, to edit: ``dimension``, ``period`` and its
    levels, whose labels and rows an edit replaces."""

    def __init__(self):
        self.fields = {"dimension": R_UV.dimension, "period": R_UV.period, "levels": list(R_UV.levels)}

    def level(self, i, **values):
        """Level i with these fields; ``points`` stands for its labels and rows."""
        if "points" in values:
            values["labels"] = values["rows"] = values.pop("points")
        self.fields["levels"][i] = dataclasses.replace(self.fields["levels"][i], **values)

    def float_level(self, i, **values):
        """Level i as the float writer writes it, r and coords, then edited."""
        lvl = self.fields["levels"][i]
        self.fields["levels"][i] = CloudLevel(lvl.n, float(lvl.r_exact), None, lvl.labels, tuple(_level_floats(lvl)))
        self.level(i, **values)

    def point(self, i, j, **values):
        """Point j of level i with its ``label`` or its ``row`` replaced."""
        lvl = self.fields["levels"][i]
        labels, rows = list(lvl.labels), list(lvl.rows)
        labels[j], rows[j] = values.get("label", labels[j]), values.get("row", rows[j])
        self.level(i, labels=labels, rows=rows)

    def cut(self, i, j, size):
        self.point(i, j, row=self.fields["levels"][i].rows[j][:size])

    def build(self):
        return LeveledPointCloud(**self.fields)


class _InFile(_InCode):
    """The same fields of R_UV's JSON document as the writer writes it, to
    edit: a row written in code is a point's ``exact`` values, as strings,
    or its ``coords``, whichever it has; a Fraction is written as its
    literal."""

    def __init__(self):
        self.fields = spelled_file(R_UV)

    def level(self, i, **values):
        self.fields["levels"][i].update({k: str(v) if isinstance(v, Fraction) else v for k, v in values.items()})

    def float_level(self, i, **values):
        self.fields["levels"][i] = json.loads(R_UV.to_json(include_exact=False))["levels"][i]
        self.level(i, **values)

    def points(self, i):
        return self.fields["levels"][i]["points"]

    def point(self, i, j, **values):
        item = self.points(i)[j]
        key = "coords" if "coords" in item else "exact"
        if "label" in values:
            item["label"] = values["label"]
        row = values.get("row", item[key])
        if row is None:
            del item[key]
        elif isinstance(row, tuple):
            item[key] = [str(a) if key == "exact" and type(a) is int else a for a in row]
        else:
            item[key] = row

    def cut(self, i, j, size):
        item = self.points(i)[j]
        item["exact"] = item["exact"][:size]

    def build(self):
        return LeveledPointCloud.from_json(json.dumps(self.fields))


def _cut_u(edit):
    for i in range(R_UV.depth):
        edit.cut(i, 1, 1)


def _points_cleared(edit):
    for i in range(R_UV.depth):
        edit.level(i, points=[])


def _coords_beside_r_exact(edit):
    """Level 1 as the float writer writes it, but with its r_exact for r."""
    edit.float_level(0, r=None, r_exact=R_UV.levels[0].r_exact)


# each case is one bad cloud, as a change that makes it from R_UV in code and
# in its JSON document alike (or in the document alone, FILE_ONLY), with the
# text both are refused with. Left in
# code, the first four mislead: exact recovery of the cut cloud finds an extra
# edge u-v of weight 1/3, the zero scale divides by zero, recovery of the
# reversed levels decides on levels 2 and 1, and annulus_diameter_table drops
# the NaN point.
REFUSALS = {
    "u cut to one entry": (_cut_u, "point 'u' at level 1 does not have 2 coordinates"),
    "last scale zero": (
        lambda e: e.float_level(-1, r=0.0),
        "level 8 has scale r = 0.0; it must be finite and positive",
    ),
    "levels reversed": (
        lambda e: e.fields.update(levels=e.fields["levels"][::-1]),
        "level 7 follows level 8: levels must strictly increase",
    ),
    "NaN coordinate": (
        lambda e: (e.float_level(0), e.point(0, 1, row=(NAN, 0.0, 1.0))),
        "point 'u' at level 1 has a NaN or infinite coordinate",
    ),
    "infinite coordinate": (
        lambda e: (e.float_level(2), e.point(2, 2, row=(0.0, 1.0, -INF))),
        "point 'v' at level 3 has a NaN or infinite coordinate",
    ),
    "coordinate a string": (
        lambda e: (e.float_level(0), e.point(0, 1, row=("1.5", 0.0, 1.0))),
        "point 'u' at level 1 has a non-numeric coordinate: a JSON string",
    ),
    "coordinate true": (
        lambda e: (e.float_level(0), e.point(0, 1, row=(True, 0.0, 1.0))),
        "point 'u' at level 1 has a non-numeric coordinate: a JSON true or false",
    ),
    "coordinate null": (
        lambda e: (e.float_level(0), e.point(0, 1, row=(None, 0.0, 1.0))),
        "point 'u' at level 1 has a non-numeric coordinate: "
        "float() argument must be a string or a real number, not 'NoneType'",
    ),
    "coordinate beyond binary64": (
        lambda e: (e.float_level(0), e.point(0, 1, row=(10**400, 0.0, 1.0))),
        "point 'u' at level 1 has a coordinate beyond binary64: int too large to convert to float",
    ),
    "coordinates a string": (
        lambda e: (e.float_level(0), e.point(0, 1, row="123")),
        "point 'u' at level 1 has coordinates that are not a JSON list",
    ),
    "shadow a string": (
        lambda e: e.point(0, 1, row="123"),
        "point 'u' at level 1 has coordinates that are not a JSON list",
    ),
    "short shadow": (
        lambda e: e.point(0, 2, row=(0,)),
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
        lambda e: e.float_level(0, r=NAN),
        "level 1 has scale r = nan; it must be finite and positive",
    ),
    "scale negative": (
        lambda e: e.float_level(1, r=-2.0),
        "level 2 has scale r = -2.0; it must be finite and positive",
    ),
    "scale a word": (
        lambda e: e.float_level(1, r="x"),
        "level 2 has a scale r that is not a binary64 number: not a decimal literal: 'x'",
    ),
    "scale true": (
        lambda e: e.float_level(1, r=True),
        "level 2 has a scale r that is not a binary64 number: True",
    ),
    # r is read in the decimal spelling: float() also reads these
    **{
        f"scale {name}": (
            lambda e, spelled=spelled: e.float_level(1, r=spelled),
            f"level 2 has a scale r that is not a binary64 number: not a decimal literal: {spelled!r}",
        )
        for name, spelled in (("with a separator", "1_0"), ("of another script", "\u0663"),
                              ("in blanks", " 6 "), ("a ratio", "3/2"), ("inf", "inf"), ("nan", "nan"))
    },
    # r_exact in the rational one: Fraction() also reads these, on some Python versions
    **{
        f"exact scale {name}": (
            lambda e, spelled=spelled: e.level(2, r_exact=spelled),
            f"level 3 has a scale r_exact that is not a rational literal: {spelled!r}",
        )
        for name, spelled in (("with a separator", "1_0"), ("of another script", "3/\u0662"),
                              ("blanks around its slash", "6 / 1"), ("in blanks", " 6 "))
    },
    "exact scale zero": (
        lambda e: e.level(2, r_exact=Fraction(0)),
        "level 3 has exact scale r_exact = 0; it must be positive",
    ),
    "exact scale a float": (
        lambda e: e.level(2, r_exact=1.5),
        "level 3 has a float scale r_exact 1.5: pass a string ('3/2' or '1.5') for exactness",
    ),
    "exact scale a word": (
        lambda e: e.level(2, r_exact="x"), "level 3 has a scale r_exact that is not a rational literal: 'x'"
    ),
    # the layouts no writer writes now
    "coords beside a shadow": (
        lambda e: e.points(0)[1].update(coords=list(point_floats(R_UV.levels[0], R_UV.levels[0].rows[1]))),
        "level 1 is in a retired layout: coords beside exact at point 'u'",
    ),
    "exact and coords mixed": (
        lambda e: e.points(0).__setitem__(1, {"label": "u", "coords": [0.5, 0.5]}),
        "level 1 is in a retired layout: exact and coords mixed at point 'u'",
    ),
    "coords beside r_exact": (_coords_beside_r_exact, "level 1 is in a retired layout: coords beside r_exact at point 'r'"),
    "r beside r_exact": (
        lambda e: e.level(3, r=24.0),
        "level 4 is in a retired layout: r beside r_exact",
    ),
    # a level with over needs r_exact for its shadows, in code as in the file
    "shadows without r_exact": (
        lambda e: e.level(0, r=1.0, r_exact=None),
        "level 1 has exact values over 3 but no r_exact",
    ),
    "neither scale on a binary64 level": (
        lambda e: e.float_level(1, r=None),
        "level 2 has neither r nor r_exact",
    ),
    "neither coords nor shadow": (
        lambda e: e.point(0, 1, row=None),
        "point 'u' at level 1 has neither coords nor an exact shadow",
    ),
    "neither r nor r_exact": (
        lambda e: e.level(0, r=None, r_exact=None),
        "level 1 has exact values over 3 but no r_exact",
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


# the cases of points that only a file spells: in code a level is its labels
# and rows, one kind for all, without point objects
FILE_ONLY = {"coords beside a shadow", "exact and coords mixed", "point a number"}


def test_a_scale_spelled_as_a_literal_loads_as_its_value():
    for spelled in ("2e0", "2.", "+2.000", "0.2E1"):
        edit = _InFile()
        edit.float_level(1, r=spelled)
        assert edit.build().levels[1].r == 2.0, spelled
    for spelled in ("6", "12/2", "6.0", "0.6e1"):
        edit = _InFile()
        edit.level(2, r_exact=spelled)
        assert edit.build().levels[2].r_exact == 6, spelled


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_file_and_code_refuse_alike(case):
    change, text = REFUSALS[case]
    for edit in (_InFile(),) if case in FILE_ONLY else (_InCode(), _InFile()):
        change(edit)
        with pytest.raises(GraphError) as caught:
            edit.build()
        assert str(caught.value) == text, type(edit).__name__


def test_a_fault_of_the_fields_is_named_before_any_of_a_level():
    edit = _InFile()
    edit.float_level(0, r="x")
    edit.fields["basepoint"] = [1.0] * R_UV.dimension
    with pytest.raises(GraphError) as caught:
        edit.build()
    assert str(caught.value) == f"cloud basepoint must be the origin, {R_UV.dimension} zeros"
    edit.fields["basepoint"] = [0.0] * R_UV.dimension
    with pytest.raises(GraphError) as caught:
        edit.build()
    assert str(caught.value) == "level 1 has a scale r that is not a binary64 number: not a decimal literal: 'x'"
    # the basepoint is compared with the origin without building one of the given dimension
    for fields, text in (
        ({"basepoint": [0]}, "cloud basepoint must be the origin, 1000000000000 zeros"),
        ({}, "cloud JSON has no points"),
    ):
        with pytest.raises(GraphError) as caught:
            LeveledPointCloud.from_json_dict({"dimension": 10**12, "levels": [], **fields})
        assert str(caught.value) == text


def test_a_level_names_its_q_before_a_missing_exact_scale():
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud(1, [CloudLevel(1, 1.0, None, ["a"], [(1,)], 0)])
    assert str(caught.value) == "level 1 has exact shadows over q = 0; q must be a positive integer"


def test_construction_holds_values_as_the_reader_does():
    """What a cloud holds of a value built in code: an int coordinate as its
    float, numerators in lowest terms, no q without points, lists of labels
    and rows as tuples, a level's r as a float and its r_exact as a
    Fraction; the reader gives the same cloud."""
    cloud = LeveledPointCloud(2, [
        CloudLevel(1, None, "6", ["a", "b"], [[6, -3], (0, 12)], q=36),
        CloudLevel(2, "3.5", None, ["a"], [[1, 2.0]]),
        CloudLevel(3, None, "7", [], [], q=5),
    ])
    level, other, empty = cloud.levels
    assert level == CloudLevel(1, None, Fraction(6), ("a", "b"), ((2, -1), (0, 4)), q=12)
    assert other == CloudLevel(2, 3.5, None, ("a",), ((1.0, 2.0),), q=None)
    assert empty == CloudLevel(3, None, Fraction(7), (), (), q=None)
    assert type(other.rows[0][0]) is float
    assert LeveledPointCloud.from_json(cloud.to_json()) == cloud


@pytest.mark.parametrize(
    "labels, rows, q, text",
    [
        (["a"], [(1.5,)], 1, "level 1 has a shadow numerator that is no int: 1.5"),
        (["a"], [(True,)], 1, "level 1 has a shadow numerator that is no int: True"),
        (["a"], [(1,)], 0, "level 1 has exact shadows over q = 0; q must be a positive integer"),
        (["a"], [(1,)], 2.0, "level 1 has exact shadows over q = 2.0; q must be a positive integer"),
        # without a q, rows are coordinates, which r_exact does not take
        (["a"], [(1,)], None, "level 1 is in a retired layout: coords beside r_exact at point 'a'"),
        # zip would cut the longer silently
        (["a"], [(1,), (2,)], 1, "level 1 has 1 labels but 2 rows"),
        (["a", "b"], [(1,)], 1, "level 1 has 2 labels but 1 rows"),
    ],
)
def test_construction_refuses_shadows_no_file_holds(labels, rows, q, text):
    # the reader makes every numerator and q itself; code may hand in others
    with pytest.raises(GraphError) as caught:
        LeveledPointCloud(1, [CloudLevel(1, None, Fraction(1), labels, rows, q)])
    assert str(caught.value) == text


def _rebuilt(cloud):
    """The cloud built anew through the checked constructor."""
    return LeveledPointCloud(cloud.dimension, cloud.levels, cloud.period)


def test_the_unchecked_path_builds_only_what_construction_accepts():
    # generate_cloud, single_point_space and subsample_levels skip the checks
    for shape in dominating_rooted_shapes(6):
        g = synthesize_weights(shape)
        period = build_plan(g, 12).period
        for depth in range(1, period):
            with pytest.raises(GraphError, match="is shorter than one full metric-family period"):
                build_plan(g, depth)
        for depth in range(period, 13):
            cloud = generate_cloud(build_plan(g, depth))
            assert _rebuilt(cloud) == cloud
        selections = [alternating_period_indices(cloud), [1], [2, 5, 12], list(range(1, 13))]
        selections += [period_stride_indices(cloud, k) for k in range(cloud.period)]
        for indices in selections:
            sub = subsample_levels(cloud, indices)
            assert _rebuilt(sub) == sub
    for depth in range(2, 40):
        cloud = single_point_space(depth)
        assert _rebuilt(cloud) == cloud


def test_realization_of_synthesized_shapes_has_full_family():
    for shape in dominating_rooted_shapes(7):
        g = synthesize_weights(shape)
        assert_two_member_family(g, build_plan(g, depth=4).family)


@pytest.mark.parametrize("n", range(3, 13))
def test_lower_member_equals_the_fraction_construction(n):
    rng = random.Random(n)
    shape = random_dominating_shape(rng, n)
    while not shape.non_edges():
        shape = random_dominating_shape(rng, n)
    g = synthesize_weights(shape)
    assert build_plan(g, depth=12).family == (lower_member_by_fractions(g), shortest_path_metric(g))


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
            assert plan.family == (lower_member_by_fractions(g), shortest_path_metric(g))
            assert_two_member_family(g, plan.family)


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
    cloud = single_point_space(depth=3)
    xs = [_level_floats(lvl)[1][0] for lvl in cloud.levels]
    assert xs == [2.0, 16.0, 512.0]
    assert [point_shadow(lvl, lvl.rows[1]) for lvl in cloud.levels] == [(2,), (16,), (512,)]
    # level n holds the rows (0,) and (1,) over q = 2**n: x_n / r_n = 2**-n
    assert all(lvl.r is None and lvl.rows == ((0,), (1,)) and lvl.q == 2**lvl.n for lvl in cloud.levels)
    # only the float writer is bounded by binary64: r_31 = 2**992 is binary64, r_32 = 2**1056 is not
    assert len(json.loads(single_point_space(31).to_json(include_exact=False))["levels"]) == 31
    with pytest.raises(GraphError, match="^level 32 has a scale r_exact beyond binary64: "):
        single_point_space(32).to_json(include_exact=False)


def test_single_point_space_is_exact_past_binary64():
    """At every depth from 2 to 119, the deepest the default digit limit
    lets the writer spell, x_n = 2**(n*n) and r_n = 2**(n*n + n) exactly at
    every level, and the cluster recovered at tolerance 0 is one vertex; at
    depth 100, far past binary64, also from the cloud's file."""
    for depth in range(2, 120):
        cloud = single_point_space(depth)
        assert [point_shadow(lvl, lvl.rows[1]) for lvl in cloud.levels] == [(2 ** (n * n),) for n in range(1, depth + 1)]
        assert [lvl.r_exact for lvl in cloud.levels] == [2 ** (n * n + n) for n in range(1, depth + 1)]
        assert recover_cluster(cloud, tol_rel=0, tol_abs=0).graph.vertices == ("p",)
    rc = recover_cluster(LeveledPointCloud.from_json(single_point_space(100).to_json()), tol_rel=0, tol_abs=0)
    assert rc.graph.vertices == ("p",)
    assert validate_recovered_cluster(rc) == []


@pytest.mark.skipif(not _digit_limit(), reason="the interpreter has no digit limit")
def test_single_point_space_refuses_the_first_scale_the_writer_cannot_spell(int_max_str_digits):
    """r_119 = 2**14280 has 4299 digits and r_120 = 2**14520 has 4371: under
    the default digit limit, 4300, and under 4370, one digit short of r_120,
    depth 119 is written and depth 120 refused."""
    for limit in (4300, 4370):
        int_max_str_digits(limit)
        assert LeveledPointCloud.from_json(single_point_space(119).to_json()).depth == 119
        refusal = f"level 120 has a scale r_exact of more than {limit} digits, which to_json cannot write"
        with pytest.raises(GraphError, match=f"^{refusal}$"):
            single_point_space(120)


def test_single_point_normalized_values_decay():
    cloud = single_point_space(depth=12)
    values = [_level_floats(lvl)[1][0] / float(lvl.r_exact) for lvl in cloud.levels]
    assert values == [2.0**-n for n in range(1, 13)]


def test_single_point_basepoint_is_exact_zero():
    cloud = single_point_space(depth=5)
    for lvl in cloud.levels:
        assert lvl.labels[0] == "p"
        assert lvl.rows[0] == (0,)
        assert _level_floats(lvl)[0] == (0.0,)


def test_single_point_guards():
    for depth in (1, 0, -2):
        with pytest.raises(GraphError, match="^depth must be at least 2$"):
            single_point_space(depth)


def test_single_point_space_refuses_a_depth_that_is_not_an_int():
    # a float depth would give no level count, and True is no integer
    for depth in (2.5, 3.0, True, "3"):
        with pytest.raises(GraphError, match="^depth must be at least 2$"):
            single_point_space(depth)
