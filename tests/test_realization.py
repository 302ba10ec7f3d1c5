import dataclasses
import hashlib
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metric_cluster.graph_core import GraphError, WeightedRootedGraph, isomorphic
from metric_cluster.fpc import synthesize_weights
from metric_cluster.metrization import DistanceMatrix, shortest_path_metric
from metric_cluster.realization import (
    CloudLevel,
    CloudPoint,
    LeveledPointCloud,
    ScalingRule,
    _level_numerators,
    _read_level_points,
    _read_points_one_by_one,
    build_plan,
    generate_cloud,
    realize,
    single_point_space,
    sup_distance,
)
from metric_cluster.recovery import alternating_period_indices, recover_cluster, subsample_levels

from oracles import (
    assert_two_member_family,
    cloud_by_coordinates,
    cross_level_separation,
    dominating_rooted_shapes,
    least_interval_width,
    lower_member_by_fractions,
    random_dominating_shape,
    scaled_weights,
    shadows_by_fractions,
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
                    got = Fraction(sup_distance(pts[u].exact, pts[v].exact), lvl.q)
                    assert got == lvl.r_exact * d.get(u, v)


def test_norm_over_scaling_equals_root_labels():
    plan = build_plan(ONE_GAP, depth=8)
    cloud = generate_cloud(plan)
    origin = (0,) * cloud.dimension
    for lvl in cloud.levels:
        pts = cloud.points_by_label(lvl)
        for v in plan.graph.vertices:
            norm = Fraction(sup_distance(pts[v].exact, origin), lvl.q)
            expected = Fraction(0) if v == "r" else plan.graph.weight("r", v)
            assert norm / lvl.r_exact == expected


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
        # the limit at the boundary: a guard that left it unreduced would
        # refuse a level early, under the factorial rule for 61/3 and under
        # power_square for 25769803780/3
        scaled_weights(ONE_GAP, Fraction(61, 15)),
        scaled_weights(ONE_GAP, Fraction(25769803780, 15)),
    ],
    ids=["triangle", "largest_61/3", "largest_25769803780/3"],
)
def test_depth_overflow_guard_at_its_boundary(g, rule):
    # the deepest cloud the oracle's Fraction guard accepts ends a level
    # before the first level it refuses
    with pytest.raises(GraphError, match="overflows binary64") as caught:
        cloud_by_coordinates(build_plan(g, 400, rule))
    last = int(re.search(r"level (\d+)", str(caught.value)).group(1)) - 1
    assert realize(g, last, rule) == cloud_by_coordinates(build_plan(g, last, rule))
    with pytest.raises(GraphError, match=f"level {last + 1} overflows binary64"):
        realize(g, last + 1, rule)


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


# SHA-256 of the cloud bytes as recorded when every coordinate was built as a
# Fraction; a change of the realization family changes them by design
PINNED_CLOUDS = [
    (12, None, "05d61c90495f2e19ea0360cac6c657cea208df007d1f3cd5eb02e3083e0f310b"),
    (6, ScalingRule("power_square", 3), "9321a9e6792711e2176a3a3ea424d49b93b5bcb810621e0dc6241969276938cd"),
]


@pytest.mark.parametrize("depth, rule, digest", PINNED_CLOUDS)
def test_cloud_bytes_are_pinned(depth, rule, digest):
    text = realize(ONE_GAP, depth, rule).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_unreduced_shadows_load_over_the_least_denominator():
    cloud = realize(CERT_TRIANGLE, 8)
    level = next(lvl for lvl in cloud.levels if lvl.q > 1)
    data = json.loads(cloud.to_json())
    for item in data["levels"][level.n - 1]["points"]:
        # a/b becomes 6a/6b, and an integer a becomes 6a/6
        item["exact"] = [
            "{}/{}".format(6 * x.numerator, 6 * x.denominator) for x in map(Fraction, item["exact"])
        ]
    again = LeveledPointCloud.from_json(json.dumps(data))
    assert again.levels[level.n - 1] == level
    assert again.to_json() == cloud.to_json()


def test_partly_shadowed_level_loads_writes_back_and_is_not_exact():
    data = json.loads(realize(CERT_TRIANGLE, 12).to_json())
    level = data["levels"][0]
    assert any("/" in x for item in level["points"] for x in item["exact"])
    # keep the shadow only where a coordinate has a denominator
    for item in level["points"]:
        if not any("/" in x for x in item["exact"]):
            del item["exact"]
    cloud = LeveledPointCloud.from_json(json.dumps(data))
    assert json.loads(cloud.to_json()) == data
    assert not cloud.has_exact()
    with pytest.raises(GraphError, match="no exact shadows"):
        recover_cluster(cloud, use_exact=True)
    assert isomorphic(CERT_TRIANGLE, recover_cluster(cloud).graph, weighted=True,
                      weight_tol_rel=Fraction(1, 10**9))


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
    """The one-pass level parse gives what the per-value oracle gives: the
    same q and numerators, or the same GraphError message."""
    try:
        expected = shadows_by_fractions(shadows)
    except GraphError as exc:
        with pytest.raises(GraphError) as caught:
            _level_numerators(shadows)
        assert str(caught.value) == str(exc)
        return
    assert _level_numerators(shadows) == expected


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
    points[2]["coords"][0] = "x"
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


def test_a_level_checked_at_once_reads_as_point_by_point():
    data = json.loads(realize(ONE_GAP, 6).to_json())
    dimension, levels = data["dimension"], data["levels"]
    levels[2]["points"][1]["exact"] = []
    del levels[3]["points"][2]["exact"]
    levels[4]["points"][0]["label"] = None
    for level in levels:
        read = _read_level_points(level["points"], dimension)
        assert read is not None
        assert read == _read_points_one_by_one(level["points"], level["n"], dimension)
    # the writer writes no int coordinate: its level is read point by point
    levels[0]["points"][1]["coords"][0] = 0
    assert _read_level_points(levels[0]["points"], dimension) is None
    assert LeveledPointCloud.from_json_dict(data).levels[0].points[1].coords[0] == 0.0


def check_writer(cloud):
    for include_exact in (True, False):
        assert cloud.to_json(include_exact) == json.dumps(cloud.to_json_dict(include_exact), indent=2)


def _odd_cloud():
    """A cloud only memory holds: a non-finite and an integer coordinate,
    unlabeled and non-ASCII points, a level without points, one without
    exact data."""
    inf, nan = float("inf"), float("nan")
    return LeveledPointCloud(
        dimension=2,
        levels=[
            CloudLevel(1, 2.0, Fraction(2), [
                CloudPoint(None, (0.0, -inf), (0, 3)),
                CloudPoint("é\n\"µ", (nan, 1.5), (1, -3)),
                CloudPoint("v", (1, 2.5e-300), None),
                CloudPoint("w", (True, None), ()),
            ], q=2),
            CloudLevel(2, 6.0, None, [], q=None),
            CloudLevel(3, 1e300, None, [CloudPoint("z", (0.1, 1e22))], q=None),
        ],
        period=None,
    )


def _equal_but_spelled_apart_cloud():
    """Values that compare equal but print apart, which a table keyed on the
    values of a level would print alike: 0.0 before -0.0 and 1.0 before an
    int 1 in one level; -0.0 before 0.0 among repeated values and shadows in
    another."""
    return LeveledPointCloud(
        dimension=2,
        levels=[
            CloudLevel(1, 1.0, None, [
                CloudPoint("a", (0.0, 1.0)),
                CloudPoint("b", (-0.0, 1)),
                CloudPoint("c", (1.0, -0.0)),
            ]),
            CloudLevel(2, 6.0, Fraction(6), [
                CloudPoint("a", (-0.0, 0.0), (0, 0)),
                CloudPoint("b", (1.5, -2.5), (3, -5)),
                CloudPoint("c", (1.5, 1.5), (3, 3)),
                CloudPoint("d", (0.0, -2.5), (0, -5)),
            ], q=2),
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
        LeveledPointCloud(dimension=3, levels=[], period=2),
        _odd_cloud(),
        _equal_but_spelled_apart_cloud(),
    ],
    ids=["factorial", "subsample", "power_square", "single_point", "no_levels", "odd", "equal_apart"],
)
def test_writer_prints_what_json_dumps_prints(cloud):
    check_writer(cloud)


def test_signed_zeros_of_one_level_load_and_write_back_with_their_signs():
    # the level of floats alone: the loader reads an int coordinate as a float
    text = LeveledPointCloud(2, _equal_but_spelled_apart_cloud().levels[1:]).to_json()
    assert '"coords": [\n            -0.0,\n            0.0\n          ]' in text
    level = LeveledPointCloud.from_json(text).levels[0]
    signs = [math.copysign(1.0, x) for p in level.points for x in p.coords if x == 0]
    assert signs == [-1.0, 1.0, 1.0]
    assert LeveledPointCloud.from_json(text).to_json() == text


_COORDINATE = st.floats() | st.integers(-3, 3)


@st.composite
def _clouds(draw):
    dimension = draw(st.integers(1, 3))
    row = st.tuples(*[_COORDINATE] * dimension)
    levels = []
    for n in range(1, draw(st.integers(0, 3)) + 1):
        points = [
            CloudPoint(
                draw(st.none() | st.text(max_size=3)),
                draw(row),
                draw(st.none() | st.tuples(*[st.integers(-10**30, 10**30)] * dimension)),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
        r_exact = draw(st.none() | st.fractions(min_value=Fraction(1, 10**6)))
        levels.append(CloudLevel(n, draw(st.floats()), r_exact, points, q=draw(st.integers(1, 60))))
    return LeveledPointCloud(dimension, levels, period=draw(st.none() | st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(_clouds())
def test_writer_prints_what_json_dumps_prints_on_random_clouds(cloud):
    check_writer(cloud)


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


def test_single_point_space_refuses_a_base_that_is_not_an_int():
    # a float base used to build a float shadow where a cloud holds int numerators
    for base in (2.5, True):
        with pytest.raises(GraphError, match="base"):
            single_point_space(3, base)
