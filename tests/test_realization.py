import dataclasses
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import chain

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
    _read_at_once,
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
    cross_level_separation,
    dominating_rooted_shapes,
    halfway_past_binary64,
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
    assert all(math.isfinite(c) for p in cloud.levels[-1].points for c in p.coords)
    with pytest.raises(GraphError, match=f"level {last + 1} overflows binary64"):
        realize(g, last + 1, rule)


def test_a_coordinate_that_rounds_to_infinity_is_refused_at_its_level():
    g = halfway_past_binary64()
    cloud = realize(g, 169)
    assert all(math.isfinite(c) for lvl in cloud.levels for p in lvl.points for c in p.coords)
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
    level's r before its points and r_exact after them."""
    doc, shadows = cloud.to_json_dict(include_exact=False), cloud.to_json_dict()
    for level, shadowed in zip(doc["levels"], shadows["levels"]):
        for point, exact in zip(level["points"], shadowed["points"]):
            point.update({"exact": exact["exact"]} if "exact" in exact else {})
        level.update({"r_exact": shadowed["r_exact"]} if "r_exact" in shadowed else {})
    return json.dumps(doc, indent=2)


# SHA-256 of the cloud bytes: of both halves as recorded when every
# coordinate was built as a Fraction, and of the text now written, from which
# the binary64 half of every shadowed value is derived; a change of the
# realization family changes them by design
PINNED_CLOUDS = [
    (12, None, "05d61c90495f2e19ea0360cac6c657cea208df007d1f3cd5eb02e3083e0f310b",
     "3179984457112400d7e64f3e13c713b030b2f4a1c83f0d6a825f040e83c73469"),
    (6, ScalingRule("power_square", 3), "9321a9e6792711e2176a3a3ea424d49b93b5bcb810621e0dc6241969276938cd",
     "5bd5ede5672c448a07fdf449e66188af08b8f1473fbaee5cf0124ce9460662a2"),
]


@pytest.mark.parametrize(
    "depth, rule, both_digest, digest",
    PINNED_CLOUDS,
    ids=[f"{depth}-{'rule1' if rule else None}-{both}" for depth, rule, both, _ in PINNED_CLOUDS],
)
def test_cloud_bytes_are_pinned(depth, rule, both_digest, digest):
    cloud = realize(ONE_GAP, depth, rule)
    text, both = cloud.to_json(), _both_halves(cloud)
    assert hashlib.sha256(both.encode()).hexdigest() == both_digest
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # a file with both halves, which agree, loads to the same cloud
    assert LeveledPointCloud.from_json(both) == cloud
    assert LeveledPointCloud.from_json(both).to_json() == text


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
    realized = realize(CERT_TRIANGLE, 12)
    data = json.loads(realized.to_json())
    level = data["levels"][0]
    assert any("/" in x for item in level["points"] for x in item["exact"])
    # keep the shadow only where a coordinate has a denominator, and the
    # coordinates elsewhere
    for item, point in zip(level["points"], realized.levels[0].points):
        if not any("/" in x for x in item["exact"]):
            del item["exact"]
            item["coords"] = list(point.coords)
    cloud = LeveledPointCloud.from_json(json.dumps(data))
    assert json.loads(cloud.to_json()) == data
    assert not cloud.has_exact()
    with pytest.raises(GraphError, match="no exact shadows"):
        recover_cluster(cloud, use_exact=True)
    assert isomorphic(CERT_TRIANGLE, recover_cluster(cloud).graph, weight_tol_rel=Fraction(1, 10**9))


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
    the level's values takes none that the oracle refuses, and reads those it
    takes as the oracle does, each rounded as a/q."""
    rows = [row for row in shadows if row]
    try:
        at_once = _shadows_at_once(list(chain.from_iterable(rows)), 1) if rows else None
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
        q, coords, numerators = at_once
        assert (q, numerators) == (expected[0], [(a,) for a in chain.from_iterable(filter(None, expected[1]))])
        assert coords == [(a / q,) for a, in numerators]


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
    """The reader's checked path, the reference for the one pass: level
    objects unpacked as they are, and the constructor's checks."""
    levels = [_unpacked_level(entry) for entry in data["levels"]]
    return LeveledPointCloud(data["dimension"], levels, data.get("period"))


def one_pass(data):
    return _read_at_once(data["dimension"], data["levels"], data.get("period"))


def test_a_level_checked_at_once_reads_as_point_by_point():
    """The one pass takes unlabeled points and a shadow's rounding given as
    coords; it leaves a repeated label, an empty shadow, a partly shadowed
    level and an int coordinate to the checked path. The reader gives the
    checked path's cloud or refusal either way."""
    text = realize(ONE_GAP, 6).to_json()
    dimension = json.loads(text)["dimension"]
    edits = [
        (4, lambda points: points[0].update(label=None), True),
        (4, lambda points: [point.update(label=None) for point in points], True),
        (4, lambda points: points[1].update(label=points[0]["label"]), False),  # refused
        (5, lambda points: points[0].update(coords=[0.0] * dimension), True),  # the root's shadow rounded
        (2, lambda points: points[1].update(coords=[0.5] * dimension, exact=[]), False),
        (3, lambda points: points.__setitem__(2, {"label": "v", "coords": [1.5] * dimension}), False),
        # the writer writes no int coordinate
        (0, lambda points: points[0].update(coords=[0] * dimension), False),
    ]
    for level, edit, taken in edits:
        data = json.loads(text)
        edit(data["levels"][level]["points"])
        assert (one_pass(data) is not None) is taken
        try:
            expected = checked_path(data)
        except GraphError as exc:
            assert refusal(data) == str(exc) == "duplicate label 'r' at level 5"
            continue
        assert LeveledPointCloud.from_json_dict(data) == expected
    assert type(LeveledPointCloud.from_json_dict(data).levels[0].points[0].coords[0]) is float


def with_coords(cloud) -> str:
    """The cloud's file as the writer wrote it before a shadow stood alone:
    each shadowed point with its coords as well, and each level with r."""
    data = cloud.to_json_dict()
    for entry, lvl in zip(data["levels"], cloud.levels):
        entry["r"] = repr(lvl.r)
        for item, p in zip(entry["points"], lvl.points):
            item["coords"] = list(p.coords)
    return json.dumps(data, indent=2)


@pytest.mark.parametrize("n", range(2, 14))
def test_one_pass_loads_every_layout_as_the_checked_path(n):
    """Realized clouds and their alternating-period subsamples, written with
    shadows alone, without them and with both, load through the one pass to
    the checked path's cloud, signed zeros included, and as a value the
    constructor keeps."""
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = synthesize_weights(random_dominating_shape(rng, n, p))
        for rule in (ScalingRule(), ScalingRule("power_square", 2)):
            cloud = realize(g, 12, rule)
            for c in (cloud, subsample_levels(cloud, alternating_period_indices(cloud))):
                for text in (c.to_json(), c.to_json(include_exact=False), with_coords(c)):
                    data = json.loads(text)
                    assert one_pass(data) is not None
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
    assert len(ONE_PASS_REFUSALS) == len(ONE_PASS_CASES)
    data = json.loads(realize(CERT_TRIANGLE, 4).to_json())
    data["levels"][-1]["points"][1]["exact"][0] = ONE_PASS_CASES[index]
    if ONE_PASS_REFUSALS[index] is None:
        assert LeveledPointCloud.from_json(json.dumps(data)) == checked_path(data)
    else:
        assert refusal(data) == ONE_PASS_REFUSALS[index]


def test_of_two_faults_in_different_levels_the_checked_path_names_the_first():
    """Shadow literals are read in every level before any level is checked,
    and the fields before the levels; the one pass leaves each such file to
    the checked path, which keeps that order."""

    def faults(*edits):
        data = json.loads(realize(CERT_TRIANGLE, 4).to_json())
        levels = data["levels"]
        for level, point, field, value in edits:
            target = data if level is None else levels[level] if point is None else levels[level]["points"][point]
            if field == "exact":
                target["exact"][0] = value
            else:
                target[field] = value
        return refusal(data)

    assert faults((0, 2, "label", "u"), (-1, 1, "exact", "3/")) == "not a rational literal: '3/'"
    assert faults((1, 1, "coords", [0.5] * 3), (-1, 2, "label", "u")) == (
        "point 'u' at level 2 has coords [0.5, 0.5, 0.5], but its exact shadow rounds to [2.0, -2.0, 1.0]"
    )
    assert faults((None, None, "dimension", "2"), (0, 2, "label", "u")) == (
        "cloud dimension must be a positive integer, got '2'"
    )
    assert faults((2, None, "n", 2), (-1, 1, "coords", [0.5] * 3)) == (
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
    assert one_pass(data) is None
    assert LeveledPointCloud.from_json_dict(data) == checked_path(data)
    assert LeveledPointCloud.from_json_dict(data).levels[-1].points[1].coords == (2.0, -24.0, 12.0)
    data = json.loads(text)
    data["levels"][-1]["points"] = tuple(data["levels"][-1]["points"])
    point = "{'label': 'r', 'coords': [0.0, 0.0, 0.0]}"
    with pytest.raises(GraphError, match=re.escape(f"point {point} at level 4 is not an object")):
        LeveledPointCloud.from_json_dict(data)
    data = json.loads(text)
    data["levels"] = tuple(data["levels"])
    level = (
        "{'n': 1, 'r': '1.0', 'points': [{'label': 'r', 'coords': [0.0, 0.0, 0.0]}, "
        "{'label': 'u', 'coords': [1.0, -1.0, 0.5]}, {'label': 'v', 'coords': [2.0, 1.5, -2.0]}]}"
    )
    with pytest.raises(GraphError, match=re.escape(f"cloud level {level} is not an object")):
        LeveledPointCloud.from_json_dict(data)


def check_writer(cloud):
    for include_exact in (True, False):
        assert cloud.to_json(include_exact) == json.dumps(cloud.to_json_dict(include_exact), indent=2)


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
            ], q=2),
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
        points = []
        for label in labels:
            # a shadow's coordinates are its numerators over q, given or derived
            shadow = draw(st.none() | st.tuples(*[st.integers(-10**30, 10**30)] * dimension))
            coords = draw(row) if shadow is None else draw(st.sampled_from([None, tuple(a / q for a in shadow)]))
            points.append(CloudPoint(None if draw(st.booleans()) else label, coords, shadow))
        r_exact = draw(st.none() | st.fractions(min_value=Fraction(1, 10**6), max_value=10**30))
        r = draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)) if r_exact is None else None
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
U_4 = R_UV.levels[3].points[1].coords


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
        self.point(i, j, coords=p.coords[:size], exact=p.exact[:size])

    def build(self):
        return LeveledPointCloud(**self.fields)


class _InFile(_InCode):
    """The same fields of R_UV's JSON document, to edit; a Fraction is
    written as its literal."""

    def __init__(self):
        self.fields = json.loads(R_UV.to_json())

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
    "u cut to one entry": (_cut_u, "point 'u' at level 1 does not have 3 coordinates"),
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
        lambda e: e.point(0, 2, exact=(0, 0)),
        "point 'v' at level 1 does not have 3 coordinates",
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
        lambda e: e.point(0, 1, coords=tuple(1.5 * x for x in R_UV.levels[0].points[1].coords)),
        "point 'u' at level 1 has coords [2.0, -2.0, 0.0], but its exact shadow rounds to "
        "[1.3333333333333333, -1.3333333333333333, 0.0]",
    ),
    "coordinate one ulp apart from its shadow": (
        lambda e: e.point(3, 1, coords=(math.nextafter(U_4[0], INF), *U_4[1:])),
        "point 'u' at level 4 has coords [32.00000000000001, -32.0, 32.0], but its exact shadow rounds to "
        "[32.0, -32.0, 32.0]",
    ),
    "scale one ulp apart from r_exact": (
        lambda e: e.level(3, r=math.nextafter(R_UV.levels[3].r, 0)),
        "level 4 has scale r = 23.999999999999996, but r_exact rounds to 24.0",
    ),
    "shadow beyond binary64": (
        lambda e: e.point(0, 1, exact=(10**400, 0, 0)),
        "point 'u' at level 1 has a coordinate beyond binary64: integer division result too large for a float",
    ),
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


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_file_and_code_refuse_alike(case):
    change, text = REFUSALS[case]
    for edit in (_InCode(), _InFile()):
        change(edit)
        with pytest.raises(GraphError) as caught:
            edit.build()
        assert str(caught.value) == text, type(edit).__name__


def test_construction_holds_values_as_the_reader_does():
    """What a cloud holds of a value built in code: an int coordinate as its
    float, an empty shadow as none, shadows in lowest terms, no q without
    them, a list of coordinates as a tuple and a level's r as a float; the
    reader gives the same cloud."""
    cloud = LeveledPointCloud(2, [
        CloudLevel(1, 6, "6", [CloudPoint("a", [1, -0.5], [6, -3]), CloudPoint("b", (0.0, 2.0), ())], q=6),
        CloudLevel(2, "3.5", None, [CloudPoint("a", (1.0, 2.0))], q=7),
    ])
    level, other = cloud.levels
    assert level == CloudLevel(1, 6.0, Fraction(6), [
        CloudPoint("a", (1.0, -0.5), (2, -1)), CloudPoint("b", (0.0, 2.0), None)
    ], q=2)
    assert other == CloudLevel(2, 3.5, None, [CloudPoint("a", (1.0, 2.0))], q=None)
    assert type(level.points[0].coords[0]) is float
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
    xs = [lvl.points[1].coords[0] for lvl in cloud.levels]
    assert xs == [2.0, 16.0, 512.0]
    assert cloud.levels[0].r == pytest.approx(math.sqrt(32), rel=1e-15)
    assert cloud.levels[1].r == pytest.approx(math.sqrt(8192), rel=1e-15)
    # the last level's scale needs x_21 = 5**441, about 1.76e308, which fits binary64
    cloud = single_point_space(depth=20, base=5)
    assert all(math.isfinite(lvl.r) and math.isfinite(lvl.points[1].coords[0]) for lvl in cloud.levels)
    assert len(recover_cluster(cloud).graph) == 1
    with pytest.raises(GraphError, match="^depth 21 overflows binary64 for base 5$"):
        single_point_space(depth=21, base=5)


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
