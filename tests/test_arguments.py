"""The argument contract at the library boundary: an integer argument is an
int (not a bool) from its lower bound on, a real argument such as a
tolerance is a finite int, float, Fraction or Decimal (not a bool or a
string), a sequence argument is an iterable and a mapping argument a
mapping, and every other value ends as a GraphError, never as another
exception."""

import dataclasses
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import metric_cluster as mc
from metric_cluster import GraphError
from metric_cluster.graph_core import _json_text
from metric_cluster.realization import CloudLevel

from oracles import point_shadow, spelled_out

G = mc.WeightedRootedGraph(
    ["r", "u", "v", "z"],
    {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 3, ("v", "z"): 5},
    "r",
)
CLOUD = mc.realize(G, 6)
CLOUD_JSON = CLOUD.to_json()
FLOATS = mc.LeveledPointCloud.from_json(CLOUD.to_json(include_exact=False))  # no shadows, default tolerances
RC = mc.recover_cluster(CLOUD)
IDENTITY = {v: v for v in G.vertices}
D = mc.shortest_path_metric(G)
HUGE_INT = 10**5000  # more digits than the interpreter prints of an int by default


def _loaded(path, value):
    """The cloud read back from its JSON with the field at ``path`` set to ``value``."""
    doc = json.loads(CLOUD_JSON)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return mc.LeveledPointCloud.from_json_dict(doc)


def _one_point(period=None, n=1, shadow=None, r_exact=None, q=1):
    """A one-point cloud built in code with these values: the point at 1.0
    at scale r = 1.0, or, where a shadow or r_exact is given, the shadow,
    (1,) if none, over q at scale r_exact, 1 if none."""
    if shadow is None and r_exact is None:
        return mc.LeveledPointCloud(1, [CloudLevel(n, 1.0, None, ("a",), ((1.0,),))], period)
    return mc.LeveledPointCloud(1, [CloudLevel(n, None, r_exact or Fraction(1), ("a",), (shadow or (1,),), q)], period)


def _recorded(**tolerances):
    """RC as if recovered with the given tolerances, which validation reads."""
    return dataclasses.replace(RC, **tolerances)


# each public entry point with an integer or real parameter, as a function of
# the value put in that parameter, and whether a huge int may be passed: only
# where it is refused before the work starts. moon_moser_f(10**9) would build
# 3**(n // 3) in full, and realize and single_point_space build levels until
# their scale passes the interpreter's digit limit, with none without it
CALLS = {
    "build_plan depth": (lambda x: mc.build_plan(G, x), True),
    "realize depth": (lambda x: mc.realize(G, x), False),
    "single_point_space depth": (lambda x: mc.single_point_space(x), False),
    "recover_cluster window": (lambda x: mc.recover_cluster(CLOUD, window=x), True),
    "recover_cluster tol_rel": (lambda x: mc.recover_cluster(FLOATS, tol_rel=x), True),
    "recover_cluster tol_abs": (lambda x: mc.recover_cluster(FLOATS, tol_abs=x), True),
    "recover_cluster exact tol_rel": (lambda x: mc.recover_cluster(CLOUD, tol_rel=x, use_exact=True), True),
    "recover_cluster exact tol_abs": (lambda x: mc.recover_cluster(CLOUD, tol_abs=x, use_exact=True), True),
    "validate_recovered_cluster tol_rel": (lambda x: mc.validate_recovered_cluster(_recorded(tol_rel=x)), True),
    "validate_recovered_cluster tol_abs": (lambda x: mc.validate_recovered_cluster(_recorded(tol_abs=x)), True),
    "isomorphic": (lambda x: mc.isomorphic(G, RC.graph, weight_tol_rel=x), True),
    "homomorphism": (lambda x: mc.is_weight_preserving_homomorphism(G, G, IDENTITY, x), True),
    "monomorphism": (lambda x: mc.is_weight_preserving_monomorphism(G, G, IDENTITY, x), True),
    "moon_moser_f n": (lambda x: mc.moon_moser_f(x), False),
    "period_stride_indices offset": (lambda x: mc.period_stride_indices(CLOUD, x), True),
    "subsample_levels index": (lambda x: mc.subsample_levels(CLOUD, [1, x]), True),
    "annulus_diameter_table k": (lambda x: mc.annulus_diameter_table(CLOUD, x, [1.0, 8.0]), True),
    "annulus_diameter_table radius": (lambda x: mc.annulus_diameter_table(CLOUD, 2.0, [x]), True),
    "spread_functional coordinate": (lambda x: mc.spread_functional([(x,), (1.0,)], (0.0,)), True),
    "cloud dimension": (lambda x: _loaded(["dimension"], x), True),
    "cloud period": (lambda x: _loaded(["period"], x), True),
    "cloud level n": (lambda x: _loaded(["levels", 0, "n"], x), True),
    # sequence and mapping arguments
    "subsample_levels indices": (lambda x: mc.subsample_levels(CLOUD, x), True),
    "annulus_diameter_table radii": (lambda x: mc.annulus_diameter_table(CLOUD, 2.0, x), True),
    "spread_functional points": (lambda x: mc.spread_functional(x, (0.0,)), True),
    "spread_functional point": (lambda x: mc.spread_functional([x, (1.0,)], (0.0,)), True),
    "spread_functional basepoint": (lambda x: mc.spread_functional([(1.0,), (2.0,)], x), True),
    "homomorphism mapping": (lambda x: mc.is_weight_preserving_homomorphism(G, G, x), True),
    "monomorphism mapping": (lambda x: mc.is_weight_preserving_monomorphism(G, G, x), True),
    "graph vertices": (lambda x: mc.WeightedRootedGraph(x, {}, "r"), True),
    "graph weights": (lambda x: mc.WeightedRootedGraph(["r", "u"], x, "r"), True),
    "graph weight item": (lambda x: mc.WeightedRootedGraph(["r", "u"], [x], "r"), True),
    "relabel mapping": (lambda x: G.relabel(x), True),
    "Cycle.from_graph order": (lambda x: mc.Cycle.from_graph(G, x), True),
    "DistanceMatrix vertices": (lambda x: mc.DistanceMatrix(x, []), True),
    "DistanceMatrix rows": (lambda x: mc.DistanceMatrix(["a"], x), True),
    "DistanceMatrix row": (lambda x: mc.DistanceMatrix(["a"], [x]), True),
}

SWAPPED = [
    True, False, None, "", "3", "1/2", "1e-6", "nan",
    0.0, -0.0, 1.0, 2.0, 2.5, -1.5, 1e-300, 1e308, math.nan, math.inf, -math.inf,
    Decimal("1e-6"), Decimal("2"), Decimal("-1"), Decimal("NaN"), Decimal("sNaN"),
    Decimal("Infinity"), Decimal("1e400"), Fraction(1, 3), Fraction(-1, 3),
    -1, 0, 1, 2, 3,
]
SMALL = st.sampled_from(SWAPPED) | st.integers(-3, 40) | st.floats() | st.text(max_size=3)
# 10**5000 has more digits than the interpreter prints of an int by default
HUGE = st.sampled_from([10**400, -10**400, 2**1100, 10**5000, -10**5000])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(call=st.sampled_from(sorted(CALLS)), data=st.data())
def test_library_fuzz_argument_types(call, data):
    """Any value in any integer or real parameter: the call returns or raises
    GraphError, and nothing else; a graph or a matrix it returns survives its
    JSON round trip."""
    function, huge = CALLS[call]
    value = data.draw((SMALL | HUGE) if huge else SMALL)
    try:
        result = function(value)
    except GraphError:
        return
    # what a constructor accepts, its file format writes and reads back
    if isinstance(result, (mc.WeightedRootedGraph, mc.DistanceMatrix)):
        assert type(result).from_json(result.to_json()) == result


@pytest.mark.parametrize(
    "call",
    [
        lambda: mc.realize(G, 2.5),
        lambda: mc.realize(G, "3"),
        lambda: mc.realize(G, True),
        lambda: mc.build_plan(G, 2.0),
        lambda: mc.single_point_space(4.0),
        lambda: mc.recover_cluster(CLOUD, window=2.0),
        lambda: mc.recover_cluster(CLOUD, tol_rel=True),
        lambda: mc.validate_recovered_cluster(_recorded(tol_rel=True)),
        lambda: mc.isomorphic(G, G, weight_tol_rel=True),
        lambda: mc.isomorphic(G, G, weight_tol_rel="1/2"),
        lambda: mc.moon_moser_f(2.5),
        lambda: mc.period_stride_indices(CLOUD, True),
        lambda: mc.period_stride_indices(CLOUD, 0.0),
        lambda: mc.subsample_levels(CLOUD, [True, 2]),
        lambda: mc.subsample_levels(CLOUD, [1.0, 2]),
        lambda: mc.annulus_diameter_table(CLOUD, True, [1.0]),
        lambda: mc.annulus_diameter_table(CLOUD, 2.0, [True]),
        # a k below 1 by less than binary64 resolves, which it read as 1
        lambda: mc.annulus_diameter_table(CLOUD, 1 - Fraction(1, 10**400), [1.0]),
        lambda: mc.spread_functional([("1",), (1.0,)], (0.0,)),
        # points without coordinates have no sup-norm distance: max() of nothing
        lambda: mc.spread_functional([(), ()], ()),
        # past the int-to-str digit limit, which no refusal text can spell
        lambda: mc.recover_cluster(FLOATS, tol_rel=-10**5000),
        lambda: mc.moon_moser_f(-10**5000),
        lambda: mc.recover_cluster(CLOUD, window=10**5000),
        # sequences and mappings
        lambda: mc.subsample_levels(CLOUD, 3),
        lambda: mc.annulus_diameter_table(CLOUD, 2, 5),
        lambda: mc.is_weight_preserving_homomorphism(G, G, None),
        lambda: mc.WeightedRootedGraph(3, {}, "r"),
        lambda: mc.WeightedRootedGraph(["r"], [1], "r"),
        lambda: G.relabel(None),
        lambda: mc.spread_functional(3, (0.0,)),
        lambda: mc.Cycle.from_graph(G, 3),
        lambda: mc.DistanceMatrix(3, []),
        # vertex ids are strings: a value of another class is refused where it
        # is given or where the ends of an edge are compared
        lambda: mc.WeightedRootedGraph(["r", 1], {}, "r"),
        lambda: mc.WeightedRootedGraph([1, 2], {(1, 2): 1}, 1),
        lambda: mc.WeightedRootedGraph(["r", "u"], {("r", 1): 1}, "r"),
        lambda: G.relabel({**IDENTITY, "r": 1}),
        lambda: G.has_edge("u", 1),
        lambda: G.with_edge("u", 1, 1),
        lambda: G.without_edge("u", 1),
        lambda: mc.Cycle.from_graph(G, ["r", 1, "v"]),
        # a string row would be read character by character
        lambda: mc.DistanceMatrix(["a", "b", "c"], ["012", "101", "210"]),
        # ... and points given as one string, or a mapping row, as characters or keys
        lambda: mc.DistanceMatrix("ab", [["0", "1"], ["1", "0"]]),
        lambda: mc.DistanceMatrix(["a"], [{"0": None}]),
        # lookups of a pair that is no edge, or no pair of points
        lambda: G.weight("u", "z"),
        lambda: D.get("u", "zz"),
        # vertex ids that do not hash, which raised a bare TypeError
        lambda: G.has_edge([1], [2]),
        lambda: G.with_edge([1], [2], 1),
        lambda: G.without_edge([1], [2]),
        lambda: G.relabel({**IDENTITY, "r": [1]}),
        lambda: G.weight([1], [2]),
        # a cycle reads its vertices as ids and its weights as rationals: floats
        # made a line embedding of mixed binary64, a bool is no weight, a list
        # vertex raised a bare TypeError, and a string was read as its characters
        lambda: mc.embed_tight_cycle_on_line(mc.Cycle(("a", "b", "c", "d"), (1.0, 1.0, 1.0, 3.0))),
        lambda: mc.Cycle(("a", "b", "c"), (True, True, True)),
        lambda: mc.Cycle(("a", ["b"], "c"), (1, 1, 1)),
        lambda: mc.Cycle("abc", (1, 1, 1)),
        # a depth below the family's period of a graph with a non-edge, whose
        # one-level cloud recovery could not read
        lambda: mc.build_plan(G, 1),
        # values past the int-to-str digit limit, which the writers raised a bare ValueError for
        lambda: _one_point(n=HUGE_INT).to_json(),
        lambda: _one_point(period=HUGE_INT).to_json(),
        lambda: _one_point(shadow=(HUGE_INT + 1,), q=HUGE_INT).to_json(),
        lambda: _one_point(r_exact=Fraction(HUGE_INT + 1, HUGE_INT)).to_json(),
        lambda: mc.WeightedRootedGraph(["r", "u"], {("r", "u"): HUGE_INT}, "r").to_json(),
        lambda: mc.DistanceMatrix(["a", "b"], [[0, HUGE_INT], [HUGE_INT, 0]]).to_json(),
        lambda: mc.FpcCertificate(False, witness_cycle=mc.Cycle(("a", "b", "c"), (HUGE_INT, HUGE_INT, 1))).to_json(),
        lambda: _one_point(shadow=(1,), q=HUGE_INT).to_json(),
        # a shadow or an exact scale beyond binary64, where a binary64 reader rounds it
        lambda: _one_point(shadow=(HUGE_INT,)).to_json(include_exact=False),
        lambda: _one_point(r_exact=Fraction(HUGE_INT)).to_json(include_exact=False),
    ],
)
def test_arguments_refused_as_graph_error(call):
    """Values the rules refuse: a bool, though Python reads it as 1, a whole
    float, a string, a value below its least bound by less than binary64
    resolves, an int past the digit limit, and a number or None where a
    sequence or a mapping belongs."""
    with pytest.raises(GraphError):
        call()


def test_numbers_of_every_accepted_type_read_alike():
    # a Decimal k met a float and raised a bare TypeError
    table = mc.annulus_diameter_table(CLOUD, 2.0, [1.0, 8.0])
    for k, radius in ((2, 8), (Decimal(2), Decimal(8)), (Fraction(2), Fraction(8))):
        assert mc.annulus_diameter_table(CLOUD, k, [1.0, radius]) == table
    value = mc.spread_functional([(1.0,), (2.0,)], (0.0,))
    assert mc.spread_functional([(Decimal(1),), (Fraction(2),)], (0,)) == value


def test_a_k_radius_or_coordinate_past_binary64_is_read_exactly():
    # k = 10**400 at radius 1 holds every point but the basepoint: the
    # diameter over the radius is the widest range of one coordinate
    (row,) = mc.annulus_diameter_table(CLOUD, 10**400, [1.0])
    pts = [point_shadow(lvl, row) for lvl in CLOUD.levels for row in lvl.rows if any(row)]
    assert row == {"r": 1, "value": float(max(max(c) - min(c) for c in zip(*pts))), "points": len(pts)}
    # a radius of 10**-400 holds no point, and one of 10**400 none either
    for radius in (Fraction(1, 10**400), 10**400):
        assert mc.annulus_diameter_table(CLOUD, 2, [radius]) == [{"r": radius, "value": 0.0, "points": 0}]
    assert mc.spread_functional([(10**400,), (-(10**400),)], (0,)) == 2.0
    assert mc.isomorphic(G, G, weight_tol_rel=Decimal("0.5")) == mc.isomorphic(G, G, weight_tol_rel=0.5)


def test_an_int_past_the_digit_limit_is_named_by_its_bits():
    # its repr raised a bare ValueError inside the refusal
    with pytest.raises(GraphError, match="got a negative int of 16610 bits$"):
        mc.recover_cluster(FLOATS, tol_rel=-10**5000)
    # every cloud decides exactly, where it is a tolerance like any other, and
    # the diagnostics name it as the refusal would
    for cloud in (CLOUD, FLOATS):
        huge_tol = mc.recover_cluster(cloud, tol_rel=10**5000).diagnostics_json_dict()
        assert huge_tol["tol_rel"] == "a positive int of 16610 bits"
    with pytest.raises(GraphError, match="got a negative int of 16610 bits$"):
        mc.moon_moser_f(-10**5000)
    # an integral Fraction is named as the int it equals, as the writers name it
    with pytest.raises(GraphError) as refused:
        mc.WeightedRootedGraph(["r", "u"], {("r", "u"): -HUGE_INT}, "r")
    assert str(refused.value) == "negative weight a negative int of 16610 bits on edge ('r', 'u')"
    with pytest.raises(GraphError) as refused:
        mc.LeveledPointCloud(1, [CloudLevel(1, None, Fraction(-HUGE_INT), ("a",), ((0,),), 1)])
    assert str(refused.value) == "level 1 has exact scale r_exact = a negative int of 16610 bits; it must be positive"
    # a cloud built in code may hold such a level n: its second fault names the level by its bits
    def non_numeric(level):
        del level["over"], level["r_exact"]
        level.update(r="1.0", points=[{"label": "u", "coords": [None] * 4}])

    faults = {
        "non-numeric coordinate": non_numeric,
        "retired layout: exact and coords mixed at point 'u'": (
            lambda level: level["points"][1].update(coords=[None] * 4, exact=None)
        ),
        "retired layout: r beside r_exact": lambda level: level.__setitem__("r", "x"),
        "duplicate label 'u'": lambda level: level["points"].append(dict(level["points"][1])),
        "exact scale r_exact = -1": lambda level: level.__setitem__("r_exact", "-1"),
        "point label 7": lambda level: level["points"][1].__setitem__("label", 7),
    }
    for message, fault in faults.items():
        doc = spelled_out(json.loads(CLOUD_JSON))
        doc["levels"][-1]["n"] = 10**5000
        fault(doc["levels"][-1])
        with pytest.raises(GraphError) as refused:
            mc.LeveledPointCloud.from_json_dict(doc)
        assert message in str(refused.value)
        assert "level a positive int of 16610 bits" in str(refused.value)
    # a writer names the first such value it would write, which no JSON text holds
    huge = Fraction(HUGE_INT + 1, HUGE_INT)  # 1.0 in binary64
    for write, spelled in (
        (_one_point(n=HUGE_INT).to_json, "a positive int of 16610 bits"),
        (_one_point(period=HUGE_INT, n=HUGE_INT).to_json, "a positive int of 16610 bits"),
        (_one_point(period=HUGE_INT).to_json, "a positive int of 16610 bits"),
        (lambda: _json_text(dataclasses.replace(RC, window=HUGE_INT).diagnostics_json_dict()), "a positive int of 16610 bits"),
        # among values of other types, as in a list, or a dict's values
        (lambda: _json_text(["a", 1.5, -HUGE_INT, True]), "a negative int of 16610 bits"),
        (lambda: _json_text({"u": "1", "window": HUGE_INT}), "a positive int of 16610 bits"),
        # a shadow is written as its numerators over q
        (_one_point(shadow=(HUGE_INT + 1,), q=HUGE_INT).to_json, "a positive int of 16610 bits"),
        (_one_point(r_exact=huge).to_json, "a positive Fraction of 16610 bits over 16610 bits"),
        (mc.WeightedRootedGraph(["r", "u"], {("r", "u"): HUGE_INT}, "r").to_json, "a positive int of 16610 bits"),
        (mc.DistanceMatrix(["a", "b"], [[0, huge], [huge, 0]]).to_json, "a positive Fraction of 16610 bits over 16610 bits"),
        # an integer over a matrix's common denominator is named as an int, as a graph's weight is
        (mc.DistanceMatrix(["a", "b", "c"], [[0, HUGE_INT, HUGE_INT], [HUGE_INT, 0, "1/2"], [HUGE_INT, "1/2", 0]]).to_json,
         "a positive int of 16610 bits"),
        (mc.Cycle(("a", "b", "c"), (1, -HUGE_INT, 1)).to_json_dict, "a negative int of 16610 bits"),
    ):
        with pytest.raises(GraphError, match=f"^value {spelled} has more digits than to_json can write$"):
            write()
    # ... and writes what it can: without shadows, a huge shadow is not written
    assert '"exact"' not in _one_point(shadow=(HUGE_INT + 1,), q=HUGE_INT).to_json(include_exact=False)


def test_the_diagnostics_name_a_root_label_past_the_digit_limit_as_the_writer_does():
    # two exact levels within tol_rel of each other: u's root label, the mean
    # of 1 + 3**-8000 and 1 + 7**-4500, is past what str() can spell
    levels = [CloudLevel(n, None, Fraction(1), ("r", "u"), ((0,), (q + 1,)), q) for n, q in ((1, 3**8000), (2, 7**4500))]
    rc = mc.recover_cluster(mc.LeveledPointCloud(1, levels), tol_rel=1e-6)
    for write in (rc.graph.to_json, rc.diagnostics_json_dict):
        with pytest.raises(GraphError) as refused:
            write()
        assert str(refused.value) == (
            "value a positive Fraction of 25313 bits over 25313 bits has more digits than to_json can write"
        )


@pytest.mark.parametrize(
    "reader, source",
    [
        (mc.WeightedRootedGraph.from_json, "graph JSON"),
        (mc.DistanceMatrix.from_json, "distance matrix JSON"),
        (mc.LeveledPointCloud.from_json, "cloud JSON"),
    ],
)
def test_from_json_refuses_text_that_is_no_json(reader, source):
    """The CLI's reader of JSON files: a syntax error is named by line and
    column, and nesting past the parser's limit, which raised RecursionError,
    and an integer past the digit limit are refused alike."""
    for text, message in (
        ("{", f"{source}:1:2: Expecting property name enclosed in double quotes"),
        ("[" * 100_000, f"{source}: JSON nested too deeply"),
        ("1" * 5000, f"{source}: Exceeds the limit"),
    ):
        with pytest.raises(GraphError) as refused:
            reader(text)
        assert str(refused.value).startswith(message)
