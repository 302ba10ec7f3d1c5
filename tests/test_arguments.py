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

G = mc.WeightedRootedGraph(
    ["r", "u", "v", "z"],
    {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 3, ("v", "z"): 5},
    "r",
)
CLOUD = mc.realize(G, 6)
CLOUD_JSON = CLOUD.to_json()
RC = mc.recover_cluster(CLOUD)
IDENTITY = {v: v for v in G.vertices}
D = mc.shortest_path_metric(G)


def _loaded(path, value):
    """The cloud read back from its JSON with the field at ``path`` set to ``value``."""
    doc = json.loads(CLOUD_JSON)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return mc.LeveledPointCloud.from_json_dict(doc)


def _recorded(**tolerances):
    """RC as if recovered with the given tolerances, which validation reads."""
    return dataclasses.replace(RC, **tolerances)


# each public entry point with an integer or real parameter, as a function of
# the value put in that parameter, and whether a huge int may be passed: only
# where it is refused before the work starts. moon_moser_f(10**9) would build
# 3**(n // 3) in full and ScalingRule().value(10**9) a factorial, and realize
# builds 170 levels before the factorial scale leaves binary64
CALLS = {
    "build_plan depth": (lambda x: mc.build_plan(G, x), True),
    "realize depth": (lambda x: mc.realize(G, x), False),
    "single_point_space depth": (lambda x: mc.single_point_space(x), True),
    "single_point_space base": (lambda x: mc.single_point_space(4, x), True),
    "ScalingRule base": (lambda x: mc.ScalingRule("power_square", x), True),
    "ScalingRule.value n": (lambda x: mc.ScalingRule().value(x), False),
    "recover_cluster window": (lambda x: mc.recover_cluster(CLOUD, window=x), True),
    "recover_cluster tol_rel": (lambda x: mc.recover_cluster(CLOUD, tol_rel=x), True),
    "recover_cluster tol_abs": (lambda x: mc.recover_cluster(CLOUD, tol_abs=x), True),
    "recover_cluster exact tol_rel": (lambda x: mc.recover_cluster(CLOUD, tol_rel=x, use_exact=True), True),
    "recover_cluster exact tol_abs": (lambda x: mc.recover_cluster(CLOUD, tol_abs=x, use_exact=True), True),
    "validate_recovered_cluster tol_rel": (lambda x: mc.validate_recovered_cluster(_recorded(tol_rel=x)), True),
    "validate_recovered_cluster tol_abs": (lambda x: mc.validate_recovered_cluster(_recorded(tol_abs=x)), True),
    "isomorphic": (lambda x: mc.isomorphic(G, RC.graph, weight_tol_rel=x), True),
    "IsoMapping.verify": (lambda x: mc.IsoMapping(IDENTITY).verify(G, G, x), True),
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
        lambda: mc.annulus_diameter_table(CLOUD, 10**400, [1.0]),
        lambda: mc.spread_functional([("1",), (1.0,)], (0.0,)),
        # past the int-to-str digit limit, which no refusal text can spell
        lambda: mc.recover_cluster(CLOUD, tol_rel=10**5000),
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
        lambda: mc.is_dominating(G, [1]),
    ],
)
def test_arguments_refused_as_graph_error(call):
    """Values the rules refuse: a bool, though Python reads it as 1, a whole
    float, a string, an int beyond binary64 where binary64 arithmetic takes
    the value, an int past the digit limit, and a number or None where a
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
    assert mc.isomorphic(G, G, weight_tol_rel=Decimal("0.5")) == mc.isomorphic(G, G, weight_tol_rel=0.5)


def test_an_int_past_the_digit_limit_is_named_by_its_bits():
    # its repr raised a bare ValueError inside the refusal
    with pytest.raises(GraphError, match="got a positive int of 16610 bits$"):
        mc.recover_cluster(CLOUD, tol_rel=10**5000)
    with pytest.raises(GraphError, match="got a negative int of 16610 bits$"):
        mc.moon_moser_f(-10**5000)
    # a cloud built in code may hold such a level n: its second fault names the level by its bits
    faults = {
        "non-numeric coordinate": lambda level: level["points"][1]["coords"].__setitem__(0, None),
        "scale r that is not a binary64 number": lambda level: level.__setitem__("r", "x"),
        "duplicate label 'u'": lambda level: level["points"].append(dict(level["points"][1])),
        "exact scale r_exact = -1": lambda level: level.__setitem__("r_exact", "-1"),
        "point label 7": lambda level: level["points"][1].__setitem__("label", 7),
    }
    for message, fault in faults.items():
        doc = json.loads(CLOUD_JSON)
        doc["levels"][-1]["n"] = 10**5000
        fault(doc["levels"][-1])
        with pytest.raises(GraphError) as refused:
            mc.LeveledPointCloud.from_json_dict(doc)
        assert message in str(refused.value)
        assert "level a positive int of 16610 bits" in str(refused.value)


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
