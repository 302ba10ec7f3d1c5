"""The argument contract at the library boundary: an integer argument is an
int (not a bool) from its lower bound on, a real argument such as a
tolerance is a finite int, float, Fraction or Decimal (not a bool or a
string), and every other value ends as a GraphError, never as another
exception."""

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


def _loaded(path, value):
    """The cloud read back from its JSON with the field at ``path`` set to ``value``."""
    doc = json.loads(CLOUD_JSON)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return mc.LeveledPointCloud.from_json_dict(doc)


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
    "validate_recovered_cluster tol_rel": (lambda x: mc.validate_recovered_cluster(RC, x), True),
    "validate_recovered_cluster tol_abs": (lambda x: mc.validate_recovered_cluster(RC, tol_abs=x), True),
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
}

SWAPPED = [
    True, False, None, "", "3", "1/2", "1e-6", "nan",
    0.0, -0.0, 1.0, 2.0, 2.5, -1.5, 1e-300, 1e308, math.nan, math.inf, -math.inf,
    Decimal("1e-6"), Decimal("2"), Decimal("-1"), Decimal("NaN"), Decimal("sNaN"),
    Decimal("Infinity"), Decimal("1e400"), Fraction(1, 3), Fraction(-1, 3),
    -1, 0, 1, 2, 3,
]
SMALL = st.sampled_from(SWAPPED) | st.integers(-3, 40) | st.floats() | st.text(max_size=3)
HUGE = st.sampled_from([10**400, -10**400, 2**1100])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(call=st.sampled_from(sorted(CALLS)), data=st.data())
def test_library_fuzz_argument_types(call, data):
    """Any value in any integer or real parameter: the call returns or raises
    GraphError, and nothing else."""
    function, huge = CALLS[call]
    value = data.draw((SMALL | HUGE) if huge else SMALL)
    try:
        function(value)
    except GraphError:
        pass


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
        lambda: mc.validate_recovered_cluster(RC, True),
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
    ],
)
def test_arguments_refused_as_graph_error(call):
    """Values the two rules refuse: a bool, though Python reads it as 1, a
    whole float, a string, and an int beyond binary64 where binary64
    arithmetic takes the value."""
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
