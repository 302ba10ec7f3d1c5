"""Independent brute-force oracles and small-graph corpora for the test suite.

networkx appears here only as a corpus generator (graph atlas, trees) and as
a second opinion on cycle and path counts and on isomorphism verdicts; every
quantity the library is tested against is recomputed by the plain,
exponential enumeration oracles below.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, combinations, count
from typing import Optional

import networkx as nx

from metric_cluster.graph_core import (
    Cycle,
    GraphError,
    WeightedRootedGraph,
    is_weight_preserving_monomorphism,
    parse_rational,
)
from metric_cluster.metrization import DistanceMatrix, IntervalQ, shortest_path_metric
from metric_cluster.realization import (
    CloudLevel,
    LeveledPointCloud,
    sup_distance,
)
from metric_cluster.recovery import RecoveredCluster


def enumerate_cycles(g: WeightedRootedGraph):
    """Yield every simple cycle exactly once, up to rotation and reflection."""
    adj = {v: sorted(nb) for v, nb in g.adjacency().items()}

    for start in g.vertices:
        # Only cycles whose minimal vertex is `start`; dedupe the two
        # traversal directions by requiring path[1] < path[-1].
        path = [start]
        on_path = {start}

        def dfs():
            u = path[-1]
            for w in adj[u]:
                if w <= start or w in on_path:
                    if w == start and len(path) >= 3 and path[1] < path[-1]:
                        yield Cycle.from_graph(g, tuple(path))
                    continue
                path.append(w)
                on_path.add(w)
                yield from dfs()
                path.pop()
                on_path.remove(w)

        yield from dfs()


def brute_force_maximal_cliques(vertices, adj):
    """Subset enumeration: a clique is maximal when every superset fails."""
    verts = sorted(vertices)
    cliques = []
    for r in range(1, len(verts) + 1):
        for subset in combinations(verts, r):
            if all(v in adj[u] for u, v in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    return sorted(
        (c for c in cliques if not any(c < d for d in cliques)),
        key=lambda c: sorted(c),
    )


def brute_force_simple_paths(adj, u, v):
    """All simple u-v paths by plain DFS over an adjacency dict."""
    out = []
    stack = [(u, [u])]
    while stack:
        node, path = stack.pop()
        if node == v:
            out.append(tuple(path))
            continue
        for nb in adj[node]:
            if nb not in path:
                stack.append((nb, path + [nb]))
    return out


def interval_by_paths(g: WeightedRootedGraph, u: str, v: str) -> IntervalQ:
    """Admissible interval over every simple u-v path P: the largest positive
    part of (2 * heaviest edge of P - length of P), up to the shortest length."""
    lo, hi = Fraction(0), None
    for path in brute_force_simple_paths(g.adjacency(), u, v):
        ws = [g.weight(a, b) for a, b in zip(path, path[1:])]
        total = sum(ws, Fraction(0))
        lo = max(lo, 2 * max(ws) - total)
        hi = total if hi is None else min(hi, total)
    return IntervalQ(lo, hi)


def certifies_by_cycles(g: WeightedRootedGraph) -> bool:
    """The three cluster conditions checked literally: dominating root with
    injective root-edge labels, the cycle inequality on every cycle, and every
    tight cycle a clique."""
    others = [v for v in g.vertices if v != g.root]
    if not all(g.has_edge(g.root, v) for v in others):
        return False
    labels = [Fraction(0)] + [g.weight(g.root, v) for v in others]
    if len(set(labels)) != len(labels):
        return False
    for cycle in enumerate_cycles(g):
        if not cycle.satisfies_cycle_inequality():
            return False
        if cycle.is_tight() and not all(
            g.has_edge(a, b) for a, b in combinations(cycle.vertices, 2)
        ):
            return False
    return True


def metrizability_by_cycles(g: WeightedRootedGraph) -> str:
    """Classify by enumerating every cycle and testing the inequality directly."""
    for cycle in enumerate_cycles(g):
        if 2 * cycle.max_weight() > cycle.total_weight():
            return "not_pseudometrizable"
    if any(w == 0 for w in g.weights.values()):
        return "pseudometrizable_only"
    return "metrizable"


def tight_cycle_through_pair(g: WeightedRootedGraph, u: str, v: str) -> bool:
    """Does some tight cycle pass through both u and v? (exhaustive search)"""
    for cycle in enumerate_cycles(g):
        if u in cycle.vertices and v in cycle.vertices and cycle.is_tight():
            return True
    return False


def shortest_paths_by_fractions(g: WeightedRootedGraph) -> list[list[Fraction]]:
    """All-pairs shortest-path distances of a connected graph by
    Floyd-Warshall on Fractions, rows and columns in ``g.vertices`` order."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for (u, v), w in g.weights.items():
        d[index[u]][index[v]] = d[index[v]][index[u]] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] is not None and d[k][j] is not None:
                    via = d[i][k] + d[k][j]
                    if d[i][j] is None or via < d[i][j]:
                        d[i][j] = via
    return d


def minor_arc_rows_by_fractions(cycle: Cycle) -> list[list[Fraction]]:
    """Minor-arc distances between the vertices of a cycle laid around a
    circle of its total length, by Fractions, rows and columns in sorted
    vertex order."""
    at, total = {}, Fraction(0)
    for v, w in zip(cycle.vertices, cycle.weights):
        at[v] = total
        total += w
    verts = sorted(at)
    return [[min(abs(at[u] - at[v]), total - abs(at[u] - at[v])) for v in verts] for u in verts]


def least_interval_width(g: WeightedRootedGraph) -> Fraction:
    """The least width hi - lo of an admissible interval over the non-edges
    of a metrizable graph with at least one: for a non-edge (u, v), hi is
    d(u, v) and lo the largest slack w(ab) - d(u, a) - d(b, v) over oriented
    edges ab, or 0. Evaluated on integers over the least common multiple L
    of the weight denominators, with d from ``shortest_paths_by_fractions``."""
    scale = math.lcm(*(w.denominator for w in g.weights.values()))
    d = [[int(x * scale) for x in row] for row in shortest_paths_by_fractions(g)]
    index = {v: i for i, v in enumerate(g.vertices)}
    oriented = [(index[a], index[b], int(w * scale))
                for (x, y), w in g.weights.items() for a, b in ((x, y), (y, x))]
    widths = []
    for u, v in g.non_edges():
        du, dv = d[index[u]], d[index[v]]
        lo = max(0, max(w - du[a] - dv[b] for a, b, w in oriented))
        widths.append(du[index[v]] - lo)
    return Fraction(min(widths), scale)


def lower_member_by_fractions(g: WeightedRootedGraph) -> DistanceMatrix:
    """The realization family's lower member, all in Fractions, for a
    certified graph with m >= 1 non-edges: the shortest-path metric of g plus
    every non-edge (u, v) as an edge of weight d(u, v) - delta/min(m + 1, n),
    where delta is the least width of an admissible interval [largest slack
    w(ab) - d(u, a) - d(b, v) over oriented edges ab, or 0; d(u, v)] over the
    non-edges."""
    d = shortest_paths_by_fractions(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    non_edges = g.non_edges()
    widths = []
    for u, v in non_edges:
        i, j = index[u], index[v]
        lo = max(
            [Fraction(0)]
            + [w - d[i][index[a]] - d[index[b]][j]
               for (x, y), w in g.weights.items() for a, b in ((x, y), (y, x))]
        )
        widths.append(d[i][j] - lo)
    step = min(widths) / min(len(non_edges) + 1, len(g.vertices))
    weights = dict(g.weights)
    for u, v in non_edges:
        weights[u, v] = d[index[u]][index[v]] - step
    closed = WeightedRootedGraph(g.vertices, weights, g.root)
    return DistanceMatrix(g.vertices, shortest_paths_by_fractions(closed))


def normalized_values_by_fractions(cloud, window: int):
    """Recovery's normalized values over the last ``window`` levels, by plain
    Fraction arithmetic on the exact shadows as the cloud's JSON spells them:
    per label the basepoint values sup|x_n| / r_n, and per label pair (x < y)
    the values sup|x_n - y_n| / r_n."""
    labels = cloud.labels()
    base = {x: [] for x in labels}
    pairs = {pair: [] for pair in combinations(labels, 2)}
    for lvl in spelled_out(json.loads(cloud.to_json()))["levels"][-window:]:
        r = parse_rational(lvl["r_exact"])
        pts = {p["label"]: file_shadow(lvl, p) for p in lvl["points"]}
        for x in labels:
            base[x].append(max(abs(c) for c in pts[x]) / r)
        for x, y in pairs:
            dist = max(abs(a - b) for a, b in zip(pts[x], pts[y]))
            pairs[(x, y)].append(dist / r)
    return base, pairs


_BASE = object()  # the basepoint's trace in recover_by_fractions


def _fraction_mean(values):
    return sum(values) / len(values)


def _fraction_spread(values):
    return max(values) - min(values)


def recover_by_fractions(
    cloud: LeveledPointCloud,
    tol_rel: float = 1e-6,
    tol_abs: float = 1e-9,
    window: Optional[int] = None,
) -> RecoveredCluster:
    """``recover_cluster(cloud, tol_rel, tol_abs, window)`` as plain Fraction
    arithmetic: a coordinate is its shadow or, without one, ``Fraction`` of
    its binary64 value, a scale is r_exact or ``Fraction(r)``, one Fraction
    stands for each normalized value, and tail means, spreads and every
    threshold are computed and compared as Fractions."""
    if not cloud.levels:
        raise GraphError("empty cloud")
    # exact recovery turns the tolerances into rationals, which NaN and the
    # infinities have none of; a negative tolerance would identify nothing
    if not (0 <= tol_rel < math.inf and 0 <= tol_abs < math.inf):
        raise GraphError(
            f"tolerances must be finite and non-negative, got {tol_rel!r} and {tol_abs!r}"
        )
    labels = cloud.labels()
    if any(lbl is None for lbl in labels):
        raise GraphError("cloud has unlabeled points; recovery needs sequences")

    depth = cloud.depth
    # a window of one level has spread 0 and so cannot tell a non-edge
    if window is None and cloud.period:
        window = max(cloud.period, min(2, depth))
    elif window is None:
        if depth < 2:
            raise GraphError(
                "cloud has one level and no period: one level cannot decide a non-edge"
            )
        window = min(depth, max(4, depth // 3))
    if window < 1:
        raise GraphError("window must be positive")
    if window > depth:
        raise GraphError(f"window {window} exceeds cloud depth {depth}")
    if cloud.period and window < cloud.period:
        raise GraphError(
            f"window {window} is shorter than the metric-family period {cloud.period}: "
            "oscillation between family members would be undetectable"
        )

    tail = cloud.levels[-window:]
    per_level = []
    for lvl in tail:
        pts = cloud.points_by_label(lvl)
        if set(pts) != set(labels):
            missing = sorted(set(labels) - set(pts))
            raise GraphError(f"level {lvl.n} is missing labels {missing}")
        per_level.append((lvl, pts))

    def coordinates(lvl, row):
        if lvl.r_exact is None:
            return tuple(Fraction(x) for x in row)
        return point_shadow(lvl, row)

    rows = [{lbl: coordinates(lvl, row) for lbl, row in pts.items()} for lvl, pts in per_level]
    scales = [Fraction(lvl.r) if lvl.r_exact is None else lvl.r_exact for lvl, _ in per_level]

    zero = 0
    t_rel = Fraction(tol_rel)
    t_abs = Fraction(tol_abs)
    # the basepoint is one more row, at the origin of every level
    origin = (zero,) * cloud.dimension
    for row in rows:
        row[_BASE] = origin
    all_traces = [_BASE] + list(labels)
    values: dict = {}
    for i, x in enumerate(all_traces):
        for y in all_traces[i + 1 :]:
            values[x, y] = values[y, x] = [
                sup_distance(row[x], row[y]) / r for row, r in zip(rows, scales)
            ]

    base_scale = max((max(values[_BASE, lbl]) for lbl in labels), default=zero)
    eq_thresh = t_abs + t_rel * base_scale

    merge_log: list[str] = []
    warnings: list[str] = []

    # --- which sequences vanish at the basepoint ---------------------------
    decayed: set = set()
    for lbl in labels:
        vals = values[_BASE, lbl]
        if all(v <= eq_thresh for v in vals):
            continue  # equivalence handles it below
        nonincreasing = all(vals[i + 1] <= vals[i] + eq_thresh for i in range(len(vals) - 1))
        if nonincreasing and vals[-1] <= vals[0] / 2:
            decayed.add(lbl)
            merge_log.append(
                f"{lbl!r} absorbed into the root class: normalized basepoint "
                f"distance decays {float(vals[0]):.3g} -> {float(vals[-1]):.3g}"
            )

    # --- equivalence classes ------------------------------------------------
    parent = {t: t for t in all_traces}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(s, t):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt

    for i, x in enumerate(all_traces):
        for y in all_traces[i + 1 :]:
            if all(v <= eq_thresh for v in values[x, y]):
                union(x, y)
    for lbl in decayed:
        union(lbl, _BASE)

    classes_by_root: dict = {}
    for t in all_traces:
        classes_by_root.setdefault(find(t), []).append(t)

    # Transitive closure must not chain far-apart sequences together. Decayed
    # sequences are exempt: they join the root by trend, not by proximity.
    for members in classes_by_root.values():
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if x in decayed or y in decayed:
                    continue
                vals = values[x, y]
                if _fraction_mean(vals) > 3 * eq_thresh:
                    raise GraphError(
                        "equivalence closure merged sequences that are not close: "
                        f"{x!r} and {y!r} have mean normalized distance "
                        f"{float(_fraction_mean(vals)):.3g} > 3x tolerance; "
                        "tolerances are inconsistent with this cloud"
                    )

    # --- name classes, pick representatives ---------------------------------
    root_key = find(_BASE)
    class_info: list[tuple[str, object, list]] = []  # (name, representative, members)
    for key, members in classes_by_root.items():
        real = sorted(m for m in members if m is not _BASE)
        if key == root_key:
            # a bare root class takes the first of nu0, nu1, ... that no label is
            name = real[0] if real else next(f"nu{i}" for i in count() if f"nu{i}" not in labels)
            rep = _BASE  # the origin is the cleanest root representative
        else:
            name = real[0]
            rep = real[0]
        class_info.append((name, rep, real))
    class_info.sort(key=lambda item: item[0])

    # --- drop sequences with no stable normalized basepoint distance --------
    kept: list[tuple[str, object, list]] = []
    for name, rep, members in class_info:
        if rep is _BASE:
            kept.append((name, rep, members))
            continue
        vals = values[_BASE, rep]
        thr = t_abs + t_rel * _fraction_mean(vals)
        if _fraction_spread(vals) > thr:
            warnings.append(
                f"dropped {name!r}: normalized basepoint distance does not "
                f"stabilize (spread {float(_fraction_spread(vals)):.3g})"
            )
            continue
        kept.append((name, rep, members))

    # --- adjacency between classes ------------------------------------------
    root_name = next(name for name, rep, _ in kept if rep is _BASE)
    diagnostics: list[dict] = []
    edges = {}
    for i, (name_a, rep_a, _) in enumerate(kept):
        for name_b, rep_b, _ in kept[i + 1 :]:
            vals = values[rep_a, rep_b]
            mean = _fraction_mean(vals)
            spread = _fraction_spread(vals)
            thr = t_abs + t_rel * mean
            adjacent = spread <= thr
            diagnostics.append(
                {
                    "pair": f"{name_a}|{name_b}",
                    "spread": float(spread),
                    "liminf_estimate": float(min(vals)),
                    "limsup_estimate": float(max(vals)),
                    "mean": float(mean),
                    "adjacent": adjacent,
                }
            )
            if adjacent:
                edges[(name_a, name_b)] = Fraction(mean)

    graph = WeightedRootedGraph([name for name, _, _ in kept], edges, root_name)
    classes = {
        name: tuple(members) if members else (name,) for name, _, members in kept
    }
    return RecoveredCluster(
        graph=graph,
        classes=classes,
        diagnostics=diagnostics,
        merge_log=merge_log,
        warnings=warnings,
        window=window,
        tol_rel=tol_rel,
        tol_abs=tol_abs,
        _exact=cloud.has_exact(),
    )


def level_from_fractions(n: int, r: Fraction, points: dict) -> CloudLevel:
    """A cloud level with exact scale r from {label: Fraction coordinates}:
    the shadows in units of r, as ``shadows_in_units`` puts them."""
    q, shadows = shadows_in_units(list(points.values()), r)
    return CloudLevel(n, None, r, tuple(points), tuple(shadows), q)


def shadows_in_units(shadows: list, scale: Fraction) -> tuple:
    """Exact coordinates (sequences of rationals, or None) as a level holds
    them: each coordinate over ``scale``, as integer numerators over the
    least common denominator q of those values; q and the numerator tuples."""
    units = [None if row is None else [Fraction(x) / scale for x in row] for row in shadows]
    q = math.lcm(*(x.denominator for row in units if row for x in row))
    return q, [None if row is None else tuple(int(x * q) for x in row) for row in units]


def point_shadow(lvl: CloudLevel, row: tuple) -> tuple[Fraction, ...]:
    """The exact coordinates of a row of an exact level: each numerator over
    the level's q, times the level's r_exact."""
    return tuple(lvl.r_exact * Fraction(a, lvl.q) for a in row)


def spread_by_fractions(points: list, basepoint: tuple) -> Fraction:
    """The spread functional of points given as Fractions, in Fractions
    step by step: min_k d(x_k, p) / t times d(x_k, x_l) / t for each pair
    k < l, with t = max_k d(x_k, p); 0 when every point is the basepoint."""
    base = [sup_distance(x, basepoint) for x in points]
    top = max(base)
    if not top:
        return Fraction(0)
    value = min(base) / top
    for a, b in combinations(points, 2):
        value *= sup_distance(a, b) / top
    return value


def annulus_by_fractions(cloud: LeveledPointCloud, annuli: list) -> list[tuple[Fraction, int]]:
    """For each (k, r) of ``annuli``, diam(A(p, r, k)) / r and the number of
    points of the annulus, over every point of the exact cloud as
    ``point_shadow`` reads it, in Fractions: with the points in order of
    their sup norms, the annulus is the slice from the first norm at least
    r / k to the last at most r * k. A sup-norm diameter is the widest range
    of one coordinate."""
    pts = sorted(
        ((max(map(abs, p)), p) for p in (point_shadow(lvl, row) for lvl in cloud.levels for row in lvl.rows)),
        key=lambda item: item[0],
    )
    norms = [norm for norm, _ in pts]
    table = []
    for k, r in annuli:
        k, r = Fraction(k), Fraction(r)
        members = [p for _, p in pts[bisect_left(norms, r / k) : bisect_right(norms, r * k)]]
        diam = max((max(column) - min(column) for column in zip(*members)), default=Fraction(0))
        table.append((diam / r, len(members)))
    return table


def shadows_by_spelling(shadows: list) -> tuple[list, list]:
    """One level's ``exact`` lists (or None for no shadow) read value by
    value, in point order, as the writer spells a value: a string that
    matches ``-?[0-9]+`` and whose digits ``int`` reads. Each list's ints,
    None for an empty list or none, and no refused value; or no rows and,
    in a list, the first value that is refused."""
    for x in chain.from_iterable(filter(None, shadows)):
        if not (isinstance(x, str) and re.fullmatch("-?[0-9]+", x)):
            return [], [x]
        try:
            int(x)
        except ValueError:  # digits past the interpreter's limit
            return [], [x]
    return [tuple(map(int, row)) if row else None for row in shadows], []


def cloud_by_coordinates(plan) -> LeveledPointCloud:
    """``generate_cloud`` computed coordinate by coordinate: every level n
    multiplies each coordinate of each point by n!, as a Fraction, in one column
    per non-root vertex (the root's alone for a one-vertex graph). Each
    point is handed to the constructor with its shadow over r as
    ``shadows_in_units`` puts it."""
    order = plan.graph.vertices
    columns = [v for v in order if v != plan.graph.root] or [plan.graph.root]
    differences = []
    for d in plan.family:
        differences.append([[d.get(v, w) - d.get(w, plan.graph.root) for w in columns] for v in order])
    levels = []
    for n in range(1, plan.depth + 1):
        r_exact = Fraction(math.factorial(n))
        rows = [[r_exact * x for x in row] for row in differences[(n - 1) % len(differences)]]
        q, shadows = shadows_in_units(rows, r_exact)
        levels.append(CloudLevel(n, None, r_exact, tuple(order), tuple(shadows), q))
    return LeveledPointCloud(dimension=len(columns), levels=levels, period=len(plan.family))


def power_square_scaled(cloud: LeveledPointCloud, base: int) -> LeveledPointCloud:
    """The cloud with level n scaled by base**(n*n) in place of its own
    scale: a level's rows are in units of its scale, so only r_exact changes.
    Realization scales level n by n!, but a file may hold any positive scale,
    and recovery reads each level's distances over its own."""
    levels = [dataclasses.replace(lvl, r_exact=Fraction(base ** (lvl.n * lvl.n))) for lvl in cloud.levels]
    return LeveledPointCloud._of_levels(cloud.dimension, levels, cloud.period)


def point_floats(lvl: CloudLevel, row: tuple) -> tuple[float, ...]:
    """A row's binary64 coordinates: the row of a binary64 level, or each
    value of its ``point_shadow`` rounded as ``float(Fraction)`` rounds it."""
    return row if lvl.r_exact is None else tuple(map(float, point_shadow(lvl, row)))


def file_shadow(level: dict, point: dict) -> list[Fraction]:
    """A point's exact coordinates as a cloud file's level object spells
    them: r_exact times each ``exact`` value over ``over``."""
    r = parse_rational(level["r_exact"])
    return [r * Fraction(int(x), level["over"]) for x in point["exact"]]


def spelled_out(doc: dict) -> dict:
    """A copy of a cloud document in which each level that names an earlier
    level by ``points_of`` spells that level's points out instead: a copy of
    its ``points`` where ``points_of`` stood, and its ``over`` after the
    level's own fields, as files were written before ``points_of``."""
    doc, by_n = copy.deepcopy(doc), {}
    for i, entry in enumerate(doc["levels"]):
        if "points_of" in entry:
            named, spelled = by_n[entry["points_of"]], {}
            for key, value in entry.items():
                if key == "points_of":
                    key, value = "points", copy.deepcopy(named["points"])
                spelled[key] = value
            doc["levels"][i] = entry = dict(spelled, over=named["over"])
        by_n[entry["n"]] = entry
    return doc


def cloud_json_dict(cloud: LeveledPointCloud, include_exact: bool = True) -> dict:
    """The cloud file as a dict, which ``json.dumps`` writes as ``to_json``
    writes it. Unless ``include_exact`` is false, a level
    with ``r_exact`` writes it, and each row as ``exact`` values: each value
    x, a coordinate of ``point_shadow`` over r_exact, as the integer
    x * over, with ``over`` the least common denominator of the level's
    values x. Otherwise a level writes ``r``, r_exact rounded where it has
    one, and each point's ``coords``, its row rounded. An exact level whose
    ``points`` and ``over`` are spelled as an earlier exact level's has, in
    their place, ``points_of``: the n of the first such level."""
    levels, named = [], {}
    for lvl in cloud.levels:
        if not (include_exact and lvl.r_exact is not None):
            points = [{"label": v, "coords": list(point_floats(lvl, row))} for v, row in zip(lvl.labels, lvl.rows)]
            levels.append({"n": lvl.n, "r": repr(float(lvl.r_exact or lvl.r)), "points": points})
            continue
        units = [[x / lvl.r_exact for x in point_shadow(lvl, row)] for row in lvl.rows]
        over = math.lcm(*(x.denominator for x in chain.from_iterable(units)))
        points = [{"label": v, "exact": [str(x * over) for x in xs]} for v, xs in zip(lvl.labels, units)]
        level = {"n": lvl.n, "points": points, "r_exact": str(lvl.r_exact)}
        if units:
            level["over"] = over
            spelling = json.dumps([points, over])
            if spelling in named:
                level = {"n": lvl.n, "points_of": named[spelling], "r_exact": level["r_exact"]}
            named.setdefault(spelling, lvl.n)
        levels.append(level)
    return {
        "norm": "sup",
        "dimension": cloud.dimension,
        "basepoint": [0.0] * cloud.dimension,
        "period": cloud.period,
        "levels": levels,
    }


def verifies_isomorphism(g1, g2, mapping: dict, tol=0) -> bool:
    """The conditions an ``isomorphic`` witness meets: a weight preserving
    monomorphism between graphs with as many vertices and as many edges, so
    a bijection under which non-edges map onto non-edges."""
    return (
        is_weight_preserving_monomorphism(g1, g2, mapping, tol)
        and len(g1) == len(g2)
        and len(g1.weights) == len(g2.weights)
    )


def is_isomorphism_by_pairs(g1, g2, mapping: dict, tol: Fraction) -> bool:
    """Does ``mapping`` take g1 onto g2, root to root, with every vertex pair
    an edge in g1 exactly when its image is one in g2, of a weight within the
    relative tolerance? Every pair is looked at."""
    if sorted(mapping) != list(g1.vertices) or sorted(mapping.values()) != list(g2.vertices):
        return False
    if mapping[g1.root] != g2.root:
        return False
    for u, v in combinations(g1.vertices, 2):
        a, b = mapping[u], mapping[v]
        if g1.has_edge(u, v) != g2.has_edge(a, b):
            return False
        if g1.has_edge(u, v):
            w1, w2 = g1.weight(u, v), g2.weight(a, b)
            if abs(w1 - w2) > tol * max(w1, w2):
                return False
    return True


def isomorphic_by_networkx(g1, g2, tol: Fraction) -> bool:
    """networkx's VF2 verdict on weighted rooted isomorphism: the root is a
    node attribute, and an edge matches an edge whose weight is within the
    relative tolerance."""

    def to_nx(g):
        G = nx.Graph()
        G.add_nodes_from((v, {"root": v == g.root}) for v in g.vertices)
        G.add_edges_from((u, v, {"w": w}) for (u, v), w in g.weights.items())
        return G

    def close(e1, e2):
        return abs(e1["w"] - e2["w"]) <= tol * max(e1["w"], e2["w"])

    return nx.is_isomorphic(
        to_nx(g1), to_nx(g2),
        node_match=lambda x, y: x["root"] == y["root"],
        edge_match=close,
    )


def cycle_count_networkx(g: WeightedRootedGraph) -> int:
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges())
    return sum(1 for _ in nx.simple_cycles(G))


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random, max_num: int = 8, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def with_mixed_denominators(
    rng: random.Random, g: WeightedRootedGraph, max_num: int = 40
) -> WeightedRootedGraph:
    """g's shape with random positive weights over 1, 2, 3, 7, 11 or 13, so
    that the least common multiple of the denominators is usually large."""
    weights = {e: Fraction(rng.randint(1, max_num), rng.choice((1, 2, 3, 7, 11, 13))) for e in g.edges()}
    return WeightedRootedGraph(g.vertices, weights, g.root)


def with_unrelated_denominators(rng: random.Random, g: WeightedRootedGraph) -> WeightedRootedGraph:
    """g's shape (at most 28 edges) with distinct weights 1 + a/7, 1 + a/11
    and 1 + a/13 inside (1, 2): every cycle is then strictly slack and the
    labels are injective, so a dominating root certifies."""
    pool = [1 + Fraction(a, q) for q in (7, 11, 13) for a in range(1, q)]
    return WeightedRootedGraph(g.vertices, dict(zip(g.edges(), rng.sample(pool, len(g.edges())))), g.root)


def vertex_names(n: int) -> list[str]:
    return [f"v{i:02d}" for i in range(n)]


def nx_to_graph(G: nx.Graph, weights, root) -> WeightedRootedGraph:
    names = {node: f"v{i:02d}" for i, node in enumerate(sorted(G.nodes()))}
    w = {}
    for idx, (a, b) in enumerate(sorted(tuple(sorted((names[x], names[y]))) for x, y in G.edges())):
        w[(a, b)] = weights[idx] if isinstance(weights, (list, tuple)) else weights
    return WeightedRootedGraph(names.values(), w, names[sorted(G.nodes())[0]] if root is None else root)


def atlas_connected_graphs(max_n: int = 7):
    """Every connected graph on 1..max_n vertices, one per isomorphism class."""
    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(G):
            out.append(G)
    return out


def random_weighting(G: nx.Graph, rng: random.Random, max_num=8, max_den=3):
    return [random_rational(rng, max_num, max_den) for _ in range(G.number_of_edges())]


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.4) -> nx.Graph:
    """Random spanning tree plus random extra edges."""
    G = nx.Graph()
    G.add_nodes_from(range(n))
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        G.add_edge(nodes[i], rng.choice(nodes[:i]))
    for a, b in combinations(range(n), 2):
        if not G.has_edge(a, b) and rng.random() < extra_edge_prob:
            G.add_edge(a, b)
    return G


def random_weighted_graph(rng: random.Random, n: int, **kw) -> WeightedRootedGraph:
    G = random_connected_graph(rng, n)
    return nx_to_graph(G, random_weighting(G, rng, **kw), None)


def random_metrizable_graph(rng: random.Random, n: int) -> WeightedRootedGraph:
    """Rejection-sample a strictly metrizable weighted graph."""
    from metric_cluster.metrization import Metrizability, check_metrizable

    while True:
        g = random_weighted_graph(rng, n)
        if check_metrizable(g).classification is Metrizability.METRIZABLE:
            return g


def dominating_rooted_shapes(max_vertices: int = 6):
    """One graph per shape: every graph on <= max_vertices - 1 vertices (up to
    isomorphism, from the atlas) plus a fresh root joined to everything."""
    shapes = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n > max_vertices - 1:
            continue
        names = {node: f"v{i:02d}" for i, node in enumerate(sorted(G.nodes()))}
        vertices = ["root"] + sorted(names.values())
        edges = {("root", nm): Fraction(1) for nm in sorted(names.values())}
        for a, b in G.edges():
            key = tuple(sorted((names[a], names[b])))
            edges[key] = Fraction(1)
        shapes.append(WeightedRootedGraph(vertices, edges, "root"))
    return shapes


def random_dominating_shape(rng: random.Random, n: int, p: float = 0.5) -> WeightedRootedGraph:
    """A root joined to n - 1 further vertices, each pair of which is an edge
    with probability p; unit weights, a shape for weight synthesis."""
    names = ["root"] + [f"v{i:02d}" for i in range(n - 1)]
    edges = {("root", v): Fraction(1) for v in names[1:]}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges[(names[i], names[j])] = Fraction(1)
    return WeightedRootedGraph(names, edges, "root")


def metric_agrees_with_weights(d: DistanceMatrix, g: WeightedRootedGraph) -> bool:
    """True iff d reproduces every edge weight of g exactly."""
    return all(d.get(u, v) == w for (u, v), w in g.weights.items())


def scaled_weights(g: WeightedRootedGraph, factor: Fraction) -> WeightedRootedGraph:
    """g with every edge weight multiplied by factor."""
    return WeightedRootedGraph(g.vertices, {e: w * factor for e, w in g.weights.items()}, g.root)


def line_cloud(positions: dict, depth: int = 24) -> LeveledPointCloud:
    """A closed-form cloud on the line, as measured data is: binary64 levels
    at the scales r_n = 2**(n*n), n = 1..depth, each holding label v at
    r_n * f(n), rounded to binary64, for each v: f of ``positions``, where
    f(n), a Fraction, is v's normalized position x_n / r_n."""
    levels = []
    for n in range(1, depth + 1):
        r = 2 ** (n * n)
        rows = tuple((float(r * f(n)),) for f in positions.values())
        levels.append(CloudLevel(n, float(r), None, tuple(positions), rows))
    return LeveledPointCloud(1, levels)


def line_cluster_by_limits(limits: dict) -> WeightedRootedGraph:
    """The cluster at infinity of a ``line_cloud`` by its definition, from
    the exact limit of each label's normalized position f(n), or None where
    f has none: d(x_n, 0) / r_n = |f(n)| and d(x_n, y_n) / r_n =
    |f_x(n) - f_y(n)| converge to |a| and |a - b| for limits a and b, so the
    root nu0 and the labels with a limit, distinct and nonzero, form the
    complete graph with those weights. A label without a limit has no point
    in the cluster."""
    points = {"nu0": Fraction(0)} | {v: Fraction(a) for v, a in limits.items() if a is not None}
    assert len(set(points.values())) == len(points), "limits must be distinct and nonzero"
    edges = {(u, v): abs(points[u] - points[v]) for u, v in combinations(points, 2)}
    return WeightedRootedGraph(list(points), edges, "nu0")


def halfway_past_binary64() -> WeightedRootedGraph:
    """The edge r-v of weight (2**1024 - 2**969) / 170!: at level 170, of
    scale 170!, its coordinate is r_170 times the weight, halfway between
    the largest binary64 value and 2**1024, and it rounds to infinity; at
    level 169 it is 170 times smaller."""
    return WeightedRootedGraph(["r", "v"], {("r", "v"): Fraction(2**1024 - 2**969, math.factorial(170))}, "r")


def cross_level_separation(cloud: LeveledPointCloud) -> dict[int, float]:
    """Smallest normalized distance between non-basepoint points g levels apart.

    For each gap g returns min over n of min_{x in level n, y in level n+g}
    d(x, y) / r_n, skipping points at the origin. Generated clouds show this
    diverging monotonically once the gap exceeds one level.
    """
    out: dict[int, float] = {}
    for i, lvl in enumerate(cloud.levels):
        xs = [x for x in (point_floats(lvl, row) for row in lvl.rows) if any(x)]
        if not xs:
            continue
        for j in range(i + 1, len(cloud.levels)):
            other = cloud.levels[j]
            ys = [y for y in (point_floats(other, row) for row in other.rows) if any(y)]
            if not ys:
                continue
            gap = j - i
            val = min(sup_distance(x, y) / float(lvl.r_exact) for x in xs for y in ys)
            out[gap] = min(out.get(gap, math.inf), val)
    return out


def assert_two_member_family(g, family) -> None:
    """The realization family of g is (lower, d): d is the shortest-path
    metric, and lower agrees with every edge weight and lies strictly below d
    on every non-edge. A complete graph has the single member (d,). Each
    member is a metric, checked anew on its Fractions, on g's vertices in
    g's order, as generate_cloud reads its rows."""
    d = shortest_path_metric(g)
    assert len(family) == (2 if g.non_edges() else 1)
    for member in family:
        assert member.vertices == g.vertices, "a member not on g's vertices in g's order"
        # construction checks the diagonal, symmetry and the triangle inequality
        assert DistanceMatrix(member.vertices, member.rows).is_metric
    assert family[-1] == d
    lower = family[0]
    assert metric_agrees_with_weights(lower, g)
    for u, v in g.non_edges():
        assert 0 < lower.get(u, v) < d.get(u, v), f"lower member not below d at {(u, v)}"


def moon_moser_parts(n: int) -> list[int]:
    q, r = divmod(n, 3)
    if r == 0:
        return [3] * q
    if r == 1:
        return [3] * (q - 1) + [4]
    return [3] * q + [2]


def complete_multipartite(parts: list[int]):
    """Vertex list and adjacency dict of the complete multipartite graph."""
    vertices = []
    part_of = {}
    for p, size in enumerate(parts):
        for i in range(size):
            name = f"p{p}_{i}"
            vertices.append(name)
            part_of[name] = p
    adj = {
        v: {u for u in vertices if u != v and part_of[u] != part_of[v]}
        for v in vertices
    }
    return vertices, adj


def rooted_extremal_cluster(n: int) -> WeightedRootedGraph:
    """Root joined to a maximal-clique-extremal graph on n vertices."""
    vertices, adj = complete_multipartite(moon_moser_parts(n))
    weights = {}
    for v in vertices:
        weights[("root", v) if "root" < v else (v, "root")] = Fraction(1)
    for u in vertices:
        for v in adj[u]:
            if u < v:
                weights[(u, v)] = Fraction(1)
    return WeightedRootedGraph(vertices + ["root"], weights, "root")


def collinear_k4(a: Fraction, b: Fraction, c: Fraction) -> WeightedRootedGraph:
    """Complete graph of four collinear points 0, a, a+b, a+b+c rooted at 0.

    Every triangle and the outer quadrilateral are tight, and the graph is
    complete, so it certifies; deleting the non-root chord then leaves a
    tight quadrilateral whose vertex set is no longer a clique.
    """
    coords = {"r": Fraction(0), "u": a, "v": a + b, "z": a + b + c}
    weights = {}
    for x, y in combinations(sorted(coords), 2):
        weights[(x, y)] = abs(coords[x] - coords[y])
    return WeightedRootedGraph(list(coords), weights, "r")
