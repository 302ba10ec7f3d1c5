"""Empirical reconstruction of the cluster at infinity from a leveled cloud.

Each label of the cloud is read as a sequence (one point per level). Over the
last ``window`` levels the normalized distances d(x_n, y_n)/r_n are examined:
a pair whose values stay within tolerance of zero is identified, a pair whose
values stabilize (small tail spread) becomes an edge weighted by the tail
mean, and a pair whose values keep oscillating stays non-adjacent. Sequences
whose normalized basepoint distance decays to zero are absorbed into the
basepoint class, which becomes the root of the recovered graph.

Convergence is judged by tail spread, never by fitting limits: at finite
depth the spread is the honest proxy for "the limit exists". The reported
tail minimum/maximum double as lower/upper limit estimates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count
from typing import Optional, Sequence

from .fpc import (
    FAIL_CYCLE_INEQUALITY,
    FAIL_LABELING_NOT_INJECTIVE,
    FAIL_ROOT_NOT_DOMINATING,
    _violations,
)
from .graph_core import GraphError, WeightedRootedGraph, format_rational, _integer, _over_lcm, _real, _root_labels
from .graph_core import _collection, _spelled
from .metrization import _pinning_edge
from .realization import CloudLevel, LeveledPointCloud, sup_distance

DEFAULT_TOL_REL = 1e-6
DEFAULT_TOL_ABS = 1e-9
_TOLERANCE = "tolerances must be finite and non-negative, got {value!r}"
_RADIUS = "radii must be finite and positive, got {value}"
_COORDINATE = "the spread functional needs finite numbers as coordinates, got {value!r}"
_BINARY64 = (
    "a normalized distance that recovery reports does not fit binary64: "
    "a level's coordinates are too large for its scale"
)

_BASE = object()  # sentinel trace for the basepoint (origin at every level)


@dataclass
class RecoveredCluster:
    """Recovered weighted rooted graph, the evidence it was built from (pair
    diagnostics, merged classes, merge and drop logs), its window, its tolerances
    and whether it was decided on exact shadows alone or, exactly, on binary64
    coordinates too."""

    graph: WeightedRootedGraph
    classes: dict[str, tuple[str, ...]]
    diagnostics: list[dict]
    merge_log: list[str]
    warnings: list[str]
    window: int
    tol_rel: float
    tol_abs: float
    _exact: bool = False

    def diagnostics_json_dict(self) -> dict:
        return {
            "window": self.window,
            "tol_rel": _spelled(self.tol_rel),
            "tol_abs": _spelled(self.tol_abs),
            "decided": "on exact shadows" if self._exact else "on binary64 coordinates, exactly",
            "classes": {k: list(v) for k, v in self.classes.items()},
            # the root-distance values in vertex order: 0 and the root-edge weights
            "rho0": {v: format_rational(w) for v, w in sorted(_root_labels(self.graph).items())},
            "pairs": self.diagnostics,
            "merge_log": self.merge_log,
            "warnings": self.warnings,
        }


def recover_cluster(
    cloud: LeveledPointCloud,
    tol_rel: Optional[float] = None,
    tol_abs: Optional[float] = None,
    window: Optional[int] = None,
    use_exact: bool = False,
) -> RecoveredCluster:
    """Quotient the cloud's labeled sequences into a weighted rooted graph.

    Every cloud is decided exactly, on integer coordinates in units of each
    level's scale over one denominator q per level: an exact level's rows,
    which it holds so over its q, and a binary64 level's coordinates, each
    read as the dyadic rational it is, over r read exactly. A normalized
    distance D / q is one integer over U, the least common multiple of the
    window's q; window sums, spreads and every threshold test are integer
    arithmetic, with the tolerances put over one denominator. Fractions are
    built only for the edge weights, and they equal the exact tail means of
    d(x_n, y_n)/r_n. A tolerance left None is 0 when every level is exact
    (``cloud.has_exact()``) and DEFAULT_TOL_REL or DEFAULT_TOL_ABS otherwise;
    the cluster records the values used. ``use_exact`` only refuses a cloud
    with a binary64 level.
    """
    exact = cloud.has_exact()
    if use_exact and not exact:
        raise GraphError("use_exact needs every point's exact shadow and every level's r_exact")
    tol_rel = (0 if exact else DEFAULT_TOL_REL) if tol_rel is None else tol_rel
    tol_abs = (0 if exact else DEFAULT_TOL_ABS) if tol_abs is None else tol_abs
    zero_gap = _zero_gap(tol_rel, tol_abs)
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
    if _integer(window, 1, "window must be positive") > depth:
        raise GraphError(f"window {_spelled(window)} exceeds cloud depth {depth}")
    if cloud.period and window < cloud.period:
        raise GraphError(
            f"window {window} is shorter than the metric-family period {cloud.period}: "
            "oscillation between family members would be undetectable"
        )

    rows = []
    for lvl in cloud.levels[-window:]:
        pts = cloud.points_by_label(lvl)
        if set(pts) != set(labels):
            missing = sorted(set(labels) - set(pts))
            raise GraphError(f"level {lvl.n} is missing labels {missing}")
        rows.append(_level_integers(pts, lvl))
    # a normalized distance D / q is the int D * unit over U, the lcm of the window's q
    common = math.lcm(*(q for _, q in rows))

    def as_float(x, count=1):
        # int / int rounds correctly, as float(Fraction) does, and overflows past binary64
        try:
            return x / (count * common)
        except OverflowError as exc:
            raise GraphError(_BINARY64) from exc

    # the basepoint is one more trace, at the origin, before the labels; each
    # level's pairs are measured in one pass, and each pair's window values
    # are one tuple, kept once, under the pair in trace order
    origin = (0,) * cloud.dimension
    traces = [_BASE, *labels]
    columns = [
        [sup_distance(a, b) * (common // q) for a, b in combinations([origin, *map(row.__getitem__, labels)], 2)]
        for row, q in rows
    ]
    values = dict(zip(combinations(traces, 2), zip(*columns)))
    # on ints, max(vals) <= bound exactly when every value is
    highs = list(map(max, values.values()))

    # every value is an int over U and every window sum one over window U (see
    # _zero_gap); the first pairs are the basepoint's, one per label
    base_scale = max(highs[: len(labels)], default=0)
    # a value is identified with another when it is at most eq_bound, the
    # largest within E = tol_abs + tol_rel * base_scale
    eq_bound = zero_gap(base_scale, common)

    def stable(spread, total):
        return spread * window <= zero_gap(total, window * common)

    merge_log: list[str] = []
    warnings: list[str] = []

    # --- which sequences vanish at the basepoint ---------------------------
    decayed: set = set()
    for lbl, vals, high in zip(labels, values.values(), highs):
        if high <= eq_bound:
            continue  # equivalence handles it below
        nonincreasing = all(vals[i + 1] <= vals[i] + eq_bound for i in range(len(vals) - 1))
        if nonincreasing and 2 * vals[-1] <= vals[0]:
            decayed.add(lbl)
            merge_log.append(
                f"{lbl!r} absorbed into the root class: normalized basepoint "
                f"distance decays {as_float(vals[0]):.3g} -> {as_float(vals[-1]):.3g}"
            )

    # --- equivalence classes ------------------------------------------------
    parent = {t: t for t in traces}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(s, t):
        parent[find(s)] = find(t)

    for (x, y), high in zip(values, highs):
        if high <= eq_bound:
            union(x, y)
    for lbl in decayed:
        union(lbl, _BASE)

    classes_by_root: dict = {}
    for t in traces:
        classes_by_root.setdefault(find(t), []).append(t)

    # Transitive closure must not chain far-apart sequences together. Decayed
    # sequences are exempt: they join the root by trend, not by proximity.
    # Members are in trace order, as the pairs are: only x can be the basepoint.
    for members in classes_by_root.values():
        for x, y in combinations([m for m in members if m not in decayed], 2):
            total = sum(values[x, y])
            if total > zero_gap(3 * window * base_scale, 3 * window * common):
                raise GraphError(
                    "equivalence closure merged sequences that are not close: "
                    f"{'the basepoint' if x is _BASE else repr(x)} and {y!r} have mean normalized distance "
                    f"{as_float(total, window):.3g} > 3x tolerance; "
                    "tolerances are inconsistent with this cloud"
                )

    # --- name classes, pick representatives ---------------------------------
    class_info: list[tuple[str, object, list]] = []  # (name, representative, members)
    for members in classes_by_root.values():
        real = sorted(m for m in members if m is not _BASE)
        if _BASE in members:
            # a bare root class takes the first of nu0, nu1, ... that no label is
            name = real[0] if real else next(f"nu{i}" for i in count() if f"nu{i}" not in labels)
            rep = _BASE  # the origin is the cleanest root representative
        else:
            name = rep = real[0]
        class_info.append((name, rep, real))
    class_info.sort(key=lambda item: item[0])

    # --- drop sequences with no stable normalized basepoint distance --------
    kept: list[tuple[str, object, list]] = []
    for name, rep, members in class_info:
        if rep is not _BASE:
            vals = values[_BASE, rep]
            spread = max(vals) - min(vals)
            if not stable(spread, sum(vals)):
                warnings.append(
                    f"dropped {name!r}: normalized basepoint distance does not "
                    f"stabilize (spread {as_float(spread):.3g})"
                )
                continue
        kept.append((name, rep, members))

    # --- adjacency between classes ------------------------------------------
    root_name = next(name for name, rep, _ in kept if rep is _BASE)
    diagnostics: list[dict] = []
    edges = {}
    for (name_a, rep_a, _), (name_b, rep_b, _) in combinations(kept, 2):
        # label classes sort by representative, in trace order; the root's, _BASE, is the first trace
        vals = values[(rep_b, rep_a) if rep_b is _BASE else (rep_a, rep_b)]
        low, high, total = min(vals), max(vals), sum(vals)
        adjacent = stable(high - low, total)
        try:  # int / int rounds correctly, as float(Fraction) does
            diagnostics.append(
                {
                    "pair": f"{name_a}|{name_b}",
                    "spread": (high - low) / common,
                    "liminf_estimate": low / common,
                    "limsup_estimate": high / common,
                    "mean": total / (window * common),
                    "adjacent": adjacent,
                }
            )
        except OverflowError as exc:
            raise GraphError(_BINARY64) from exc
        if adjacent:
            edges[(name_a, name_b)] = Fraction(total, window * common)

    graph = WeightedRootedGraph([name for name, _, _ in kept], edges, root_name)
    classes = {name: tuple(members) or (name,) for name, _, members in kept}
    return RecoveredCluster(
        graph=graph,
        classes=classes,
        diagnostics=diagnostics,
        merge_log=merge_log,
        warnings=warnings,
        window=window,
        tol_rel=tol_rel,
        tol_abs=tol_abs,
        _exact=exact,
    )


def _level_integers(pts: dict, lvl: CloudLevel) -> tuple[dict, int]:
    """A level's rows by label as integer coordinates in units of its scale
    over one denominator, and that denominator: an exact level's rows over
    its q, and a binary64 level's coordinates x, each read as the rational
    x / r it gives, over their least common denominator."""
    if lvl.r_exact is not None:
        return pts, lvl.q
    scale = Fraction(lvl.r)
    # x = a / b exactly, so x / r = (a * r.den) / (b * r.num)
    ratios = {x: x.as_integer_ratio() for x in set(chain.from_iterable(pts.values()))}
    common = scale.numerator * math.lcm(*{b for _, b in ratios.values()})
    over = {x: a * scale.denominator * (common // (b * scale.numerator)) for x, (a, b) in ratios.items()}
    return {lbl: tuple([over[x] for x in row]) for lbl, row in pts.items()}, common


# ---------------------------------------------------------------------------
# invariants of recovered clusters
# ---------------------------------------------------------------------------


def _zero_gap(tol_rel, tol_abs):
    """The largest gap between integers over q, the larger of them size, that
    lies within tol_abs + tol_rel * size / q: (ab * q + rel * size) // den, with
    the tolerances over one denominator, tol_abs = ab / den, tol_rel = rel / den."""
    den, (rel, ab) = _over_lcm([_real(tol_rel, 0, _TOLERANCE), _real(tol_abs, 0, _TOLERANCE)])
    return lambda size, q: (ab * q + rel * size) // den


def validate_recovered_cluster(rc: RecoveredCluster) -> list[str]:
    """The violations (none when all hold) of ``certify_fpc``'s three conditions, where
    a gap within the cluster's tol_abs + tol_rel * size counts as zero: (i) the root
    dominates and its edges have distinct weights; (ii) every edge ab has
    w(ab) = d(a, b), the shortest-path distance; once (ii) holds, (iii) no
    non-edge has a degenerate admissible interval, reported with the edge that
    pins its lower end. Decided by certification's own routine on its integer
    rows, so at zero tolerances on exact weights this returns [] exactly when
    ``certify_fpc`` passes, and its first text names the condition that
    certification reports. No clique is counted: every graph meets the
    extremal bound on maximal cliques.
    """
    g = rc.graph
    problems: list[str] = []
    for kind, *data in _violations(g, _zero_gap(rc.tol_rel, rc.tol_abs)):
        if kind == FAIL_ROOT_NOT_DOMINATING:
            problems.append(f"root {g.root!r} is not dominating")
        elif kind == FAIL_LABELING_NOT_INJECTIVE:
            problems += [
                f"root-distance values of {u!r} and {v!r} are not distinct beyond tolerance"
                for u, v in data[0]
            ]
        elif kind == FAIL_CYCLE_INEQUALITY:
            sg, a, b, w = data
            vs, scale = sg.vertices, sg.scale
            problems.append(
                f"cycle inequality fails: edge {vs[a]!r}-{vs[b]!r} of weight {w / scale:.6g} "
                f"exceeds their distance by {(w - sg.row(a)[b]) / scale:.3g}"
            )
        else:
            sg, mu, nu, lo, hi = data
            vs, scale = sg.vertices, sg.scale
            edge = lo and _pinning_edge(sg, mu, nu, lo)  # a zero lower end has none
            pin = f", pinned by edge {vs[edge[0]]!r}-{vs[edge[1]]!r}" if edge else ""
            problems.append(
                f"near-tight cycle: non-edge {mu!r}-{nu!r} has admissible interval "
                f"[{lo / scale:.6g}, {hi / scale:.6g}] of width {(hi - lo) / scale:.3g}{pin}"
            )
    return problems


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------


def subsample_levels(cloud: LeveledPointCloud, indices: Sequence[int]) -> LeveledPointCloud:
    """Restrict the cloud to the given level numbers (strictly increasing).

    The recovered cluster of any subsample receives a weight preserving
    homomorphism from the full recovery; it is injective whenever the full
    root-distance values are pairwise distinct. The subsample keeps the
    cloud's period p when its k-th level sits at a position of the cloud
    that is k modulo p, as whole periods in order do, so that each keeps its
    family member; otherwise the period is cleared.
    """
    indices = _collection(indices, "level selection must be a sequence of level numbers")
    if not indices:
        raise GraphError("empty level selection")
    idx = [_integer(n, 1, "level numbers are integers from 1, got {value!r}") for n in indices]
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise GraphError("level selection must be strictly increasing")
    available = {lvl.n: (i, lvl) for i, lvl in enumerate(cloud.levels)}
    missing = [n for n in idx if n not in available]
    if missing:
        named = ", ".join(map(_spelled, missing))
        raise GraphError(f"levels [{named}] are not present in the cloud")
    p = cloud.period
    if p and any(available[n][0] % p != k % p for k, n in enumerate(idx)):
        p = None
    return LeveledPointCloud._of_levels(cloud.dimension, [available[n][1] for n in idx], p)


def alternating_period_indices(cloud: LeveledPointCloud) -> list[int]:
    """Level numbers of every other whole family period (first period kept).

    Keeping whole periods preserves the multiset of family members each pair
    is measured against, so recovery over the subsample reproduces the full
    recovery; this is the residue-safe counterpart of "take every other
    level", which for some family sizes silently drops half the members.
    """
    p = cloud.period or 1
    return [lvl.n for i, lvl in enumerate(cloud.levels) if (i // p) % 2 == 0]


def period_stride_indices(cloud: LeveledPointCloud, offset: int = 0) -> list[int]:
    """Level numbers of a single residue class modulo the family period.

    Recovery over such a subsample sees one fixed family member, so every
    stabilized pair becomes an edge: the recovered graph gains the
    adjacencies the full cluster deliberately lacks.
    """
    if not cloud.period:
        raise GraphError("cloud carries no family-period metadata")
    p = cloud.period
    refusal = f"offset must lie in [0, {p})"
    if _integer(offset, 0, refusal) >= p:
        raise GraphError(refusal)
    return [lvl.n for i, lvl in enumerate(cloud.levels) if i % p == offset]


# ---------------------------------------------------------------------------
# finite-scale diagnostics
# ---------------------------------------------------------------------------


def spread_functional(points: Sequence[Sequence[float]], basepoint: Sequence[float]) -> float:
    """Normalized spread of an n-tuple of points against a basepoint.

    min_k d(x_k, p) * prod_{k<l} d(x_k, x_l) / (max_k d(x_k, p))^(m+1), over
    the m = n(n-1)/2 pairs. Zero when all points coincide with the basepoint
    (by convention) or any two points coincide. Values near zero for all large
    tuples indicate the space cannot sustain more than n-1 separated
    directions at infinity. Read exactly, the value is rounded once, and
    refused with ``GraphError`` past binary64.
    """
    pts = [_coordinates(p) for p in _collection(points, "points must be a sequence of points")]
    if len(pts) < 2:
        raise GraphError("the spread functional needs at least 2 points")
    base = _coordinates(basepoint)
    if not base:
        raise GraphError("the spread functional needs points with at least 1 coordinate")
    # sup_distance zips coordinates: a short point would be cut silently
    if any(len(p) != len(base) for p in pts):
        raise GraphError(f"every point needs {len(base)} coordinates, as the basepoint has")
    q = math.lcm(*(x.denominator for x in chain(base, *pts)))
    base, *rows = [[x.numerator * (q // x.denominator) for x in p] for p in [base, *pts]]
    base_dists = [sup_distance(p, base) for p in rows]
    top = max(base_dists)
    if top == 0:
        return 0.0
    pairs = [sup_distance(a, bb) for a, bb in combinations(rows, 2)]
    try:  # int / int rounds once, as float(Fraction) does
        return min(base_dists) * math.prod(pairs) / top ** (len(pairs) + 1)
    except OverflowError as exc:
        raise GraphError("the spread functional of these points is past binary64") from exc


def _coordinates(point) -> tuple[Fraction, ...]:
    """A point's coordinates, each the rational it is."""
    point = _collection(point, "a point must be a sequence of coordinates")
    return tuple(_real(c, -math.inf, _COORDINATE) for c in point)


def annulus_diameter_table(
    cloud: LeveledPointCloud, k: float, radii: Sequence[float]
) -> list[dict]:
    """diam(A(p, r, k))/r for each radius r, over all points of the cloud.

    A(p, r, k) is the annulus of points whose basepoint distance lies in
    [r/k, r*k]; an empty or one-point annulus contributes 0. The values
    staying small as r grows (for k near 1) is the finite-scale shadow of the
    sphere-collapse condition; no limit is decided here. ``k``, the radii and
    the coordinates are read exactly, and a row's ``r`` is its radius as a
    Fraction. A ratio is rounded once, and refused with ``GraphError`` past
    binary64, which only a k past it allows.
    """
    k = _real(k, 1, "annulus parameter k must be finite and >= 1, got {value}")
    # recovery reads a level's coordinates as ints a over q in units of its scale s,
    # so a coordinate is a times s / q, and with each s / q over one lcm, an int
    read = [_level_integers(dict(enumerate(lvl.rows)), lvl) for lvl in cloud.levels]
    common, units = _over_lcm([(lvl.r_exact or Fraction(lvl.r)) / (q or 1) for lvl, (_, q) in zip(cloud.levels, read)])
    pts = [[a * unit for a in row] for unit, (rows, _) in zip(units, read) for row in rows.values()]
    # the points in order of their norms, so that each annulus is a slice
    norms, pts = zip(*sorted((max(map(abs, p)), p) for p in pts))
    table = []
    for radius in _collection(radii, "radii must be a sequence of numbers"):
        r = _real(radius, 0, _RADIUS)
        if not r:
            raise GraphError(_RADIUS.format(value=radius))
        low, high = math.ceil(r * common / k), math.floor(r * common * k)
        members = pts[bisect_left(norms, low) : bisect_right(norms, high)]
        # a sup-norm diameter is the widest range of one coordinate
        diam = max((max(column) - min(column) for column in zip(*members)), default=0)
        try:
            table.append({"r": r, "value": diam * r.denominator / (r.numerator * common), "points": len(members)})
        except OverflowError as exc:
            raise GraphError(f"the annulus diameter ratio at radius {_spelled(r)} is past binary64") from exc
    return table
