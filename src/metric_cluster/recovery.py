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
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from typing import Optional, Sequence

from .fpc import (
    FAIL_CYCLE_INEQUALITY,
    FAIL_LABELING_NOT_INJECTIVE,
    FAIL_ROOT_NOT_DOMINATING,
    _violations,
)
from .graph_core import GraphError, WeightedRootedGraph, _integer, _over_lcm, _real, _root_labels
from .graph_core import _collection, _spelled
from .metrization import _pinning_edge
from .realization import LeveledPointCloud, sup_distance

DEFAULT_TOL_REL = 1e-6
DEFAULT_TOL_ABS = 1e-9
_TOLERANCE = "tolerances must be finite and non-negative, got {value!r}"
_RADIUS = "radii must be finite and positive, got {value}"
_COORDINATE = "the spread functional needs finite numbers as coordinates, got {value!r}"

_BASE = object()  # sentinel trace for the basepoint (origin at every level)


@dataclass
class RecoveredCluster:
    """Recovered weighted rooted graph, the evidence it was built from (pair
    diagnostics, merged classes, merge and drop logs), its window and tolerances."""

    graph: WeightedRootedGraph
    classes: dict[str, tuple[str, ...]]
    diagnostics: list[dict]
    merge_log: list[str]
    warnings: list[str]
    window: int
    tol_rel: float
    tol_abs: float

    def diagnostics_json_dict(self) -> dict:
        return {
            "window": self.window,
            "classes": {k: list(v) for k, v in self.classes.items()},
            # the root-distance values in vertex order: 0 and the root-edge weights
            "rho0": {v: str(w) for v, w in sorted(_root_labels(self.graph).items())},
            "pairs": self.diagnostics,
            "merge_log": self.merge_log,
            "warnings": self.warnings,
        }


def recover_cluster(
    cloud: LeveledPointCloud,
    tol_rel: float = DEFAULT_TOL_REL,
    tol_abs: float = DEFAULT_TOL_ABS,
    window: Optional[int] = None,
    use_exact: bool = False,
) -> RecoveredCluster:
    """Quotient the cloud's labeled sequences into a weighted rooted graph.

    ``use_exact`` switches all measurements to the rational shadows (when the
    cloud carries them), making edge weights and adjacency decisions exact.
    Exact distances are taken on the integer numerators the cloud holds over
    each level's common denominator q, and every normalized value of the
    window is one integer over one common denominator U. Window sums, spreads
    and every threshold test are then integer arithmetic, with the tolerances
    put over one denominator; Fractions are built only for the edge weights,
    and they equal the exact tail means of d(x_n, y_n)/r_n.
    """
    # exact decisions take the tolerances as rationals, float ones in binary64
    kind = Fraction if use_exact else float
    rel, ab = _real(tol_rel, 0, _TOLERANCE, kind), _real(tol_abs, 0, _TOLERANCE, kind)
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

    tail = cloud.levels[-window:]
    per_level = []
    for lvl in tail:
        pts = cloud.points_by_label(lvl)
        if set(pts) != set(labels):
            missing = sorted(set(labels) - set(pts))
            raise GraphError(f"level {lvl.n} is missing labels {missing}")
        per_level.append((lvl, pts))

    if use_exact:
        if not cloud.has_exact():
            raise GraphError("cloud carries no exact shadows; cannot recover exactly")
        rows = [{lbl: p.exact for lbl, p in pts.items()} for _, pts in per_level]
        # an integer sup distance D is D / q on the level and D / (q * r) normalized;
        # over U, the lcm of the window's q * r.numerator, it is the int D * factor.
        scales = [lvl.q * lvl.r_exact.numerator for lvl, _ in per_level]
        common = math.lcm(*scales)
        units = [lvl.r_exact.denominator * (common // s) for (lvl, _), s in zip(per_level, scales)]

        normalized = operator.mul
        # values are ints over U, window sums over window U (see _zero_gap)
        zero_gap = _zero_gap(tol_rel, tol_abs)

        def half(v):
            return v // 2  # an int is at most v / 2 exactly when at most v // 2

        def beyond_closure(total, base_scale):
            return total > zero_gap(3 * window * base_scale, 3 * window * common)

        def stable(spread, total):
            return spread * window <= zero_gap(total, window * common)

        def mean_fraction(total):
            return Fraction(total, window * common)

    else:
        rows = [{lbl: p.coords for lbl, p in pts.items()} for _, pts in per_level]
        units = [lvl.r for lvl, _ in per_level]
        normalized = operator.truediv
        common = 1

        def half(v):
            return v / 2

        def beyond_closure(total, base_scale):
            return total / window > 3 * (ab + rel * base_scale)

        def stable(spread, total):
            return spread <= ab + rel * (total / window)

        def mean_fraction(total):
            return Fraction(total / window)

    def as_float(x, count=1):
        # int / int rounds correctly, as float(Fraction) does, and raises
        # OverflowError when the rounded value leaves binary64
        try:
            return x / (count * common)
        except OverflowError as exc:
            raise GraphError(
                "a normalized distance that recovery reports does not fit binary64: "
                "the exact coordinates are too large for their scale r_exact"
            ) from exc

    # the basepoint is one more row, at the origin (x - 0 is x - 0.0 for a float x)
    origin = (0,) * cloud.dimension
    for row in rows:
        row[_BASE] = origin
    all_traces = [_BASE] + list(labels)
    values: dict = {}
    for i, x in enumerate(all_traces):
        for y in all_traces[i + 1 :]:
            values[x, y] = values[y, x] = [
                normalized(sup_distance(row[x], row[y]), unit) for row, unit in zip(rows, units)
            ]

    base_scale = max((max(values[_BASE, lbl]) for lbl in labels), default=0)
    # a value is identified with another when it is at most eq_bound, the
    # largest within E = tol_abs + tol_rel * base_scale
    eq_bound = zero_gap(base_scale, common) if use_exact else ab + rel * base_scale
    # an overflowed value makes every tolerance infinite and merges everything;
    # the values are non-negative, so a finite window sum (the tail mean's)
    # means every value is finite too
    if not use_exact and not (
        math.isfinite(eq_bound) and all(math.isfinite(sum(vals)) for vals in values.values())
    ):
        raise GraphError(
            "a normalized distance, its window sum or the identification threshold is not "
            "finite in binary64: a scale r is too small for its coordinates, or two points of "
            "a level lie too far apart"
        )

    merge_log: list[str] = []
    warnings: list[str] = []

    # --- which sequences vanish at the basepoint ---------------------------
    decayed: set = set()
    for lbl in labels:
        vals = values[_BASE, lbl]
        if all(v <= eq_bound for v in vals):
            continue  # equivalence handles it below
        nonincreasing = all(vals[i + 1] <= vals[i] + eq_bound for i in range(len(vals) - 1))
        if nonincreasing and vals[-1] <= half(vals[0]):
            decayed.add(lbl)
            merge_log.append(
                f"{lbl!r} absorbed into the root class: normalized basepoint "
                f"distance decays {as_float(vals[0]):.3g} -> {as_float(vals[-1]):.3g}"
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
            if all(v <= eq_bound for v in values[x, y]):
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
                if beyond_closure(sum(vals), base_scale):
                    raise GraphError(
                        "equivalence closure merged sequences that are not close: "
                        f"{x!r} and {y!r} have mean normalized distance "
                        f"{as_float(sum(vals), window):.3g} > 3x tolerance; "
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
    for i, (name_a, rep_a, _) in enumerate(kept):
        for name_b, rep_b, _ in kept[i + 1 :]:
            vals = values[rep_a, rep_b]
            low, high, total = min(vals), max(vals), sum(vals)
            adjacent = stable(high - low, total)
            diagnostics.append(
                {
                    "pair": f"{name_a}|{name_b}",
                    "spread": as_float(high - low),
                    "liminf_estimate": as_float(low),
                    "limsup_estimate": as_float(high),
                    "mean": as_float(total, window),
                    "adjacent": adjacent,
                }
            )
            if adjacent:
                edges[(name_a, name_b)] = mean_fraction(total)

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
    )


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
    root-distance values are pairwise distinct. Family-period metadata does
    not survive subsampling and is cleared.
    """
    indices = _collection(indices, "level selection must be a sequence of level numbers")
    if not indices:
        raise GraphError("empty level selection")
    idx = [_integer(n, 1, "level numbers are integers from 1, got {value!r}") for n in indices]
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise GraphError("level selection must be strictly increasing")
    available = {lvl.n: lvl for lvl in cloud.levels}
    missing = [n for n in idx if n not in available]
    if missing:
        named = ", ".join(map(_spelled, missing))
        raise GraphError(f"levels [{named}] are not present in the cloud")
    return LeveledPointCloud._of_levels(cloud.dimension, [available[n] for n in idx], None)


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

    min_k d(x_k, p) * prod_{k<l} d(x_k, x_l) / (max_k d(x_k, p))^(n(n-1)/2+1).
    Zero when all points coincide with the basepoint (by convention) or any
    two points coincide. Values near zero for all large tuples indicate the
    space cannot sustain more than n-1 separated directions at infinity.
    A coordinate or a value that is not finite in binary64 is refused with
    ``GraphError``.
    """
    pts = [_coordinates(p) for p in _collection(points, "points must be a sequence of points")]
    n = len(pts)
    if n < 2:
        raise GraphError("the spread functional needs at least 2 points")
    base = _coordinates(basepoint)
    # sup_distance zips coordinates: a short point would be cut silently
    if any(len(p) != len(base) for p in pts):
        raise GraphError(f"every point needs {len(base)} coordinates, as the basepoint has")
    base_dists = [sup_distance(p, base) for p in pts]
    top = max(base_dists)
    if top == 0:
        return 0.0
    # the functional is scale-free: with every distance over top, no power of
    # top is formed, which would leave binary64 at a realized level
    ratios = (sup_distance(a, bb) / top for a, bb in combinations(pts, 2))
    value = min(base_dists) / top * math.prod(ratios)
    if not math.isfinite(value):
        raise GraphError("the spread functional of these points is not finite in binary64")
    return value


def _coordinates(point) -> tuple[float, ...]:
    """A point's coordinates in binary64, as the spread functional reads them."""
    point = _collection(point, "a point must be a sequence of coordinates")
    return tuple(_real(c, -math.inf, _COORDINATE, float) for c in point)


def annulus_diameter_table(
    cloud: LeveledPointCloud, k: float, radii: Sequence[float]
) -> list[dict]:
    """diam(A(p, r, k))/r for each radius r, over all points of the cloud.

    A(p, r, k) is the annulus of points whose basepoint distance lies in
    [r/k, r*k]; an empty or one-point annulus contributes 0. The values
    staying small as r grows (for k near 1) is the finite-scale shadow of the
    sphere-collapse condition; no limit is decided here.
    """
    k = _real(k, 1, "annulus parameter k must be finite and >= 1, got {value}", float)
    pts = [p.coords for lvl in cloud.levels for p in lvl.points]
    origin = (0.0,) * cloud.dimension
    norms = [sup_distance(p, origin) for p in pts]
    table = []
    for radius in _collection(radii, "radii must be a sequence of numbers"):
        r = _real(radius, 0, _RADIUS, float)
        if not r:  # zero, or so small that it rounds to zero
            raise GraphError(_RADIUS.format(value=radius))
        members = [p for p, nrm in zip(pts, norms) if r / k <= nrm <= r * k]
        diam = max((sup_distance(a, bb) for a, bb in combinations(members, 2)), default=0.0)
        table.append({"r": r, "value": diam / r, "points": len(members)})
    return table
