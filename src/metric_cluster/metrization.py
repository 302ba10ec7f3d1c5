"""Turning weighted graphs into exact (pseudo)metrics.

Shortest-path pseudometric, the metrizability decision, admissible distance
intervals for non-adjacent pairs, the completion that adds forced distances
as edges, and the circle/line embeddings of weighted cycles. Every comparison
in this module is an exact rational comparison; there are no tolerances here,
because the interesting boundary cases are exact equalities.
"""

from __future__ import annotations

import enum
import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph_core import (
    Cycle,
    GraphError,
    WeightedRootedGraph,
    format_rational,
    parse_rational,
)


class DistanceMatrix:
    """Exact symmetric matrix of pairwise distances on a finite vertex set.

    Validates the pseudometric axioms on construction (zero diagonal,
    symmetry, triangle inequality over every triple). ``is_metric`` reports
    whether the off-diagonal entries are additionally strictly positive.
    """

    def __init__(self, vertices, rows, validate: bool = True):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("distance matrix vertices must be distinct")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GraphError("distance matrix must be square")
        self.rows: list[list[Fraction]] = [[parse_rational(x) for x in r] for r in rows]
        if validate:
            self.validate()

    def validate(self) -> None:
        n = len(self.vertices)
        for i in range(n):
            if self.rows[i][i] != 0:
                raise GraphError(f"nonzero diagonal at {self.vertices[i]!r}")
            for j in range(i + 1, n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise GraphError(
                        f"asymmetry at ({self.vertices[i]!r},{self.vertices[j]!r})"
                    )
                if self.rows[i][j] < 0:
                    raise GraphError(
                        f"negative distance at ({self.vertices[i]!r},{self.vertices[j]!r})"
                    )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.rows[i][j] > self.rows[i][k] + self.rows[k][j]:
                        raise GraphError(
                            "triangle inequality fails for "
                            f"({self.vertices[i]!r},{self.vertices[j]!r},{self.vertices[k]!r})"
                        )

    @property
    def is_metric(self) -> bool:
        n = len(self.vertices)
        return all(self.rows[i][j] > 0 for i in range(n) for j in range(i + 1, n))

    def get(self, u: str, v: str) -> Fraction:
        return self.rows[self._index[u]][self._index[v]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DistanceMatrix)
            and self.vertices == other.vertices
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"DistanceMatrix({len(self.vertices)} points)"

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "matrix": [[format_rational(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DistanceMatrix":
        try:
            vertices, rows = data["vertices"], data["matrix"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"distance matrix JSON is missing field: {exc}") from exc
        # points are ordered as strings; other JSON values do not compare
        if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)):
            raise GraphError("distance matrix JSON vertices must be a list of strings")
        try:
            return cls(vertices, rows)
        except TypeError as exc:
            raise GraphError(f"distance matrix JSON matrix must be a list of rows: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DistanceMatrix":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class IntervalQ:
    """Closed rational interval of admissible distances for a vertex pair."""

    lo: Fraction
    hi: Fraction

    def contains(self, t: Fraction) -> bool:
        return self.lo <= t <= self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class Metrizability(enum.Enum):
    METRIZABLE = "metrizable"
    PSEUDOMETRIZABLE_ONLY = "pseudometrizable_only"
    NOT_PSEUDOMETRIZABLE = "not_pseudometrizable"


@dataclass
class MetrizabilityVerdict:
    classification: Metrizability
    witness_cycle: Optional[Cycle] = None
    zero_weight_edge: Optional[tuple[str, str]] = None

    @property
    def metrizable(self) -> bool:
        return self.classification is Metrizability.METRIZABLE

    def to_json_dict(self) -> dict:
        out: dict = {"classification": self.classification.value}
        if self.witness_cycle is not None:
            out["witness_cycle"] = {
                "vertices": list(self.witness_cycle.vertices),
                "weights": [format_rational(w) for w in self.witness_cycle.weights],
            }
        if self.zero_weight_edge is not None:
            out["zero_weight_edge"] = list(self.zero_weight_edge)
        return out


# ---------------------------------------------------------------------------
# shortest-path pseudometric
# ---------------------------------------------------------------------------


def _dijkstra(
    g: WeightedRootedGraph, source: str
) -> tuple[dict[str, Fraction], dict[str, str]]:
    """Exact distances from source, and each reached vertex's predecessor on
    one shortest path (the tree that ``_path`` walks)."""
    dist: dict[str, Fraction] = {source: Fraction(0)}
    prev: dict[str, str] = {}
    heap: list[tuple[Fraction, str]] = [(Fraction(0), source)]
    done: set[str] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in g._adj[u]:
            nd = d + g.weight(u, v)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def _path(prev: dict[str, str], source: str, target: str) -> tuple[str, ...]:
    """The source-target path of a shortest-path tree."""
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def shortest_path_metric(g: WeightedRootedGraph) -> DistanceMatrix:
    """Exact all-pairs shortest-path pseudometric of a connected graph."""
    g.require_connected()
    rows = []
    for u in g.vertices:
        dist = _dijkstra(g, u)[0]
        rows.append([dist[v] for v in g.vertices])
    # Dijkstra output satisfies the axioms by construction; skip the O(n^3) recheck.
    return DistanceMatrix(g.vertices, rows, validate=False)


# ---------------------------------------------------------------------------
# metrizability
# ---------------------------------------------------------------------------


def _classify(g: WeightedRootedGraph, dist) -> MetrizabilityVerdict:
    """Metrizability of g from its shortest-path pseudometric, read through
    ``dist(u, v)``.

    An edge heavier than d between its endpoints closes, with the shortest
    detour around it, a cycle violating the cycle inequality; conversely any
    violating cycle contains such an edge (its heaviest one). So the cycle
    condition holds iff every edge weight equals d. Edges are checked in
    sorted order and the first heavy one decides, so ``dist`` is asked only
    for rows up to it.
    """
    for (u, v), w in sorted(g.weights.items()):
        if w > dist(u, v):
            prev = _dijkstra(g.without_edge(u, v), u)[1]
            cycle = Cycle.from_graph(g, _path(prev, u, v))
            # path closes with edge {u,v}; re-check the violation exactly
            assert not cycle.satisfies_cycle_inequality()
            return MetrizabilityVerdict(
                Metrizability.NOT_PSEUDOMETRIZABLE, witness_cycle=cycle
            )
    for (u, v), w in sorted(g.weights.items()):
        if w == 0:
            return MetrizabilityVerdict(
                Metrizability.PSEUDOMETRIZABLE_ONLY, zero_weight_edge=(u, v)
            )
    return MetrizabilityVerdict(Metrizability.METRIZABLE)


def check_metrizable(g: WeightedRootedGraph) -> MetrizabilityVerdict:
    """Decide metrizability in polynomial time from the shortest-path metric,
    with a violating cycle as witness.

    Sorted edges come grouped by their smaller endpoint u, so one Dijkstra
    row from u is run when its first edge comes up, and a graph that is not
    metrizable stops at its first heavy edge without the rows after it.
    """
    g.require_connected()
    rows: dict[str, dict[str, Fraction]] = {}

    def dist(u: str, v: str) -> Fraction:
        if u not in rows:
            rows[u] = _dijkstra(g, u)[0]
        return rows[u][v]

    return _classify(g, dist)


def require_metrizable(g: WeightedRootedGraph) -> DistanceMatrix:
    """The shortest-path metric of g; GraphError unless g is metrizable."""
    d = shortest_path_metric(g)
    verdict = _classify(g, d.get)
    if not verdict.metrizable:
        raise GraphError(f"graph is not metrizable ({verdict.classification.value})")
    return d


# ---------------------------------------------------------------------------
# admissible intervals and extensions
# ---------------------------------------------------------------------------


def _interval(g: WeightedRootedGraph, d: DistanceMatrix, mu: str, nu: str):
    """Admissible interval of a non-edge of a metrizable graph with metric d,
    and the oriented edge (a, b) whose slack sets a positive lower end.

    The upper end is d(mu, nu). The lower end is the largest slack
    w(ab) - d(mu, a) - d(b, nu) over edges ab in both orientations, or 0:
    the triangle inequality along mu..a, ab, b..nu makes it necessary, and
    when it is positive the three pieces form a simple path (a shared vertex
    would give a route from a to b shorter than the edge ab), so it is attained.
    """
    if mu not in g._adj or nu not in g._adj:
        raise GraphError(f"{mu!r} and {nu!r} must both be vertices of the graph")
    if g.has_edge(mu, nu):
        raise GraphError(f"{mu!r} and {nu!r} are adjacent; interval applies to non-edges")
    index = d._index
    from_mu, from_nu = d.rows[index[mu]], d.rows[index[nu]]
    lo, edge = Fraction(0), None
    for (x, y), w in sorted(g.weights.items()):
        for a, b in ((x, y), (y, x)):
            slack = w - from_mu[index[a]] - from_nu[index[b]]
            if slack > lo:
                lo, edge = slack, (a, b)
    return IntervalQ(lo, from_mu[index[nu]]), edge


def _tight_cycle(g: WeightedRootedGraph, mu: str, nu: str, edge) -> Cycle:
    """The cycle a..mu..nu..b closed by the edge (a, b) that pins the
    degenerate interval of (mu, nu), built from three shortest paths.

    It is tight because w(ab) = d(a, mu) + d(mu, nu) + d(nu, b), and simple
    on positive weights by the argument in ``_interval``.
    """
    a, b = edge
    from_mu = _dijkstra(g, mu)[1]
    from_nu = _dijkstra(g, nu)[1]
    order = _path(from_mu, mu, a)[::-1] + _path(from_mu, mu, nu)[1:] + _path(from_nu, nu, b)[1:]
    return Cycle.from_graph(g, order)


def _extension(d: DistanceMatrix, mu: str, nu: str, t: Fraction) -> DistanceMatrix:
    """Shortest-path metric of the graph behind d with the edge {mu, nu} of
    weight t added: a shortest path uses the new edge at most once."""
    i, j = d._index[mu], d._index[nu]
    from_mu, from_nu = d.rows[i], d.rows[j]
    out = []
    for row in d.rows:
        via_mu, via_nu = row[i] + t, row[j] + t
        out.append(
            [min(direct, via_mu + nu_y, via_nu + mu_y)
             for direct, nu_y, mu_y in zip(row, from_nu, from_mu)]
        )
    return DistanceMatrix(d.vertices, out, validate=False)


def admissible_interval(g: WeightedRootedGraph, mu: str, nu: str) -> IntervalQ:
    """Exact interval of values a metric extension may assign to a non-edge.

    Equal, over every simple mu-nu path P, to [largest positive part of
    (2 * heaviest edge of P - length of P), smallest length of P]; computed
    from the shortest-path metric (see ``_interval``).
    """
    return _interval(g, require_metrizable(g), mu, nu)[0]


def extend_metric(g: WeightedRootedGraph, mu: str, nu: str, t) -> DistanceMatrix:
    """A metric agreeing with the weights and assigning exactly t to (mu, nu).

    Realized as the shortest-path metric of the graph augmented with the edge
    {mu, nu} of weight t; admissible iff t > 0 and t lies in the pair's
    admissible interval.
    """
    t = parse_rational(t)
    d = require_metrizable(g)
    interval = _interval(g, d, mu, nu)[0]
    if t <= 0:
        raise GraphError(f"extension value must be positive, got {t}")
    if not interval.contains(t):
        raise GraphError(
            f"value {t} for ({mu!r},{nu!r}) lies outside the admissible interval {interval}"
        )
    return _extension(d, mu, nu, t)


def unique_pairs(g: WeightedRootedGraph) -> tuple[tuple[str, str], ...]:
    """Non-adjacent pairs whose distance is the same in every metric extension.

    Exactly the pairs with a degenerate admissible interval.
    """
    d = require_metrizable(g)
    return tuple(p for p in g.non_edges() if _interval(g, d, *p)[0].degenerate)


def forced_completion(g: WeightedRootedGraph) -> WeightedRootedGraph:
    """Single-pass completion: add each unique pair as an edge with its forced weight."""
    d = require_metrizable(g)
    out = g
    for u, v in g.non_edges():
        interval = _interval(g, d, u, v)[0]
        if interval.degenerate:
            out = out.with_edge(u, v, interval.lo)
    return out


def is_between(d: DistanceMatrix, x: str, y: str, z: str) -> bool:
    """True iff y lies metrically between x and z: d(x,z) == d(x,y) + d(y,z)."""
    if len({x, y, z}) != 3:
        raise GraphError("betweenness needs three pairwise distinct points")
    return d.get(x, z) == d.get(x, y) + d.get(y, z)


# ---------------------------------------------------------------------------
# cycle embeddings
# ---------------------------------------------------------------------------


def embed_cycle_on_circle(cycle: Cycle) -> tuple[dict[str, Fraction], DistanceMatrix]:
    """Place a metrizable weighted cycle on a circle of matching circumference.

    Positions are cumulative arc lengths along the cycle order; the returned
    matrix is the minor-arc metric, which agrees with the edge weights.
    """
    if any(w <= 0 for w in cycle.weights):
        raise GraphError("circle embedding needs strictly positive weights")
    total = cycle.total_weight()
    if not cycle.satisfies_cycle_inequality():
        raise GraphError(
            f"cycle is not metrizable: 2*{cycle.max_weight()} > {total}"
        )
    positions: dict[str, Fraction] = {}
    s = Fraction(0)
    for v, w in zip(cycle.vertices, cycle.weights):
        positions[v] = s
        s += w
    verts = sorted(cycle.vertices)
    rows = []
    for u in verts:
        row = []
        for v in verts:
            gap = abs(positions[u] - positions[v])
            row.append(min(gap, total - gap))
        rows.append(row)
    return positions, DistanceMatrix(verts, rows, validate=False)


def embed_tight_cycle_on_line(cycle: Cycle) -> dict[str, Fraction]:
    """Unfold a tight cycle onto the rational line.

    Only valid in the equality case (twice the heaviest edge equals the total
    length); then the heaviest edge is unique, the line distances realize all
    edge weights, and the embedding is isometric to the circle one. Starts at
    the lexicographically smaller endpoint of the heaviest edge, at 0.
    """
    if any(w <= 0 for w in cycle.weights):
        raise GraphError("line embedding needs strictly positive weights")
    if not cycle.satisfies_cycle_inequality():
        raise GraphError("cycle is not metrizable")
    if not cycle.is_tight():
        raise GraphError(
            "cycle is not tight (strict inequality): use the circle embedding instead"
        )
    n = len(cycle.vertices)
    k = cycle.weights.index(cycle.max_weight())
    a, b = cycle.vertices[k], cycle.vertices[(k + 1) % n]
    # Walk the non-heaviest arc from one endpoint of the heaviest edge.
    if a < b:
        arc = [cycle.vertices[(k + 1 + i) % n] for i in range(n)]  # b .. a
        arc.reverse()  # a first, reaching b along the light arc
        weights_along = [cycle.weights[(k + 1 + i) % n] for i in range(n - 1)]
        weights_along.reverse()
        start = a
    else:
        arc = [cycle.vertices[(k + 1 + i) % n] for i in range(n)]  # b, ..., a
        weights_along = [cycle.weights[(k + 1 + i) % n] for i in range(n - 1)]
        start = b
    coords: dict[str, Fraction] = {start: Fraction(0)}
    s = Fraction(0)
    for v, w in zip(arc[1:], weights_along):
        s += w
        coords[v] = s
    return coords


def line_distance_matrix(coords: dict[str, Fraction]) -> DistanceMatrix:
    verts = sorted(coords)
    rows = [[abs(coords[u] - coords[v]) for v in verts] for u in verts]
    return DistanceMatrix(verts, rows, validate=False)


def cycle_from_graph(g: WeightedRootedGraph) -> Cycle:
    """Interpret a graph that is exactly one cycle as a Cycle value.

    Orientation is canonical: start at the least vertex, walk toward its
    lesser neighbor.
    """
    g.require_connected()
    if len(g) < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    for v in g.vertices:
        if len(g._adj[v]) != 2:
            raise GraphError(f"vertex {v!r} has degree {len(g._adj[v])}, expected 2")
    start = g.vertices[0]
    first = min(g._adj[start])
    order = [start, first]
    while True:
        nxt = [x for x in g._adj[order[-1]] if x != order[-2]][0]
        if nxt == start:
            break
        order.append(nxt)
    return Cycle.from_graph(g, order)


def metric_agrees_with_weights(d: DistanceMatrix, g: WeightedRootedGraph) -> bool:
    """True iff d reproduces every edge weight of g exactly."""
    return all(d.get(u, v) == w for (u, v), w in g.weights.items())
