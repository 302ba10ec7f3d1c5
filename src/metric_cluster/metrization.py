"""Turning weighted graphs into exact (pseudo)metrics.

Shortest-path pseudometric, the metrizability decision, admissible distance
intervals for non-adjacent pairs, the completion that adds forced distances
as edges, and the circle/line embeddings of weighted cycles. Every comparison
in this module is exact; there are no tolerances here, because the
interesting boundary cases are exact equalities. The decisions (the cycle
inequality, degenerate intervals, extensions) run on integer numerators over
L, the least common multiple of the weight denominators: every weight and
shortest-path distance is an integer multiple of 1/L. A ``DistanceMatrix``
keeps the same layout, integer numerators over its least common denominator;
Fractions are built only when a value is handed out (``DistanceMatrix.rows``
and ``get``, ``IntervalQ``).
"""

from __future__ import annotations

import enum
import heapq
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Optional

from .graph_core import Cycle, GraphError, WeightedRootedGraph, format_rational, parse_rational
from .graph_core import _collection, _format_over, _in_lowest_terms, _json_document, _not_an_id, _over_lcm


class DistanceMatrix:
    """Exact symmetric matrix of pairwise distances on a finite vertex set.

    Held as integer numerators over the least common denominator of the
    entries, as a cloud level holds its shadows; ``rows`` and ``get`` build
    the Fractions. A matrix built from outside data is validated against
    the pseudometric axioms (zero diagonal, symmetry, triangle inequality
    over every triple). ``is_metric`` reports whether the off-diagonal
    entries are additionally strictly positive.
    """

    def __init__(self, vertices, rows):
        refusal = "distance matrix vertices must be a list of strings"
        self.vertices: tuple[str, ...] = tuple(_collection(vertices, refusal, list))
        if not all(map(isinstance, self.vertices, repeat(str))):  # points become graph vertex ids
            raise GraphError(f"{refusal}: {_not_an_id(*self.vertices)}")
        refusal = "distance matrix must be a list of rows, each a list"
        rows = [_collection(row, refusal, list) for row in _collection(rows, refusal, list)]
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("distance matrix vertices must be distinct")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GraphError("distance matrix must be square")
        # the lcm of reduced denominators leaves no factor to divide out
        self._q, flat = _over_lcm([parse_rational(x) for r in rows for x in r])
        self._num = [tuple(flat[i * n:(i + 1) * n]) for i in range(n)]
        self.validate()

    @classmethod
    def _from_numerators(cls, vertices, numerators: list[list[int]], q: int) -> "DistanceMatrix":
        """The matrix numerators / q, unchecked: for a matrix that is a
        pseudometric by construction."""
        d = cls.__new__(cls)
        d.vertices = tuple(vertices)
        d._index = {v: i for i, v in enumerate(d.vertices)}
        d._q, d._num = _in_lowest_terms(q, list(map(tuple, numerators)))
        return d

    @property
    def rows(self) -> list[list[Fraction]]:
        return [[Fraction(a, self._q) for a in row] for row in self._num]

    def validate(self) -> None:
        n, m = len(self.vertices), self._num
        for i in range(n):
            if m[i][i] != 0:
                raise GraphError(f"nonzero diagonal at {self.vertices[i]!r}")
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise GraphError(
                        f"asymmetry at ({self.vertices[i]!r},{self.vertices[j]!r})"
                    )
                if m[i][j] < 0:
                    raise GraphError(
                        f"negative distance at ({self.vertices[i]!r},{self.vertices[j]!r})"
                    )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if m[i][j] > m[i][k] + m[k][j]:
                        raise GraphError(
                            "triangle inequality fails for "
                            f"({self.vertices[i]!r},{self.vertices[j]!r},{self.vertices[k]!r})"
                        )

    @property
    def is_metric(self) -> bool:
        n = len(self.vertices)
        return all(self._num[i][j] > 0 for i in range(n) for j in range(i + 1, n))

    def get(self, u: str, v: str) -> Fraction:
        try:
            return Fraction(self._num[self._index[u]][self._index[v]], self._q)
        except (KeyError, TypeError):  # no such key, or an unhashable one
            raise GraphError(f"{u!r} and {v!r} are not both points of the matrix") from None

    def __eq__(self, other) -> bool:
        # both in lowest terms: equal values have equal q and numerators
        return (
            isinstance(other, DistanceMatrix)
            and self.vertices == other.vertices
            and self._q == other._q
            and self._num == other._num
        )

    def __repr__(self) -> str:
        return f"DistanceMatrix({len(self.vertices)} points)"

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "matrix": [_format_over(row, self._q) for row in self._num],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DistanceMatrix":
        try:
            vertices, rows = data["vertices"], data["matrix"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"distance matrix JSON is missing field: {exc}") from exc
        return cls(vertices, rows)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DistanceMatrix":
        return cls.from_json_dict(_json_document(text, "distance matrix JSON"))


@dataclass(frozen=True)
class IntervalQ:
    """Closed rational interval of admissible distances for a vertex pair."""

    lo: Fraction
    hi: Fraction

    def contains(self, t: Fraction) -> bool:
        return self.lo <= t <= self.hi

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


class _ScaledGraph:
    """The shortest-path primitive: edges (i, j, w) on vertex indices (the
    order of ``vertices``), each w an integer over ``scale``, so that sums and
    comparisons of distances are exact on Python ints. ``of(g)`` scales a
    connected graph's sorted edges, i < j, by the lcm of their denominators.

    ``row(i)``, the distances from vertex i, runs on first use and keeps its
    shortest-path tree, which ``path(i, j)`` walks; ``slack(i)`` holds, for
    each vertex b, the largest w(ab) - d(i, a) over the edges ab at b.
    """

    def __init__(self, vertices, edges, scale: int):
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self.edges = edges
        self.scale = scale
        self.adj: list[list[tuple[int, int]]] = [[] for _ in vertices]
        for i, j, w in edges:
            self.adj[i].append((j, w))
            self.adj[j].append((i, w))
        self._runs: list[Optional[tuple[list, list]]] = [None] * len(vertices)  # (row, tree)
        self._slacks: list[Optional[list[int]]] = [None] * len(vertices)

    @classmethod
    def of(cls, g: WeightedRootedGraph) -> "_ScaledGraph":
        g.require_connected()
        index = {v: i for i, v in enumerate(g.vertices)}
        pairs = sorted(g.weights)
        scale, scaled = _over_lcm([g.weights[e] for e in pairs])
        return cls(g.vertices, [(index[u], index[v], w) for (u, v), w in zip(pairs, scaled)], scale)

    def row(self, i: int) -> list[int]:
        if self._runs[i] is None:
            self._runs[i] = _dijkstra(self.adj, i)
        return self._runs[i][0]

    def path(self, i: int, j: int) -> list[int]:
        """The vertex indices of the i-j path in row i's shortest-path tree."""
        self.row(i)
        prev, path = self._runs[i][1], [j]
        while path[-1] != i:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def slack(self, i: int) -> list[int]:
        if self._slacks[i] is None:
            d = self.row(i)
            # no slack is below -max(d), and in a connected graph each vertex has an edge
            s = [-max(d)] * len(d)
            for a, b, w in self.edges:
                x = w - d[a]
                if x > s[b]:
                    s[b] = x
                x = w - d[b]
                if x > s[a]:
                    s[a] = x
            self._slacks[i] = s
        return self._slacks[i]

    def matrix(self) -> DistanceMatrix:
        rows = [self.row(i) for i in range(len(self.vertices))]
        return DistanceMatrix._from_numerators(self.vertices, rows, self.scale)


def _dijkstra(adj, source: int) -> tuple[list, list]:
    """Integer distances from source over an index adjacency list, and each
    reached vertex's predecessor on one shortest path."""
    n = len(adj)
    dist: list = [None] * n
    prev: list = [None] * n
    done = [False] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def shortest_path_metric(g: WeightedRootedGraph) -> DistanceMatrix:
    """Exact all-pairs shortest-path pseudometric of a connected graph."""
    return _ScaledGraph.of(g).matrix()


# ---------------------------------------------------------------------------
# metrizability
# ---------------------------------------------------------------------------


def _classify(g: WeightedRootedGraph, sg: _ScaledGraph) -> MetrizabilityVerdict:
    """Metrizability of g from its scaled shortest-path rows.

    An edge heavier than d between its endpoints closes, with the shortest
    detour around it, a cycle violating the cycle inequality; conversely any
    violating cycle contains such an edge (its heaviest one). So the cycle
    condition holds iff every edge weight equals d. Sorted edges come grouped
    by their smaller endpoint and the first heavy one decides, so only the
    rows up to it are run.
    """
    for i, j, w in sg.edges:
        if w > sg.row(i)[j]:
            return MetrizabilityVerdict(
                Metrizability.NOT_PSEUDOMETRIZABLE, witness_cycle=_detour_cycle(g, sg, i, j)
            )
    for i, j, w in sg.edges:
        if w == 0:
            return MetrizabilityVerdict(
                Metrizability.PSEUDOMETRIZABLE_ONLY,
                zero_weight_edge=(sg.vertices[i], sg.vertices[j]),
            )
    return MetrizabilityVerdict(Metrizability.METRIZABLE)


def _detour_cycle(g: WeightedRootedGraph, sg: _ScaledGraph, i: int, j: int) -> Cycle:
    """The edge ij, heavier than d(i, j), closed by its shortest detour."""
    detours = _ScaledGraph(sg.vertices, [e for e in sg.edges if e[:2] != (i, j)], sg.scale)
    cycle = Cycle.from_graph(g, [sg.vertices[k] for k in detours.path(i, j)])
    # path closes with edge {i,j}; re-check the violation exactly
    assert not cycle.satisfies_cycle_inequality()
    return cycle


def check_metrizable(g: WeightedRootedGraph) -> MetrizabilityVerdict:
    """Decide metrizability in polynomial time from the shortest-path metric,
    with a violating cycle as witness; a graph that is not metrizable stops
    at its first heavy edge without the Dijkstra rows after it."""
    return _classify(g, _ScaledGraph.of(g))


def _metrizable(g: WeightedRootedGraph) -> _ScaledGraph:
    """g scaled to integers; GraphError unless g is metrizable."""
    sg = _ScaledGraph.of(g)
    verdict = _classify(g, sg)
    if not verdict.metrizable:
        raise GraphError(f"graph is not metrizable ({verdict.classification.value})")
    return sg


def require_metrizable(g: WeightedRootedGraph) -> DistanceMatrix:
    """The shortest-path metric of g; GraphError unless g is metrizable."""
    return _metrizable(g).matrix()


# ---------------------------------------------------------------------------
# admissible intervals and extensions
# ---------------------------------------------------------------------------


def _interval(sg: _ScaledGraph, mu: str, nu: str) -> tuple[int, int]:
    """Scaled admissible interval (lo, hi) of a non-edge of a metrizable graph.

    The upper end is d(mu, nu). The lower end is the largest slack
    w(ab) - d(mu, a) - d(b, nu) over edges ab in both orientations, or 0:
    the triangle inequality along mu..a, ab, b..nu makes it necessary, and
    when it is positive the three pieces form a simple path (a shared vertex
    would give a route from a to b shorter than the edge ab), so it is attained.
    Grouped by b, it is the max-plus product max_b [slack(mu)[b] - d(b, nu)].
    """
    from_nu = sg.row(sg.index[nu])
    lo = max(0, max(map(operator.sub, sg.slack(sg.index[mu]), from_nu)))
    return lo, from_nu[sg.index[mu]]


def _pinning_edge(sg: _ScaledGraph, mu: str, nu: str, lo: int) -> tuple[int, int]:
    """The first oriented edge (a, b), as vertex indices in sorted edge
    order, whose slack w(ab) - d(mu, a) - d(b, nu) is the lower end lo > 0."""
    from_mu, from_nu = sg.row(sg.index[mu]), sg.row(sg.index[nu])
    for a, b, w in sg.edges:
        if w - from_mu[a] - from_nu[b] == lo:
            return a, b
        if w - from_mu[b] - from_nu[a] == lo:
            return b, a


def _tight_cycle(g: WeightedRootedGraph, sg: _ScaledGraph, mu: str, nu: str, lo: int) -> Cycle:
    """The cycle a..mu..nu..b closed by the edge (a, b) that pins the
    degenerate interval [lo, lo] of (mu, nu), built from three shortest paths
    in the trees of the rows ``_interval`` ran.

    It is tight because w(ab) = d(a, mu) + d(mu, nu) + d(nu, b), and simple
    on positive weights by the argument in ``_interval``.
    """
    a, b = _pinning_edge(sg, mu, nu, lo)
    i, j = sg.index[mu], sg.index[nu]
    order = sg.path(i, a)[::-1] + sg.path(i, j)[1:] + sg.path(j, b)[1:]
    return Cycle.from_graph(g, [sg.vertices[k] for k in order])


def _admissible(g: WeightedRootedGraph, mu: str, nu: str) -> tuple[_ScaledGraph, IntervalQ]:
    sg = _metrizable(g)
    if mu not in g._adj or nu not in g._adj:
        raise GraphError(f"{mu!r} and {nu!r} must both be vertices of the graph")
    if g.has_edge(mu, nu):
        raise GraphError(f"{mu!r} and {nu!r} are adjacent; interval applies to non-edges")
    lo, hi = _interval(sg, mu, nu)
    return sg, IntervalQ(Fraction(lo, sg.scale), Fraction(hi, sg.scale))


def admissible_interval(g: WeightedRootedGraph, mu: str, nu: str) -> IntervalQ:
    """Exact interval of values a metric extension may assign to a non-edge.

    Equal, over every simple mu-nu path P, to [largest positive part of
    (2 * heaviest edge of P - length of P), smallest length of P]; computed
    from the shortest-path metric (see ``_interval``).
    """
    return _admissible(g, mu, nu)[1]


def extend_metric(g: WeightedRootedGraph, mu: str, nu: str, t) -> DistanceMatrix:
    """A metric agreeing with the weights and assigning exactly t to (mu, nu).

    Realized as the shortest-path metric of the graph augmented with the edge
    {mu, nu} of weight t; admissible iff t > 0 and t lies in the pair's
    admissible interval.
    """
    t = parse_rational(t)
    sg, interval = _admissible(g, mu, nu)
    if t <= 0:
        raise GraphError(f"extension value must be positive, got {t}")
    if not interval.contains(t):
        raise GraphError(
            f"value {t} for ({mu!r},{nu!r}) lies outside the admissible interval {interval}"
        )
    # over the denominator q * scale, t = p/q is the integer p * scale
    q = t.denominator
    edges = [(i, j, q * w) for i, j, w in sg.edges]
    edges.append((sg.index[mu], sg.index[nu], t.numerator * sg.scale))
    return _ScaledGraph(sg.vertices, edges, q * sg.scale).matrix()


def _forced_distances(g: WeightedRootedGraph) -> list[tuple[tuple[str, str], Fraction]]:
    """Each non-edge with a degenerate admissible interval, and its distance."""
    sg = _metrizable(g)
    forced = []
    for u, v in g.non_edges():
        lo, hi = _interval(sg, u, v)
        if lo == hi:
            forced.append(((u, v), Fraction(hi, sg.scale)))
    return forced


def unique_pairs(g: WeightedRootedGraph) -> tuple[tuple[str, str], ...]:
    """Non-adjacent pairs whose distance is the same in every metric extension.

    Exactly the pairs with a degenerate admissible interval.
    """
    return tuple(pair for pair, _ in _forced_distances(g))


def forced_completion(g: WeightedRootedGraph) -> WeightedRootedGraph:
    """Single-pass completion: add each unique pair as an edge with its forced weight."""
    return WeightedRootedGraph(g.vertices, {**g.weights, **dict(_forced_distances(g))}, g.root)


# ---------------------------------------------------------------------------
# cycle embeddings
# ---------------------------------------------------------------------------


def embed_cycle_on_circle(cycle: Cycle) -> tuple[dict[str, Fraction], DistanceMatrix]:
    """Place a metrizable weighted cycle on a circle of matching circumference.

    Positions are cumulative arc lengths along the cycle order; the returned
    matrix is the minor-arc metric, the shortest-path metric of the cycle,
    which agrees with the edge weights.
    """
    if any(w <= 0 for w in cycle.weights):
        raise GraphError("circle embedding needs strictly positive weights")
    total = cycle.total_weight()
    if not cycle.satisfies_cycle_inequality():
        raise GraphError(
            f"cycle is not metrizable: 2*{cycle.max_weight()} > {total}"
        )
    # arc positions and distances as integers over the lcm q of the weights
    q, scaled = _over_lcm(list(map(parse_rational, cycle.weights)))
    verts = sorted(cycle.vertices)
    ring = [verts.index(v) for v in cycle.vertices]
    edges = list(zip(ring, ring[1:] + ring[:1], scaled))
    positions = {v: Fraction(a, q) for v, a in zip(cycle.vertices, accumulate(scaled, initial=0))}
    return positions, _ScaledGraph(verts, edges, q).matrix()


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
    # Walk the non-heaviest arc b .. a of the heaviest edge (a, b), from its
    # lesser endpoint.
    arc = [cycle.vertices[(k + 1 + i) % n] for i in range(n)]
    weights_along = [cycle.weights[(k + 1 + i) % n] for i in range(n - 1)]
    if arc[-1] < arc[0]:
        arc.reverse()
        weights_along.reverse()
    coords: dict[str, Fraction] = {arc[0]: Fraction(0)}
    s = Fraction(0)
    for v, w in zip(arc[1:], weights_along):
        s += w
        coords[v] = s
    return coords


def line_distance_matrix(coords: dict[str, Fraction]) -> DistanceMatrix:
    verts = sorted(coords)
    q, at = _over_lcm([parse_rational(coords[v]) for v in verts])
    return DistanceMatrix._from_numerators(verts, [[abs(a - b) for b in at] for a in at], q)


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
