"""Certification and synthesis of finite pretangent-cluster graphs.

A finite weighted rooted graph can arise as the cluster of pretangent spaces
of an unbounded metric space at infinity exactly when three conditions hold:

  (i)   the root dominates and the distance-from-root labeling is injective,
  (ii)  every cycle satisfies `2 * heaviest edge <= total length`,
  (iii) the vertex set of every tight cycle (equality in (ii)) is a clique.

This module certifies the conditions with machine-checkable witnesses on
failure, synthesizes weights that make any dominating-root graph certifiable,
converts distinguished-point metric spaces into certified graphs, and checks
the extremal bound on the number of maximal cliques.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Generator, Optional

from .graph_core import (
    Cycle,
    GraphError,
    WeightedRootedGraph,
    _integer,
    _json_text,
    _over_lcm,
    _require_dominating_root,
    _root_labels,
    _spelled,
    _undominated_vertex,
    maximal_cliques,
)
from .metrization import (
    DistanceMatrix,
    _detour_cycle,
    _interval,
    _ScaledGraph,
    _tight_cycle,
)


FAIL_ROOT_NOT_DOMINATING = "root_not_dominating"
FAIL_LABELING_NOT_INJECTIVE = "labeling_not_injective"
FAIL_CYCLE_INEQUALITY = "cycle_inequality_violated"
FAIL_TIGHT_CYCLE_NOT_CLIQUE = "tight_cycle_not_clique"


@dataclass
class FpcCertificate:
    """Pass/fail verdict with a concrete witness on failure.

    A certificate without a re-checkable witness is treated as a bug:
    ``witness_is_genuine`` re-evaluates the witness from scratch.
    """

    ok: bool
    failure: Optional[str] = None
    witness_vertex: Optional[str] = None
    witness_pair: Optional[tuple[str, str]] = None
    witness_cycle: Optional[Cycle] = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": "pass" if self.ok else "fail"}
        if self.failure:
            out["failed_condition"] = self.failure
        if self.witness_vertex is not None:
            out["witness_vertex"] = self.witness_vertex
        if self.witness_pair is not None:
            out["witness_pair"] = list(self.witness_pair)
        if self.witness_cycle is not None:
            out["witness_cycle"] = self.witness_cycle.to_json_dict()
        return out

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


def _label_collision(values: dict[str, Fraction]) -> Optional[tuple[str, str]]:
    """(u, v): v is the first vertex in dict order with the value of an earlier one, u."""
    seen: dict[Fraction, str] = {}
    for v, w in values.items():
        if w in seen:
            return (seen[w], v)
        seen[w] = v
    return None


def certify_fpc(g: WeightedRootedGraph) -> FpcCertificate:
    """Certify the three cluster conditions, or fail with a concrete witness.

    Zero weights are accepted on input; they can never survive the
    conditions (a zero root edge collides labels, a zero non-root edge
    forces either a label collision or a cycle violation in the triangle
    through the root), so they surface as ordinary failures. When (ii) and
    (iii) both fail, (ii) is reported.
    """
    return _certify(g)[0]


def _certify(
    g: WeightedRootedGraph,
) -> tuple[FpcCertificate, Optional[_ScaledGraph], Optional[int]]:
    """``certify_fpc``'s certificate and, on a pass only, the graph scaled to
    integers that (ii) and (iii) were decided on and the least scaled width
    hi - lo of an admissible interval over the non-edges (positive, or None
    when g is complete)."""
    violations = _violations(g, lambda size, q: 0)
    try:
        kind, *data = next(violations)
    except StopIteration as passed:
        return (FpcCertificate(True), *passed.value)
    cert = FpcCertificate(False, kind)
    if kind == FAIL_ROOT_NOT_DOMINATING:
        cert.witness_vertex = data[0]
    elif kind == FAIL_LABELING_NOT_INJECTIVE:
        # the first vertex whose label an earlier one has, and the first with that label
        cert.witness_pair = min(data[0], key=lambda pair: pair[::-1])
    elif kind == FAIL_CYCLE_INEQUALITY:
        cert.witness_cycle = _detour_cycle(g, *data[:3])
    else:
        sg, mu, nu, lo, _ = data
        cert.witness_cycle, cert.witness_pair = _tight_cycle(g, sg, mu, nu, lo), (mu, nu)
    return cert, None, None


def _violations(g: WeightedRootedGraph, zero_gap) -> Generator[tuple, None, Optional[tuple]]:
    """Each violation of the three conditions, in certification's order, where
    a gap between two values, integers over q of which the larger is size,
    counts as zero when at most ``zero_gap(size, q)``: the least
    vertex the root misses, ``(FAIL_ROOT_NOT_DOMINATING, v)``; the sorted pairs
    u < v of the root (label 0) and its neighbours whose labels are negligibly
    apart, ``(FAIL_LABELING_NOT_INJECTIVE, pairs)``; each edge heavier than
    the distance d(i, j) of its ends, ``(FAIL_CYCLE_INEQUALITY, sg, i, j, w)``;
    when there is none, each non-edge whose admissible interval is negligibly
    wide, ``(FAIL_TIGHT_CYCLE_NOT_CLIQUE, sg, mu, nu, lo, hi)``. sg is g scaled
    to integers. A disconnected graph stops after (i); otherwise the generator
    returns sg and the least width hi - lo (None when g is complete).
    """
    missing = _undominated_vertex(g)
    if missing is not None:
        yield FAIL_ROOT_NOT_DOMINATING, missing
    root_labels = _root_labels(g)
    names = sorted(root_labels)
    q, labels = _over_lcm([root_labels[v] for v in names])
    pairs = [
        (u, v)
        for (u, a), (v, b) in combinations(zip(names, labels), 2)
        if abs(a - b) <= zero_gap(max(a, b), q)
    ]
    if pairs:
        yield FAIL_LABELING_NOT_INJECTIVE, pairs
    if missing is not None and not g.is_connected():
        return None  # no shortest-path rows exist across components
    # (ii): a violating cycle has an edge heavier than its detour, its heaviest;
    # after (i) holds exactly, every zero weight closes a violating triangle
    sg = _ScaledGraph.of(g)
    heavy = False
    for i, j, w in sg.edges:
        if w - sg.row(i)[j] > zero_gap(w, sg.scale):
            heavy = True
            yield FAIL_CYCLE_INEQUALITY, sg, i, j, w
    if heavy:
        return None
    # (iii): a tight cycle through a non-edge forces its distance, and a
    # forced distance closes a tight cycle through the pair
    delta = None
    for mu, nu in g.non_edges():
        lo, hi = _interval(sg, mu, nu)
        if hi - lo <= zero_gap(hi, sg.scale):
            yield FAIL_TIGHT_CYCLE_NOT_CLIQUE, sg, mu, nu, lo, hi
        delta = hi - lo if delta is None else min(delta, hi - lo)
    return sg, delta


def witness_is_genuine(g: WeightedRootedGraph, cert: FpcCertificate) -> bool:
    """Re-evaluate a failure witness against the graph from scratch."""
    if cert.ok:
        return False
    labels = _root_labels(g)
    if cert.failure == FAIL_ROOT_NOT_DOMINATING:
        # a vertex of the graph that has no label (the root has one)
        return cert.witness_vertex in g._adj and cert.witness_vertex not in labels
    if cert.failure == FAIL_LABELING_NOT_INJECTIVE:
        if cert.witness_pair is None:
            return False
        u, v = cert.witness_pair
        return u != v and u in labels and v in labels and labels[u] == labels[v]
    if cert.failure == FAIL_CYCLE_INEQUALITY:
        c = cert.witness_cycle
        return c is not None and _is_cycle_of(g, c) and not c.satisfies_cycle_inequality()
    if cert.failure == FAIL_TIGHT_CYCLE_NOT_CLIQUE:
        c = cert.witness_cycle
        if c is None or cert.witness_pair is None:
            return False
        u, v = cert.witness_pair
        return (
            _is_cycle_of(g, c)
            and c.is_tight()
            and u in c.vertices
            and v in c.vertices
            and not g.has_edge(u, v)
        )
    return False


def _is_cycle_of(g: WeightedRootedGraph, c: Cycle) -> bool:
    """Whether c runs along edges of g with g's weights."""
    try:
        return Cycle.from_graph(g, c.vertices) == c
    except GraphError:
        return False


def synthesize_weights(g: WeightedRootedGraph) -> WeightedRootedGraph:
    """Deterministic certifiable weighting of a dominating-root graph shape.

    Assigns 1 + j/(m+1) to the j-th edge in lexicographic order (m = edge
    count): all weights distinct inside (1, 2), which makes every cycle
    strictly slack, so the certificate passes for any dominating root.
    Existing weights of the input are ignored.
    """
    _require_dominating_root(g)
    edges = g.edges()
    m = len(edges)
    weights = {e: Fraction(m + 2 + j, m + 1) for j, e in enumerate(edges)}
    return WeightedRootedGraph(g.vertices, weights, g.root)


def graph_from_metric_space(d: DistanceMatrix, basepoint: str) -> WeightedRootedGraph:
    """Complete weighted graph of a finite metric space, rooted at a point
    whose distances to all other points are pairwise distinct.

    The output always certifies: the labeling is the injective distance map
    and every cycle inequality is inherited from the triangle inequality.
    """
    if basepoint not in d.vertices:
        raise GraphError(f"{basepoint!r} is not a point of the metric space")
    if not d.is_metric:
        raise GraphError("input must be a metric (strictly positive off-diagonal)")
    collision = _label_collision({v: d.get(basepoint, v) for v in d.vertices if v != basepoint})
    if collision is not None:
        u, v = collision
        raise GraphError(
            f"distances from {basepoint!r} collide: "
            f"d({basepoint!r},{u!r}) == d({basepoint!r},{v!r}) == {_spelled(d.get(basepoint, v))}"
        )
    weights = {(u, v): d.get(u, v) for u, v in combinations(sorted(d.vertices), 2)}
    return WeightedRootedGraph(d.vertices, weights, basepoint)


def moon_moser_f(n: int) -> int:
    """Maximum possible number of maximal cliques in a graph on n >= 2 vertices."""
    q, r = divmod(_integer(n, 2, "the bound is defined for n >= 2, got {value}"), 3)
    if r == 0:
        return 3**q
    if r == 1:
        return 4 * 3 ** (q - 1)
    return 2 * 3**q


@dataclass
class CliqueBoundReport:
    vertex_count: int
    clique_count: int
    bound: int
    slack: int

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "maximal_cliques_without_root": self.clique_count,
            "bound": self.bound,
            "slack": self.slack,
        }


def clique_bound_check(g: WeightedRootedGraph) -> CliqueBoundReport:
    """Count maximal cliques of the root-deleted subgraph against the extremal bound.

    For a cluster-shaped graph (dominating root) the maximal cliques of g are
    those of the root-deleted subgraph, each with the root added (the lone
    root when there are none), so g's are counted; their number is capped by
    1 for up to two vertices, else by the extremal value at |V| - 1.
    """
    _require_dominating_root(g)
    n = len(g)
    count = len(maximal_cliques(g))
    bound = 1 if n <= 2 else moon_moser_f(n - 1)
    return CliqueBoundReport(
        vertex_count=n,
        clique_count=count,
        bound=bound,
        slack=bound - count,
    )
