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

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .graph_core import (
    Cycle,
    GraphError,
    WeightedRootedGraph,
    _root_labels,
    _undominated_vertex,
    format_rational,
    is_dominating,
    maximal_cliques_of,
)
from .metrization import (
    DistanceMatrix,
    _classify,
    _interval,
    _ScaledGraph,
    _tight_cycle,
)


@dataclass
class RootLabeling:
    """Distance-from-root labels: 0 at the root, root-edge weight elsewhere."""

    values: dict[str, Fraction]
    injective: bool
    collision: Optional[tuple[str, str]] = None


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
            out["witness_cycle"] = {
                "vertices": list(self.witness_cycle.vertices),
                "weights": [format_rational(w) for w in self.witness_cycle.weights],
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def root_labeling(g: WeightedRootedGraph) -> RootLabeling:
    """Labels each vertex by its root-edge weight (0 at the root itself)."""
    values = _root_labels(g)
    collision = _label_collision({v: values[v] for v in sorted(values)})
    return RootLabeling(values, injective=collision is None, collision=collision)


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
    # (i) dominating root
    missing = _undominated_vertex(g)
    if missing is not None:
        return FpcCertificate(False, FAIL_ROOT_NOT_DOMINATING, witness_vertex=missing), None, None
    # (i) injective labeling
    labeling = root_labeling(g)
    if not labeling.injective:
        return FpcCertificate(
            False, FAIL_LABELING_NOT_INJECTIVE, witness_pair=labeling.collision
        ), None, None
    # (ii): after (i) every zero weight closes a violating triangle, so the
    # graph is metrizable or the verdict carries a violating cycle
    sg = _ScaledGraph.of(g)
    verdict = _classify(g, sg)
    if not verdict.metrizable:
        return FpcCertificate(
            False, FAIL_CYCLE_INEQUALITY, witness_cycle=verdict.witness_cycle
        ), None, None
    # (iii): a tight cycle through a non-edge forces its distance, and a
    # forced distance closes a tight cycle through the pair
    delta = None
    for mu, nu in g.non_edges():
        lo, hi = _interval(sg, mu, nu)
        if lo == hi:
            return FpcCertificate(
                False,
                FAIL_TIGHT_CYCLE_NOT_CLIQUE,
                witness_cycle=_tight_cycle(g, sg, mu, nu, lo),
                witness_pair=(mu, nu),
            ), None, None
        delta = hi - lo if delta is None else min(delta, hi - lo)
    return FpcCertificate(True), sg, delta


def witness_is_genuine(g: WeightedRootedGraph, cert: FpcCertificate) -> bool:
    """Re-evaluate a failure witness against the graph from scratch."""
    if cert.ok:
        return False
    if cert.failure == FAIL_ROOT_NOT_DOMINATING:
        v = cert.witness_vertex
        return v is not None and v != g.root and not g.has_edge(g.root, v)
    if cert.failure == FAIL_LABELING_NOT_INJECTIVE:
        if cert.witness_pair is None:
            return False
        u, v = cert.witness_pair

        def label(x):
            return Fraction(0) if x == g.root else g.weight(g.root, x)

        return u != v and label(u) == label(v)
    if cert.failure == FAIL_CYCLE_INEQUALITY:
        c = cert.witness_cycle
        return c is not None and _cycle_in_graph(g, c) and not c.satisfies_cycle_inequality()
    if cert.failure == FAIL_TIGHT_CYCLE_NOT_CLIQUE:
        c = cert.witness_cycle
        if c is None or cert.witness_pair is None:
            return False
        u, v = cert.witness_pair
        return (
            _cycle_in_graph(g, c)
            and c.is_tight()
            and u in c.vertices
            and v in c.vertices
            and not g.has_edge(u, v)
        )
    return False


def _cycle_in_graph(g: WeightedRootedGraph, c: Cycle) -> bool:
    n = len(c.vertices)
    for i, u in enumerate(c.vertices):
        v = c.vertices[(i + 1) % n]
        if not g.has_edge(u, v) or g.weight(u, v) != c.weights[i]:
            return False
    return True


def synthesize_weights(g: WeightedRootedGraph) -> WeightedRootedGraph:
    """Deterministic certifiable weighting of a dominating-root graph shape.

    Assigns 1 + j/(m+1) to the j-th edge in lexicographic order (m = edge
    count): all weights distinct inside (1, 2), which makes every cycle
    strictly slack, so the certificate passes for any dominating root.
    Existing weights of the input are ignored.
    """
    _root_labels(g)  # raises unless the root is dominating
    edges = g.edges()
    m = len(edges)
    weights = {e: Fraction(1) + Fraction(j + 1, m + 1) for j, e in enumerate(edges)}
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
            f"d({basepoint!r},{u!r}) == d({basepoint!r},{v!r}) == {d.get(basepoint, v)}"
        )
    weights = {(u, v): d.get(u, v) for u, v in combinations(sorted(d.vertices), 2)}
    return WeightedRootedGraph(d.vertices, weights, basepoint)


def moon_moser_f(n: int) -> int:
    """Maximum possible number of maximal cliques in a graph on n >= 2 vertices."""
    if n < 2:
        raise GraphError(f"the bound is defined for n >= 2, got {n}")
    q, r = divmod(n, 3)
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
    holds: bool
    slack: int

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "maximal_cliques_without_root": self.clique_count,
            "bound": self.bound,
            "holds": self.holds,
            "slack": self.slack,
        }


def clique_bound_check(g: WeightedRootedGraph) -> CliqueBoundReport:
    """Count maximal cliques of the root-deleted subgraph against the extremal bound.

    For a cluster-shaped graph (dominating root) the maximal cliques of the
    root-deleted subgraph are in bijection with those through the root, and
    their number is capped by 1 for up to two vertices, else by the extremal
    value at |V| - 1.
    """
    if not is_dominating(g, g.root):
        raise GraphError(f"root {g.root!r} is not dominating")
    n = len(g)
    if n == 1:
        count = 1  # the lone root is the single maximal clique
    else:
        rest = set(g.vertices) - {g.root}
        adj = {v: nb & rest for v, nb in g.adjacency().items() if v in rest}
        count = len(maximal_cliques_of(rest, adj))
    bound = 1 if n <= 2 else moon_moser_f(n - 1)
    return CliqueBoundReport(
        vertex_count=n,
        clique_count=count,
        bound=bound,
        holds=count <= bound,
        slack=bound - count,
    )
