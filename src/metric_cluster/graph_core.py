"""Weighted rooted graphs and the combinatorial primitives built on them.

All weights are exact rationals (``fractions.Fraction``); no floating point
enters this module. Vertex identifiers are opaque strings ordered
lexicographically, and every "deterministic output" promise refers to that
order.
"""

from __future__ import annotations

import json
import math
import sys
from collections import abc
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import Iterable, Mapping, Optional, Sequence


class GraphError(ValueError):
    """Invalid graph input or violated operation precondition."""


def _integer(value, least: int, refusal: str) -> int:
    """The one rule for integer arguments: ``value`` when it is an int, not a
    bool, of at least ``least``; GraphError otherwise, with the caller's
    ``refusal`` text, in which ``{value!r}`` names the value."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise _refused(refusal, value)
    return value


def _real(value, least, refusal: str, kind=Fraction) -> Fraction | float:
    """The one rule for real arguments, tolerances among them: a finite int,
    float, Fraction or Decimal, read as the Fraction it equals or, with
    ``kind=float``, as the nearest binary64 number, which must be finite, and
    at least ``least``; GraphError otherwise, with ``refusal`` as ``_integer``
    gives it. A bool is no number, and a string is refused, not parsed."""
    x = None
    if not isinstance(value, bool) and isinstance(value, (int, float, Fraction, Decimal)):
        try:
            x = kind(Fraction(value))
        except (ValueError, OverflowError):  # a NaN, an infinity, beyond binary64
            pass
    if x is None or x < least:
        raise _refused(refusal, value)
    return x


def _refused(refusal: str, value) -> GraphError:
    """GraphError with ``refusal``, in which ``{value!r}`` or ``{value}``
    names the value, or ``_spelled(value)`` when it has no repr."""
    try:
        return GraphError(refusal.format(value=value))
    except ValueError:
        return GraphError(refusal.replace("!r}", "}").format(value=_spelled(value)))


def _spelled(value) -> str:
    """``str(value)``, or, for an int or a Fraction whose digits pass the
    interpreter's int-to-str limit and so has no str, its sign and bit length."""
    try:
        return str(value)
    except ValueError:
        n, d = value.numerator, value.denominator
        bits = f"{n.bit_length()} bits" + (f" over {d.bit_length()} bits" if d > 1 else "")
        return f"a {'negative' if n < 0 else 'positive'} {type(value).__name__} of {bits}"


def _collection(value, refusal: str, kind=tuple):
    """The one rule for sequence and mapping arguments: ``kind(value)``, where
    ``tuple`` and ``set`` take any iterable, ``list`` any but a string or a
    mapping, which it would read as its characters or its keys, ``dict`` only
    a mapping, and a reader of items refuses one of the wrong shape by
    TypeError or ValueError, which ends as GraphError with ``refusal``; the
    reader's own passes through."""
    try:
        if kind is list and isinstance(value, (str, abc.Mapping)):
            raise TypeError
        if kind is dict and not isinstance(value, abc.Mapping):
            raise TypeError
        return kind(value)
    except GraphError:
        raise
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{refusal}, got {type(value).__name__}") from exc


def _json_document(text: str, source: str):
    """The JSON value of ``text``; GraphError, named by ``source``, for text
    that is no JSON, holds an integer past the interpreter's digit limit or
    nests past the parser's limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise GraphError(f"{source}: {exc}") from exc
    except RecursionError as exc:
        raise GraphError(f"{source}: JSON nested too deeply") from exc


def parse_rational(text) -> Fraction:
    """Parse an exact rational from a ``p/q`` or decimal literal (or number)."""
    if isinstance(text, Fraction):
        return text
    # bool is an int subclass, but JSON true is no rational
    if isinstance(text, bool):
        raise GraphError(f"not a rational literal: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise GraphError(
            f"refusing float weight {text!r}: pass a string ('3/2' or '1.5') for exactness"
        )
    literal = str(text).strip()
    # Fraction builds the power of ten of an exponent or of the decimal
    # places in full, and str() prints no int over the interpreter's digit
    # limit; its default, 4300, also bounds the work where the limit is
    # absent or switched off
    if "." in literal or "e" in literal.lower():
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if _exponent_digits(literal) > limit:
            raise GraphError(f"rational literal {text!r} needs more than {limit} digits")
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"not a rational literal: {text!r}") from exc


def _exponent_digits(text: str) -> int:
    """Digits of the numerator (or denominator) that the decimal exponent
    and places of a literal such as ``"1.5e3"`` or ``"0.25"`` make
    ``Fraction`` build before it reduces; 0 for text that is no such
    literal, which ``Fraction`` then refuses."""
    mantissa, _, exponent = text.lower().partition("e")
    unsigned = mantissa[1:] if mantissa[:1] in ("+", "-") else mantissa
    whole, _, decimals = unsigned.partition(".")
    digits = (whole + decimals).replace("_", "")
    try:
        shift = int(exponent or 0) - len(decimals.replace("_", ""))
    except ValueError:
        return 0
    if not digits.isdecimal():
        return 0
    return 1 - shift if shift < 0 else len(digits.lstrip("0")) + shift


def format_rational(value: Fraction) -> str:
    """Format a rational so that ``parse_rational`` round-trips bit-exactly."""
    return str(value)


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common multiple q of the rationals' denominators, and each
    value's integer numerator over q: the layout of exact values held in
    bulk, a distance matrix's entries and a cloud level's shadows."""
    q = math.lcm(*(x.denominator for x in values))
    return q, [x.numerator * (q // x.denominator) for x in values]


def _in_lowest_terms(q: int, rows: list) -> tuple[int, list]:
    """Integer rows (or None) over q, with the factor that q shares with
    every numerator divided out: q becomes the least common denominator of
    the values, the least common multiple of their reduced denominators."""
    g = math.gcd(q, *chain.from_iterable(filter(None, rows))) if q > 1 else 1
    if g == 1:
        return q, rows
    return q // g, [tuple([a // g for a in row]) if row else None for row in rows]


def _format_over(numerators: Sequence[int], q: int) -> list[str]:
    """Each a/q in lowest terms, as ``format_rational(Fraction(a, q))`` prints it."""
    if q == 1:
        return _each_once(str, numerators)

    def spell(a: int) -> str:
        g = math.gcd(a, q)
        return str(a // g) if g == q else f"{a // g}/{q // g}"

    return _each_once(spell, numerators)


def _each_once(convert, values: Sequence) -> list:
    """``list(map(convert, values))``, with ``convert`` called once per
    distinct value when some value repeats. Values that compare equal must
    convert alike, as ints and strings do (floats do not: 0.0 == -0.0)."""
    distinct = set(values)
    if len(distinct) == len(values):  # a table would cost more than it saves
        return list(map(convert, values))
    return list(map(dict(zip(distinct, map(convert, distinct))).__getitem__, values))


def _not_an_id(*values) -> GraphError:
    """GraphError naming the first of ``values`` that is no vertex id, a string."""
    bad = next(x for x in values if not isinstance(x, str))
    return _refused("vertex id {value!r} is not a string", bad)


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) form of an undirected edge, a key that hashes."""
    try:
        if u != v:
            key = (u, v) if u < v else (v, u)
            hash(key)
            return key
    except TypeError:  # ids are strings; a value of another class does not compare or hash
        raise _not_an_id(u, v) from None
    raise GraphError(f"loop edge {{{u!r},{u!r}}} is not allowed")


class WeightedRootedGraph:
    """Finite simple loopless graph with rational edge weights and a root.

    Construction checks, in this order: the root and every vertex are strings;
    there is a vertex; the root is one; then, edge by edge: no loop, both ends
    are vertices (an end that is no string is refused as one), no duplicate in
    either orientation, a rational weight (``parse_rational``), weight >= 0.
    Strict positivity is validated where an operation needs it. Instances
    are immutable in practice: all operations on them return new graphs.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        weights: Mapping[tuple[str, str], Fraction] | Iterable[tuple[tuple[str, str], Fraction]],
        root: str,
    ):
        ids = _collection(vertices, "graph vertices must be an iterable of vertex ids")
        if not (isinstance(root, str) and all(map(isinstance, ids, repeat(str)))):
            raise _not_an_id(root, *ids)
        self.vertices: tuple[str, ...] = tuple(sorted(set(ids)))
        if not self.vertices:
            raise GraphError("graph needs at least one vertex")
        self._adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        if root not in self._adj:
            raise GraphError(f"root {root!r} is not a vertex")
        self.root = root

        self.weights: dict[tuple[str, str], Fraction] = {}
        _collection(weights, "graph weights must be a mapping or pairs ((u, v), w)", self._add_edges)

    def _add_edges(self, edges) -> None:
        items = edges.items() if isinstance(edges, abc.Mapping) else edges
        weights, adj = self.weights, self._adj
        for (u, v), w in items:
            try:
                key = (u, v) if u < v else edge_key(u, v)
                if u not in adj or v not in adj:
                    raise GraphError(f"edge {key} uses unknown vertices")
            except TypeError:  # an end that is no string: it does not compare or hash
                raise _not_an_id(u, v) from None
            if key in weights:
                raise GraphError(f"duplicate edge {key}")
            w = parse_rational(w)
            if w.numerator < 0:  # a Fraction's denominator is positive
                raise GraphError(f"negative weight {_spelled(w)} on edge {key}")
            weights[key] = w
            adj[u].add(v)
            adj[v].add(u)

    # -- basic queries ----------------------------------------------------

    def adjacency(self) -> dict[str, set[str]]:
        return {v: set(nb) for v, nb in self._adj.items()}

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.weights

    def weight(self, u: str, v: str) -> Fraction:
        try:
            return self.weights[edge_key(u, v)]
        except KeyError:
            raise GraphError(f"edge {edge_key(u, v)} not present") from None

    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.weights))

    def non_edges(self) -> tuple[tuple[str, str], ...]:
        """Sorted non-adjacent vertex pairs."""
        return tuple(
            (u, v) for u, v in combinations(self.vertices, 2) if (u, v) not in self.weights
        )

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedRootedGraph)
            and self.vertices == other.vertices
            and self.root == other.root
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return (
            f"WeightedRootedGraph({len(self.vertices)} vertices, "
            f"{len(self.weights)} edges, root={self.root!r})"
        )

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[set[str]]:
        seen: set[str] = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for nb in self._adj[stack.pop()]:
                    if nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            seen |= comp
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def require_connected(self) -> None:
        comps = self.components()
        if len(comps) > 1:
            a = min(comps[0])
            b = min(comps[1])
            raise GraphError(
                f"graph is disconnected: {a!r} and {b!r} lie in different components"
            )

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: str, v: str, w: Fraction) -> "WeightedRootedGraph":
        """Copy of the graph with one extra weighted edge."""
        key = edge_key(u, v)
        if key in self.weights:
            raise GraphError(f"edge {key} already present")
        return WeightedRootedGraph(self.vertices, {**self.weights, key: w}, self.root)

    def with_weight(self, u: str, v: str, w: Fraction) -> "WeightedRootedGraph":
        """Copy of the graph with one edge weight replaced."""
        key = edge_key(u, v)
        if key not in self.weights:
            raise GraphError(f"edge {key} not present")
        return WeightedRootedGraph(self.vertices, {**self.weights, key: w}, self.root)

    def without_edge(self, u: str, v: str) -> "WeightedRootedGraph":
        key = edge_key(u, v)
        if key not in self.weights:
            raise GraphError(f"edge {key} not present")
        new = {e: w for e, w in self.weights.items() if e != key}
        return WeightedRootedGraph(self.vertices, new, self.root)

    def relabel(self, mapping: Mapping[str, str]) -> "WeightedRootedGraph":
        """Rename vertices through a bijective mapping."""
        mapping = _collection(mapping, "relabel mapping must be a mapping", dict)
        if not all(map(isinstance, mapping.values(), repeat(str))):  # a list would not hash
            raise _not_an_id(*mapping.values())
        if set(mapping) != set(self.vertices) or len(set(mapping.values())) != len(self.vertices):
            raise GraphError("relabel mapping must be a bijection on the vertex set")
        new = {(mapping[u], mapping[v]): w for (u, v), w in self.weights.items()}
        return WeightedRootedGraph([mapping[v] for v in self.vertices], new, mapping[self.root])

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "root": self.root,
            "edges": [
                {"u": u, "v": v, "w": format_rational(w)}
                for (u, v), w in sorted(self.weights.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedRootedGraph":
        try:
            vertices = data["vertices"]
            root = data["root"]
            raw_edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"graph JSON is missing field: {exc}") from exc
        if not (isinstance(vertices, list) and isinstance(raw_edges, list)):
            raise GraphError("graph JSON vertices and edges must be lists")
        weights = []
        try:
            for item in raw_edges:
                if not isinstance(item, dict):
                    raise GraphError(f"graph JSON edge {item!r} is not an object")
                # "w" may be omitted for shape-only inputs (weight synthesis).
                weights.append(((item["u"], item["v"]), item.get("w", "1")))
        except KeyError as exc:
            raise GraphError(f"graph JSON edge is missing field: {exc}") from exc
        return cls(vertices, weights, root)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "WeightedRootedGraph":
        return cls.from_json_dict(_json_document(text, "graph JSON"))


@dataclass(frozen=True)
class Cycle:
    """Simple cycle: an ordered vertex tuple with the aligned edge weights.

    ``weights[i]`` is the weight of ``{vertices[i], vertices[i+1]}``, the last
    entry closing the cycle back to ``vertices[0]``.
    """

    vertices: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        if len(set(self.vertices)) != n:
            raise GraphError("cycle vertices must be pairwise distinct")
        if len(self.weights) != n:
            raise GraphError("cycle needs one weight per edge")

    @classmethod
    def from_graph(cls, g: WeightedRootedGraph, order: Sequence[str]) -> "Cycle":
        order = _collection(order, "cycle order must be a sequence of vertices")
        weights = []
        for u, v in zip(order, order[1:] + order[:1]):
            w = g.weights.get(edge_key(u, v))
            if w is None:
                raise GraphError(f"{u!r}-{v!r} is not an edge; not a cycle of the graph")
            weights.append(w)
        return cls(order, tuple(weights))

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def max_weight(self) -> Fraction:
        return max(self.weights)

    def satisfies_cycle_inequality(self) -> bool:
        """Exact check of `twice the heaviest edge <= total length`."""
        return 2 * self.max_weight() <= self.total_weight()

    def is_tight(self) -> bool:
        """Exact equality case: twice the heaviest edge == total length."""
        return 2 * self.max_weight() == self.total_weight()


@dataclass
class IsoMapping:
    """Vertex bijection witnessing a weighted rooted isomorphism."""

    mapping: dict[str, str]

    def verify(
        self,
        g1: WeightedRootedGraph,
        g2: WeightedRootedGraph,
        weight_tol_rel: Fraction | float = 0,
    ) -> bool:
        """Re-evaluate the isomorphism conditions from scratch: a weight
        preserving monomorphism between graphs with as many vertices and as
        many edges, so a bijection under which non-edges map onto non-edges.

        GraphError refuses a tolerance that ``isomorphic`` refuses.
        """
        return (
            is_weight_preserving_monomorphism(g1, g2, self.mapping, weight_tol_rel)
            and len(g1) == len(g2)
            and len(g1.weights) == len(g2.weights)
        )


_WEIGHT_TOLERANCE = "weight tolerance must be finite and non-negative, got {value!r}"


def _weights_close(a: Fraction, b: Fraction, tol: Fraction) -> bool:
    """|a - b| <= tol * max(a, b), times the three denominators."""
    x, y = a.numerator * b.denominator, b.numerator * a.denominator
    return abs(x - y) * tol.denominator <= tol.numerator * max(x, y)


def _maps_edges(g1, g2, mapping, tol: Fraction) -> bool:
    """Root to root, and each edge of g1 onto an edge of g2 of a close weight;
    ``mapping`` takes g1's vertices to g2's."""
    if mapping[g1.root] != g2.root:
        return False
    for (u, v), w in g1.weights.items():
        a, b = mapping[u], mapping[v]
        # a == b is no key: g2 has no loops
        image = g2.weights.get((a, b) if a < b else (b, a))
        if image is None or not _weights_close(w, image, tol):
            return False
    return True


# ---------------------------------------------------------------------------
# cliques and domination
# ---------------------------------------------------------------------------


def maximal_cliques(g: WeightedRootedGraph) -> list[frozenset[str]]:
    """All maximal cliques, lexicographically sorted (Bron-Kerbosch, pivoting)."""
    return maximal_cliques_of(set(g.vertices), g.adjacency())


def maximal_cliques_of(vertices: set[str], adj: dict[str, set[str]]) -> list[frozenset[str]]:
    """Bron-Kerbosch with pivoting over an explicit adjacency structure."""
    out: list[frozenset[str]] = []

    def expand(r: set[str], p: set[str], x: set[str]):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda w: len(adj[w] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    if vertices:
        expand(set(), set(vertices), set())
    return sorted(out, key=lambda c: sorted(c))


def is_dominating(g: WeightedRootedGraph, v: str) -> bool:
    """True iff v is adjacent to every other vertex."""
    if not isinstance(v, str):  # a list would not hash
        raise _not_an_id(v)
    if v not in g._adj:
        raise GraphError(f"{v!r} is not a vertex")
    return len(g._adj[v]) == len(g) - 1


def _undominated_vertex(g: WeightedRootedGraph) -> Optional[str]:
    """The least vertex with no edge to the root; None when the root dominates."""
    return next((v for v in g.vertices if v != g.root and v not in g._adj[g.root]), None)


def _root_labels(g: WeightedRootedGraph) -> dict[str, Fraction]:
    """Distance-from-root labeling: 0 at the root and the root-edge weight at
    each vertex the root reaches, the root first and then vertex order (the
    order isomorphic() hands out its candidate mapping in). A vertex the root
    misses has no label; ``_undominated_vertex`` names the least one."""
    reached = g._adj[g.root]
    return {g.root: Fraction(0), **{v: g.weight(g.root, v) for v in g.vertices if v in reached}}


def _require_dominating_root(g: WeightedRootedGraph) -> None:
    """GraphError naming the least vertex the root misses, if there is one."""
    missing = _undominated_vertex(g)
    if missing is not None:
        raise GraphError(f"root {g.root!r} is not dominating: no edge to {missing!r}")


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def isomorphic(
    g1: WeightedRootedGraph,
    g2: WeightedRootedGraph,
    weighted: bool = True,
    weight_tol_rel: Fraction | float = 0,
) -> Optional[IsoMapping]:
    """Decide a weighted rooted isomorphism, in polynomial time.

    Returns a witness or None. Every cluster's root dominates, and a graph
    whose root dominates is isomorphic to no graph whose root does not. With
    both roots dominating, the vertices paired in increasing distance-from-root
    label (the root first, ties in vertex order) are the one candidate,
    returned if it verifies. A failed candidate means no isomorphism unless
    both graphs have a near-tie (see ``_near_tie``): only then could an
    isomorphism pair two vertices out of label order.

    GraphError refuses a tolerance that is not a finite, non-negative int,
    float, Fraction or Decimal, ``weighted=False``, two graphs whose roots do
    not dominate, and a failed candidate between two graphs with near-ties,
    which the label order does not decide.
    """
    tol = _real(weight_tol_rel, 0, _WEIGHT_TOLERANCE)
    if not weighted:
        raise GraphError("isomorphic compares weighted graphs: weighted=False is refused")
    if len(g1) != len(g2) or len(g1.weights) != len(g2.weights):
        return None
    if (_undominated_vertex(g1) is None) != (_undominated_vertex(g2) is None):
        return None
    _require_dominating_root(g1)  # neither root dominates
    labels1, labels2 = _root_labels(g1), _root_labels(g2)
    # a stable sort: the root's 0 stays first and equal labels keep vertex order
    order1 = sorted(labels1, key=labels1.__getitem__)
    order2 = sorted(labels2, key=labels2.__getitem__)
    pairs = dict(zip(order1, order2))
    # the key order `isomorphic --json` prints: the root and then g1's
    # vertex order with exact weights, increasing label under a tolerance
    candidate = {v: pairs[v] for v in (labels1 if tol == 0 else order1)}
    # a bijection between graphs with as many edges: what verify() checks
    if _maps_edges(g1, g2, candidate, tol):
        return IsoMapping(candidate)
    tie = _near_tie(order1, labels1, tol)
    if tie is None or _near_tie(order2, labels2, tol) is None:
        return None
    u, v = tie
    raise GraphError(
        f"the label order does not decide this isomorphism: {u!r} and {v!r} of the "
        f"first graph have the near-tied root labels {labels1[u]} and {labels1[v]} "
        f"under tolerance {tol}, and the second graph has a near-tie too"
    )


def _near_tie(order: list[str], labels: dict[str, Fraction], tol: Fraction):
    """The first two non-root vertices, next to each other in ``order`` (the
    root, then increasing label), whose labels a <= b have
    a >= (1 - tol)**2 * b, or any two when tol >= 1; None if there are none.
    At tol = 0 that is two equal labels. An isomorphism within tol that takes
    labels a < b to a' >= b' needs one in both graphs, as
    (1 - tol) * b <= b' <= a' <= a / (1 - tol)."""
    factor = 0 if tol >= 1 else (1 - tol) ** 2
    rest = order[1:]
    return next(((u, v) for u, v in zip(rest, rest[1:]) if labels[u] >= factor * labels[v]), None)


def is_weight_preserving_homomorphism(
    g1: WeightedRootedGraph,
    g2: WeightedRootedGraph,
    mapping: Mapping[str, str],
    weight_tol_rel: Fraction | float = 0,
) -> bool:
    """Check: root maps to root, edges map to edges, edge weights preserved."""
    tol = _real(weight_tol_rel, 0, _WEIGHT_TOLERANCE)
    mapping = _collection(mapping, "a vertex mapping must be a mapping", dict)
    if set(mapping) != set(g1.vertices):
        return False
    if any(img not in g2._adj for img in mapping.values()):
        return False
    return _maps_edges(g1, g2, mapping, tol)


def is_weight_preserving_monomorphism(
    g1: WeightedRootedGraph,
    g2: WeightedRootedGraph,
    mapping: Mapping[str, str],
    weight_tol_rel: Fraction | float = 0,
) -> bool:
    """Injective weight preserving homomorphism."""
    return (
        is_weight_preserving_homomorphism(g1, g2, mapping, weight_tol_rel)
        and len(set(mapping.values())) == len(g1.vertices)
    )
