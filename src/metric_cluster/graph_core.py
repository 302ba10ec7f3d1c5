"""Weighted rooted graphs and the combinatorial primitives built on them.

All weights are exact rationals (``fractions.Fraction``); no floating point
enters this module. Vertex identifiers are opaque strings ordered
lexicographically, and every "deterministic output" promise refers to that
order.
"""

from __future__ import annotations

import json
import math
import re
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


def _real(value, least, refusal: str) -> Fraction:
    """The one rule for real arguments, tolerances, radii and coordinates
    among them: a finite int, float, Fraction or Decimal, read as the Fraction
    it equals, at least ``least``; GraphError otherwise, with ``refusal`` as
    ``_integer`` gives it. A bool is no number, a string is not parsed."""
    x = None
    if not isinstance(value, bool) and isinstance(value, (int, float, Fraction, Decimal)):
        try:
            x = Fraction(value)
        except (ValueError, OverflowError):  # a NaN, an infinity
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
    interpreter's int-to-str limit and so has no str, its sign and bit length;
    an integral Fraction is named as the int it equals."""
    try:
        return str(value)
    except ValueError:
        n, d = value.numerator, value.denominator
        bits = f"{n.bit_length()} bits" + (f" over {d.bit_length()} bits" if d > 1 else "")
        kind = type(value).__name__ if d > 1 else "int"
        return f"a {'negative' if n < 0 else 'positive'} {kind} of {bits}"


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


def _json_text(value) -> str:
    """``json.dumps(value)``, the one writer of the library's JSON documents,
    each on one line; GraphError names an int past the digit limit."""
    try:
        return json.dumps(value)
    except ValueError:  # the first int past the digit limit, which format_rational names
        for scalar in _scalars(value):
            if isinstance(scalar, int):
                format_rational(scalar)
        raise


def _scalars(value):
    """The scalars of a JSON value, in the order json.dumps writes them."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        yield value
        return
    for item in value:
        yield from _scalars(item)


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 where it is switched off
    or, before Python 3.11, absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# How a file or an option spells a number: in ASCII digits alone, an
# integer, and a rational, a sign, then p, p/q, or a decimal with an optional
# exponent. int(), float() and Fraction() read more: "_", other scripts'
# digits and, as Python versions differ, blanks around "/".
_INTEGER = re.compile("-?[0-9]+")
_RATIONAL = re.compile(r"([-+]?)(?:([0-9]+)/([0-9]+)|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)")


def _integers(texts) -> list[int]:
    """int() of each of the strings ``texts``, each spelled by ``_INTEGER``;
    else ValueError, in int()'s words, naming the first that is not."""
    # a character beyond ASCII encodes to bytes >= 0x80; int() refuses the rest but -?[0-9]+
    for text in texts if ",".join(texts).encode().translate(None, b"0123456789-,") else ():
        if _INTEGER.fullmatch(text) is None:
            raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return list(map(int, texts))


def _decimal(text: str) -> float:
    """float(text) for a decimal literal, one of ``_RATIONAL`` without p/q; else ValueError."""
    match = _RATIONAL.fullmatch(text)
    if match is None or match[3] is not None:
        raise ValueError(f"not a decimal literal: {text!r}")
    return float(text)


def _rational(text) -> Optional[Fraction]:
    """The Fraction that ``text`` is, as an int that is no bool, or spells
    by ``_RATIONAL``; None for any other value, a float among them.
    ValueError for a literal with more digits than the interpreter's limit."""
    if not isinstance(text, str):  # strings first: isinstance() with Fraction, an ABC, is slow
        if isinstance(text, Fraction):
            return text
        if isinstance(text, (bool, float)):
            return None
        if isinstance(text, int):
            return Fraction(text)
        text = str(text)
    if _INTEGER.fullmatch(text):  # int() refuses digits past the limit
        return Fraction(int(text))
    match = _RATIONAL.fullmatch(text)
    if match is None:
        return None
    sign, p, q, whole, places, exponent = match.groups()
    if q is None:
        places = places or ""
        p, shift = whole + places, int(exponent or 0) - len(places)
        # 10**shift is built in full: the limit's default also bounds it where the limit is off
        if (1 - shift if shift < 0 else len(p.lstrip("0")) + shift) > (_digit_limit() or 4300):
            raise ValueError(text)
        p, q = int(p) * 10 ** max(shift, 0), 10 ** max(-shift, 0)
    else:
        p, q = int(p), int(q)
    return Fraction(-p if sign == "-" else p, q) if q else None


def parse_rational(text) -> Fraction:
    """An exact rational from a Fraction, an int or a literal, such as "3/2",
    "-1.5" or "2e-3" (see ``_RATIONAL``), with no blank around it; GraphError
    for anything else, a float, refused as a weight, and a literal past the
    digit limit among them."""
    return _exact(text, "weight")


def _exact(text, place: str) -> Fraction:
    """``parse_rational(text)``, with a float refused in the name of ``place``."""
    try:
        value = _rational(text)
    except ValueError:
        raise GraphError(f"rational literal {text!r} needs more than {_digit_limit() or 4300} digits") from None
    if value is None:
        if isinstance(text, float):
            raise GraphError(f"refusing float {place} {text!r}: pass a string ('3/2' or '1.5') for exactness")
        raise GraphError(f"not a rational literal: {text!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Format a rational so that ``parse_rational`` round-trips bit-exactly;
    GraphError names one past the int-to-str digit limit, an integer as an int."""
    n, d = value.numerator, value.denominator
    try:
        return f"{n}/{d}" if d > 1 else str(n)
    except ValueError:
        raise GraphError(f"value {_spelled(value)} has more digits than to_json can write") from None


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common multiple q of the rationals' denominators, and each
    value's integer numerator over q: the layout of exact values held in
    bulk, a distance matrix's entries and a cloud level's shadows."""
    q = math.lcm(*(x.denominator for x in values))
    return q, [x.numerator * (q // x.denominator) for x in values]


def _in_lowest_terms(q: int, rows: list) -> tuple[int, list]:
    """Integer rows over q, with the factor that q shares with every
    numerator divided out: q becomes the least common denominator of the
    values, the least common multiple of their reduced denominators."""
    g = math.gcd(q, *chain.from_iterable(rows)) if q > 1 else 1
    if g == 1:
        return q, rows
    return q // g, [tuple([a // g for a in row]) for row in rows]


def _format_over(numerators: Sequence[int], q: int) -> list[str]:
    """Each a/q in lowest terms, as ``str(Fraction(a, q))`` prints it;
    GraphError names the first past the int-to-str digit limit."""

    def spell(a: int) -> str:
        g = math.gcd(a, q)
        return str(a // g) if g == q else f"{a // g}/{q // g}"

    try:
        return _each_once(str if q == 1 else spell, numerators)
    except ValueError:  # format_rational names the first value past the digit limit
        for value in map(Fraction, numerators, repeat(q)):
            format_rational(value)


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
        return _json_text(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "WeightedRootedGraph":
        return cls.from_json_dict(_json_document(text, "graph JSON"))


@dataclass(frozen=True)
class Cycle:
    """Simple cycle: an ordered vertex tuple with the aligned edge weights.

    ``weights[i]`` is the weight of ``{vertices[i], vertices[i+1]}``, the last
    entry closing the cycle back to ``vertices[0]``. Construction reads each
    vertex as a vertex id, a string, and each weight with ``parse_rational``.
    """

    vertices: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        vertices = _collection(self.vertices, "cycle vertices must be a sequence of vertex ids", list)
        if not all(map(isinstance, vertices, repeat(str))):
            raise _not_an_id(*vertices)
        weights = _collection(self.weights, "cycle weights must be a sequence of rationals", list)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "weights", tuple(map(parse_rational, weights)))
        n = len(vertices)
        if n < 3:
            raise GraphError("a cycle needs at least 3 vertices")
        if len(set(self.vertices)) != n:
            raise GraphError("cycle vertices must be pairwise distinct")
        if len(self.weights) != n:
            raise GraphError("cycle needs one weight per edge")

    @classmethod
    def from_graph(cls, g: WeightedRootedGraph, order: Sequence[str]) -> "Cycle":
        order = _collection(order, "cycle order must be a sequence of vertices", list)
        weights = []
        for u, v in zip(order, order[1:] + order[:1]):
            w = g.weights.get(edge_key(u, v))
            if w is None:
                raise GraphError(f"{u!r}-{v!r} is not an edge; not a cycle of the graph")
            weights.append(w)
        return cls(order, weights)

    def to_json_dict(self) -> dict:
        """The one JSON spelling of a cycle, as witnesses print it."""
        return {"vertices": list(self.vertices), "weights": [format_rational(w) for w in self.weights]}

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
    adj = g._adj
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

    expand(set(), set(g.vertices), set())
    return sorted(out, key=lambda c: sorted(c))


def _undominated_vertex(g: WeightedRootedGraph) -> Optional[str]:
    """The least vertex with no edge to the root; None when the root dominates."""
    return next((v for v in g.vertices if v != g.root and v not in g._adj[g.root]), None)


def _root_labels(g: WeightedRootedGraph) -> dict[str, Fraction]:
    """Distance-from-root labeling: 0 at the root and the root-edge weight at
    each vertex the root reaches, the root first and then vertex order. A
    vertex the root misses has no label; ``_undominated_vertex`` names the
    least one."""
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
) -> Optional[dict[str, str]]:
    """Decide a weighted rooted isomorphism, in polynomial time.

    Returns the vertex mapping, g1's vertices to g2's, or None. Every
    cluster's root dominates, and a graph whose root dominates is isomorphic
    to no graph whose root does not. With both roots dominating, the vertices
    paired in increasing distance-from-root label (the root first, ties in
    vertex order) are the one candidate, returned if it maps the edges. A
    failed candidate means no isomorphism unless both graphs have a near-tie
    (see ``_near_tie``): only then could an isomorphism pair two vertices out
    of label order.

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
    candidate = dict(zip(order1, order2))
    # a bijection between graphs with as many edges: mapping each edge onto one suffices
    if _maps_edges(g1, g2, candidate, tol):
        return candidate
    tie = _near_tie(order1, labels1, tol)
    if tie is None or _near_tie(order2, labels2, tol) is None:
        return None
    u, v = tie
    raise GraphError(
        f"the label order does not decide this isomorphism: {u!r} and {v!r} of the "
        f"first graph have the near-tied root labels {_spelled(labels1[u])} and {_spelled(labels1[v])} "
        f"under tolerance {_spelled(tol)}, and the second graph has a near-tie too"
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
