"""Building finite truncations of spaces whose cluster at infinity is a given graph.

Given a certified graph, a family of two shortest-path metrics is produced:
d of the graph, and a lower one of the graph plus every non-edge as an edge
a little shorter than in d. Both agree with the edge weights, and the lower
one is strictly below d on every non-edge. Levels n = 1..depth place an
isometric copy of (V, r_n * d_i) into sup-norm coordinate space via
distance-difference coordinates, alternating i between the two members. The
scaling sequence r_n = n! grows so fast (ratio of consecutive terms increasing
without bound) that different levels separate after rescaling, which is
what makes the cluster recoverable from the finite truncation. The one-point
space scales level n by 2**(n*n + n); both scales are running products.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, islice
from typing import Iterator, Optional, Sequence

from .graph_core import GraphError, WeightedRootedGraph, format_rational
from .graph_core import _decimal, _digit_limit, _format_over, _in_lowest_terms, _integer, _integers, _rational
from .graph_core import _each_once, _json_document, _json_text, _refused, _spelled
from .metrization import DistanceMatrix, _ScaledGraph
from .fpc import _certify


@dataclass(frozen=True, init=False)
class RealizationPlan:
    """Recipe for a point cloud of a certified graph, level n scaled by n!.

    ``family`` is ``(lower, d)``: d is the shortest-path metric and lower
    (see ``build_plan``) agrees with every edge weight but lies strictly
    below d on every non-edge, so each non-edge oscillates with period 2
    while each edge stays put. A complete graph has the single member ``(d,)``.
    A plan is made by ``build_plan`` alone, which checks what
    ``generate_cloud`` reads.
    """

    graph: WeightedRootedGraph
    family: tuple[DistanceMatrix, ...]
    depth: int

    def __init__(self, *args, **kwargs):
        raise TypeError("a RealizationPlan is made by build_plan")

    @classmethod
    def _of_family(cls, graph: WeightedRootedGraph, family: tuple, depth: int) -> "RealizationPlan":
        """The plan of a family that ``build_plan`` built and checked."""
        plan = cls.__new__(cls)
        vars(plan).update(graph=graph, family=family, depth=depth)
        return plan

    @property
    def period(self) -> int:
        return len(self.family)


@dataclass
class CloudLevel:
    """One level of one kind: exactly one of its exact scale ``r_exact`` and
    its binary64 scale ``r``, and its points, each a label and a row of
    coordinates.

    With r_exact, a row holds the point's exact coordinates in units of
    r_exact, as recovery's normalized distances d / r_n are: integer
    numerators over ``q``, the level's least common denominator, so that
    point i's j-th coordinate is r_exact * rows[i][j] / q; a file's ``over``
    and values are q and the numerators. With r, a row holds binary64
    coordinates and q is None, as it is for a level without points. Only the
    float writer rounds r_exact and each exact coordinate, and refuses a value
    beyond binary64 there (see ``_level_floats``); every other reader reads
    the level exactly.
    """

    n: int
    r: Optional[float]
    r_exact: Optional[Fraction]
    labels: tuple[Optional[str], ...]
    rows: tuple[tuple, ...]
    q: Optional[int] = None


@dataclass
class LeveledPointCloud:
    """Finite truncation of an unbounded space, one labeled point set per level.

    Points live in sup-norm coordinate space; the basepoint is the origin and
    appears at every level (as the root's image in generated clouds). A level
    is exact, its rows integer numerators over q in units of its r_exact, or
    binary64, its rows coordinates beside its r (see ``CloudLevel``).

    Construction checks ``dimension``, ``period``, then each level's ``n``,
    labels and rows, the ``q`` of numerators, its one scale, ``r`` or
    ``r_exact``, and that a level has a point; it holds an int coordinate as
    its float, rows and labels as tuples and numerators in lowest terms. It
    refuses a level with both r and r_exact, numerators over q without
    r_exact, and coordinates beside r_exact. Every file the JSON reader refuses goes through it, so a file and
    the same value in code are refused alike.
    """

    dimension: int
    levels: list[CloudLevel]
    period: Optional[int] = None

    def __post_init__(self):
        dimension = _checked_fields(self.dimension, self.period, self.levels)
        levels: list[CloudLevel] = []
        for lvl in self.levels:
            levels.append(_checked_level(lvl, levels[-1].n if levels else 0, dimension))
        self.levels = _with_points(levels)

    @classmethod
    def _of_levels(cls, dimension: int, levels: list[CloudLevel], period) -> "LeveledPointCloud":
        """The cloud of levels that keep the rules by construction, unchecked
        but for the one rule that a selection of such levels may break."""
        cloud = cls.__new__(cls)
        cloud.dimension, cloud.levels, cloud.period = dimension, _with_points(levels), period
        return cloud

    @property
    def depth(self) -> int:
        return len(self.levels)

    def labels(self) -> tuple[str, ...]:
        # a run of levels with equal labels, as every level of a generated cloud has, is read once
        seen = set().union(*(labels for labels, _ in groupby(lvl.labels for lvl in self.levels)))
        return tuple(sorted(seen, key=lambda x: (x is None, x or "")))

    def points_by_label(self, level: CloudLevel) -> dict[str, tuple]:
        """The rows of the level's labeled points by label; GraphError if a
        label repeats."""
        out = dict(zip(level.labels, level.rows))
        if len(out) < len(level.labels):
            _refuse_repeated_label(level.labels, level.n)
        out.pop(None, None)
        return out

    def has_exact(self) -> bool:
        """Every level is exact: it has an exact scale."""
        return all(lvl.r_exact is not None for lvl in self.levels)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LeveledPointCloud":
        """The cloud of a JSON document, read once, level by level: each
        level is unpacked and checked as the constructor checks a level,
        which refuses a layout no writer writes now, or, where it names an
        earlier exact level by ``points_of``, shares that level's labels,
        rows and q. A refusal names a fault of the fields before any of a
        level, and the first faulty level in level order."""
        try:
            dimension, levels = data["dimension"], data["levels"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"cloud JSON is missing field: {exc}") from exc
        if data.get("norm", "sup") != "sup":
            raise GraphError(f"cloud norm {data['norm']!r} is not supported; only 'sup' is")
        period = data.get("period")
        dimension = _checked_fields(dimension, period, levels, list)
        # recovery measures every distance to the origin; JSON false loads as
        # Python's False, which equals 0; the fields are checked before any level
        basepoint = data.get("basepoint")
        if "basepoint" in data and not (isinstance(basepoint, list) and len(basepoint) == dimension
                                        and all(x == 0 and type(x) is not bool for x in basepoint)):
            raise GraphError(f"cloud basepoint must be the origin, {dimension} zeros")
        try:
            return _read_by_level(dimension, levels, period)
        except KeyError as exc:
            raise GraphError(f"cloud JSON level is missing field: {exc}") from exc

    def to_json(self, include_exact: bool = True) -> str:
        """The cloud file on one line, as ``json.dumps`` writes the README's
        fields: where given, shadows as ``exact`` and ``r_exact`` unless
        ``include_exact`` is false, else ``coords``, an exact coordinate
        rounded, and ``r``, r_exact rounded.
        An exact level writes its rows as the cloud holds them, each
        ``exact`` value a numerator over the level's q as ``over``: a
        coordinate is r_exact times value / over. An exact level with the q,
        labels and rows of an earlier one, as the levels of one family
        member have, names the first such level by ``points_of`` in place of
        ``points`` and ``over``. GraphError names a value past the digit
        limit and, without shadows, the first value beyond binary64."""
        levels, first_with = [], {}  # the first level with a key's points
        for lvl in self.levels:
            level = {"n": lvl.n}
            shadowed = include_exact and lvl.r_exact is not None
            if not shadowed:
                try:
                    level["r"] = repr(lvl.r if lvl.r_exact is None else float(lvl.r_exact))
                except OverflowError as exc:
                    raise GraphError(f"level {_spelled(lvl.n)} has a scale r_exact beyond binary64: {exc}") from exc
            # numerators only: binary64 values such as 0.0 and -0.0 compare equal but print apart
            key = (lvl.q, lvl.labels, lvl.rows) if shadowed and lvl.q is not None else None
            first = lvl.n if key is None else first_with.setdefault(key, lvl.n)
            if first == lvl.n:
                level["points"] = _points(lvl, shadowed)
            else:
                level["points_of"] = first
            if shadowed:
                level["r_exact"] = format_rational(lvl.r_exact)
                if lvl.q is not None and first == lvl.n:
                    level["over"] = lvl.q
            levels.append(level)
        return _json_text({"norm": "sup", "dimension": self.dimension, "basepoint": [0.0] * self.dimension,
                           "period": self.period, "levels": levels})

    @classmethod
    def from_json(cls, text: str) -> "LeveledPointCloud":
        return cls.from_json_dict(_json_document(text, "cloud JSON"))


def _unpacked_level(entry: dict) -> CloudLevel:
    """A level object of a cloud file as a ``CloudLevel`` of the kind its
    points give: rows of ``exact`` lists, as ``_level_numerators`` reads
    them, over ``over``, or of ``coords``, which the level check checks;
    labels and rows None where ``points`` is no list. GraphError names the
    first point, in point order, that is no object, that has both, or whose
    kind differs from that of the first point with one."""
    points, labels, rows, q = entry["points"], None, None, None
    if isinstance(points, list):
        exacts = [item.get("exact") if isinstance(item, dict) else None for item in points]
        q, shadows = _level_numerators(entry, [e if isinstance(e, list) else None for e in exacts])
        level, labels, rows, kind = _spelled(entry["n"]), [], [], None
        for item, exact, shadow in zip(points, exacts, shadows):
            if not isinstance(item, dict):
                raise GraphError(f"point {item!r} at level {level} is not an object")
            label, coords = item.get("label"), item.get("coords")
            # an empty or null exact list, like a missing one, is none
            shadowed = exact not in (None, [])
            if shadowed and coords is not None:
                raise _retired(level, f"coords beside exact at point {label!r}")
            if shadowed or coords is not None:  # the level check names a point with neither
                kind = shadowed if kind is None else kind
                if shadowed != kind:
                    raise _retired(level, f"exact and coords mixed at point {label!r}")
            labels.append(label)
            rows.append((shadow or exact) if shadowed else coords)
    return CloudLevel(entry["n"], entry.get("r"), entry.get("r_exact"), labels, rows, q)


def _level_numerators(entry: dict, rows: list) -> tuple[Optional[int], list[Optional[tuple[int, ...]]]]:
    """A level object's raw ``exact`` lists (or None) as integer numerators
    over its ``over``, and that denominator, None without shadows. GraphError
    for an ``over`` that is no positive int or has no ``r_exact`` beside it,
    for shadows without ``over``, a retired layout, and for the first value,
    in point order, that is not spelled as the writer spells one: a string
    of ASCII digits, ``-?[0-9]+``. Each distinct value is read once."""
    level, over = _spelled(entry["n"]), None
    if "over" in entry:
        over = _integer(entry["over"], 1, f"level {level} has exact values over {{value!r}}; over must be a positive integer")
        _require_r_exact(level, over, entry.get("r_exact"))
    values = list(chain.from_iterable(filter(None, rows)))
    if not values:
        return None, [None] * len(rows)
    if over is None:
        raise _retired(level, "exact values without over")
    try:
        distinct = set(values)  # TypeError for a list
        numerators = dict(zip(distinct, _integers(distinct)))
    except (TypeError, ValueError):
        if len(values) > 1:  # the values are refused together exactly where one of them is alone
            for value in values:
                _level_numerators(entry, [[value]])
        spelling = "it must be an integer spelled -?[0-9]+ in ASCII digits, within the interpreter's digit limit"
        raise _refused(f"level {level} has exact value {{value!r}} over {_spelled(over)}; {spelling}", values[0]) from None
    flat = iter(map(numerators.__getitem__, values))
    return over, [tuple(islice(flat, len(row))) if row else None for row in rows]


def _require_r_exact(level: str, q: int, r_exact) -> None:
    """The refusal of exact values over q, in a file or in code, without the
    scale r_exact they are in units of."""
    if r_exact is None:
        raise GraphError(f"level {level} has exact values over {_spelled(q)} but no r_exact")


def _retired(level: str, layout: str) -> GraphError:
    """The refusal of a level in a layout that no writer writes any more."""
    return GraphError(f"level {level} is in a retired layout: {layout}")


def _read_by_level(dimension: int, levels: list, period) -> LeveledPointCloud:
    """The cloud of a document's checked fields, each level unpacked and
    checked as the constructor checks a level, or read by
    ``_level_points_of`` from the earlier exact level it names."""
    read, exact = [], {}
    for entry in levels:
        previous = read[-1].n if read else 0
        if isinstance(entry, dict) and "points_of" in entry:
            lvl = _level_points_of(entry, previous, exact)
        else:
            lvl = _checked_level(_unpacked_level(entry) if isinstance(entry, dict) else entry, previous, dimension)
        if lvl.q is not None:
            exact[lvl.n] = lvl
        read.append(lvl)
    return LeveledPointCloud._of_levels(dimension, read, period)


def _level_points_of(entry: dict, previous: int, exact: dict) -> CloudLevel:
    """The level object, after level ``previous``, that names by ``points_of``
    the earlier exact level with points, of ``exact`` by n, whose labels,
    rows and q it shares, with its own n and r_exact, checked as the
    constructor checks them; it has no ``points`` or ``over`` of its own."""
    n, level = _level_n(entry["n"], previous)
    points_of = entry["points_of"]
    named = exact.get(points_of) if type(points_of) is int else None
    if named is None:
        raise _refused(f"level {level} has points_of {{value!r}}, which names no earlier exact level with points", points_of)
    for field in ("points", "over"):
        if field in entry:
            raise GraphError(f"level {level} has {field} beside points_of")
    if entry.get("r_exact") is None:
        raise GraphError(f"level {level} has points_of but no r_exact")
    r, r_exact = _scales(entry.get("r"), entry["r_exact"], level)
    return CloudLevel(n, r, r_exact, named.labels, named.rows, named.q)


def _checked_fields(dimension, period, levels, sequence=(list, tuple)) -> int:
    """A cloud's dimension, once it, its period and its levels, a ``sequence``, are checked."""
    dimension = _integer(dimension, 1, "cloud dimension must be a positive integer, got {value!r}")
    if period is not None:
        _integer(period, 1, "cloud period must be a positive integer, got {value!r}")
    if not isinstance(levels, sequence):
        raise GraphError("cloud JSON levels must be a list")
    return dimension


def _with_points(levels: list[CloudLevel]) -> list[CloudLevel]:
    """The levels, when one has a point: recovery and the writer build
    ``dimension``-long origins, and only points tie ``dimension`` to the input."""
    if not any(lvl.labels for lvl in levels):
        raise GraphError("cloud JSON has no points")
    return levels


def _checked_level(lvl, previous: int, dimension: int) -> CloudLevel:
    """The level as a cloud holds it, checked after level ``previous`` (0 for
    none): with a q, its rows are numerators over q beside r_exact, and
    without one, binary64 coordinates beside r."""
    if not isinstance(lvl, CloudLevel):
        raise GraphError(f"cloud level {lvl!r} is not an object")
    n, level = _level_n(lvl.n, previous)
    labels, rows, exact = lvl.labels, lvl.rows, lvl.q is not None
    if not (isinstance(labels, (list, tuple)) and isinstance(rows, (list, tuple))):
        raise GraphError(f"points of level {level} must be a list")
    if len(labels) != len(rows):
        raise GraphError(f"level {level} has {len(labels)} labels but {len(rows)} rows")
    rows = tuple([_checked_row(label, row, level, dimension, exact) for label, row in zip(labels, rows)])
    labels = tuple(labels)
    if len(set(labels)) < len(labels):
        _refuse_repeated_label(labels, level)
    q = None
    if rows and exact:
        refusal = f"level {level} has exact shadows over q = {{value!r}}; q must be a positive integer"
        q = _integer(lvl.q, 1, refusal)
        _require_r_exact(level, q, lvl.r_exact)
        q, rows = _in_lowest_terms(q, rows)
    r, r_exact = _scales(lvl.r, lvl.r_exact, level)
    if rows and not exact and r_exact is not None:
        raise _retired(level, f"coords beside r_exact at point {labels[0]!r}")
    return CloudLevel(n, r, r_exact, labels, tuple(rows), q)


def _level_n(n, previous: int) -> tuple[int, str]:
    """A level's n, checked after level ``previous``, and its spelling."""
    n = _integer(n, 1, "cloud level n must be a positive integer, got {value!r}")
    level = _spelled(n)  # n may pass the int-to-str digit limit
    # recovery's window is the last levels; subsample and diag look a level up by n
    if n <= previous:
        raise GraphError(f"level {level} follows level {_spelled(previous)}: levels must strictly increase")
    return n, level


def _scales(r, r_exact, level) -> tuple[Optional[float], Optional[Fraction]]:
    """A level's one scale, checked: r, or r_exact with r None."""
    if r_exact is not None:
        if r is not None:
            raise _retired(level, "r beside r_exact")
        return None, _positive_exact_scale(r_exact, level)
    if r is None:
        raise GraphError(f"level {level} has neither r nor r_exact")
    return _positive_scale(r, level), None


def _checked_row(label, row, level: str, dimension: int, exact: bool) -> tuple:
    """One point's label and row as a level holds them: the row as ints, the
    numerators of an exact level, or else as binary64 coordinates."""
    # labels are sorted as strings; None marks an unlabeled point
    if label is not None and not isinstance(label, str):
        raise GraphError(f"point label {label!r} at level {level} is not a string")
    if row is None:
        raise GraphError(f"point {label!r} at level {level} has neither coords nor an exact shadow")
    # a string would be read character by character
    if not isinstance(row, (list, tuple)):
        raise GraphError(f"point {label!r} at level {level} has coordinates that are not a JSON list")
    if exact:
        refusal = f"level {level} has a shadow numerator that is no int: {{value!r}}"
        for a in row:
            _integer(a, -math.inf, refusal)
        row = tuple(row)
    else:
        # float() would read JSON true and false as 1.0 and 0.0, and a string
        # as the number it spells
        for x in row:
            if isinstance(x, (bool, str)):
                kind = "a JSON string" if isinstance(x, str) else "a JSON true or false"
                raise GraphError(f"point {label!r} at level {level} has a non-numeric coordinate: {kind}")
        try:
            row = tuple(map(float, row))
        except TypeError as exc:
            raise GraphError(f"point {label!r} at level {level} has a non-numeric coordinate: {exc}") from exc
        except OverflowError as exc:
            raise GraphError(f"point {label!r} at level {level} has a coordinate beyond binary64: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise GraphError(f"point {label!r} at level {level} has a NaN or infinite coordinate")
    # sup_distance zips coordinates: a short row would be cut silently
    if len(row) != dimension:
        raise GraphError(f"point {label!r} at level {level} does not have {_spelled(dimension)} coordinates")
    return row


def _refuse_repeated_label(labels: list, level: str) -> None:
    """GraphError naming the first label of the level, in point order, that an
    earlier point has: a label names one sequence. Unlabeled points (None)
    may repeat."""
    seen = set()
    for label in labels:
        if label in seen:
            raise GraphError(f"duplicate label {label!r} at level {level}")
        if label is not None:
            seen.add(label)


def _points(lvl: CloudLevel, shadowed: bool) -> list[dict]:
    """The ``points`` of a level: each point's row as ``exact`` values where
    ``shadowed``, each distinct value spelled once, and as ``coords`` otherwise."""
    if shadowed:
        field, values = "exact", iter(_format_over(list(chain.from_iterable(lvl.rows)), 1))
        rows = [list(islice(values, len(row))) for row in lvl.rows]
    else:
        field, rows = "coords", _level_floats(lvl)
    return [{"label": label, field: row} for label, row in zip(lvl.labels, rows)]


def _level_floats(lvl: CloudLevel) -> Sequence[tuple[float, ...]]:
    """The binary64 coordinates of the level's points, in point order: the
    rows of a binary64 level, or an exact level's rows rounded as int true
    division of r_exact * a by q rounds each, each distinct value once.
    GraphError names the first point, in point order, with a coordinate
    beyond binary64."""
    if lvl.q is None:
        return lvl.rows
    num, den = lvl.r_exact.numerator, lvl.q * lvl.r_exact.denominator
    try:
        rounded = iter(_each_once(lambda a: a * num / den, list(chain.from_iterable(lvl.rows))))
    except OverflowError:
        # some point's division overflowed: name the first in point order
        for label, row in zip(lvl.labels, lvl.rows):
            try:
                [a * num / den for a in row]
            except OverflowError as exc:
                refusal = f"has a coordinate beyond binary64: {exc}"
                raise GraphError(f"point {label!r} at level {_spelled(lvl.n)} {refusal}") from exc
    return [tuple(islice(rounded, len(row))) for row in lvl.rows]


def _positive_scale(value, level: str) -> float:
    """A level's binary64 scale r: recovery divides by it, so it must be a
    finite number above zero."""
    if isinstance(value, bool):
        raise GraphError(f"level {level} has a scale r that is not a binary64 number: {value!r}")
    try:
        r = _decimal(value) if isinstance(value, str) else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError(f"level {level} has a scale r that is not a binary64 number: {exc}") from exc
    if not (math.isfinite(r) and r > 0):
        raise GraphError(f"level {level} has scale r = {r}; it must be finite and positive")
    return r


def _positive_exact_scale(value, level: str) -> Fraction:
    """A level's exact scale r_exact: a positive rational, as
    ``parse_rational`` reads one; GraphError naming the level otherwise."""
    try:
        r_exact = _rational(value)
    except ValueError:
        raise GraphError(f"level {level} has a scale r_exact of more than {_digit_limit() or 4300} digits") from None
    if r_exact is None:
        if isinstance(value, float):
            raise GraphError(
                f"level {level} has a float scale r_exact {value!r}: pass a string ('3/2' or '1.5') for exactness"
            )
        raise GraphError(f"level {level} has a scale r_exact that is not a rational literal: {value!r}")
    if r_exact <= 0:
        raise GraphError(f"level {level} has exact scale r_exact = {_spelled(r_exact)}; it must be positive")
    return r_exact


def sup_distance(a: Sequence, b: Sequence):
    """Sup-norm distance; works for float, int and Fraction tuples alike."""
    return max(map(abs, map(operator.sub, a, b)))


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def build_plan(g: WeightedRootedGraph, depth: int) -> RealizationPlan:
    """Choose the metric family for a certified graph.

    The upper member is the shortest-path metric d. Let delta be the least
    width hi - lo of an admissible interval over the m non-edges (positive on
    a certified graph) and c = min(m + 1, n). The lower member is the
    shortest-path metric of g plus every non-edge (u, v) as an edge of weight
    d(u, v) - delta/c. Between the ends of an edge ab, a simple path through
    added edges is at least w(ab) + delta long in d (the lower end of its
    first added edge's interval says so) and has fewer than c added edges,
    each taking off delta/c; so every edge weight survives, and each non-edge
    drops by at least delta/c below d, staying positive.

    Certification hands over d and delta as integers over L, the least
    common multiple of the weight denominators; the closure runs in units of
    1/(cL), where every added weight is the integer c * d(u, v) - delta.
    A depth below the family's period is refused, as a non-edge shows only
    in the oscillation between the members.
    """
    _integer(depth, 1, "depth must be at least 1")
    cert, sg, delta = _certify(g)
    if not cert.ok:
        raise GraphError(
            f"graph does not certify (failed: {cert.failure}); realization needs a certified graph"
        )
    non_edges = list(g.non_edges())
    d = sg.matrix()

    if not non_edges:
        family = (d,)
    else:
        c = min(len(non_edges) + 1, len(g))
        edges = [(i, j, c * w) for i, j, w in sg.edges]
        for u, v in non_edges:
            i, j = sg.index[u], sg.index[v]
            edges.append((i, j, c * sg.row(i)[j] - delta))
        lower = _ScaledGraph(sg.vertices, edges, c * sg.scale).matrix()
        family = (lower, d)
    if depth < len(family):
        raise GraphError(
            f"depth {depth} is shorter than one full metric-family period "
            f"({len(family)}): recovery cannot see every member"
        )
    return RealizationPlan._of_family(g, family, depth)


def generate_cloud(plan: RealizationPlan) -> LeveledPointCloud:
    """Materialize the plan: distance-difference coordinates per level.

    Point v at level n, of scale r_n = n!, has the coordinate
    r_n * (d_i(v, v_j) - d_i(v_j, root)) for each non-root vertex v_j (the
    root alone in a one-vertex graph), with i cycling through the family.
    The root lands on the origin, and within a level the sup-norm distances
    reproduce r_n * d_i exactly: no column exceeds d_i(u, v), and that of a
    non-root end of the pair attains it. Each level is exact, its rows over
    r_n; the levels of a member share their rows. The plan is one that
    ``build_plan`` made, its members on the graph's vertices in their order,
    and is not checked again; GraphError names the first level whose r_n has
    more digits than the interpreter's int-to-str limit lets to_json write:
    no level past it is built.
    """
    order, family = plan.graph.vertices, plan.family
    root = order.index(plan.graph.root)
    columns = [j for j in range(len(order)) if j != root] or [root]
    # over r_n, a level's coordinates are its member's differences, taken once
    members = []
    for d in family:
        to_root = [d._num[root][j] for j in columns]
        rows = [tuple([row[j] - t for j, t in zip(columns, to_root)]) for row in d._num]
        q, rows = _in_lowest_terms(d._q, rows)
        members.append((q, tuple(rows)))
    labels = tuple(order)
    levels = []
    for n, r in _exact_scales(plan.depth, lambda n: n):
        q, rows = members[(n - 1) % len(members)]
        levels.append(CloudLevel(n, None, Fraction(r), labels, rows, q))
    return LeveledPointCloud._of_levels(len(columns), levels, len(family))


def _exact_scales(depth: int, factor) -> Iterator[tuple[int, int]]:
    """Each level n = 1..depth and its scale r_n = factor(1) * ... * factor(n);
    GraphError names the first level whose r_n has more digits than the
    interpreter's int-to-str limit lets to_json write, and yields none past it."""
    # a limit of 0 lets str() spell every int; as log2(10) > 3.3219, an r of at
    # most limit * 33219 // 10000 bits is below 10**limit, built only past that
    limit = _digit_limit()
    bits = limit * 33219 // 10000 if limit else math.inf
    r = 1
    for n in range(1, depth + 1):
        r *= factor(n)
        if r.bit_length() > bits and r >= 10**limit:
            raise GraphError(f"level {n} has a scale r_exact of more than {limit} digits, which to_json cannot write")
        yield n, r


def realize(g: WeightedRootedGraph, depth: int) -> LeveledPointCloud:
    """build_plan + generate_cloud in one call."""
    return generate_cloud(build_plan(g, depth))


# ---------------------------------------------------------------------------
# the one-point space
# ---------------------------------------------------------------------------


def single_point_space(depth: int) -> LeveledPointCloud:
    """One-dimensional space whose cluster at infinity is a single point.

    Points x_n = 2**(n*n) on the half line with basepoint 0, level n rescaled
    by r_n = 2**(n*n + n) = r_{n-1} * 4**n, so x_k / r_n <= 2**-n for k <= n
    and x_k / r_n >= 2**(n + 1) for k > n: all normalized distances collapse
    to zero and the recovered cluster is the one-vertex graph. Level n holds
    the rows (0,) and (1,) over q = 2**n, up to the digit limit.
    """
    _integer(depth, 2, "depth must be at least 2")
    levels = []
    for n, r in _exact_scales(depth, lambda n: 4**n):
        levels.append(CloudLevel(n, None, Fraction(r), ("p", "x"), ((0,), (1,)), 2**n))
    return LeveledPointCloud._of_levels(1, levels, None)
