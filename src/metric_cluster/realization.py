"""Building finite truncations of spaces whose cluster at infinity is a given graph.

Given a certified graph, a family of two shortest-path metrics is produced:
d of the graph, and a lower one of the graph plus every non-edge as an edge
a little shorter than in d. Both agree with the edge weights, and the lower
one is strictly below d on every non-edge. Levels n = 1..depth place an
isometric copy of (V, r_n * d_i) into sup-norm coordinate space via
distance-difference coordinates, alternating i between the two members. The
scaling sequence grows so fast (ratio of consecutive terms increasing
without bound) that different levels separate after rescaling, which is
what makes the cluster recoverable from the finite truncation.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .graph_core import GraphError, WeightedRootedGraph, format_rational, parse_rational
from .graph_core import _format_over, _in_lowest_terms, _integer, _over_lcm
from .graph_core import _each_once, _json_document, _spelled
from .metrization import DistanceMatrix, _ScaledGraph
from .fpc import _certify


@dataclass(frozen=True)
class ScalingRule:
    """Named scaling sequence with an increasing consecutive-term ratio.

    ``factorial``: r_n = n!            (ratio n+1)
    ``power_square``: r_n = base**(n*n) (ratio base**(2n+1); faster separation
    at shallow depth)
    """

    name: str = "factorial"
    base: int = 2

    def __post_init__(self):
        if self.name not in ("factorial", "power_square"):
            raise GraphError(f"unknown scaling rule {self.name!r}")
        # base 1 keeps every scale at 1 and base <= 0 gives zero or
        # alternating-sign scales: none of them tends to infinity; a float
        # base gives no integer scale
        if self.name == "power_square":
            _integer(self.base, 2, "base must be an integer >= 2")

    def value(self, n: int) -> int:
        _integer(n, 1, "levels are numbered from 1")
        if self.name == "factorial":
            return math.factorial(n)
        return self.base ** (n * n)


@dataclass
class RealizationPlan:
    """Recipe for a point cloud realizing a certified graph.

    ``family`` is ``[lower, d]``: d is the shortest-path metric and lower
    (see ``build_plan``) agrees with every edge weight but lies strictly
    below d on every non-edge, so each non-edge oscillates with period 2
    while each edge stays put. A complete graph has the single member ``[d]``.
    """

    graph: WeightedRootedGraph
    family: list[DistanceMatrix]
    rule: ScalingRule
    depth: int
    warnings: list[str] = field(default_factory=list)

    @property
    def period(self) -> int:
        return len(self.family)


@dataclass
class CloudPoint:
    """One point of a level: the integer numerators over the level's ``q`` of
    its exact coordinates in units of the level's scale where the cloud has a
    shadow for it, and binary64 ``coords`` otherwise. A shadowed point holds
    no coords: a binary64 reader rounds its shadow (see ``CloudLevel``)."""

    label: Optional[str]
    coords: Optional[tuple[float, ...]]
    exact: Optional[tuple[int, ...]] = None


@dataclass
class CloudLevel:
    """One level: scale r (binary64 and, optionally, exact: r is then
    r_exact rounded, derived from it where given as None) and its points.

    Shadows are held in units of the level's scale R, r_exact or r read
    exactly, as recovery's normalized distances d / r_n are: ``q`` is their
    least common denominator, and point p's j-th exact coordinate is
    R * p.exact[j] / q; a file's ``over`` and values are q and the numerators.
    q is None when no point has a shadow. A binary64 reader takes that value
    rounded, derived when it asks; construction makes it finite.
    """

    n: int
    r: Optional[float]
    r_exact: Optional[Fraction]
    points: list[CloudPoint]
    q: Optional[int] = None


@dataclass
class LeveledPointCloud:
    """Finite truncation of an unbounded space, one labeled point set per level.

    Points live in sup-norm coordinate space; the basepoint is the origin and
    appears at every level (as the root's image in generated clouds). A point
    holds either an exact rational shadow, integer numerators over one
    denominator per level in units of its scale (see ``CloudLevel``), as the
    constructor takes them, or binary64 coordinates.

    Construction checks ``dimension``, ``period``, then each level's ``n``,
    points, labels, ``r``, ``r_exact`` and ``q``, and that a level has a
    point; it holds an int coordinate as its float, shadows in lowest terms
    and no coords next to a shadow, once they equal its rounding. Every file
    the JSON reader refuses goes through it, so a file and the same value in
    code are refused alike.
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
        seen = set()
        for level in self.levels:
            for p in level.points:
                seen.add(p.label)
        return tuple(sorted(seen, key=lambda x: (x is None, x or "")))

    def points_by_label(self, level: CloudLevel) -> dict[str, CloudPoint]:
        """The level's labeled points by label; GraphError if a label repeats."""
        out = {p.label: p for p in level.points}
        if len(out) < len(level.points):
            _refuse_repeated_label([p.label for p in level.points], level.n)
        out.pop(None, None)
        return out

    def has_exact(self) -> bool:
        """Every level has an exact scale and every point an exact shadow."""
        return all(
            lvl.r_exact is not None and all(p.exact is not None for p in lvl.points)
            for lvl in self.levels
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "LeveledPointCloud":
        """The cloud of a JSON document, read once, level by level. A level
        in a layout the writer writes for a realized cloud is read in one
        pass; any other, absolute shadows written before ``over`` among them,
        is unpacked and checked alone, as the constructor checks a level. A
        refusal names a fault of the fields before any of a level, and the
        first faulty level in level order."""
        try:
            dimension, levels = data["dimension"], data["levels"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"cloud JSON is missing field: {exc}") from exc
        if data.get("norm", "sup") != "sup":
            raise GraphError(f"cloud norm {data['norm']!r} is not supported; only 'sup' is")
        period = data.get("period")
        try:
            # a tuple of levels, in a dict built in code, goes whole through the constructor
            cloud = _read_by_level(dimension, levels, period) if isinstance(levels, list) else cls(dimension, levels, period)
        except KeyError as exc:
            raise GraphError(f"cloud JSON level is missing field: {exc}") from exc
        # recovery measures every distance to the origin; JSON false loads as
        # Python's False, which equals 0
        basepoint = data.get("basepoint", [0] * dimension)
        if basepoint != [0] * dimension or bool in map(type, basepoint):
            raise GraphError(f"cloud basepoint must be the origin, {dimension} zeros")
        return cloud

    def to_json(self, include_exact: bool = True) -> str:
        """The cloud file in the README's layout, byte for byte as
        ``json.dumps(..., indent=2)`` lays it out: where given, shadows as
        ``exact`` and ``r_exact`` unless ``include_exact`` is false, else
        ``coords``, a shadow rounded, and ``r``. A level with ``r_exact``
        writes its shadows as the cloud holds them, each ``exact`` value a
        numerator over the level's q as ``over``: a coordinate is r_exact
        times value / over. GraphError names a value past the digit limit."""
        out = ['{\n  "norm": "sup",\n  "dimension": ', json.dumps(self.dimension), ',\n  "basepoint": ']
        _array(out, ["0.0"] * self.dimension, _BASEPOINT)
        period = "null" if self.period is None else format_rational(self.period)
        out += (',\n  "period": ', period, ',\n  "levels": ')
        opening = "[\n    {"
        for lvl in self.levels:
            out += (opening, '\n      "n": ', format_rational(lvl.n))
            opening = ",\n    {"
            shadowed = include_exact and lvl.r_exact is not None
            if not shadowed:
                out += (',\n      "r": ', _json_scalar(repr(lvl.r)))
            out.append(',\n      "points": ')
            over = _write_points(out, lvl, include_exact)
            if shadowed:
                out += (',\n      "r_exact": ', _json_scalar(format_rational(lvl.r_exact)))
            if over is not None:
                out += (',\n      "over": ', format_rational(over))
            out.append("\n    }")
        out.append("\n  ]\n}")
        return "".join(out)

    @classmethod
    def from_json(cls, text: str) -> "LeveledPointCloud":
        return cls.from_json_dict(_json_document(text, "cloud JSON"))


def _unpacked_level(entry: dict) -> CloudLevel:
    """A level object of a cloud file as a ``CloudLevel``: its point objects
    as points, with a ``coords`` list as a tuple and an ``exact`` list as
    numerators over one denominator in units of the level's scale, the values
    over ``over`` or else each value over the scale, which the level check
    names where it is malformed."""
    points, q = entry["points"], None
    if isinstance(points, list):
        exacts = [item.get("exact") if isinstance(item, dict) else None for item in points]
        rows = [e if isinstance(e, list) else None for e in exacts]
        q, shadows = _level_numerators(rows)
        if "over" in entry:
            q = _in_units_of_scale(entry, rows, q)
        elif q is not None:
            try:
                scale = _scale(*_scales(entry.get("r"), entry.get("r_exact"), entry.get("n")))
            except GraphError:
                pass
            else:
                q, shadows = _in_units(q, shadows, scale)
        points = [
            CloudPoint(
                item.get("label"),
                tuple(coords) if isinstance(coords := item.get("coords"), list) else coords,
                shadow if isinstance(exact, list) else exact,
            )
            if isinstance(item, dict) else item
            for item, exact, shadow in zip(points, exacts, shadows)
        ]
    return CloudLevel(entry["n"], entry.get("r"), entry.get("r_exact"), points, q)


def _in_units_of_scale(entry: dict, rows: list, q: Optional[int]) -> Optional[int]:
    """The denominator ``over`` of a level's shadows in units of its scale,
    each value an integer, or None without shadows (q None): GraphError for
    an ``over`` that is no positive int, a level without ``r_exact`` and, in
    point order, the first value that is no integer."""
    level = _spelled(entry["n"])
    over = _integer(entry["over"], 1, f"level {level} has exact values over {{value!r}}; over must be a positive integer")
    if entry.get("r_exact") is None:
        raise GraphError(f"level {level} has exact values over {_spelled(over)} but no r_exact")
    if q not in (None, 1):
        value = next(x for x in chain.from_iterable(filter(None, rows)) if parse_rational(x).denominator != 1)
        raise GraphError(f"level {level} has exact value {value!r} over {_spelled(over)}; it must be an integer")
    return None if q is None else over


def _in_units(q: int, rows: list, scale: Fraction) -> tuple[int, list]:
    """Rows of numerators (or None) over q as those of each value over
    ``scale``, in lowest terms, and their denominator."""
    g = math.gcd(q, scale.denominator)
    q, k = q // g * scale.numerator, scale.denominator // g
    return _in_lowest_terms(q, [tuple([k * a for a in row]) if row else None for row in rows])


def _scale(r: float, r_exact: Optional[Fraction]) -> Fraction:
    """A level's scale, its shadows' unit: r_exact, or r read exactly."""
    return Fraction(r) if r_exact is None else r_exact


def _read_by_level(dimension, levels: list, period) -> LeveledPointCloud:
    """The cloud of a document's fields, each level read by ``_level_at_once``
    or, where it declines, unpacked and checked as the constructor checks it."""
    dimension = _checked_fields(dimension, period, levels)
    read: list[CloudLevel] = []
    for entry in levels:
        previous = read[-1].n if read else 0
        try:
            lvl = _level_at_once(entry, previous, dimension)
        except (KeyError, TypeError, ValueError, OverflowError):  # GraphError is a ValueError
            lvl = _checked_level(_unpacked_level(entry) if isinstance(entry, dict) else entry, previous, dimension)
        read.append(lvl)
    return LeveledPointCloud._of_levels(dimension, read, period)


def _level_at_once(entry: dict, previous: int, dimension: int) -> CloudLevel:
    """A level object of a file, after level ``previous``, as the checked
    path makes it, in one of the two layouts the writer writes for a
    realized cloud: each point an ``exact`` list of ``_shadows_at_once``
    values alone, over a positive int ``over``, with an ``r_exact``; or each
    point ``coords`` of finite floats alone, without ``over``. Labels are
    distinct strings or None. KeyError, TypeError or ValueError for any
    other level, OverflowError for a shadow that rounds beyond binary64."""
    n, points = entry["n"], entry["points"]
    if not (type(n) is int and n > previous and type(points) is list):
        raise ValueError(n)
    r_exact = entry.get("r_exact")
    if type(r_exact) is str and r_exact.isascii() and r_exact.isdigit():
        r_exact = int(r_exact)  # ValueError past the digit limit
    r, r_exact = _scales(entry.get("r"), r_exact, n)
    # TypeError unless each point is an object
    labels, given, exacts = (list(map(dict.get, points, repeat(key))) for key in ("label", "coords", "exact"))
    named = [label for label in labels if label is not None]  # unlabeled points may repeat
    if set(map(type, named)) - {str} or len(set(named)) < len(named):
        raise ValueError(labels)
    over, q, kinds = entry.get("over"), None, set(map(type, exacts))
    if kinds <= {type(None)} and "over" not in entry:
        flat = list(chain.from_iterable(given))
        if not (
            set(map(type, given)) <= {list}
            and set(map(len, given)) <= {dimension}
            and set(map(type, flat)) <= {float}
            and all(map(math.isfinite, flat))
        ):
            raise ValueError(given)
        coords, shadows = list(map(tuple, given)), repeat(None)
    elif (
        kinds == {list} and set(map(len, exacts)) == {dimension} and given == [None] * len(points)
        and type(over) is int and over > 0 and r_exact is not None
    ):
        values = list(chain.from_iterable(exacts))
        distinct, numerators = _shadows_at_once(values)
        q, (numerators,) = _in_lowest_terms(over, [numerators])
        _binary64_guard(numerators, q, r_exact)
        shadows = list(zip(*[map(dict(zip(distinct, numerators)).__getitem__, values)] * dimension))
        coords = repeat(None)
    else:
        raise ValueError(exacts)
    return CloudLevel(n, r, r_exact, list(map(CloudPoint, labels, coords, shadows)), q)


def _shadows_at_once(values: list) -> tuple[list[str], list[int]]:
    """A level's exact values in units of its scale, each ``-?digits`` in
    ASCII digits, read once each, as most values of a realized level repeat:
    the distinct values and their integers. TypeError or ValueError for any
    other value."""
    distinct = list(set(values))  # TypeError for a list
    text = ",".join(distinct)  # TypeError unless each value is a string
    # int() also reads blanks, "+", "_" and other scripts' digits, which
    # Fraction may refuse; a character beyond ASCII encodes to bytes >= 0x80
    if text.encode().translate(None, b"0123456789-,"):
        raise ValueError(text)
    # int() refuses "", "-", "--3", "1,2" and digits beyond the limit
    return distinct, list(map(int, distinct))


def _binary64_guard(numerators, q: int, scale: Fraction) -> None:
    """OverflowError exactly when some scale * a / q rounds beyond binary64:
    rounding is monotone, so the one division for the largest |a| is the test."""
    max(map(abs, numerators), default=0) * scale.numerator / (q * scale.denominator)


def _checked_fields(dimension, period, levels) -> int:
    """A cloud's dimension, once it, its period and its levels are checked."""
    dimension = _integer(dimension, 1, "cloud dimension must be a positive integer, got {value!r}")
    if period is not None:
        _integer(period, 1, "cloud period must be a positive integer, got {value!r}")
    if not isinstance(levels, (list, tuple)):
        raise GraphError("cloud JSON levels must be a list")
    return dimension


def _with_points(levels: list[CloudLevel]) -> list[CloudLevel]:
    """The levels, when one has a point: recovery and the writer build
    ``dimension``-long origins, and only points tie ``dimension`` to the input."""
    if not any(lvl.points for lvl in levels):
        raise GraphError("cloud JSON has no points")
    return levels


def _checked_level(lvl, previous: int, dimension: int) -> CloudLevel:
    """The level as a cloud holds it, checked after level ``previous`` (0 for none)."""
    if not isinstance(lvl, CloudLevel):
        raise GraphError(f"cloud level {lvl!r} is not an object")
    n = _integer(lvl.n, 1, "cloud level n must be a positive integer, got {value!r}")
    level = _spelled(n)  # n may pass the int-to-str digit limit
    # recovery's window is the last levels; subsample and diag look a level up by n
    if n <= previous:
        raise GraphError(f"level {level} follows level {_spelled(previous)}: levels must strictly increase")
    if not isinstance(lvl.points, (list, tuple)):
        raise GraphError(f"points of level {level} must be a list")
    points = [_read_point(p, level, dimension) for p in lvl.points]
    labels = [p.label for p in points]
    if len(set(labels)) < len(labels):
        _refuse_repeated_label(labels, level)
    r, r_exact = _scales(lvl.r, lvl.r_exact, level)
    q = None
    shadows = [p.exact for p in points]
    if any(shadows):
        refusal = f"level {level} has exact shadows over q = {{value!r}}; q must be a positive integer"
        q, shadows = _in_lowest_terms(_integer(lvl.q, 1, refusal), shadows)
        points = _with_shadows(points, shadows, q, _scale(r, r_exact), level)
    return CloudLevel(n, r, r_exact, points, q)


def _scales(r, r_exact, level) -> tuple[float, Optional[Fraction]]:
    """A level's scale r and exact scale r_exact, checked; r is r_exact
    rounded where r_exact is given."""
    r = None if r is None else _positive_scale(r, level)
    r_exact = _positive_exact_scale(r_exact, level)
    if r_exact is not None:
        r_float = _positive_scale(r_exact, level)
        if r not in (None, r_float):
            raise GraphError(f"level {level} has scale r = {r!r}, but r_exact rounds to {r_float!r}")
        r = r_float
    if r is None:
        raise GraphError(f"level {level} has neither r nor r_exact")
    return r, r_exact


def _with_shadows(points: list[CloudPoint], shadows: list, q: int, scale: Fraction, level: str) -> list[CloudPoint]:
    """The points, each with its shadow over q and without coords where it
    has one. A shadow is rounded, as int true division of scale * a by q
    rounds it, only where coords are given or the level's guard fails:
    GraphError names the first point whose rounding leaves binary64 or
    differs from its coords."""
    num, den = scale.numerator, q * scale.denominator
    try:
        _binary64_guard(chain.from_iterable(filter(None, shadows)), q, scale)
        fits = True
    except OverflowError:
        fits = False
    out = []
    for p, shadow in zip(points, shadows):
        if shadow and (p.coords is not None or not fits):
            try:
                coords = tuple([a * num / den for a in shadow])
            except OverflowError as exc:
                refusal = f"has a coordinate beyond binary64: {exc}"
                raise GraphError(f"point {p.label!r} at level {level} {refusal}") from exc
            if p.coords not in (None, coords):
                refusal = f"has coords {list(p.coords)}, but its exact shadow rounds to {list(coords)}"
                raise GraphError(f"point {p.label!r} at level {level} {refusal}")
        out.append(CloudPoint(p.label, None if shadow else p.coords, shadow))
    return out


def _read_point(p, level: str, dimension: int) -> CloudPoint:
    """One point as a cloud holds it: float coordinates, a tuple of ints for
    its shadow, or both, and None for what it lacks."""
    if not isinstance(p, CloudPoint):
        raise GraphError(f"point {p!r} at level {level} is not an object")
    label, coords, exact = p.label, p.coords, p.exact
    # labels are sorted as strings; None marks an unlabeled point
    if label is not None and not isinstance(label, str):
        raise GraphError(f"point label {label!r} at level {level} is not a string")
    # a string would be read character by character
    if not all(isinstance(x, (list, tuple, type(None))) for x in (coords, exact)):
        raise GraphError(
            f"point {label!r} at level {level} has coordinates that are not a JSON list"
        )
    # an empty shadow, like a missing one, is none
    if coords is None and not exact:
        raise GraphError(f"point {label!r} at level {level} has neither coords nor an exact shadow")
    # float() would read JSON true and false as 1.0 and 0.0, and a string as
    # the number it spells
    for x in coords or ():
        if isinstance(x, (bool, str)):
            kind = "a JSON string" if isinstance(x, str) else "a JSON true or false"
            raise GraphError(f"point {label!r} at level {level} has a non-numeric coordinate: {kind}")
    try:
        coords = None if coords is None else tuple(map(float, coords))
    except TypeError as exc:
        raise GraphError(
            f"point {label!r} at level {level} has a non-numeric coordinate: {exc}"
        ) from exc
    except OverflowError as exc:
        raise GraphError(
            f"point {label!r} at level {level} has a coordinate beyond binary64: {exc}"
        ) from exc
    if not all(map(math.isfinite, coords or ())):
        raise GraphError(f"point {label!r} at level {level} has a NaN or infinite coordinate")
    # sup_distance zips coordinates: a short list would be cut silently
    exact = tuple(exact) if exact else None
    if any(x is not None and len(x) != dimension for x in (coords, exact)):
        coordinates = f"{_spelled(dimension)} coordinates"
        raise GraphError(f"point {label!r} at level {level} does not have {coordinates}")
    for a in exact or ():
        _integer(a, -math.inf, f"level {level} has a shadow numerator that is no int: {{value!r}}")
    return CloudPoint(label, coords, exact)


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


def _level_numerators(
    shadows: Sequence[Optional[list]],
) -> tuple[Optional[int], list[Optional[tuple[int, ...]]]]:
    """One level's raw ``exact`` lists (or None) as integer numerators over
    the least common denominator q of their values; q is None when no point
    has a shadow. ``parse_rational`` reads the values one by one in point
    order, so the first malformed one names the error."""
    rows = [row for row in shadows if row]
    if not rows:
        return None, [None] * len(shadows)
    # the least common multiple of reduced denominators puts them in lowest terms
    q, numerators = _over_lcm([parse_rational(x) for x in chain.from_iterable(rows)])
    flat = iter(numerators)
    return q, [tuple(islice(flat, len(row))) if row else None for row in shadows]


def _layout(pad: str, quote: str = "") -> tuple[str, str, str]:
    """The opening, separator and closing of a JSON array of encoded items,
    laid out as ``json.dumps(indent=2)`` nests it in a field indented by
    ``pad``; ``quote`` encloses each item, which makes strings of items json
    needs no escape for."""
    inner = "\n  " + pad + quote
    return "[" + inner, quote + "," + inner, quote + "\n" + pad + "]"


# indentation of a point's fields in the indent=2 layout, and the arrays of
# the cloud's basepoint and of a point's coords and exact values
_PAD_POINT = " " * 10
_BASEPOINT, _COORDS, _EXACT = _layout(" " * 2), _layout(_PAD_POINT), _layout(_PAD_POINT, '"')


def _array(out: list, items: list[str], layout: tuple[str, str, str]) -> None:
    """Appends the JSON array of encoded items, at least one, in ``layout`` to ``out``."""
    opening, separator, closing = layout
    out += (opening, separator.join(items), closing)


def _write_points(out: list, lvl: CloudLevel, include_exact: bool) -> Optional[int]:
    """Appends the ``points`` array of a level to ``out``: each point's
    ``exact`` when it is written, and its ``coords`` otherwise. Each distinct
    exact value of the level is spelled once. Returns the level's ``over``,
    its q, when it writes shadows in units of ``r_exact``, else None."""
    if not lvl.points:
        out.append("[]")
        return None
    shadowed = [include_exact and p.exact is not None for p in lvl.points]
    values = [a for p, s in zip(lvl.points, shadowed) if s for a in p.exact]
    over = lvl.q if values and lvl.r_exact is not None else None
    q = 1
    if values and over is None:
        # without r_exact, each coordinate r * a / q itself, as a rational
        scale = _scale(lvl.r, lvl.r_exact)
        values, q = [a * scale.numerator for a in values], lvl.q * scale.denominator
    exact = iter(_format_over(values, q))
    rows = [p.coords for p in lvl.points] if include_exact else _level_floats(lvl)
    opening = "[\n        {"
    for p, s, coords in zip(lvl.points, shadowed, rows):
        out += (opening, '\n          "label": ', _json_scalar(p.label))
        opening = ",\n        {"
        if s:
            out.append(',\n          "exact": ')
            _array(out, list(islice(exact, len(p.exact))), _EXACT)
        else:
            out.append(',\n          "coords": ')
            _array(out, list(map(float.__repr__, coords)), _COORDS)
        out.append("\n        }")
    out.append("\n      ]")
    return over


def _level_floats(lvl: CloudLevel) -> list[tuple[float, ...]]:
    """The binary64 coordinates of the level's points, in point order: a
    point's coords, or its shadow rounded as int true division of scale * a
    by q rounds it, each distinct value once. The guard keeps them finite."""
    shadows = [p.exact for p in lvl.points if p.exact is not None]
    if not shadows:
        return [p.coords for p in lvl.points]
    scale = _scale(lvl.r, lvl.r_exact)
    num, den = scale.numerator, lvl.q * scale.denominator
    rounded = iter(_each_once(lambda a: a * num / den, list(chain.from_iterable(shadows))))
    return [p.coords if p.exact is None else tuple(islice(rounded, len(p.exact))) for p in lvl.points]


def _json_scalar(value) -> str:
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _positive_scale(value, level: str) -> float:
    """A level's binary64 scale r: recovery divides by it, so it must be a
    finite number above zero."""
    if isinstance(value, bool):
        raise GraphError(f"level {level} has a scale r that is not a binary64 number: {value!r}")
    try:
        r = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError(f"level {level} has a scale r that is not a binary64 number: {exc}") from exc
    if not (math.isfinite(r) and r > 0):
        raise GraphError(f"level {level} has scale r = {r}; it must be finite and positive")
    return r


def _positive_exact_scale(value, level: str) -> Optional[Fraction]:
    if value is None:
        return None
    r_exact = parse_rational(value)
    if r_exact <= 0:
        raise GraphError(f"level {level} has exact scale r_exact = {_spelled(r_exact)}; it must be positive")
    return r_exact


def sup_distance(a: Sequence, b: Sequence):
    """Sup-norm distance; works for float, int and Fraction tuples alike."""
    return max(map(abs, map(operator.sub, a, b)))


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def build_plan(
    g: WeightedRootedGraph,
    depth: int,
    rule: ScalingRule | None = None,
) -> RealizationPlan:
    """Choose the metric family and scaling for a certified graph.

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
    """
    _integer(depth, 1, "depth must be at least 1")
    cert, sg, delta = _certify(g)
    if not cert.ok:
        raise GraphError(
            f"graph does not certify (failed: {cert.failure}); realization needs a certified graph"
        )
    rule = rule or ScalingRule()
    non_edges = list(g.non_edges())
    warnings: list[str] = []
    d = sg.matrix()

    if not non_edges:
        family = [d]
    else:
        c = min(len(non_edges) + 1, len(g))
        edges = [(i, j, c * w) for i, j, w in sg.edges]
        for u, v in non_edges:
            i, j = sg.index[u], sg.index[v]
            edges.append((i, j, c * sg.row(i)[j] - delta))
        lower = _ScaledGraph(sg.vertices, edges, c * sg.scale).matrix()
        family = [lower, d]
        if depth < len(family):
            warnings.append(
                f"depth {depth} is shorter than one full metric-family period "
                f"({len(family)}): recovery cannot see every member"
            )

    return RealizationPlan(
        graph=g,
        family=family,
        rule=rule,
        depth=depth,
        warnings=warnings,
    )


def generate_cloud(plan: RealizationPlan) -> LeveledPointCloud:
    """Materialize the plan: distance-difference coordinates per level.

    Point v at level n has the coordinate r_n * (d_i(v, v_j) - d_i(v_j, root))
    for each non-root vertex v_j (the root alone in a one-vertex graph), with
    i cycling through the family. The root lands on the origin, and within a
    level the sup-norm distances reproduce r_n * d_i exactly: no column exceeds
    d_i(u, v), and that of a non-root end of the pair attains it. A point
    holds its shadow alone, over r_n: the levels of a member hold equal rows.

    A level is refused with ``GraphError`` exactly when r_n, or r_n times the
    largest distance of d_i, rounds beyond binary64: that product is the
    level's largest sup-norm distance, and it bounds every coordinate, as
    |d_i(v, v_j) - d_i(v_j, root)| <= d_i(v, root). A plan field it cannot
    realize from, its depth, graph, rule or family, is named by GraphError.
    """
    depth = _integer(plan.depth, 1, "depth must be at least 1")
    for name, value, kind in (("graph", plan.graph, WeightedRootedGraph), ("rule", plan.rule, ScalingRule)):
        if not isinstance(value, kind):
            raise GraphError(f"plan {name} must be a {kind.__name__}, got {type(value).__name__}")
    order, family = plan.graph.vertices, plan.family
    if not (isinstance(family, (list, tuple)) and family) or any(
        not isinstance(d, DistanceMatrix) or set(d.vertices) != set(order) for d in family
    ):
        raise GraphError("plan family must be a non-empty list of distance matrices on the graph's vertices")
    root = order.index(plan.graph.root)
    columns = [j for j in range(len(order)) if j != root] or [root]
    # over r_n, a level's coordinates are its member's differences, taken once
    members = []
    for d in family:
        at = [d._index[v] for v in order]
        cols = [at[j] for j in columns]
        to_root = [d._num[at[root]][j] for j in cols]
        rows = [tuple([d._num[i][j] - t for j, t in zip(cols, to_root)]) for i in at]
        members.append((*_in_lowest_terms(d._q, rows), max(map(max, d._num)), d._q))
    levels = []
    for n in range(1, depth + 1):
        r = plan.rule.value(n)
        q, rows, diameter, q_diameter = members[(n - 1) % len(members)]
        # float(int) and int / int round correctly, as float(Fraction(a, q))
        # does, and raise OverflowError exactly when the rounded value leaves
        # binary64: the conversion is the overflow guard, of r_n and of the
        # level's largest distance, which bounds the coordinates
        try:
            r_float = float(r)
            r * diameter / q_diameter
        except OverflowError as exc:
            raise GraphError(f"level {n} overflows binary64; reduce depth") from exc
        points = list(map(CloudPoint, order, repeat(None), rows))
        levels.append(CloudLevel(n=n, r=r_float, r_exact=Fraction(r), points=points, q=q))
    return LeveledPointCloud._of_levels(len(columns), levels, len(family))


def realize(
    g: WeightedRootedGraph,
    depth: int,
    rule: ScalingRule | None = None,
) -> LeveledPointCloud:
    """build_plan + generate_cloud in one call."""
    return generate_cloud(build_plan(g, depth, rule))


# ---------------------------------------------------------------------------
# the one-point space
# ---------------------------------------------------------------------------


def single_point_space(depth: int, base: int = 2) -> LeveledPointCloud:
    """One-dimensional space whose cluster at infinity is a single point.

    Points x_n = base**(n*n) on the half line with basepoint 0, rescaled by
    r_n = sqrt(x_n * x_{n+1}). Every point of the space sits either far below
    or far above the scale r_n, so all normalized distances collapse to zero
    and the recovered cluster is the one-vertex graph.
    """
    rule = ScalingRule("power_square", base)
    _integer(depth, 2, "depth must be at least 2")
    # the last level's scale needs x_{depth+1} in binary64; as base >=
    # 2**(bit_length - 1), the bound refuses before a power beyond 2**1024 is built
    try:
        if (depth + 1) ** 2 * (base.bit_length() - 1) >= 1024:
            raise OverflowError
        xs = [rule.value(n) for n in range(1, depth + 2)]
        float(xs[-1])
    except OverflowError as exc:
        refusal = f"depth {_spelled(depth)} overflows binary64 for base {_spelled(base)}"
        raise GraphError(refusal) from exc
    levels = []
    for n, x_n, x_next in zip(range(1, depth + 1), xs, xs[1:]):
        # factor the root so neither operand overflows binary64
        r = math.sqrt(x_n) * math.sqrt(x_next)
        # r is irrational (odd power of the base under a square root): no
        # exact scale, and the shadows are taken over r as binary64 holds it
        q, rows = _in_units(1, [(0,), (x_n,)], Fraction(r))
        points = list(map(CloudPoint, ("p", "x"), repeat(None), rows))
        levels.append(CloudLevel(n=n, r=r, r_exact=None, points=points, q=q))
    return LeveledPointCloud._of_levels(1, levels, None)
