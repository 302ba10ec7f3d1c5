"""Command-line surface for the library.

Exit codes: 0 for success and positive verdicts, 1 for negative verdicts
(not metrizable, certification failed, not isomorphic), 2 for usage or I/O
errors. ``--json`` switches the commands that report a verdict, an interval,
an embedding or a table to machine-readable JSON on stdout; the commands that
write a graph, a matrix or a cloud always write JSON and do not take it. All
commands are deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import fpc as fpc_mod
from .graph_core import (
    GraphError,
    WeightedRootedGraph,
    format_rational,
    isomorphic,
    maximal_cliques,
    parse_rational,
    _decimal,
    _digit_limit,
    _integers,
    _json_document,
    _json_text,
    _spelled,
)
from .metrization import (
    DistanceMatrix,
    Metrizability,
    admissible_interval,
    check_metrizable,
    cycle_from_graph,
    embed_cycle_on_circle,
    embed_tight_cycle_on_line,
    extend_metric,
    forced_completion,
    line_distance_matrix,
    shortest_path_metric,
)
from .realization import LeveledPointCloud, realize, single_point_space
from .recovery import (
    alternating_period_indices,
    annulus_diameter_table,
    period_stride_indices,
    recover_cluster,
    spread_functional,
    subsample_levels,
    validate_recovered_cluster,
)


def _read_json_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path} is not UTF-8 text: {exc}") from exc
    return _json_document(text, path)


def _load_graph(path: str) -> WeightedRootedGraph:
    return WeightedRootedGraph.from_json_dict(_read_json_file(path))


def _load_matrix(path: str) -> DistanceMatrix:
    return DistanceMatrix.from_json_dict(_read_json_file(path))


def _load_cloud(path: str) -> LeveledPointCloud:
    return LeveledPointCloud.from_json_dict(_read_json_file(path))


def _read_option(read, text: str):
    """``read(text)`` for argparse's ``type=``: a value ``read`` refuses is a usage error naming its option."""
    try:
        return read(text)
    except ValueError as exc:  # GraphError is one
        raise argparse.ArgumentTypeError(str(exc)) from None


_RATIONAL = functools.partial(_read_option, parse_rational)
_RATIONALS = functools.partial(_read_option, lambda text: [parse_rational(x) for x in text.split(",")])
_DECIMAL = functools.partial(_read_option, _decimal)
_INTEGER = functools.partial(_read_option, lambda text: _integers([text])[0])
_INTEGERS = functools.partial(_read_option, lambda text: _integers(text.split(",")))


def _say(text: str) -> None:
    """Prints a line to stdout. Once stdout's reader has gone away, as
    ``| head -1`` does, nobody reads the rest: stdout goes to the null
    device, and the command goes on to its exit code."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    """Points stdout at the null device: what it still buffers, and all it
    is given later, is written nowhere, and no write fails."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(payload: Callable[[], dict], ns: argparse.Namespace, human: str) -> None:
    """Prints the human text, or under --json the JSON of ``payload()``: a
    command builds the document only where it prints it."""
    _say(_json_text(payload()) if getattr(ns, "json", False) else human)


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        _say(text)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_check(ns) -> int:
    g = _load_graph(ns.graph)
    verdict = check_metrizable(g)
    lines = [f"classification: {verdict.classification.value}"]
    if verdict.witness_cycle is not None:
        c = verdict.witness_cycle
        lines.append(
            f"witness cycle: {'-'.join(c.vertices)} "
            f"(2*{_spelled(c.max_weight())} > {_spelled(c.total_weight())})"
        )
    if verdict.zero_weight_edge is not None:
        lines.append(f"zero-weight edge: {verdict.zero_weight_edge}")
    _emit(verdict.to_json_dict, ns, "\n".join(lines))
    return 0 if verdict.classification is Metrizability.METRIZABLE else 1


def _cmd_spm(ns) -> int:
    d = shortest_path_metric(_load_graph(ns.graph))
    _write_output(d.to_json(), ns.out)
    return 0


def _cmd_interval(ns) -> int:
    g = _load_graph(ns.graph)
    interval = admissible_interval(g, ns.u, ns.v)
    payload = lambda: {"lo": format_rational(interval.lo), "hi": format_rational(interval.hi)}
    _emit(payload, ns, f"admissible interval for ({ns.u}, {ns.v}): {interval}")
    return 0


def _cmd_extend(ns) -> int:
    g = _load_graph(ns.graph)
    d = extend_metric(g, ns.u, ns.v, ns.t)
    _write_output(d.to_json(), ns.out)
    return 0


def _cmd_complete(ns) -> int:
    g = _load_graph(ns.graph)
    completed = forced_completion(g)
    added = sorted(set(completed.weights) - set(g.weights))
    _write_output(completed.to_json(), ns.out)
    if ns.out:
        _say(f"added {len(added)} forced edges: {added}")
    return 0


def _cmd_embed(ns) -> int:
    g = _load_graph(ns.graph)
    cycle = cycle_from_graph(g)
    if cycle.is_tight():
        coords = embed_tight_cycle_on_line(cycle)
        payload = lambda: {
            "mode": "line",
            "coordinates": {v: format_rational(x) for v, x in sorted(coords.items())},
            "matrix": line_distance_matrix(coords).to_json_dict(),
        }
        human = "\n".join(
            [f"line embedding (circumference {_spelled(cycle.total_weight())}):"]
            + [f"  {v} -> {_spelled(x)}" for v, x in sorted(coords.items())]
        )
    else:
        positions, matrix = embed_cycle_on_circle(cycle)
        payload = lambda: {
            "mode": "circle",
            "circumference": format_rational(cycle.total_weight()),
            "positions": {v: format_rational(x) for v, x in sorted(positions.items())},
            "matrix": matrix.to_json_dict(),
        }
        human = "\n".join(
            [f"circle embedding, circumference {_spelled(cycle.total_weight())}:"]
            + [f"  {v} at arc position {_spelled(x)}" for v, x in sorted(positions.items())]
        )
    if ns.out:
        _write_output(_json_text(payload()), ns.out)
    else:
        _emit(payload, ns, human)
    return 0


def _cmd_cliques(ns) -> int:
    g = _load_graph(ns.graph)
    cliques = [sorted(c) for c in maximal_cliques(g)]
    _emit(
        lambda: {"maximal_cliques": cliques, "count": len(cliques)},
        ns,
        "\n".join(["maximal cliques:"] + [f"  {{{', '.join(c)}}}" for c in cliques]),
    )
    return 0


def _cmd_isomorphic(ns) -> int:
    g1 = _load_graph(ns.graph1)
    g2 = _load_graph(ns.graph2)
    witness = isomorphic(g1, g2, weight_tol_rel=ns.weight_tol_rel)
    if witness is None:
        _emit(lambda: {"isomorphic": False}, ns, "not isomorphic")
        return 1
    _emit(
        lambda: {"isomorphic": True, "mapping": witness},
        ns,
        "\n".join(["isomorphic:"] + [f"  {u} -> {v}" for u, v in sorted(witness.items())]),
    )
    return 0


def _cmd_fpc_certify(ns) -> int:
    g = _load_graph(ns.graph)
    cert = fpc_mod.certify_fpc(g)
    human = "certificate: pass" if cert.ok else (
        f"certificate: fail ({cert.failure})"
        + (f", witness pair {cert.witness_pair}" if cert.witness_pair else "")
        + (f", witness vertex {cert.witness_vertex!r}" if cert.witness_vertex else "")
        + (
            f", witness cycle {'-'.join(cert.witness_cycle.vertices)}"
            if cert.witness_cycle
            else ""
        )
    )
    _emit(cert.to_json_dict, ns, human)
    return 0 if cert.ok else 1


def _cmd_fpc_synthesize(ns) -> int:
    g = _load_graph(ns.graph)
    weighted = fpc_mod.synthesize_weights(g)
    _write_output(weighted.to_json(), ns.out)
    return 0


def _cmd_fpc_from_metric(ns) -> int:
    d = _load_matrix(ns.matrix)
    g = fpc_mod.graph_from_metric_space(d, ns.basepoint)
    _write_output(g.to_json(), ns.out)
    return 0


def _cmd_fpc_bound(ns) -> int:
    g = _load_graph(ns.graph)
    report = fpc_mod.clique_bound_check(g)
    _emit(
        report.to_json_dict,
        ns,
        f"maximal cliques without root: {report.clique_count}, "
        f"bound: {report.bound}, slack: {report.slack}",
    )
    return 0


def _cmd_fpc_f(ns) -> int:
    # f(n) >= 3**(n // 3): refuse a value str() cannot print before computing it
    limit = _digit_limit()
    if limit and ns.n // 3 * math.log10(3) > limit:
        raise GraphError(f"f({ns.n}) has too many digits to print: more than {limit}")
    value = fpc_mod.moon_moser_f(ns.n)
    try:
        text = str(value)
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise GraphError(f"f({ns.n}) has too many digits to print: {exc}") from exc
    _emit(lambda: {"n": ns.n, "f": value}, ns, text)
    return 0


def _cmd_realize(ns) -> int:
    cloud = realize(_load_graph(ns.graph), ns.depth)
    _write_output(cloud.to_json(include_exact=not ns.no_exact), ns.out)
    if ns.out:
        _say(
            f"wrote {cloud.depth} levels, {cloud.dimension} dimensions, "
            f"family period {cloud.period}, to {ns.out}"
        )
    return 0


def _cmd_single_point(ns) -> int:
    cloud = single_point_space(ns.depth)
    _write_output(cloud.to_json(), ns.out)
    return 0


def _cmd_recover(ns) -> int:
    cloud = _load_cloud(ns.cloud)
    rc = recover_cluster(
        cloud,
        tol_rel=ns.tol_rel,
        tol_abs=ns.tol_abs,
        window=ns.window,
        use_exact=ns.exact,
    )
    problems = validate_recovered_cluster(rc)
    if ns.out:
        Path(ns.out).write_text(rc.graph.to_json() + "\n", encoding="utf-8")
    diag = rc.diagnostics_json_dict()
    diag["invariant_violations"] = problems
    if ns.diag_out:
        Path(ns.diag_out).write_text(_json_text(diag) + "\n", encoding="utf-8")
    lines = [] if ns.out or ns.json else [rc.graph.to_json()]
    lines.append(
        f"recovered {len(rc.graph.vertices)} classes, root {rc.graph.root!r}, "
        f"{len(rc.graph.weights)} edges, window {rc.window}, decided {diag['decided']}"
    )
    lines += [f"  merge: {line}" for line in rc.merge_log]
    lines += [f"  warning: {line}" for line in rc.warnings]
    lines += [f"  invariant violation: {line}" for line in problems]
    _emit(lambda: {"graph": rc.graph.to_json_dict(), "diagnostics": diag}, ns, "\n".join(lines))
    return 0


def _cmd_subsample(ns) -> int:
    cloud = _load_cloud(ns.cloud)
    if ns.indices is not None:
        indices = ns.indices
    elif ns.stride_offset is not None:
        indices = period_stride_indices(cloud, ns.stride_offset)
    else:
        indices = alternating_period_indices(cloud)
    sub = subsample_levels(cloud, indices)
    _write_output(sub.to_json(), ns.out)
    return 0


def _cmd_diag_fn(ns) -> int:
    cloud = _load_cloud(ns.cloud)
    level = next((lvl for lvl in cloud.levels if lvl.n == ns.level), None)
    if level is None:
        raise GraphError(f"level {ns.level} not present in the cloud")
    by_label = cloud.points_by_label(level)
    labels = ns.labels.split(",")
    missing = [lbl for lbl in labels if lbl not in by_label]
    if missing:
        raise GraphError(f"labels {missing} not present at level {ns.level}")
    # the functional is scale-free: an exact level's rows serve as they are, in units of its scale
    value = spread_functional([by_label[lbl] for lbl in labels], (0,) * cloud.dimension)
    _emit(
        lambda: {"level": ns.level, "labels": labels, "value": value},
        ns,
        f"spread functional over {labels} at level {ns.level}: {value!r}",
    )
    return 0


def _cmd_diag_psi(ns) -> int:
    cloud = _load_cloud(ns.cloud)
    radii = ns.radii
    if radii is None:
        radii = [lvl.r_exact or lvl.r for lvl in cloud.levels]
    # k and a radius are spelled as a cloud file spells r_exact: past binary64, JSON has no number for them
    table = [dict(row, r=format_rational(row["r"])) for row in annulus_diameter_table(cloud, ns.k, radii)]
    human = "\n".join(
        [f"annulus diameter ratios (k = {format_rational(ns.k)}):"]
        + [f"  r = {row['r']}: {row['value']:.6g} ({row['points']} points)" for row in table]
    )
    _emit(lambda: {"k": format_rational(ns.k), "table": table}, ns, human)
    return 0


# ---------------------------------------------------------------------------
# demo corpus
# ---------------------------------------------------------------------------


def _cmd_demo(ns) -> int:
    out_dir = Path(ns.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GraphError(f"cannot create {out_dir}: {exc}") from exc

    def write(name: str, text: str) -> None:
        _write_output(text, str(out_dir / name))
        _say(f"wrote {out_dir / name}")

    # a quadrilateral with weights 1,2,3,4: metrizable, both diagonals free
    quad = WeightedRootedGraph(
        ["nu1", "nu2", "nu3", "nu4"],
        {
            ("nu1", "nu2"): Fraction(1),
            ("nu2", "nu3"): Fraction(2),
            ("nu3", "nu4"): Fraction(3),
            ("nu1", "nu4"): Fraction(4),
        },
        "nu1",
    )
    write("cycle4_1234.json", quad.to_json())

    # the tight quadrilateral 1,1,1,3: forced diagonals, line embedding
    tight = WeightedRootedGraph(
        ["v1", "v2", "v3", "v4"],
        {
            ("v1", "v2"): Fraction(1),
            ("v2", "v3"): Fraction(1),
            ("v3", "v4"): Fraction(1),
            ("v1", "v4"): Fraction(3),
        },
        "v1",
    )
    write("tight4.json", tight.to_json())

    # the one-point space: every sequence collapses into the basepoint class
    write("single_point.json", single_point_space(depth=12).to_json())

    # a certifiable triangle for the certification pipeline
    triangle = WeightedRootedGraph(
        ["r", "u", "v"],
        {("r", "u"): Fraction(1), ("r", "v"): Fraction(2), ("u", "v"): Fraction(5, 2)},
        "r",
    )
    write("cert_triangle.json", triangle.to_json())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every command, with the sub-commands of ``fpc`` and
    ``diag``. ``main`` builds one per process and reuses it."""
    parser = argparse.ArgumentParser(
        prog="metric-cluster",
        description="Weighted rooted graphs as clusters of pretangent spaces at infinity",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="metrizability verdict for a weighted graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("spm", help="shortest-path metric of a connected graph")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spm)

    p = sub.add_parser("interval", parents=[common], help="admissible distance interval of a non-edge")
    p.add_argument("graph")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("extend", help="metric pinning a chosen non-edge distance")
    p.add_argument("graph")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("t", type=_RATIONAL, help="rational distance value, e.g. 5 or 7/2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("complete", help="add all forced distances as edges")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("embed", parents=[common], help="embed a weighted cycle on a circle or line")
    p.add_argument("graph", help="graph that is a single cycle")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("cliques", parents=[common], help="enumerate maximal cliques")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_cliques)

    p = sub.add_parser("isomorphic", parents=[common], help="weighted rooted isomorphism test")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument(
        "--weight-tol-rel",
        type=_RATIONAL,
        default="1/1000000000",
        help="relative weight tolerance (rational); 0 compares weights for equality",
    )
    p.set_defaults(func=_cmd_isomorphic)

    fpc_parser = sub.add_parser("fpc", help="finite pretangent-cluster operations")
    fpc_sub = fpc_parser.add_subparsers(dest="fpc_command", required=True)

    p = fpc_sub.add_parser("certify", parents=[common], help="certify the cluster conditions")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_fpc_certify)

    p = fpc_sub.add_parser("synthesize", help="deterministic certifiable weights")
    p.add_argument("graph", help="graph whose shape is kept; weights are replaced")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fpc_synthesize)

    p = fpc_sub.add_parser("from-metric", help="certified graph of a metric space")
    p.add_argument("matrix", help="distance matrix JSON")
    p.add_argument("basepoint")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fpc_from_metric)

    p = fpc_sub.add_parser("bound", parents=[common], help="maximal-clique bound report")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_fpc_bound)

    p = fpc_sub.add_parser("f", parents=[common], help="extremal number of maximal cliques")
    p.add_argument("n", type=_INTEGER)
    p.set_defaults(func=_cmd_fpc_f)

    p = sub.add_parser("realize", help="point cloud realizing a certified graph")
    p.add_argument("graph")
    p.add_argument("--depth", type=_INTEGER, default=12)
    p.add_argument("--no-exact", action="store_true", help="omit exact rational shadows")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("single-point", help="the one-point-cluster example cloud")
    p.add_argument("--depth", type=_INTEGER, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_single_point)

    p = sub.add_parser("recover", parents=[common], help="recover the cluster graph from a cloud")
    p.add_argument("cloud")
    p.add_argument("--tol-rel", type=_DECIMAL, help="default 0 on exact shadows, else 1e-6")
    p.add_argument("--tol-abs", type=_DECIMAL, help="default 0 on exact shadows, else 1e-9")
    p.add_argument("--window", type=_INTEGER, default=None)
    p.add_argument("--exact", action="store_true", help="refuse a cloud without exact shadows")
    p.add_argument("--out", help="write the recovered graph JSON here")
    p.add_argument("--diag-out", help="write per-pair diagnostics JSON here")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("subsample", help="restrict a cloud to chosen levels")
    p.add_argument("cloud")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--indices", type=_INTEGERS, help="comma-separated level numbers")
    selector.add_argument("--stride-offset", type=_INTEGER, help="keep one residue class per family period")
    selector.add_argument("--alternate-periods", action="store_true", help="keep every other whole period")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_subsample)

    diag_parser = sub.add_parser("diag", help="finite-scale diagnostics")
    diag_sub = diag_parser.add_subparsers(dest="diag_command", required=True)

    p = diag_sub.add_parser("fn", parents=[common], help="normalized spread of labeled points")
    p.add_argument("cloud")
    p.add_argument("--level", type=_INTEGER, required=True)
    p.add_argument("--labels", required=True, help="comma-separated labels")
    p.set_defaults(func=_cmd_diag_fn)

    p = diag_sub.add_parser("psi", parents=[common], help="annulus diameter ratio table")
    p.add_argument("cloud")
    p.add_argument("--k", type=_RATIONAL, default="2", help="annulus parameter (rational), e.g. 2 or 3/2")
    p.add_argument("--radii", type=_RATIONALS, help="comma-separated radii; defaults to the cloud's scaling values")
    p.set_defaults(func=_cmd_diag_psi)

    p = sub.add_parser("demo", help="write worked-example fixtures")
    p.add_argument("--out", default="demo")
    p.set_defaults(func=_cmd_demo)

    return parser


# a parse only reads the tree, so every call of a process shares one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        # with argv None, parse_args reads sys.argv[1:]
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        status = ns.func(ns)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # what stdout still buffers is written now, not at exit, where a reader
    # gone away would be reported as an exception ignored
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return status


if __name__ == "__main__":
    sys.exit(main())
