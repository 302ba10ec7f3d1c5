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
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import fpc as fpc_mod
from .graph_core import (
    GraphError,
    WeightedRootedGraph,
    format_rational,
    isomorphic,
    maximal_cliques,
    parse_rational,
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
    unique_pairs,
)
from .realization import LeveledPointCloud, ScalingRule, build_plan, generate_cloud, single_point_space
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
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise GraphError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise GraphError(f"{path}: JSON nested too deeply") from exc


def _load_graph(path: str) -> WeightedRootedGraph:
    return WeightedRootedGraph.from_json_dict(_read_json_file(path))


def _load_matrix(path: str) -> DistanceMatrix:
    return DistanceMatrix.from_json_dict(_read_json_file(path))


def _load_cloud(path: str) -> LeveledPointCloud:
    return LeveledPointCloud.from_json_dict(_read_json_file(path))


def _number_list(text: str, kind, option: str) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError as exc:
        raise GraphError(f"{option} takes comma-separated numbers: {exc}") from exc


def _emit(payload: dict, ns: argparse.Namespace, human: str) -> None:
    if getattr(ns, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_check(ns) -> int:
    g = _load_graph(ns.graph)
    verdict = check_metrizable(g)
    payload = verdict.to_json_dict()
    lines = [f"classification: {verdict.classification.value}"]
    if verdict.witness_cycle is not None:
        c = verdict.witness_cycle
        lines.append(
            f"witness cycle: {'-'.join(c.vertices)} "
            f"(2*{c.max_weight()} > {c.total_weight()})"
        )
    if verdict.zero_weight_edge is not None:
        lines.append(f"zero-weight edge: {verdict.zero_weight_edge}")
    _emit(payload, ns, "\n".join(lines))
    return 0 if verdict.classification is Metrizability.METRIZABLE else 1


def _cmd_spm(ns) -> int:
    d = shortest_path_metric(_load_graph(ns.graph))
    _write_output(json.dumps(d.to_json_dict(), indent=2), ns.out)
    return 0


def _cmd_interval(ns) -> int:
    g = _load_graph(ns.graph)
    interval = admissible_interval(g, ns.u, ns.v)
    payload = {"lo": format_rational(interval.lo), "hi": format_rational(interval.hi)}
    _emit(payload, ns, f"admissible interval for ({ns.u}, {ns.v}): {interval}")
    return 0


def _cmd_extend(ns) -> int:
    g = _load_graph(ns.graph)
    d = extend_metric(g, ns.u, ns.v, parse_rational(ns.t))
    _write_output(json.dumps(d.to_json_dict(), indent=2), ns.out)
    return 0


def _cmd_complete(ns) -> int:
    g = _load_graph(ns.graph)
    completed = forced_completion(g)
    added = sorted(set(completed.weights) - set(g.weights))
    _write_output(json.dumps(completed.to_json_dict(), indent=2), ns.out)
    if ns.out:
        print(f"added {len(added)} forced edges: {added}")
    return 0


def _cmd_embed(ns) -> int:
    g = _load_graph(ns.graph)
    cycle = cycle_from_graph(g)
    mode = ns.mode
    if mode == "auto":
        mode = "line" if cycle.is_tight() else "circle"
    if mode == "line":
        coords = embed_tight_cycle_on_line(cycle)
        matrix = line_distance_matrix(coords)
        payload = {
            "mode": "line",
            "coordinates": {v: format_rational(x) for v, x in sorted(coords.items())},
            "matrix": matrix.to_json_dict(),
        }
        human = "\n".join(
            [f"line embedding (circumference {cycle.total_weight()}):"]
            + [f"  {v} -> {x}" for v, x in sorted(coords.items())]
        )
    else:
        positions, matrix = embed_cycle_on_circle(cycle)
        payload = {
            "mode": "circle",
            "circumference": format_rational(cycle.total_weight()),
            "positions": {v: format_rational(x) for v, x in sorted(positions.items())},
            "matrix": matrix.to_json_dict(),
        }
        human = "\n".join(
            [f"circle embedding, circumference {cycle.total_weight()}:"]
            + [f"  {v} at arc position {x}" for v, x in sorted(positions.items())]
        )
    if ns.out:
        _write_output(json.dumps(payload, indent=2), ns.out)
    else:
        _emit(payload, ns, human)
    return 0


def _cmd_cliques(ns) -> int:
    g = _load_graph(ns.graph)
    cliques = [sorted(c) for c in maximal_cliques(g)]
    _emit(
        {"maximal_cliques": cliques, "count": len(cliques)},
        ns,
        "\n".join(["maximal cliques:"] + [f"  {{{', '.join(c)}}}" for c in cliques]),
    )
    return 0


def _cmd_isomorphic(ns) -> int:
    g1 = _load_graph(ns.graph1)
    g2 = _load_graph(ns.graph2)
    tol = 0 if ns.exact_weights else parse_rational(ns.weight_tol_rel)
    witness = isomorphic(g1, g2, weighted=not ns.unweighted, weight_tol_rel=tol)
    if witness is None:
        _emit({"isomorphic": False}, ns, "not isomorphic")
        return 1
    _emit(
        {"isomorphic": True, "mapping": witness.mapping},
        ns,
        "\n".join(["isomorphic:"] + [f"  {u} -> {v}" for u, v in sorted(witness.mapping.items())]),
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
    _emit(cert.to_json_dict(), ns, human)
    return 0 if cert.ok else 1


def _cmd_fpc_synthesize(ns) -> int:
    g = _load_graph(ns.graph)
    weighted = fpc_mod.synthesize_weights(g)
    _write_output(json.dumps(weighted.to_json_dict(), indent=2), ns.out)
    return 0


def _cmd_fpc_from_metric(ns) -> int:
    d = _load_matrix(ns.matrix)
    g = fpc_mod.graph_from_metric_space(d, ns.basepoint)
    _write_output(json.dumps(g.to_json_dict(), indent=2), ns.out)
    return 0


def _cmd_fpc_bound(ns) -> int:
    g = _load_graph(ns.graph)
    report = fpc_mod.clique_bound_check(g)
    _emit(
        report.to_json_dict(),
        ns,
        f"maximal cliques without root: {report.clique_count}, "
        f"bound: {report.bound}, slack: {report.slack}",
    )
    return 0 if report.holds else 1


def _cmd_fpc_f(ns) -> int:
    value = fpc_mod.moon_moser_f(ns.n)
    try:
        text = str(value)
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise GraphError(f"f({ns.n}) has too many digits to print: {exc}") from exc
    _emit({"n": ns.n, "f": value}, ns, text)
    return 0


def _cmd_realize(ns) -> int:
    g = _load_graph(ns.graph)
    rule = ScalingRule(ns.rule, ns.base)
    plan = build_plan(g, ns.depth, rule)
    for w in plan.warnings:
        print(f"warning: {w}", file=sys.stderr)
    cloud = generate_cloud(plan)
    text = cloud.to_json(include_exact=not ns.no_exact)
    if ns.out:
        Path(ns.out).write_text(text + "\n", encoding="utf-8")
        print(
            f"wrote {cloud.depth} levels, {cloud.dimension} dimensions, "
            f"family period {cloud.period}, to {ns.out}"
        )
    else:
        print(text)
    return 0


def _cmd_single_point(ns) -> int:
    cloud = single_point_space(ns.depth, ns.base)
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
    problems = validate_recovered_cluster(rc, ns.tol_rel, ns.tol_abs)
    graph_json = json.dumps(rc.graph.to_json_dict(), indent=2)
    if ns.out:
        Path(ns.out).write_text(graph_json + "\n", encoding="utf-8")
    diag = rc.diagnostics_json_dict()
    diag["invariant_violations"] = problems
    if ns.diag_out:
        Path(ns.diag_out).write_text(json.dumps(diag, indent=2) + "\n", encoding="utf-8")
    if getattr(ns, "json", False):
        print(json.dumps({"graph": rc.graph.to_json_dict(), "diagnostics": diag}, indent=2))
    else:
        if not ns.out:
            print(graph_json)
        print(
            f"recovered {len(rc.graph.vertices)} classes, root {rc.graph.root!r}, "
            f"{len(rc.graph.weights)} edges, window {rc.window}"
        )
        for line in rc.merge_log:
            print(f"  merge: {line}")
        for line in rc.warnings:
            print(f"  warning: {line}")
        for line in problems:
            print(f"  invariant violation: {line}")
    return 0


def _cmd_subsample(ns) -> int:
    cloud = _load_cloud(ns.cloud)
    if ns.indices:
        indices = _number_list(ns.indices, int, "--indices")
    elif ns.stride_offset is not None:
        indices = period_stride_indices(cloud, ns.stride_offset)
    elif ns.alternate_periods:
        indices = alternating_period_indices(cloud)
    else:
        raise GraphError("choose --indices, --stride-offset, or --alternate-periods")
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
    points = [by_label[lbl].coords for lbl in labels]
    basepoint = (0.0,) * cloud.dimension
    value = spread_functional(points, basepoint)
    _emit(
        {"level": ns.level, "labels": labels, "value": value},
        ns,
        f"spread functional over {labels} at level {ns.level}: {value!r}",
    )
    return 0


def _cmd_diag_psi(ns) -> int:
    cloud = _load_cloud(ns.cloud)
    if ns.radii:
        radii = _number_list(ns.radii, float, "--radii")
    else:
        radii = [lvl.r for lvl in cloud.levels]
    table = annulus_diameter_table(cloud, ns.k, radii)
    human = "\n".join(
        [f"annulus diameter ratios (k = {ns.k}):"]
        + [f"  r = {row['r']:.6g}: {row['value']:.6g} ({row['points']} points)" for row in table]
    )
    _emit({"k": ns.k, "table": table}, ns, human)
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

    written = []

    def write(name: str, payload) -> None:
        # a string is a document its own writer made, as every cloud file is
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
        path = out_dir / name
        path.write_text(text + "\n", encoding="utf-8")
        written.append(str(path))

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
    write("cycle4_1234.json", quad.to_json_dict())
    spm = shortest_path_metric(quad)
    i24 = admissible_interval(quad, "nu2", "nu4")
    i13 = admissible_interval(quad, "nu1", "nu3")
    write(
        "cycle4_1234.expected.json",
        {
            "classification": check_metrizable(quad).classification.value,
            "intervals": {
                "nu2|nu4": [str(i24.lo), str(i24.hi)],
                "nu1|nu3": [str(i13.lo), str(i13.hi)],
            },
            "shortest_path": {
                "nu1|nu3": str(spm.get("nu1", "nu3")),
                "nu2|nu4": str(spm.get("nu2", "nu4")),
            },
        },
    )

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
    write("tight4.json", tight.to_json_dict())
    coords = embed_tight_cycle_on_line(cycle_from_graph(tight))
    write(
        "tight4.expected.json",
        {
            "line_embedding": {v: str(x) for v, x in sorted(coords.items())},
            "unique_pairs": [list(p) for p in unique_pairs(tight)],
            "completion_edges": [
                {"u": u, "v": v, "w": str(w)}
                for (u, v), w in sorted(forced_completion(tight).weights.items())
            ],
        },
    )

    # the one-point space: every sequence collapses into the basepoint class
    cloud = single_point_space(depth=12, base=2)
    write("single_point.json", cloud.to_json())
    rc = recover_cluster(cloud)
    write(
        "single_point.expected.json",
        {
            "recovered_vertices": len(rc.graph.vertices),
            "root": rc.graph.root,
            "rho0": {k: str(v) for k, v in rc.rho0.items()},
        },
    )

    # a certifiable triangle for the certification pipeline
    triangle = WeightedRootedGraph(
        ["r", "u", "v"],
        {("r", "u"): Fraction(1), ("r", "v"): Fraction(2), ("u", "v"): Fraction(5, 2)},
        "r",
    )
    write("cert_triangle.json", triangle.to_json_dict())
    write("cert_triangle.expected.json", fpc_mod.certify_fpc(triangle).to_json_dict())

    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("t", help="rational distance value, e.g. 5 or 7/2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("complete", help="add all forced distances as edges")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("embed", parents=[common], help="embed a weighted cycle on a circle or line")
    p.add_argument("graph", help="graph that is a single cycle")
    p.add_argument("--mode", choices=["auto", "circle", "line"], default="auto")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("cliques", parents=[common], help="enumerate maximal cliques")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_cliques)

    p = sub.add_parser("isomorphic", parents=[common], help="weighted rooted isomorphism test")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--unweighted", action="store_true", help="ignore weights")
    p.add_argument(
        "--weight-tol-rel",
        default="1/1000000000",
        help="relative weight tolerance (rational); use --exact-weights for equality",
    )
    p.add_argument("--exact-weights", action="store_true")
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
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_fpc_f)

    p = sub.add_parser("realize", help="point cloud realizing a certified graph")
    p.add_argument("graph")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--rule", choices=["factorial", "power_square"], default="factorial")
    p.add_argument("--base", type=int, default=2, help="base for the power_square rule")
    p.add_argument("--no-exact", action="store_true", help="omit exact rational shadows")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("single-point", help="the one-point-cluster example cloud")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_single_point)

    p = sub.add_parser("recover", parents=[common], help="recover the cluster graph from a cloud")
    p.add_argument("cloud")
    p.add_argument("--tol-rel", type=float, default=1e-6)
    p.add_argument("--tol-abs", type=float, default=1e-9)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--exact", action="store_true", help="measure on the exact rational shadows")
    p.add_argument("--out", help="write the recovered graph JSON here")
    p.add_argument("--diag-out", help="write per-pair diagnostics JSON here")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("subsample", help="restrict a cloud to chosen levels")
    p.add_argument("cloud")
    p.add_argument("--indices", help="comma-separated level numbers")
    p.add_argument("--stride-offset", type=int, default=None, help="keep one residue class per family period")
    p.add_argument("--alternate-periods", action="store_true", help="keep every other whole period")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_subsample)

    diag_parser = sub.add_parser("diag", help="finite-scale diagnostics")
    diag_sub = diag_parser.add_subparsers(dest="diag_command", required=True)

    p = diag_sub.add_parser("fn", parents=[common], help="normalized spread of labeled points")
    p.add_argument("cloud")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--labels", required=True, help="comma-separated labels")
    p.set_defaults(func=_cmd_diag_fn)

    p = diag_sub.add_parser("psi", parents=[common], help="annulus diameter ratio table")
    p.add_argument("cloud")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--radii", help="comma-separated radii; defaults to the cloud's scaling values")
    p.set_defaults(func=_cmd_diag_psi)

    p = sub.add_parser("demo", help="write worked-example fixtures")
    p.add_argument("--out", default="demo")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return ns.func(ns)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
