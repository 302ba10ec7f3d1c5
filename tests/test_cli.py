import argparse
import ast
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metric_cluster.cli import _parser, build_parser, main
from metric_cluster.graph_core import GraphError, WeightedRootedGraph
from metric_cluster.fpc import graph_from_metric_space, synthesize_weights
from metric_cluster.metrization import Metrizability, extend_metric, forced_completion, shortest_path_metric
from metric_cluster.realization import LeveledPointCloud, realize, single_point_space, sup_distance
from metric_cluster.recovery import recover_cluster

from oracles import annulus_by_fractions, file_shadow, halfway_past_binary64, point_shadow, random_dominating_shape
from oracles import spelled_out, spread_by_fractions


def write_graph(path: Path, vertices, edges, root) -> Path:
    g = WeightedRootedGraph(vertices, {e: Fraction(w) for e, w in edges.items()}, root)
    path.write_text(g.to_json(), encoding="utf-8")
    return path


@pytest.fixture
def bad_triangle(tmp_path):
    return write_graph(
        tmp_path / "bad.json",
        ["a", "b", "c"],
        {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3},
        "a",
    )


@pytest.fixture
def quad(tmp_path):
    return write_graph(
        tmp_path / "quad.json",
        ["nu1", "nu2", "nu3", "nu4"],
        {("nu1", "nu2"): 1, ("nu2", "nu3"): 2, ("nu3", "nu4"): 3, ("nu1", "nu4"): 4},
        "nu1",
    )


@pytest.fixture
def cert_graph(tmp_path):
    return write_graph(
        tmp_path / "cert.json",
        ["r", "u", "v", "z"],
        {("r", "u"): 1, ("r", "v"): 2, ("r", "z"): 3, ("u", "v"): 3, ("v", "z"): 5},
        "r",
    )


def test_check_exit_codes_and_witness(bad_triangle, quad, capsys):
    assert main(["check", str(quad)]) == 0
    capsys.readouterr()
    assert main(["check", str(bad_triangle)]) == 1
    out = capsys.readouterr().out
    assert "not_pseudometrizable" in out and "witness" in out


def test_check_json_output(bad_triangle, capsys):
    assert main(["check", str(bad_triangle), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "not_pseudometrizable"
    assert set(payload["witness_cycle"]["vertices"]) == {"a", "b", "c"}


def test_spm_writes_matrix(quad, tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["spm", str(quad), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    idx = {v: i for i, v in enumerate(payload["vertices"])}
    assert payload["matrix"][idx["nu1"]][idx["nu3"]] == "3"
    assert payload["matrix"][idx["nu2"]][idx["nu4"]] == "5"


def test_spm_rejects_json_flag(quad, capsys):
    # spm always writes JSON, so --json is a usage error
    assert main(["spm", str(quad), "--json"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_interval_human_and_json(quad, capsys):
    assert main(["interval", str(quad), "nu2", "nu4"]) == 0
    assert "[3, 5]" in capsys.readouterr().out
    assert main(["interval", str(quad), "nu1", "nu3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"lo": "1", "hi": "3"}


def test_extend_success_and_out_of_range(quad, tmp_path, capsys):
    out = tmp_path / "ext.json"
    assert main(["extend", str(quad), "nu2", "nu4", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    idx = {v: i for i, v in enumerate(payload["vertices"])}
    assert payload["matrix"][idx["nu2"]][idx["nu4"]] == "4"
    capsys.readouterr()
    assert main(["extend", str(quad), "nu2", "nu4", "6"]) == 2
    assert "interval" in capsys.readouterr().err
    # the parser reads t as a rational literal, and names it when it is none
    assert main(["extend", str(quad), "nu2", "nu4", "x"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "metric-cluster extend: error: argument t: not a rational literal: 'x'"


def test_complete_adds_forced_edges(tmp_path, capsys):
    tight = write_graph(
        tmp_path / "tight.json",
        ["v1", "v2", "v3", "v4"],
        {("v1", "v2"): 1, ("v2", "v3"): 1, ("v3", "v4"): 1, ("v1", "v4"): 3},
        "v1",
    )
    out = tmp_path / "hat.json"
    assert main(["complete", str(tight), "--out", str(out)]) == 0
    completed = WeightedRootedGraph.from_json(out.read_text())
    assert len(completed.weights) == 6
    assert completed.weight("v1", "v3") == 2


def test_embed_puts_a_tight_cycle_on_the_line(tmp_path, capsys):
    tight = write_graph(
        tmp_path / "tight.json",
        ["v1", "v2", "v3", "v4"],
        {("v1", "v2"): 1, ("v2", "v3"): 1, ("v3", "v4"): 1, ("v1", "v4"): 3},
        "v1",
    )
    assert main(["embed", str(tight), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "line"
    assert payload["coordinates"] == {"v1": "0", "v2": "1", "v3": "2", "v4": "3"}


def test_embed_out_writes_the_json_payload(quad, tmp_path, capsys):
    assert main(["embed", str(quad), "--json"]) == 0
    payload = capsys.readouterr().out
    out = tmp_path / "embedding.json"
    assert main(["embed", str(quad), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == payload


def test_embed_circle(quad, capsys):
    # a cycle that is not tight goes on the circle, whose matrix is the cycle's metric
    assert main(["embed", str(quad), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "circle"
    assert payload["circumference"] == "10"
    assert payload["positions"]["nu3"] == "3"
    assert payload["matrix"]["matrix"][1][3] == "5"


def test_cliques_json(cert_graph, capsys):
    assert main(["cliques", str(cert_graph), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert ["r", "u", "v"] in payload["maximal_cliques"]


def test_isomorphic_exit_codes(tmp_path, capsys):
    g1 = write_graph(tmp_path / "g1.json", ["a", "b"], {("a", "b"): 1}, "a")
    g2 = write_graph(tmp_path / "g2.json", ["x", "y"], {("x", "y"): 1}, "y")
    g3 = write_graph(tmp_path / "g3.json", ["x", "y"], {("x", "y"): 2}, "y")
    assert main(["isomorphic", str(g1), str(g2)]) == 0
    assert main(["isomorphic", str(g1), str(g3)]) == 1
    capsys.readouterr()
    # the parser refuses what is no rational literal, naming the option; isomorphic a negative tolerance
    negative = "error: weight tolerance must be finite and non-negative, got Fraction"
    not_rational = "metric-cluster isomorphic: error: argument --weight-tol-rel: not a rational literal:"
    for tol, refusal in (
        ("-1", f"{negative}(-1, 1)"),
        ("-1/1000000000", f"{negative}(-1, 1000000000)"),
        ("nan", f"{not_rational} 'nan'"),
        ("inf", f"{not_rational} 'inf'"),
        ("1_0", f"{not_rational} '1_0'"),
    ):
        assert main(["isomorphic", str(g1), str(g2), f"--weight-tol-rel={tol}"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == refusal
    # what the labels do not decide is refused: two roots that miss a vertex,
    # and a pairing that fails between equal labels
    path = write_graph(tmp_path / "path.json", ["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}, "a")
    assert main(["isomorphic", str(path), str(path)]) == 2
    assert "root 'a' is not dominating" in capsys.readouterr().err
    star = {("r", "u"): 1, ("r", "v"): 1, ("r", "w"): 2}
    g4 = write_graph(tmp_path / "g4.json", ["r", "u", "v", "w"], {**star, ("u", "w"): 3}, "r")
    g5 = write_graph(tmp_path / "g5.json", ["r", "u", "v", "w"], {**star, ("v", "w"): 3}, "r")
    assert main(["isomorphic", str(g4), str(g5)]) == 2
    assert "'u' and 'v' of the first graph" in capsys.readouterr().err
    # 14 vertices, with labels apart beyond the tolerance: one weight 1 % heavier
    # is no isomorphism, and neither is a copy with the labels of v00 and v01 equal
    names = ["root"] + [f"v{i:02d}" for i in range(13)]
    shape = {**{("root", v): 1 for v in names[1:]}, **dict.fromkeys(zip(names[1:], names[2:]), 1)}
    a14 = synthesize_weights(WeightedRootedGraph(names, shape, "root"))
    u, v = next(e for e in a14.edges() if "root" not in e)
    files = [tmp_path / f"{name}14.json" for name in "abt"]
    for path, graph in zip(files, (
        a14,
        a14.with_weight(u, v, a14.weight(u, v) * Fraction(101, 100)),
        a14.with_weight("root", "v01", a14.weight("root", "v00")),
    )):
        path.write_text(graph.to_json(), encoding="utf-8")
    for other in files[1:]:
        assert main(["isomorphic", str(files[0]), str(other)]) == 1


def test_fpc_certify_exit_codes(cert_graph, bad_triangle, capsys):
    assert main(["fpc", "certify", str(cert_graph)]) == 0
    assert main(["fpc", "certify", str(bad_triangle)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_fpc_synthesize_then_certify(tmp_path, capsys):
    shape = tmp_path / "shape.json"
    shape.write_text(
        json.dumps(
            {
                "vertices": ["r", "a", "b"],
                "root": "r",
                "edges": [{"u": "r", "v": "a"}, {"u": "r", "v": "b"}, {"u": "a", "v": "b"}],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "weighted.json"
    assert main(["fpc", "synthesize", str(shape), "--out", str(out)]) == 0
    assert main(["fpc", "certify", str(out)]) == 0


def test_fpc_from_metric(tmp_path, capsys):
    matrix = tmp_path / "d.json"
    matrix.write_text(
        json.dumps(
            {
                "vertices": ["o", "a", "b"],
                "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "g.json"
    assert main(["fpc", "from-metric", str(matrix), "o", "--out", str(out)]) == 0
    assert main(["fpc", "certify", str(out)]) == 0
    capsys.readouterr()
    # equilateral: no valid distinguished point
    eq = tmp_path / "eq.json"
    eq.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "matrix": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
            }
        ),
        encoding="utf-8",
    )
    assert main(["fpc", "from-metric", str(eq), "a"]) == 2


@pytest.mark.parametrize(
    "command", [["spm"], ["extend"], ["complete"], ["fpc", "synthesize"], ["fpc", "from-metric"]]
)
def test_documents_are_written_by_their_objects(command, cert_graph, tmp_path, capsys):
    # the tight quadrilateral has forced diagonals; the root of cert_graph dominates
    tight = WeightedRootedGraph(
        ["v1", "v2", "v3", "v4"],
        {("v1", "v2"): 1, ("v2", "v3"): 1, ("v3", "v4"): 1, ("v1", "v4"): 3},
        "v1",
    )
    graph = tmp_path / "tight.json"
    graph.write_text(tight.to_json(), encoding="utf-8")
    cert = WeightedRootedGraph.from_json(cert_graph.read_text(encoding="utf-8"))
    matrix = tmp_path / "d.json"
    matrix.write_text(shortest_path_metric(cert).to_json(), encoding="utf-8")
    args, document = {
        "spm": lambda: ([graph], shortest_path_metric(tight)),
        "extend": lambda: ([graph, "v1", "v3", "2"], extend_metric(tight, "v1", "v3", Fraction(2))),
        "complete": lambda: ([graph], forced_completion(tight)),
        "synthesize": lambda: ([cert_graph], synthesize_weights(cert)),
        "from-metric": lambda: ([matrix, "r"], graph_from_metric_space(shortest_path_metric(cert), "r")),
    }[command[-1]]()
    out = tmp_path / "out.json"
    assert main([*command, *map(str, args), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == document.to_json() + "\n"


def test_fpc_bound_and_f(cert_graph, capsys):
    assert main(["fpc", "f", "6"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["fpc", "bound", str(cert_graph), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the bound holds for every graph, so the report does not say so
    assert "holds" not in payload and payload["maximal_cliques_without_root"] == 2
    assert main(["fpc", "f", "1"]) == 2


def test_fpc_f_beyond_digit_limit_exit_2(capsys):
    # f(30000) = 3**10000 has 4772 digits, above the default limit of 4300;
    # f(100000000) is refused before 3**33333333 is computed
    for n in ("30000", "100000000"):
        assert main(["fpc", "f", n]) == 2
        assert "too many digits" in capsys.readouterr().err
    # f(27038) = 2 * 3**9012 passes the estimate, which counts 3**9012 alone,
    # and has 4301 digits: str() refuses it
    assert main(["fpc", "f", "27038"]) == 2
    assert capsys.readouterr().err.startswith("error: f(27038) has too many digits to print: Exceeds the limit")


def test_end_to_end_chain(cert_graph, tmp_path, capsys):
    cloud = tmp_path / "cloud.json"
    recovered = tmp_path / "recovered.json"
    assert main(["realize", str(cert_graph), "--depth", "12", "--out", str(cloud)]) == 0
    assert main(["recover", str(cloud), "--out", str(recovered)]) == 0
    assert main(["isomorphic", str(cert_graph), str(recovered)]) == 0


def test_readme_flow_at_default_depth_with_seven_non_edges(tmp_path, capsys):
    # a root and a 6-vertex path plus one chord: 7 vertices, 7 non-edges
    shape = write_graph(
        tmp_path / "shape.json",
        ["r", "a", "b", "c", "d", "e", "f"],
        {**{("r", v): 1 for v in "abcdef"},
         ("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "e"): 1, ("e", "f"): 1,
         ("a", "c"): 1, ("b", "d"): 1, ("a", "f"): 1},
        "r",
    )
    g, cloud, h = (tmp_path / name for name in ("g.json", "c.json", "h.json"))
    assert main(["fpc", "synthesize", str(shape), "--out", str(g)]) == 0
    assert len(WeightedRootedGraph.from_json(g.read_text()).non_edges()) == 7
    assert main(["fpc", "certify", str(g)]) == 0
    assert main(["realize", str(g), "--out", str(cloud)]) == 0
    assert main(["recover", str(cloud), "--out", str(h)]) == 0
    assert main(["isomorphic", str(g), str(h)]) == 0
    # the recovered graph meets the three conditions, and exact recovery gives back g itself
    capsys.readouterr()
    assert main(["recover", str(cloud), "--json"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostics["invariant_violations"] == [] and diagnostics["decided"] == "on exact shadows"
    assert main(["recover", str(cloud), "--exact", "--out", str(h)]) == 0
    assert main(["isomorphic", str(g), str(h), "--weight-tol-rel", "0"]) == 0


def test_readme_library_quickstart_runs_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    # run the block statement by statement, keeping each bare expression's value
    namespace, results = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            results.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    classification, interval, certified, problems, witness, exact = results
    assert classification is Metrizability.METRIZABLE
    assert (interval.lo, interval.hi) == (2, 4)
    assert certified is True
    assert problems == []
    assert witness == {"r": "r", "u": "u", "v": "v", "z": "z"}
    assert exact is True


def test_power_square_base_below_two_exit_2(capsys):
    # the one-point space's points are 2**(n*n): it takes no base, and its help names none
    assert main(["single-point", "--base", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "metric-cluster: error: unrecognized arguments: --base 1"
    assert main(["single-point", "--help"]) == 0
    assert "--base" not in capsys.readouterr().out


def test_realize_shorter_than_the_family_period_exit_2(cert_graph, tmp_path, capsys):
    # recovery could read no such cloud: realize refuses it and writes nothing
    out = tmp_path / "cloud.json"
    assert main(["realize", str(cert_graph), "--depth", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: depth 1 is shorter than one full metric-family period (2): recovery cannot see every member\n"
    )
    assert not out.exists()


def test_a_sum_past_the_digit_limit_is_named_by_its_bits(tmp_path, capsys):
    # each weight has under 4300 digits, but their sum does not: str() of it
    # raised a bare ValueError, exit 1, in each text that spelled it
    a, b = Fraction(1, 3**9000), Fraction(1, 7**5080)
    tri = write_graph(tmp_path / "tri.json", ["r", "u", "v"], {("r", "u"): a, ("r", "v"): b, ("u", "v"): 1}, "r")
    path = write_graph(tmp_path / "path.json", ["r", "u", "v"], {("r", "u"): a, ("r", "v"): b}, "r")
    total = "a positive Fraction of 28527 bits over 28527 bits"
    assert main(["check", str(tri)]) == 1
    assert capsys.readouterr().out == f"classification: not_pseudometrizable\nwitness cycle: u-r-v (2*1 > {total})\n"
    assert main(["check", str(tri), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "not_pseudometrizable"
    assert payload["witness_cycle"]["weights"] == ["1/" + str(3**9000), "1/" + str(7**5080), "1"]
    end = "a positive Fraction of 14265 bits over 28527 bits"
    assert main(["extend", str(path), "u", "v", "5"]) == 2
    assert capsys.readouterr().err == f"error: value 5 for ('u','v') lies outside the admissible interval [{end}, {end}]\n"
    assert main(["embed", str(tri)]) == 2
    assert capsys.readouterr().err == f"error: cycle is not metrizable: 2*1 > {total}\n"


def test_a_human_line_spells_what_its_json_cannot_write(tmp_path, capsys):
    # the --json payload was built for the human line too, so its writer's
    # refusal ended interval and embed with exit 2, although no JSON was asked for
    a, b = Fraction(1, 3**9000), Fraction(1, 7**5080)
    path = write_graph(tmp_path / "path.json", ["r", "u", "v"], {("r", "u"): a, ("r", "v"): b}, "r")
    circle = write_graph(tmp_path / "circle.json", ["r", "u", "v"], {("r", "u"): a, ("u", "v"): b, ("r", "v"): b}, "r")
    line = write_graph(
        tmp_path / "line.json",
        ["r", "u", "v", "w", "x"],
        {("r", "u"): a, ("u", "v"): b, ("v", "w"): 1 - a, ("w", "x"): 1 - b, ("r", "x"): 2},
        "r",
    )
    end = "a positive Fraction of 14265 bits over 28527 bits"
    assert main(["interval", str(path), "u", "v"]) == 0
    assert capsys.readouterr().out == f"admissible interval for (u, v): [{end}, {end}]\n"
    assert main(["embed", str(circle)]) == 0
    assert capsys.readouterr().out == (
        "circle embedding, circumference a positive Fraction of 14266 bits over 28527 bits:\n"
        f"  r at arc position 0\n  u at arc position {a}\n  v at arc position {end}\n"
    )
    assert main(["embed", str(line)]) == 0
    assert capsys.readouterr().out == (
        f"line embedding (circumference 4):\n  r -> 0\n  u -> {a}\n  v -> {end}\n  w -> {1 + b}\n  x -> 2\n"
    )
    refusal = "error: value {} has more digits than to_json can write\n"
    for args, value in (
        (["interval", str(path), "u", "v", "--json"], end),
        (["embed", str(circle), "--json"], "a positive Fraction of 14266 bits over 28527 bits"),
        (["embed", str(line), "--json"], end),
        (["embed", str(line), "--out", str(tmp_path / "embedding.json")], end),
    ):
        assert main(args) == 2
        assert capsys.readouterr().err == refusal.format(value)
    assert not (tmp_path / "embedding.json").exists()


def test_recover_spells_the_graph_only_where_it_writes_or_prints_it(cert_graph, tmp_path, monkeypatch, capsys):
    # recover --json prints the graph's dict in its payload, so it spells the graph's text nowhere
    cloud, out = str(tmp_path / "c.json"), str(tmp_path / "h.json")
    assert main(["realize", str(cert_graph), "--out", cloud]) == 0
    spelled = []
    to_json = WeightedRootedGraph.to_json
    monkeypatch.setattr(WeightedRootedGraph, "to_json", lambda g: spelled.append(g) or to_json(g))
    for argv, texts in ((["--json"], 0), (["--json", "--out", out], 1), (["--out", out], 1), ([], 1)):
        spelled.clear()
        assert main(["recover", cloud, *argv]) == 0
        assert len(spelled) == texts, argv
    capsys.readouterr()
    assert main(["recover", cloud, "--json"]) == 0
    graph = json.loads(capsys.readouterr().out)["graph"]
    assert WeightedRootedGraph.from_json_dict(graph) == WeightedRootedGraph.from_json(Path(out).read_text(encoding="utf-8"))


def test_realize_past_binary64_recovers_and_each_binary64_reader_exit_2(tmp_path, capsys):
    # the coordinate of v at level 170 rounds to infinity, and r_171 = 171!
    # is beyond binary64: the cloud is exact, and only the float writer, which
    # asks for floats, refuses, naming the first value it cannot round
    path = tmp_path / "halfway.json"
    path.write_text(halfway_past_binary64().to_json(), encoding="utf-8")
    cloud, h = tmp_path / "c.json", tmp_path / "h.json"
    assert main(["realize", str(path), "--depth", "171", "--out", str(cloud)]) == 0
    assert main(["recover", str(cloud), "--out", str(h)]) == 0
    assert main(["isomorphic", str(path), str(h), "--weight-tol-rel", "0"]) == 0
    capsys.readouterr()
    point = "point 'v' at level 170 has a coordinate beyond binary64: integer division result too large for a float"
    assert main(["realize", str(path), "--depth", "171", "--no-exact"]) == 2
    assert capsys.readouterr().err == f"error: {point}\n"
    # the diagnostics read the exact rows: r is the basepoint, so the spread is 0
    assert main(["diag", "fn", str(cloud), "--level", "170", "--labels", "r,v", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0
    loaded = LeveledPointCloud.from_json(cloud.read_text(encoding="utf-8"))
    for options, radii in (([], [lvl.r_exact for lvl in loaded.levels]), (["--radii", "1"], [1])):
        assert main(["diag", "psi", str(cloud), "--json", *options]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        expected = annulus_by_fractions(loaded, [(2, r) for r in radii])
        assert [(row["r"], row["value"], row["points"]) for row in table] == [
            (str(r), float(value), count) for r, (value, count) in zip(radii, expected)
        ]
    assert table == [{"r": "1", "value": 0.0, "points": 0}]


def test_realize_a_level_whose_distances_lie_past_binary64(tmp_path, capsys):
    # every coordinate of level 170, at most 14 * 170!, fits binary64, but
    # the distance 27 * 170! between u and v does not: the float writer writes
    # the level, and diag psi reads the distance exactly, about 1.96e308 over
    # the radius 1e308, which it reads as 10**308
    star = write_graph(tmp_path / "star.json", ["r", "u", "v"], {("r", "u"): 13, ("r", "v"): 14}, "r")
    out, h = tmp_path / "c.json", tmp_path / "h.json"
    for shadows in ([], ["--no-exact"]):  # decided on shadows and on binary64 coordinates
        assert main(["realize", str(star), "--depth", "170", "--out", str(out), *shadows]) == 0
        assert main(["recover", str(out), "--out", str(h)]) == 0
        assert main(["isomorphic", str(star), str(h)]) == 0
        # diag psi reads the distance of u and v, or of their floats, exactly
        cloud = LeveledPointCloud.from_json(out.read_text(encoding="utf-8"))
        level = cloud.levels[-1]
        pts = cloud.points_by_label(level)
        u, v = (tuple(map(Fraction, pts[x])) if shadows else point_shadow(level, pts[x]) for x in "uv")
        if not shadows:
            assert sup_distance(u, v) == 27 * math.factorial(170)
        capsys.readouterr()
        assert main(["diag", "psi", str(out), "--k", "2", "--radii", "1e308", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["table"]
        assert row == {"r": str(10**308), "value": float(sup_distance(u, v) / 10**308), "points": 2}


def test_realize_far_past_the_digit_limit_exit_2_at_the_first_scale_beyond_it(cert_graph, capsys, int_max_str_digits):
    """Realization builds no level past the first whose r_n to_json cannot
    write under the default limit of 4300 digits: 1559! has 4303 digits, so
    a depth of a million exits 2 at once."""
    int_max_str_digits(4300)
    assert main(["realize", str(cert_graph), "--depth", "1000000"]) == 2
    refusal = "level 1559 has a scale r_exact of more than 4300 digits, which to_json cannot write"
    assert capsys.readouterr().err == f"error: {refusal}\n"


def test_recover_diag_out(cert_graph, tmp_path, capsys):
    cloud = tmp_path / "cloud.json"
    diag = tmp_path / "diag.json"
    out = tmp_path / "rec.json"
    main(["realize", str(cert_graph), "--depth", "12", "--out", str(cloud)])
    assert (
        main(["recover", str(cloud), "--out", str(out), "--diag-out", str(diag), "--exact"])
        == 0
    )
    payload = json.loads(diag.read_text())
    assert payload["invariant_violations"] == []
    assert payload["rho0"]["r"] == "0"
    assert any(not row["adjacent"] for row in payload["pairs"])
    # the default recovery too: rho0 is 0 at the root and the root-edge weight elsewhere
    assert main(["recover", str(cloud), "--out", str(out), "--diag-out", str(diag)]) == 0
    assert json.loads(diag.read_text())["rho0"] == {"r": "0", "u": "1", "v": "2", "z": "3"}
    # the tolerances and the values that decided: 0 on shadows, 1e-6 and
    # 1e-9 on binary64 coordinates, or as given
    floats = tmp_path / "floats.json"
    main(["realize", str(cert_graph), "--depth", "12", "--no-exact", "--out", str(floats)])
    for path, options, recorded in (
        (cloud, [], ("0", "0", "on exact shadows")),
        (floats, [], ("1e-06", "1e-09", "on binary64 coordinates, exactly")),
        (cloud, ["--tol-rel", "0.5", "--tol-abs", "0.25"], ("0.5", "0.25", "on exact shadows")),
    ):
        assert main(["recover", str(path), "--diag-out", str(diag), "--out", str(out), *options]) == 0
        payload = json.loads(diag.read_text())
        assert (payload["tol_rel"], payload["tol_abs"], payload["decided"]) == recorded


@pytest.mark.parametrize("k", [3, 6, 9, 12])
def test_recover_gives_back_a_near_tight_graph(tmp_path, capsys, k):
    # the non-edge u-z has admissible interval [2 - 10**-k, 2]; from k = 6 on,
    # the default recovery took it for an edge and reported no violation
    eps = Fraction(1, 10**k)
    g = write_graph(
        tmp_path / "g.json",
        ["r", "u", "x", "z"],
        {("r", "u"): 1, ("r", "x"): 2, ("r", "z"): 3 - eps, ("u", "x"): 1, ("x", "z"): 1},
        "r",
    )
    cloud, h = tmp_path / "c.json", tmp_path / "h.json"
    assert main(["realize", str(g), "--out", str(cloud)]) == 0
    capsys.readouterr()
    assert main(["recover", str(cloud), "--out", str(h)]) == 0
    assert "invariant violation" not in capsys.readouterr().out
    assert WeightedRootedGraph.from_json(h.read_text()) == WeightedRootedGraph.from_json(g.read_text())


@pytest.mark.parametrize("value", ["1_0", " 3", "3 ", "+3", "٣", "3.0", "3-", ""])
def test_each_integer_option_reads_ascii_digits_alone(cert_graph, tmp_path, capsys, value):
    """int() reads 1_0, blanks, + and other scripts' digits; every integer
    option reads -?[0-9]+ in ASCII digits, as a cloud file spells an integer,
    and refuses the rest with int()'s own text, naming the option."""
    cloud = tmp_path / "cloud.json"
    assert main(["realize", str(cert_graph), "--out", str(cloud)]) == 0
    commands = [
        (["fpc", "f", value], "n"),
        (["realize", str(cert_graph), "--depth", value], "--depth"),
        (["single-point", "--depth", value], "--depth"),
        (["recover", str(cloud), "--window", value], "--window"),
        (["subsample", str(cloud), "--indices", f"1,{value}"], "--indices"),
        (["subsample", str(cloud), "--stride-offset", value], "--stride-offset"),
        (["diag", "fn", str(cloud), "--level", value, "--labels", "u,v"], "--level"),
    ]
    capsys.readouterr()
    for argv, option in commands:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f": error: argument {option}: invalid literal for int() with base 10: {value!r}"
        ), argv


def test_integer_options_read_signed_ascii_digits(cert_graph, tmp_path, capsys):
    cloud, sub = tmp_path / "cloud.json", tmp_path / "sub.json"
    assert main(["realize", str(cert_graph), "--depth", "012", "--out", str(cloud)]) == 0
    assert main(["subsample", str(cloud), "--indices", "01,3,0010", "--out", str(sub)]) == 0
    assert [lvl["n"] for lvl in json.loads(sub.read_text())["levels"]] == [1, 3, 10]
    capsys.readouterr()
    # a minus sign is read, and the library refuses the value
    assert main(["realize", str(cert_graph), "--depth", "-3"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: depth must be at least 1"


def test_subsample_stride(cert_graph, tmp_path, capsys):
    cloud = tmp_path / "cloud.json"
    sub = tmp_path / "sub.json"
    main(["realize", str(cert_graph), "--depth", "12", "--out", str(cloud)])
    assert main(["subsample", str(cloud), "--stride-offset", "0", "--out", str(sub)]) == 0
    payload = json.loads(sub.read_text())
    assert [lvl["n"] for lvl in payload["levels"]] == [1, 3, 5, 7, 9, 11]
    capsys.readouterr()
    for indices, refusal in (("1,x", "'x'"), ("", "''")):
        assert main(["subsample", str(cloud), "--indices", indices, "--out", str(sub)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"metric-cluster subsample: error: argument --indices: invalid literal for int() with base 10: {refusal}"
        )
    # exactly one selector: a second one is a usage error, not ignored
    for extra in (["--alternate-periods"], ["--stride-offset", "1"]):
        assert main(["subsample", str(cloud), "--indices", "1,2", *extra, "--out", str(sub)]) == 2
        assert "not allowed with argument" in capsys.readouterr().err
    assert main(["subsample", str(cloud), "--out", str(sub)]) == 2
    assert "one of the arguments --indices --stride-offset --alternate-periods is required" in (
        capsys.readouterr().err
    )


def test_written_clouds_are_laid_out_as_json_dumps_and_recover(cert_graph, tmp_path, capsys):
    # with and without shadows, their subsamples and the one-point space, and a recovered graph and its diagnostics
    c, s, ne, nes, one, deep, h, d = (
        str(tmp_path / f"{name}.json") for name in ("c", "s", "ne", "nes", "one", "deep", "h", "d")
    )
    for argv in (
        ["realize", str(cert_graph), "--out", c],
        ["subsample", c, "--alternate-periods", "--out", s],
        ["realize", str(cert_graph), "--no-exact", "--out", ne],
        ["subsample", ne, "--alternate-periods", "--out", nes],
        ["single-point", "--depth", "12", "--out", one],
        # r_100 = 2**10100 is far past binary64, and exact
        ["single-point", "--depth", "100", "--out", deep],
        ["recover", c, "--out", h, "--diag-out", d],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for path in (c, s, ne, nes, one, deep, h, d):
        text = Path(path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text)) + "\n"
    # shadows and floats both decide exactly; --exact only refuses a cloud without shadows
    floats = "on binary64 coordinates, exactly"
    # the one-point space has r_exact = 2**(n*n + n) and shadows
    for argv, arithmetic in ((["recover", c, "--exact"], "on exact shadows"), (["recover", s], "on exact shadows"),
                             (["recover", ne], floats), (["recover", one, "--exact"], "on exact shadows")):
        assert main(argv) == 0, argv
        assert f"decided {arithmetic}" in capsys.readouterr().out
    for path in (ne, nes):
        assert main(["recover", path, "--exact"]) == 2
        assert "use_exact needs every point's exact shadow and every level's r_exact" in capsys.readouterr().err
    assert main(["recover", deep, "--tol-rel", "0", "--tol-abs", "0"]) == 0
    assert "recovered 1 classes" in capsys.readouterr().out


def test_period_less_subsample_of_a_shallow_cloud_recovers(tmp_path, capsys):
    # a complete triangle has period 1, which every selection keeps;
    # --alternate-periods keeps levels 1, 3, 5 of the depth-6 cloud
    k3 = write_graph(
        tmp_path / "k3.json",
        ["r", "u", "v"],
        {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): Fraction(5, 2)},
        "r",
    )
    cloud, sub, out = (tmp_path / name for name in ("c.json", "s.json", "h.json"))
    assert main(["realize", str(k3), "--depth", "6", "--out", str(cloud)]) == 0
    assert main(["subsample", str(cloud), "--alternate-periods", "--out", str(sub)]) == 0
    payload = json.loads(sub.read_text())
    assert payload["period"] == 1 and [lvl["n"] for lvl in payload["levels"]] == [1, 3, 5]
    assert main(["recover", str(sub), "--out", str(out)]) == 0
    assert main(["isomorphic", str(k3), str(out)]) == 0
    assert main(["recover", str(sub), "--exact", "--out", str(out)]) == 0
    assert WeightedRootedGraph.from_json(out.read_text()) == WeightedRootedGraph.from_json(
        k3.read_text()
    )
    # r-u 1, r-v 2 has period 2: levels 2-5 start on the other member and
    # lose the period, and the default window of 4 levels still sees both
    g = write_graph(tmp_path / "g.json", ["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2}, "r")
    assert main(["realize", str(g), "--depth", "6", "--out", str(cloud)]) == 0
    assert main(["subsample", str(cloud), "--indices", "2,3,4,5", "--out", str(sub)]) == 0
    assert json.loads(sub.read_text())["period"] is None
    assert main(["recover", str(sub), "--out", str(out)]) == 0
    assert main(["isomorphic", str(g), str(out), "--weight-tol-rel", "0"]) == 0
    # one level without a period still cannot decide a non-edge
    one = tmp_path / "one.json"
    assert main(["subsample", str(cloud), "--indices", "2", "--out", str(one)]) == 0
    assert json.loads(one.read_text())["period"] is None
    capsys.readouterr()
    assert main(["recover", str(one)]) == 2
    assert "one level cannot decide a non-edge" in capsys.readouterr().err


def test_diag_fn_and_psi(tmp_path, capsys):
    cert = write_graph(
        tmp_path / "t.json",
        ["r", "u", "v"],
        {("r", "u"): 1, ("r", "v"): 2, ("u", "v"): Fraction(5, 2)},
        "r",
    )
    cloud = tmp_path / "cloud.json"
    main(["realize", str(cert), "--depth", "8", "--out", str(cloud)])
    capsys.readouterr()
    assert main(["diag", "fn", str(cloud), "--level", "8", "--labels", "u,v", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 5 / 8
    assert main(["diag", "psi", str(cloud), "--k", "2.0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = payload["table"]
    # k is read exactly, as a radius is, and spelled as a radius is
    assert payload["k"] == "2"
    assert len(table) == 8
    assert table[-1]["value"] == 5 / 2
    # a radius is spelled as a cloud file spells r_exact: the default radii are r_n = n!
    assert [row["r"] for row in table] == [str(math.factorial(n)) for n in range(1, 9)]
    assert main(["diag", "psi", str(cloud), "--radii", "3.5"]) == 0
    assert capsys.readouterr().out == "annulus diameter ratios (k = 2):\n  r = 7/2: 2.57143 (4 points)\n"
    # a decimal is the rational it spells, not its nearest binary64 value
    assert main(["diag", "psi", str(cloud), "--k", "3/2", "--radii", "0.1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"k": "3/2", "table": [{"r": "1/10", "value": 0.0, "points": 0}]}
    # the parser names the option it refuses, and an empty list is no list of radii
    radii = "argument --radii: not a rational literal:"
    for args, refusal in (
        (["--radii", "1,x"], f"{radii} 'x'"),
        (["--k", "nan"], "argument --k: not a rational literal: 'nan'"),
        (["--k", "inf"], "argument --k: not a rational literal: 'inf'"),
        (["--radii", "nan,inf", "--json"], f"{radii} 'nan'"),
        (["--radii", "1,inf"], f"{radii} 'inf'"),
        (["--radii", ""], f"{radii} ''"),
    ):
        assert main(["diag", "psi", str(cloud), *args]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"metric-cluster diag psi: error: {refusal}"


def test_diag_fn_reads_each_point_exactly(tmp_path, capsys):
    # v and x lie beyond binary64, yet diag fn reads them as the ints they
    # are: the spread of u and v, (2**1100 - 1) / 2**2200, rounds once, to 0.0
    coordinates = (("r", 0), ("u", 1), ("w", 2), ("v", 2**1100), ("x", 3 * 2**1099))
    points = [{"label": label, "exact": [str(x)]} for label, x in coordinates]
    level = {"n": 1, "r_exact": "1", "over": 1, "points": points}
    path = tmp_path / "far_v.json"
    path.write_text(json.dumps({"dimension": 1, "levels": [level]}), encoding="utf-8")
    for labels, value in (("u,w", 0.25), ("u,v", 0.0), ("v,x", 2 / 9)):
        assert main(["diag", "fn", str(path), "--level", "1", "--labels", labels, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"level": 1, "labels": labels.split(","), "value": value}


def test_diag_of_points_whose_distance_leaves_binary64_is_exact(tmp_path, capsys):
    # two finite points 2e308 apart: each value of diag fn and diag psi is 2
    path = tmp_path / "c.json"
    points = [{"label": "a", "coords": [1e308]}, {"label": "b", "coords": [-1e308]}]
    path.write_text(json.dumps({"dimension": 1, "levels": [{"n": 1, "r": 1.0, "points": points}]}), encoding="utf-8")
    assert main(["diag", "psi", str(path), "--k", "2", "--radii", "1e308", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"k": "2", "table": [{"r": str(10**308), "value": 2.0, "points": 2}]}
    assert main(["diag", "fn", str(path), "--level", "1", "--labels", "a,b", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0


@pytest.mark.parametrize(
    "command, status",
    [(["single-point"], 0), (["recover", "{cloud}"], 0), (["realize", "{graph}"], 0), (["check", "{bad}"], 1)],
    ids=["single_point", "recover", "realize", "verdict"],
)
def test_a_reader_gone_away_keeps_the_exit_code(tmp_path, bad_triangle, cert_graph, command, status):
    """The installed command's stdout is a pipe whose reader has closed, as
    ``| grep -q`` leaves it after its match: the command prints no error,
    nothing is reported at exit, and it exits with the code it returns."""
    cloud = tmp_path / "p.json"
    cloud.write_text(single_point_space(8).to_json(), encoding="utf-8")
    argv = [arg.format(cloud=cloud, graph=cert_graph, bad=bad_triangle) for arg in command]
    src = str(Path(sys.modules["metric_cluster"].__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "metric_cluster.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (status, b"")


def test_recover_reads_its_tolerances_as_decimal_literals(cert_graph, tmp_path, capsys):
    realized_cloud(cert_graph, tmp_path)
    cloud = str(tmp_path / "cloud.json")
    # float() reads each of these
    for option in ("--tol-rel", "--tol-abs"):
        for spelled in ("1_0", "\u0663", " 6", "6 ", "3/2", "nan", "-inf", "infinity", ""):
            assert main(["recover", cloud, f"{option}={spelled}"]) == 2
            refusal = f"metric-cluster recover: error: argument {option}: not a decimal literal: {spelled!r}"
            assert capsys.readouterr().err.splitlines()[-1] == refusal
    assert main(["recover", cloud, "--tol-rel", "1e-6", "--tol-abs", "+0.", "--json"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert (diagnostics["tol_rel"], diagnostics["tol_abs"]) == (str(1e-6), str(0.0))


def test_the_closure_refusal_names_the_basepoint_alike_in_every_process(tmp_path):
    """Five points a-e at 0, 1, ..., 4, at three levels of scale 1: at
    tol_abs 1 each is close to the next, and the chain joins the basepoint,
    where a is, to e, 4 away."""
    row = [{"label": label, "coords": [float(i)]} for i, label in enumerate("abcde")]
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"dimension": 1, "levels": [{"n": n, "r": 1.0, "points": row} for n in (1, 2, 3)]}))
    with pytest.raises(GraphError) as refused:
        recover_cluster(LeveledPointCloud.from_json(path.read_text()), tol_abs=1)
    refusal = (
        "equivalence closure merged sequences that are not close: the basepoint and 'e' have mean "
        "normalized distance 4 > 3x tolerance; tolerances are inconsistent with this cloud"
    )
    assert str(refused.value) == refusal
    src = str(Path(sys.modules["metric_cluster"].__file__).parent.parent)
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "metric_cluster.cli", "recover", str(path), "--tol-abs", "1"],
                             capture_output=True, env=env)
        assert (run.returncode, run.stdout, run.stderr.decode()) == (2, b"", f"error: {refusal}\n")


def test_diag_fn_of_a_realized_cluster_is_finite(tmp_path, capsys):
    # the largest basepoint distance of the eleven points, raised to the
    # power 11 * 10 / 2 + 1, leaves binary64
    g = synthesize_weights(random_dominating_shape(random.Random(3), 12, 0.5))
    cloud = tmp_path / "cloud.json"
    cloud.write_text(realize(g, 12).to_json(), encoding="utf-8")
    labels = ",".join(v for v in g.vertices if v != g.root)
    assert main(["diag", "fn", str(cloud), "--level", "12", "--labels", labels, "--json"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["value"])


def test_demo_out_under_a_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["demo", "--out", str(blocker / "fixtures")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot create {blocker / 'fixtures'}: ")


def test_demo_corpus_self_consistent(tmp_path, capsys):
    def cycle(vertices, weights):
        edges = zip(vertices, vertices[1:] + vertices[:1])
        return WeightedRootedGraph(vertices, dict(zip(edges, weights)), vertices[0])

    fixtures = {
        "cycle4_1234.json": cycle(["nu1", "nu2", "nu3", "nu4"], [1, 2, 3, 4]),
        "tight4.json": cycle(["v1", "v2", "v3", "v4"], [1, 1, 1, 3]),
        "single_point.json": single_point_space(12),
        "cert_triangle.json": cycle(["r", "u", "v"], [1, Fraction(5, 2), 2]),
    }
    out_dir = tmp_path / "fixtures"
    assert main(["demo", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == "".join(f"wrote {out_dir / name}\n" for name in fixtures)
    # the demo writes its inputs alone, each by its value's own writer
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(fixtures)
    for name, value in fixtures.items():
        assert (out_dir / name).read_text(encoding="utf-8") == value.to_json() + "\n"
    # their answers come from the commands that compute them
    quad = str(out_dir / "cycle4_1234.json")
    for u, v, lo, hi in (("nu2", "nu4", "3", "5"), ("nu1", "nu3", "1", "3")):
        assert main(["interval", quad, u, v, "--json"]) == 0
        interval = json.loads(capsys.readouterr().out)
        assert (interval["lo"], interval["hi"]) == (lo, hi)
    assert main(["check", quad]) == 0
    assert main(["fpc", "certify", str(out_dir / "cert_triangle.json")]) == 0
    capsys.readouterr()
    assert main(["embed", str(out_dir / "tight4.json"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coordinates"] == {"v1": "0", "v2": "1", "v3": "2", "v4": "3"}
    assert main(["recover", str(out_dir / "single_point.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["vertices"] == ["p"] and payload["diagnostics"]["decided"] == "on exact shadows"


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}', encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err
    # files that are not clean JSON text: the decoder, the parser's nesting
    # and the interpreter's integer digit limit refuse them with exceptions
    # other than JSONDecodeError
    for name, data, message in (
        ("utf16.json", b"\xff\xfe{}", "is not UTF-8 text"),
        ("deep.json", b"[" * 200000 + b"]" * 200000, "nested too deeply"),
        # the digit limit came with Python 3.10.7; before it the file is read
        # and refused for what it holds, with a message of its own
        (
            "nines.json",
            b'{"dimension": ' + b"9" * 5000 + b', "levels": []}',
            "digits" if hasattr(sys, "get_int_max_str_digits") else "",
        ),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        for command in ("recover", "check"):
            assert main([command, str(path)]) == 2
            assert message in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["check", "nope.json"]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_disconnected_graph_exit_2(tmp_path, capsys):
    g = write_graph(
        tmp_path / "dis.json", ["a", "b", "c", "d"], {("a", "b"): 1, ("c", "d"): 1}, "a"
    )
    assert main(["spm", str(g)]) == 2
    assert "component" in capsys.readouterr().err


def realized_cloud(cert_graph, tmp_path, *options) -> dict:
    """The realized file of the graph, every level's points spelled out."""
    cloud = tmp_path / "cloud.json"
    assert main(["realize", str(cert_graph), "--depth", "12", "--out", str(cloud), *options]) == 0
    return spelled_document(cloud)


def spelled_document(path) -> dict:
    """The cloud file at ``path``, every level's points spelled out."""
    return spelled_out(json.loads(path.read_text(encoding="utf-8")))


# the refusal of an exact value in any spelling but the writer's
SPELLING = "it must be an integer spelled -?[0-9]+ in ASCII digits, within the interpreter's digit limit"


def test_short_coordinates_exit_2(cert_graph, tmp_path, capsys):
    # a point's coords are written where it has no shadow written
    floats = realized_cloud(cert_graph, tmp_path, "--no-exact")
    for key, data in (("coords", floats), ("exact", realized_cloud(cert_graph, tmp_path))):
        cut = json.loads(json.dumps(data))
        for level in cut["levels"]:
            for point in level["points"]:
                point[key] = point[key][:2]
        short = tmp_path / f"short_{key}.json"
        short.write_text(json.dumps(cut), encoding="utf-8")
        assert main(["recover", str(short), "--exact"]) == 2
        assert "does not have 3 coordinates" in capsys.readouterr().err


def test_cloud_level_missing_field_exit_2(cert_graph, tmp_path, capsys):
    data = realized_cloud(cert_graph, tmp_path)
    for drop in ("points", "n"):
        broken = json.loads(json.dumps(data))
        del broken["levels"][3][drop]
        path = tmp_path / f"no_{drop}.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["recover", str(path)]) == 2
        assert drop in capsys.readouterr().err
    # a point's coordinates and a level's scale come from the shadows and
    # r_exact where a cloud has them, and from coords and r where it has not
    floats = realized_cloud(cert_graph, tmp_path, "--no-exact")
    for doc, drop, message in (
        (floats, ["levels", 3, "points", 1, "coords"], "point 'u' at level 4 has neither coords nor an exact shadow"),
        (data, ["levels", 3, "points", 1, "exact"], "point 'u' at level 4 has neither coords nor an exact shadow"),
        (floats, ["levels", 3, "r"], "level 4 has neither r nor r_exact"),
        # shadows in units of the level's scale need it
        (data, ["levels", 3, "r_exact"], f"level 4 has exact values over {data['levels'][3]['over']} but no r_exact"),
    ):
        broken = json.loads(json.dumps(doc))
        *parents, last = drop
        target = broken
        for key in parents:
            target = target[key]
        del target[last]
        path = tmp_path / "no_field.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        for exact in ([], ["--exact"]):
            assert main(["recover", str(path), *exact]) == 2
            assert message in capsys.readouterr().err


def test_duplicate_label_in_a_level_exit_2(cert_graph, tmp_path, capsys):
    # level 1 lies outside recovery's window, and only diag fn used to look
    data = realized_cloud(cert_graph, tmp_path)
    points = data["levels"][0]["points"]
    points.append(dict(next(p for p in points if p["label"] == "u")))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (
        ["recover", str(path)],
        ["recover", str(path), "--exact"],
        ["subsample", str(path), "--indices", "1,2", "--out", str(tmp_path / "s.json")],
        ["diag", "fn", str(path), "--level", "1", "--labels", "u,v"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: duplicate label 'u' at level 1\n"
    # unlabeled points may repeat, and diag fn reads the labeled ones alone
    points[-1]["label"] = None
    points.append(dict(points[-1]))
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["diag", "psi", str(path), "--radii", "1"]) == 0
    capsys.readouterr()
    for cloud in (tmp_path / "cloud.json", path):
        assert main(["diag", "fn", str(cloud), "--level", "1", "--labels", "u,v"]) == 0
    clean, with_unlabeled = capsys.readouterr().out.splitlines()
    assert with_unlabeled == clean


def test_a_bare_root_class_is_named_by_no_label(cert_graph, tmp_path, capsys):
    # without the root's points the root class has no label to be named by,
    # and nu0 is taken
    data = realized_cloud(cert_graph, tmp_path)
    for level in data["levels"]:
        level["points"] = [p for p in level["points"] if p["label"] != "r"]
        for p in level["points"]:
            p["label"] = {"u": "nu0"}.get(p["label"], p["label"])
    path, out, diag = (tmp_path / name for name in ("bare.json", "h.json", "d.json"))
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["recover", str(path), "--exact", "--out", str(out), "--diag-out", str(diag)]) == 0
    h = WeightedRootedGraph.from_json(out.read_text(encoding="utf-8"))
    assert h.vertices == ("nu0", "nu1", "v", "z") and h.root == "nu1"
    rho0 = json.loads(diag.read_text(encoding="utf-8"))["rho0"]
    assert rho0 == {"nu0": "1", "nu1": "0", "v": "2", "z": "3"}
    assert main(["isomorphic", str(cert_graph), str(out), "--weight-tol-rel", "0"]) == 0


def test_verdicts_that_no_other_test_prints(tmp_path, capsys):
    zero = write_graph(
        tmp_path / "zero.json", ["a", "b", "c"], {("a", "b"): 0, ("b", "c"): 1, ("a", "c"): 1}, "a"
    )
    assert main(["check", str(zero)]) == 1
    assert capsys.readouterr().out == "classification: pseudometrizable_only\nzero-weight edge: ('a', 'b')\n"
    assert main(["check", str(zero), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "classification": "pseudometrizable_only",
        "zero_weight_edge": ["a", "b"],
    }
    pendant = write_graph(
        tmp_path / "pendant.json", ["r", "u", "v"], {("r", "u"): 1, ("u", "v"): 1}, "r"
    )
    assert main(["fpc", "certify", str(pendant), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "fail",
        "failed_condition": "root_not_dominating",
        "witness_vertex": "v",
    }
    # the tight cycle r-u-v-z lacks the chord u-z
    tight = write_graph(
        tmp_path / "tight.json",
        ["r", "u", "v", "z"],
        {("r", "u"): 1, ("r", "v"): 3, ("r", "z"): 6, ("u", "v"): 2, ("v", "z"): 3},
        "r",
    )
    assert main(["fpc", "certify", str(tight), "--json"]) == 1
    assert capsys.readouterr().out == json.dumps({
        "verdict": "fail",
        "failed_condition": "tight_cycle_not_clique",
        "witness_pair": ["u", "z"],
        "witness_cycle": {"vertices": ["r", "u", "v", "z"], "weights": ["1", "2", "3", "6"]},
    }) + "\n"


def test_refusals_that_no_other_test_reaches(cert_graph, tmp_path, capsys):
    cloud = str(tmp_path / "cloud.json")
    assert main(["realize", str(cert_graph), "--depth", "12", "--out", cloud]) == 0
    triangle = ["a", "b", "c"]
    # a tight triangle goes on the line, a 4-cycle that is not tight on the circle
    zero = write_graph(
        tmp_path / "zero.json", triangle, {("a", "b"): 0, ("b", "c"): 1, ("a", "c"): 1}, "a"
    )
    zero4 = write_graph(
        tmp_path / "zero4.json",
        ["a", "b", "c", "d"],
        {("a", "b"): 0, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 1},
        "a",
    )
    heavy = write_graph(
        tmp_path / "heavy.json", triangle, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3}, "a"
    )
    edge = write_graph(tmp_path / "edge.json", ["a", "b"], {("a", "b"): 1}, "a")
    # 'x', the least vertex, has three neighbours
    claw = {("x", "y1"): 1, ("x", "y2"): 1, ("x", "y3"): 1, ("y1", "y2"): 1}
    claw = write_graph(tmp_path / "claw.json", ["x", "y1", "y2", "y3"], claw, "x")
    documents = {
        "no_matrix.json": {"vertices": ["a", "b"]},
        "repeated.json": {"vertices": ["a", "a"], "matrix": [["0", "1"], ["1", "0"]]},
        "ragged.json": {"vertices": ["a", "b"], "matrix": [["0", "1"], ["1"]]},
        "float.json": {"vertices": ["a", "b"], "matrix": [["0", 1.5], [1.5, "0"]]},
        "levels.json": {"dimension": 1, "levels": {"n": 1}},
    }
    for name, document in documents.items():
        (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
    matrix = {name: str(tmp_path / f"{name}.json") for name in ("no_matrix", "repeated", "ragged", "float")}
    cases = [
        (["fpc", "from-metric", matrix["no_matrix"], "a"], "distance matrix JSON is missing field: 'matrix'"),
        (["fpc", "from-metric", matrix["repeated"], "a"], "distance matrix vertices must be distinct"),
        (["fpc", "from-metric", matrix["ragged"], "a"], "distance matrix must be square"),
        (["fpc", "from-metric", matrix["float"], "a"],
         "refusing float distance matrix entry 1.5: pass a string ('3/2' or '1.5') for exactness"),
        (["recover", str(tmp_path / "levels.json")], "cloud JSON levels must be a list"),
        (["realize", str(cert_graph), "--depth", "0"], "depth must be at least 1"),
        # at level 171 the scale r = 171! itself leaves binary64, where the float writer rounds it
        (["realize", str(cert_graph), "--depth", "171", "--no-exact"],
         "level 171 has a scale r_exact beyond binary64: integer division result too large for a float"),
        (["single-point", "--depth", "1"], "depth must be at least 2"),
        (["recover", cloud, "--window", "0"], "window must be positive"),
        (["recover", cloud, "--window", "13"], "window 13 exceeds cloud depth 12"),
        (["subsample", cloud, "--stride-offset", "2"], "offset must lie in [0, 2)"),
        (["subsample", cloud, "--stride-offset", "-1"], "offset must lie in [0, 2)"),
        (["diag", "fn", cloud, "--level", "13", "--labels", "u,v"], "level 13 not present in the cloud"),
        (["diag", "fn", cloud, "--level", "12", "--labels", "u,x"], "labels ['x'] not present at level 12"),
        (["embed", str(zero4)], "circle embedding needs strictly positive weights"),
        (["embed", str(zero)], "line embedding needs strictly positive weights"),
        (["embed", str(heavy)], "cycle is not metrizable: 2*3 > 5"),
        (["embed", str(edge)], "a cycle needs at least 3 vertices"),
        (["embed", str(claw)], "vertex 'x' has degree 3, expected 2"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_graph_edge_missing_endpoint_exit_2(tmp_path, capsys):
    for drop in ("u", "v"):
        edge = {"u": "a", "v": "b", "w": "1"}
        del edge[drop]
        path = tmp_path / f"no_{drop}.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "root": "a", "edges": [edge]}))
        assert main(["check", str(path)]) == 2
        assert f"'{drop}'" in capsys.readouterr().err
    for name, graph, message in (
        ("int_id", {"vertices": ["a", 1], "root": "a", "edges": [{"u": "a", "v": 1}]},
         "vertex id 1 is not a string"),
        ("list_edge", {"vertices": ["a", "b"], "root": "a", "edges": [["a", "b", "1"]]},
         "is not an object"),
        ("vertex_number", {"vertices": 2, "root": "a", "edges": []},
         "vertices and edges must be lists"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph))
        assert main(["check", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_inputs_found_by_fuzzing_exit_2(cert_graph, tmp_path, capsys):
    graph = {"vertices": ["a", "b"], "root": "a", "edges": [{"u": "a", "v": None}]}
    path = tmp_path / "null_endpoint.json"
    path.write_text(json.dumps(graph))
    assert main(["check", str(path)]) == 2
    assert "vertex id None is not a string" in capsys.readouterr().err
    matrix = {"vertices": [1.5, "a"], "matrix": [["0", "1"], ["1", "0"]]}
    path = tmp_path / "number_point.json"
    path.write_text(json.dumps(matrix))
    assert main(["fpc", "from-metric", str(path), "a"]) == 2
    assert "vertices must be a list of strings" in capsys.readouterr().err
    realized_cloud(cert_graph, tmp_path)
    cloud = tmp_path / "cloud.json"
    # the parser reads a tolerance as a decimal literal, and names the option; recovery refuses a negative one
    for tol, refusal in (
        ("nan", "metric-cluster recover: error: argument --tol-rel: not a decimal literal: 'nan'"),
        ("inf", "metric-cluster recover: error: argument --tol-rel: not a decimal literal: 'inf'"),
        ("-1", "error: tolerances must be finite and non-negative, got -1.0"),
    ):
        assert main(["recover", str(cloud), "--exact", "--tol-rel", tol]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == refusal
    # an exponent literal would build a power of ten beyond what str() prints
    # so would the places of a decimal without one; an exact value is no literal
    over = spelled_document(cloud)["levels"][3]["over"]
    for value in ("1e10000000", "1e5000", "0." + "1" * 4300):
        graph = {"vertices": ["a", "b"], "root": "a", "edges": [{"u": "a", "v": "b", "w": value}]}
        path = tmp_path / "exponent_weight.json"
        path.write_text(json.dumps(graph))
        for command in ("check", "spm"):
            assert main([command, str(path)]) == 2
            assert "needs more than 4300 digits" in capsys.readouterr().err
        data = spelled_document(cloud)
        data["levels"][3]["points"][1]["exact"][0] = value
        path = tmp_path / "exponent_exact.json"
        path.write_text(json.dumps(data))
        for args in (["subsample", str(path), "--indices", "1,2", "--out", str(tmp_path / "s.json")],
                     ["recover", str(path)], ["recover", str(path), "--exact"]):
            assert main(args) == 2
            assert capsys.readouterr().err == f"error: level 4 has exact value {value!r} over {over}; {SPELLING}\n"
    # JSON true and false are no rationals, though Python's bool is an int
    graph = {"vertices": ["a", "b"], "root": "a", "edges": [{"u": "a", "v": "b", "w": True}]}
    path = tmp_path / "boolean_weight.json"
    path.write_text(json.dumps(graph))
    assert main(["check", str(path)]) == 2
    assert "not a rational literal: True" in capsys.readouterr().err
    # a boolean entry, and string rows, which would be read character by character
    for matrix, message in (
        ({"vertices": ["p", "x"], "matrix": [[0, True], [True, False]]}, "not a rational literal"),
        ({"vertices": ["p", "x", "y"], "matrix": ["012", "103", "230"]}, "must be a list of rows"),
    ):
        path = tmp_path / "odd_matrix.json"
        path.write_text(json.dumps(matrix))
        assert main(["fpc", "from-metric", str(path), "p"]) == 2
        assert message in capsys.readouterr().err
    for edit, message in ((_set_exact(False), f"exact value False over {over}; {SPELLING}"),
                          (_set_level("r_exact", True), "not a rational literal: True")):
        data = spelled_document(cloud)
        edit(data)
        path = tmp_path / "boolean_exact.json"
        path.write_text(json.dumps(data))
        assert main(["recover", str(path), "--exact"]) == 2
        assert message in capsys.readouterr().err
    # nor are they numbers, though float() reads them as 1.0 and 0.0
    dimension = json.loads(cloud.read_text(encoding="utf-8"))["dimension"]
    for edit, message in (
        (_set_coordinate(True), "non-numeric coordinate"),
        (_set_r(True), "not a binary64 number"),
        (_set_at(["basepoint"], [False] * dimension), "basepoint must be the origin"),
    ):
        data = spelled_document(cloud)
        edit(data)
        path = tmp_path / "boolean_number.json"
        path.write_text(json.dumps(data))
        assert main(["recover", str(path)]) == 2
        assert message in capsys.readouterr().err
    # a repeated level number, and levels in reverse: subsample and diag would
    # find different levels by one number, and recovery would read its window
    # from the shallowest levels
    for edit in (_set_level("n", 3), lambda data: data["levels"].reverse()):
        data = spelled_document(cloud)
        edit(data)
        path = tmp_path / "level_order.json"
        path.write_text(json.dumps(data))
        for args in (
            ["recover", str(path)],
            ["subsample", str(path), "--indices", "3", "--out", str(tmp_path / "s.json")],
            ["diag", "fn", str(path), "--level", "3", "--labels", "u,v"],
        ):
            assert main(args) == 2
            assert "levels must strictly increase" in capsys.readouterr().err


def _float_level(data, index=3) -> dict:
    """The level at ``index`` of ``data``, level 4 unless given, as the float
    writer writes it, r and coords."""
    level = data["levels"][index]
    for point in level["points"]:
        point["coords"] = [float(x) for x in file_shadow(level, point)]
        del point["exact"]
    level["r"] = repr(float(Fraction(level.pop("r_exact"))))
    del level["over"]
    return level


def _set_coordinate(value):
    """Level 4 written without shadows, the first coordinate of point 'u' then ``value``."""
    def edit(data):
        _float_level(data)["points"][1]["coords"][0] = value
    return edit


def _set_r(value):
    """Level 4 written without shadows, its scale r then ``value``."""
    def edit(data):
        _float_level(data)["r"] = value
    return edit


def _set_exact(value):
    def edit(data):
        data["levels"][3]["points"][1]["exact"][0] = value
    return edit


def _set_level(field, value):
    def edit(data):
        data["levels"][3][field] = value
    return edit


def _set_at(path, value):
    def edit(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return edit


def _named(points_of, *drop, first=None, **fields):
    """Level 4 as a level that names ``points_of`` by points_of, beside its
    own n and r_exact and ``fields``, less the fields in ``drop``, after the
    edit ``first``."""
    def edit(data):
        if first:
            first(data)
        level = data["levels"][3] = {"n": 4, "points_of": points_of, "r_exact": data["levels"][3]["r_exact"], **fields}
        for field in drop:
            del level[field]
    return edit


def _no_earlier_level(points_of) -> str:
    return f"level 4 has points_of {points_of!r}, which names no earlier exact level with points"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_coordinate("x"), "non-numeric coordinate"),
        (_set_coordinate("1.5"), "non-numeric coordinate"),
        (_set_coordinate(float("nan")), "NaN or infinite coordinate"),
        (_set_coordinate(float("inf")), "NaN or infinite coordinate"),
        (_set_r("0"), "finite and positive"),
        (_set_r("-24"), "finite and positive"),
        (_set_r("1e999"), "finite and positive"),
        (_set_level("r_exact", "0"), "r_exact = 0"),
        (_set_level("r_exact", "-24"), "r_exact = -24"),
        (_set_coordinate(10**400), "coordinate beyond binary64"),
        (_set_r(10**400), "scale r that is not a binary64 number"),
        (_set_level("n", "x"), "level n must be a positive integer"),
        (_set_level("n", None), "level n must be a positive integer"),
        (_set_at(["dimension"], "x"), "dimension must be a positive integer"),
        (_set_at(["period"], "x"), "period must be a positive integer"),
        (_set_at(["period"], 0), "period must be a positive integer"),
        (_set_level("points", {"label": "u"}), "points of level 4 must be a list"),
        (_set_at(["levels", 3], [4, "24"]), "is not an object"),
        (_set_at(["levels", 3, "points", 1], "u"), "is not an object"),
        (_set_at(["levels", 3, "points", 1, "label"], 7), "point label 7 at level 4 is not a string"),
        (_set_at(["norm"], "euclidean"), "norm 'euclidean' is not supported"),
        (_set_at(["norm"], 42), "norm 42 is not supported"),
        (_set_at(["basepoint"], "nonsense"), "basepoint must be the origin"),
        (_set_at(["basepoint"], [1e300, 0, 0, 0]), "basepoint must be the origin"),
        (_set_at(["levels"], []), "cloud JSON has no points"),
        (lambda data: _float_level(data)["points"][1].update(coords="1234"), "not a JSON list"),
        (_set_at(["levels", 3, "points", 1, "exact"], "1234"), "not a JSON list"),
        # a level that repeats the points of an earlier exact level names it
        (_named("2"), _no_earlier_level("2")),
        (_named(True), _no_earlier_level(True)),
        (_named(2.0), _no_earlier_level(2.0)),
        (_named(None), _no_earlier_level(None)),
        (_named(4), _no_earlier_level(4)),
        (_named(6), _no_earlier_level(6)),
        (_named(0), _no_earlier_level(0)),
        (_named(2, first=lambda data: _float_level(data, 1)), _no_earlier_level(2)),
        (_named(2, first=_set_at(["levels", 1, "points"], [])), _no_earlier_level(2)),
        (_named(2, points=[]), "level 4 has points beside points_of"),
        (_named(2, over=1), "level 4 has over beside points_of"),
        (_named(2, "r_exact"), "level 4 has points_of but no r_exact"),
        (_named(2, "r_exact", r="24"), "level 4 has points_of but no r_exact"),
        (_named(2, r="24"), "level 4 is in a retired layout: r beside r_exact"),
        (_named(2, r_exact="0"), "level 4 has exact scale r_exact = 0; it must be positive"),
        (_named(2, n=2), "level 2 follows level 3: levels must strictly increase"),
    ],
    ids=[
        "coordinate-non-numeric",
        "coordinate-a-string",
        "coordinate-nan",
        "coordinate-inf",
        "r-zero",
        "r-negative",
        "r-inf",
        "r_exact-zero",
        "r_exact-negative",
        "coordinate-beyond-binary64",
        "r-beyond-binary64",
        "n-non-numeric",
        "n-null",
        "dimension-non-numeric",
        "period-non-numeric",
        "period-zero",
        "points-not-a-list",
        "level-not-an-object",
        "point-not-an-object",
        "label-not-a-string",
        "norm-euclidean",
        "norm-number",
        "basepoint-nonsense",
        "basepoint-not-the-origin",
        "no-points",
        "coords-a-string",
        "exact-a-string",
        "points_of-a-string",
        "points_of-true",
        "points_of-a-float",
        "points_of-null",
        "points_of-itself",
        "points_of-a-later-level",
        "points_of-a-missing-level",
        "points_of-a-binary64-level",
        "points_of-a-level-without-points",
        "points-beside-points_of",
        "over-beside-points_of",
        "points_of-without-r_exact",
        "points_of-beside-r",
        "points_of-beside-r-and-r_exact",
        "points_of-r_exact-zero",
        "points_of-n-repeated",
    ],
)
def test_bad_cloud_number_exit_2(cert_graph, tmp_path, capsys, edit, message):
    data = realized_cloud(cert_graph, tmp_path)
    edit(data)
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    # the loader checks every field, the exact shadows too, for both recoveries
    for exact in ([], ["--exact"]):
        assert main(["recover", str(path), *exact]) == 2
        assert message in capsys.readouterr().err


TINY = Fraction(1, 2**1074)  # 5e-324, the least subnormal binary64 number


def test_tiny_scale_exit_2(cert_graph, tmp_path, capsys):
    # a subnormal scale, finite and positive, so the loader accepts it, but
    # every normalized distance of the level overflows binary64, where recovery
    # reports it: the scale is r_exact, under the same coordinates, in a
    # cloud with shadows, whose values grow as the scale shrinks, and r in
    # one without, and either decides exactly
    for options, field, value in (((), "r_exact", TINY), (("--no-exact",), "r", "5e-324")):
        data = realized_cloud(cert_graph, tmp_path, *options)
        level = data["levels"][-1]
        if field == "r_exact":
            factor = Fraction(level["r_exact"]) / value
            for point in level["points"]:
                point["exact"] = [str(int(x) * factor) for x in point["exact"]]
        level[field] = str(value)
        path = tmp_path / "tiny_scale.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for exact in ([], ["--exact"][:field == "r_exact"]):
            assert main(["recover", str(path), *exact]) == 2
            assert "does not fit binary64: a level's coordinates are too large for its scale" in capsys.readouterr().err


def test_exact_values_beyond_binary64_exit_2(cert_graph, tmp_path, capsys):
    # shadows 10**400 times too large for binary64 load, as any shadow does;
    # the normalized distances that recovery reports in binary64 do not fit
    data = realized_cloud(cert_graph, tmp_path)
    for level in data["levels"]:
        for point in level["points"]:
            point["exact"] = [str(int(x) * 10**400) for x in point["exact"]]
    path = tmp_path / "huge_exact.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for exact in ([], ["--exact"]):
        assert main(["recover", str(path), *exact]) == 2
        assert "does not fit binary64" in capsys.readouterr().err
    # diag fn reads the rows exactly, and the spread functional is scale-free
    values = []
    for cloud in (tmp_path / "cloud.json", path):
        assert main(["diag", "fn", str(cloud), "--level", "1", "--labels", "u,v", "--json"]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] == values[1] > 0


def _drop_level(field):
    def edit(data):
        del data["levels"][3][field]
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_level("over", 0), "level 4 has exact values over 0; over must be a positive integer"),
        (_set_level("over", -1), "level 4 has exact values over -1; over must be a positive integer"),
        (_set_level("over", True), "level 4 has exact values over True; over must be a positive integer"),
        (_set_level("over", "1"), "level 4 has exact values over '1'; over must be a positive integer"),
        (_set_level("over", 1.0), "level 4 has exact values over 1.0; over must be a positive integer"),
        (_set_level("over", None), "level 4 has exact values over None; over must be a positive integer"),
        (_set_exact("1/2"), "level 4 has exact value '1/2' over {over}; " + SPELLING),
        (_drop_level("r_exact"), "level 4 has exact values over {over} but no r_exact"),
    ],
    ids=["over-zero", "over-negative", "over-true", "over-a-string", "over-a-float", "over-null",
         "value-no-integer", "no-r_exact"],
)
def test_malformed_shadows_in_units_of_the_scale_exit_2(cert_graph, tmp_path, capsys, edit, message):
    data = realized_cloud(cert_graph, tmp_path)
    message = message.format(over=data["levels"][3]["over"])
    edit(data)
    path = tmp_path / "bad_units.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for args in (["recover", str(path)], ["subsample", str(path), "--indices", "1", "--out", str(tmp_path / "s.json")]):
        assert main(args) == 2
        assert f"error: {message}" in capsys.readouterr().err


# spellings of an integer that the graph format reads and the cloud format
# does not: a rational or decimal literal, a sign, a blank, a separator,
# other scripts' digits, a JSON number and digits past the interpreter's limit
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
REFUSED_SPELLINGS = {
    "rational": "6/2", "rational-zero": "0/1", "decimal": "3.0", "exponent": "1e3", "plus": "+3",
    "blank-before": " 3", "blank-after": "3 ", "separator": "1_000", "arabic-indic": "٣",
    "number": 3, "number-zero": 0, "number-negative": -1, "number-float": 3.0,
}


@pytest.mark.parametrize(
    "value",
    [pytest.param(value, id=name) for name, value in REFUSED_SPELLINGS.items()]
    + [pytest.param("1" * (_LIMIT + 1), id="past-the-digit-limit",
                    marks=pytest.mark.skipif(not _LIMIT, reason="the interpreter has no digit limit"))],
)
def test_each_refused_spelling_of_an_exact_value_exit_2(cert_graph, tmp_path, capsys, value):
    # in level 1, in level 3, whose points repeat level 1's but for the
    # value, and in the last level
    data = realized_cloud(cert_graph, tmp_path)
    assert data["levels"][2]["points"] == data["levels"][0]["points"]
    for index in (0, 2, -1):
        edited = json.loads(json.dumps(data))
        level = edited["levels"][index]
        level["points"][1]["exact"][0] = value
        path = tmp_path / "spelled.json"
        path.write_text(json.dumps(edited), encoding="utf-8")
        assert main(["recover", str(path)]) == 2
        n, over = level["n"], level["over"]
        assert capsys.readouterr().err == f"error: level {n} has exact value {value!r} over {over}; {SPELLING}\n"



@pytest.mark.skipif(not _LIMIT, reason="the interpreter has no digit limit")
def test_a_scale_r_exact_past_the_digit_limit_exit_2_naming_its_level(cert_graph, tmp_path, capsys):
    data = realized_cloud(cert_graph, tmp_path)
    data["levels"][1]["r_exact"] = "1" * (_LIMIT + 1)
    path = tmp_path / "long_scale.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["recover", str(path)]) == 2
    assert capsys.readouterr().err == f"error: level 2 has a scale r_exact of more than {_LIMIT} digits\n"


def test_each_retired_layout_exit_2(tmp_path, capsys):
    # layouts a writer wrote before: absolute shadows without over, which
    # the README once let subsample rewrite, and both halves, r-u 1, r-v 2
    # with u's coordinates 1.5 times its shadow, which read r-u 3/2 in float
    # recovery and r-u 1 in exact recovery, and both exited 0
    g = write_graph(tmp_path / "g.json", ["r", "u", "v"], {("r", "u"): 1, ("r", "v"): 2}, "r")
    cloud = tmp_path / "c.json"
    assert main(["realize", str(g), "--depth", "8", "--out", str(cloud)]) == 0
    # the writer writes one half: the shadow and r_exact
    written = spelled_document(cloud)["levels"]
    assert not any("r" in level or any("coords" in p for p in level["points"]) for level in written)

    def rounded(level, point):
        return [float(x) for x in file_shadow(level, point)]

    def scale_u(data):
        for level in data["levels"]:
            level["points"][1]["coords"] = [1.5 * x for x in rounded(level, level["points"][1])]

    def one_ulp(data):
        level = data["levels"][3]
        point = level["points"][1]
        point["coords"] = [math.nextafter(x, math.inf) if j == 0 else x for j, x in enumerate(rounded(level, point))]

    def scale_apart(data):
        level = data["levels"][3]
        level["r"] = repr(math.nextafter(float(Fraction(level["r_exact"])), 0))

    def absolute(data):
        for level in data["levels"][2:]:
            for point in level["points"]:
                point["exact"] = list(map(str, file_shadow(level, point)))
            del level["over"]

    for edit, message in (
        (scale_u, "level 1 is in a retired layout: coords beside exact at point 'u'"),
        (one_ulp, "level 4 is in a retired layout: coords beside exact at point 'u'"),
        (scale_apart, "level 4 is in a retired layout: r beside r_exact"),
        (absolute, "level 3 is in a retired layout: exact values without over"),
    ):
        data = spelled_document(cloud)
        edit(data)
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for argv in (["recover", str(path)], ["recover", str(path), "--exact"],
                     ["subsample", str(path), "--indices", "1,2,3,4", "--out", str(tmp_path / "s.json")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract
# ---------------------------------------------------------------------------

FUZZ_GRAPH = {
    "vertices": ["r", "u", "v", "z"],
    "root": "r",
    "edges": [
        {"u": "r", "v": "u", "w": "1"},
        {"u": "r", "v": "v", "w": "2"},
        {"u": "r", "v": "z", "w": "3"},
        {"u": "u", "v": "v", "w": "3"},
        {"u": "v", "v": "z", "w": "5"},
    ],
}
FUZZ_MATRIX = {
    "vertices": ["o", "a", "b"],
    "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
}
# only these report a negative verdict; every other command exits 0 or 2
VERDICT_COMMANDS = {("check",), ("isomorphic",), ("fpc", "certify")}
NUMBERS = ["0", "1", "-1", "2", "3/2", "4", "12", "x", "nan", "inf", "1e-6"]
VERTICES = ["r", "u", "v", "z", "o", "a", "nope"]
# command -> (positional arguments, options); a positional is an input file
# kind or a list of values, an option is a flag or (flag, values)
FUZZ_COMMANDS = {
    ("check",): (["graph"], ["--json"]),
    ("spm",): (["graph"], ["--out"]),
    ("interval",): (["graph", VERTICES, VERTICES], ["--json"]),
    ("extend",): (["graph", VERTICES, VERTICES, NUMBERS], ["--out"]),
    ("complete",): (["graph"], ["--out"]),
    ("embed",): (["graph"], ["--json", "--out"]),
    ("cliques",): (["graph"], ["--json"]),
    ("isomorphic",): (
        ["graph", "graph"],
        ["--json", ("--weight-tol-rel", NUMBERS)],
    ),
    ("fpc", "certify"): (["graph"], ["--json"]),
    ("fpc", "synthesize"): (["graph"], ["--out"]),
    ("fpc", "from-metric"): (["matrix", VERTICES], ["--out"]),
    ("fpc", "bound"): (["graph"], ["--json"]),
    ("fpc", "f"): ([NUMBERS], ["--json"]),
    ("realize",): (["graph"], ["--out", "--no-exact", ("--depth", NUMBERS)]),
    ("single-point",): ([], ["--out", ("--depth", NUMBERS)]),
    ("recover",): (
        ["cloud"],
        ["--json", "--exact", "--out", "--diag-out", ("--window", NUMBERS),
         ("--tol-rel", NUMBERS), ("--tol-abs", NUMBERS)],
    ),
    ("subsample",): (
        ["cloud"],
        ["--out", "--alternate-periods", ("--indices", ["1,2", "2,1", "1,x", "3"]),
         ("--stride-offset", NUMBERS)],
    ),
    ("diag", "fn"): (
        ["cloud"], ["--json", ("--level", NUMBERS), ("--labels", ["u,v", "r,z", "u", "nope"])]
    ),
    ("diag", "psi"): (["cloud"], ["--json", ("--k", NUMBERS), ("--radii", ["1,2", "1,x", "0"])]),
    ("demo",): ([], ["--out"]),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([0, -1, 10**400, 1e300, "x", "0", "1/2", "sup", "r", "u",
                     "1e5000", "٣/٢", "1_000", "+1"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _mutate(draw, doc):
    """Replace or delete one node below the top of a JSON document, found by a
    random walk that stops at each level with probability 1/2, so fields near
    the top are hit about as often as single coordinates."""
    key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
    out = json.loads(json.dumps(doc))
    child = doc[key]
    if draw(st.integers(0, 5)) == 0:
        del out[key]
    elif isinstance(child, (dict, list)) and child and draw(st.booleans()):
        out[key] = _mutate(draw, child)
    else:
        out[key] = draw(JSON_VALUES)
    return out


def _raw_bytes(draw, doc) -> bytes:
    """File bytes that json.dumps never writes: a document cut short, a byte
    that is not UTF-8 put in, arrays or objects nested about as deep as the
    parser's limit or far beyond it, or an integer past the interpreter's
    digit limit."""
    text = json.dumps(doc).encode()
    at = draw(st.integers(0, len(text) - 1))
    kind = draw(st.sampled_from(["truncated", "not-utf8", "deep", "digits"]))
    if kind == "truncated":
        return text[:at]
    if kind == "not-utf8":
        return text[:at] + draw(st.sampled_from([b"\xff\xfe", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + text[at:]
    if kind == "deep":
        depth = draw(st.sampled_from([900, 1000, 5000, 200000]))
        opener, middle, closer = draw(st.sampled_from([(b"[", b"", b"]"), (b'{"a": ', b"0", b"}")]))
        return opener * depth + middle + closer * depth
    return text[:at] + b"9" * 5000 + text[at:]


def test_cli_fuzz_exit_codes(tmp_path, monkeypatch):
    """Random argv over every subcommand, with well-formed, mutated or
    arbitrary input files: main exits 0, 1 or 2 without an exception, and
    exits 1 only with a negative verdict."""
    g = WeightedRootedGraph.from_json_dict(FUZZ_GRAPH)
    documents = {
        "graph": FUZZ_GRAPH,
        "matrix": FUZZ_MATRIX,
        "cloud": json.loads(realize(g, depth=4).to_json()),
    }
    monkeypatch.chdir(tmp_path)  # demo writes to ./demo without --out

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def run(data):
        draw = data.draw
        command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
        positional, options = FUZZ_COMMANDS[command]
        argv = list(command)
        for i, kind in enumerate(positional):
            if isinstance(kind, list):
                argv.append(draw(st.sampled_from(kind)))
                continue
            doc = documents[kind]
            form = draw(st.sampled_from(["well-formed", "mutated", "mutated", "arbitrary", "raw"]))
            path = tmp_path / f"{kind}{i}.json"
            if form == "raw":
                path.write_bytes(_raw_bytes(draw, doc))
            else:
                if form == "mutated":
                    doc = _mutate(draw, doc)
                elif form == "arbitrary":
                    doc = draw(JSON_VALUES)
                path.write_text(json.dumps(doc), encoding="utf-8")
            argv.append(str(path))
        for option in draw(st.lists(st.sampled_from(options), max_size=3, unique_by=str)):
            if isinstance(option, tuple):
                argv += [option[0], draw(st.sampled_from(option[1]))]
            elif option in ("--out", "--diag-out"):
                argv += [option, str(tmp_path / ("demo" if command == ("demo",) else "out.json"))]
            else:
                argv.append(option)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert code != 1 or command in VERDICT_COMMANDS, argv

    run()


# ---------------------------------------------------------------------------
# main builds one parser tree per process and reuses it: it prints what a
# fresh tree prints, and a parse only reads the tree
# ---------------------------------------------------------------------------

COMMANDS = (
    "check", "spm", "interval", "extend", "complete", "embed", "cliques", "isomorphic",
    "fpc", "realize", "single-point", "recover", "subsample", "diag", "demo",
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["-h"], 0),
        ([], 2),
        (["nope"], 2),
        (["fpc"], 2),
        (["fpc", "--help"], 0),
        (["diag", "--help"], 0),
        (["recover"], 2),
        (["recovr", "x"], 2),
    ],
)
def test_help_and_usage_exit_codes(argv, code, capsys):
    assert main(argv) == code


def test_top_level_help_lists_every_command(capsys):
    main(["--help"])
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out
    for command in COMMANDS:
        assert f"\n    {command} " in out


def test_fpc_help_lists_its_sub_commands(capsys):
    main(["fpc", "--help"])
    out = capsys.readouterr().out
    assert "{certify,synthesize,from-metric,bound,f}" in out


def fresh_parser_output(argv) -> tuple:
    """What a freshly built parser prints and returns for argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [[c, "--help"] for c in COMMANDS]
    + [[c] for c in COMMANDS if c not in ("single-point", "demo")]
    + [["fpc", "f", "--help"], ["diag", "psi", "--help"], ["fpc", "nope"], ["diag", "fn", "c"]]
    + [["recover", "c.json", "--bogus"], ["fpc", "certify", "g.json", "--bogus"], ["spm", "g", "--json"]],
)
def test_one_command_parser_prints_what_the_full_parser_prints(argv, capsys):
    # main parses on its cached tree, which earlier calls have already used
    code, out, err = fresh_parser_output(argv)
    assert main(argv) == (code or 0)
    assert capsys.readouterr() == (out, err)


def test_main_builds_its_parser_tree_once_per_process(cert_graph, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser()
    one_tree, built[:] = len(built), []
    _parser.cache_clear()
    for argv in (["fpc", "certify", str(cert_graph)], ["nope"], ["recover"], ["--help"], ["fpc", "f", "5"]):
        main(argv)
    assert len(built) == one_tree
    assert _parser.cache_info().misses == 1


def test_threads_parsing_on_the_cached_tree_reproduce_the_serial_results():
    """Eight threads parse at once on main's tree, argument lists of every
    command mixed with usage errors and help, and get what one thread gets."""
    argvs = [
        ["check", "g.json", "--json"], ["spm", "g.json", "--out", "d.json"],
        ["extend", "g.json", "u", "v", "7/2"], ["embed", "g.json", "--mode", "line"],
        ["embed", "g.json", "--mode", "x"], ["isomorphic", "a.json", "b.json", "--weight-tol-rel", "0"],
        ["fpc", "certify", "g.json", "--json"], ["fpc", "f", "12"], ["fpc", "f", "x"], ["fpc", "nope"],
        ["realize", "g.json", "--depth", "8", "--no-exact", "--out", "c.json"],
        ["recover", "c.json", "--tol-rel", "1e-6", "--window", "4", "--exact"], ["recover", "c.json", "--bogus"],
        ["subsample", "c.json", "--indices", "1,2"], ["subsample", "c.json"],
        ["subsample", "c.json", "--stride-offset", "1", "--alternate-periods"],
        ["diag", "fn", "c.json", "--level", "3", "--labels", "u,v"], ["diag", "psi", "c.json"],
        ["single-point", "--depth", "5"], ["demo"], ["nope"], [], ["--help"], ["diag", "--help"],
    ]

    def parse(argv):
        try:
            return vars(_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        serial = list(map(parse, argvs))
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(parse, argvs * 40)) == serial * 40
    # parsed namespaces, and the exit codes of usage errors (2) and of help (0)
    assert {result for result in serial if isinstance(result, int)} == {0, 2}
    assert any(isinstance(result, dict) for result in serial)


def test_main_without_arguments_reads_sys_argv(cert_graph, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["metric-cluster", "fpc", "certify", str(cert_graph)])
    assert main() == 0
    assert capsys.readouterr().out.strip() == "certificate: pass"
    monkeypatch.setattr(sys, "argv", ["metric-cluster", "nope"])
    assert main() == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
