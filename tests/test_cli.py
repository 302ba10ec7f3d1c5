import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metric_cluster.cli import main
from metric_cluster.graph_core import WeightedRootedGraph
from metric_cluster.realization import realize, single_point_space


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


def test_embed_auto_picks_line_for_tight(tmp_path, capsys):
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


def test_embed_circle(quad, capsys):
    assert main(["embed", str(quad), "--mode", "circle", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["circumference"] == "10"
    assert payload["positions"]["nu3"] == "3"


def test_cliques_json(cert_graph, capsys):
    assert main(["cliques", str(cert_graph), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert ["r", "u", "v"] in payload["maximal_cliques"]


def test_isomorphic_exit_codes(tmp_path, capsys, monkeypatch):
    g1 = write_graph(tmp_path / "g1.json", ["a", "b"], {("a", "b"): 1}, "a")
    g2 = write_graph(tmp_path / "g2.json", ["x", "y"], {("x", "y"): 1}, "y")
    g3 = write_graph(tmp_path / "g3.json", ["x", "y"], {("x", "y"): 2}, "y")
    assert main(["isomorphic", str(g1), str(g2)]) == 0
    assert main(["isomorphic", str(g1), str(g3)]) == 1
    assert main(["isomorphic", str(g1), str(g3), "--unweighted"]) == 0
    capsys.readouterr()
    for tol in ("-1", "-1/1000000000", "nan", "inf"):
        assert main(["isomorphic", str(g1), str(g2), f"--weight-tol-rel={tol}"]) == 2
        err = capsys.readouterr().err
        assert "weight tolerance must be finite and non-negative" in err or "not a rational literal" in err
    monkeypatch.setenv("METRIC_CLUSTER_MAX_VERTICES", "abc")
    assert main(["isomorphic", str(g1), str(g3), "--unweighted"]) == 2
    assert "METRIC_CLUSTER_MAX_VERTICES='abc' is not an integer" in capsys.readouterr().err


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


def test_fpc_bound_and_f(cert_graph, capsys):
    assert main(["fpc", "f", "6"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["fpc", "bound", str(cert_graph), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] and payload["maximal_cliques_without_root"] == 2
    assert main(["fpc", "f", "1"]) == 2


def test_fpc_f_beyond_digit_limit_exit_2(capsys):
    # f(30000) = 3**10000 has 4772 digits, above the default limit of 4300
    assert main(["fpc", "f", "30000"]) == 2
    assert "too many digits" in capsys.readouterr().err


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


def test_power_square_base_below_two_exit_2(cert_graph, capsys):
    assert main(["realize", str(cert_graph), "--rule", "power_square", "--base", "1"]) == 2
    assert "base must be an integer >= 2" in capsys.readouterr().err


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


def test_subsample_stride(cert_graph, tmp_path, capsys):
    cloud = tmp_path / "cloud.json"
    sub = tmp_path / "sub.json"
    main(["realize", str(cert_graph), "--depth", "12", "--out", str(cloud)])
    assert main(["subsample", str(cloud), "--stride-offset", "0", "--out", str(sub)]) == 0
    payload = json.loads(sub.read_text())
    assert [lvl["n"] for lvl in payload["levels"]] == [1, 3, 5, 7, 9, 11]
    capsys.readouterr()
    assert main(["subsample", str(cloud), "--indices", "1,x", "--out", str(sub)]) == 2
    assert "--indices takes comma-separated numbers" in capsys.readouterr().err


def test_period_less_subsample_of_a_shallow_cloud_recovers(tmp_path, capsys):
    # a complete triangle has period 1; --alternate-periods keeps levels 1, 3, 5
    # of the depth-6 cloud and drops the period
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
    assert payload["period"] is None and [lvl["n"] for lvl in payload["levels"]] == [1, 3, 5]
    assert main(["recover", str(sub), "--out", str(out)]) == 0
    assert main(["isomorphic", str(k3), str(out)]) == 0
    assert main(["recover", str(sub), "--exact", "--out", str(out)]) == 0
    assert WeightedRootedGraph.from_json(out.read_text()) == WeightedRootedGraph.from_json(
        k3.read_text()
    )
    # one level without a period still cannot decide a non-edge
    one = tmp_path / "one.json"
    assert main(["subsample", str(cloud), "--indices", "6", "--out", str(one)]) == 0
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
    assert payload["value"] == pytest.approx(5 / 8)
    assert main(["diag", "psi", str(cloud), "--k", "2.0", "--json"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert len(table) == 8
    assert table[-1]["value"] == pytest.approx(5 / 2, rel=1e-9)
    assert main(["diag", "psi", str(cloud), "--radii", "1,x"]) == 2
    assert "--radii takes comma-separated numbers" in capsys.readouterr().err
    for args in (["--k", "nan"], ["--k", "inf"], ["--radii", "nan,inf", "--json"], ["--radii", "1,inf"]):
        assert main(["diag", "psi", str(cloud), *args]) == 2
        assert "must be finite" in capsys.readouterr().err


def test_demo_corpus_self_consistent(tmp_path, capsys):
    out_dir = tmp_path / "fixtures"
    assert main(["demo", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    expected = json.loads((out_dir / "cycle4_1234.expected.json").read_text())
    assert expected["intervals"]["nu2|nu4"] == ["3", "5"]
    assert expected["intervals"]["nu1|nu3"] == ["1", "3"]
    assert main(["check", str(out_dir / "cycle4_1234.json")]) == 0
    assert main(["fpc", "certify", str(out_dir / "cert_triangle.json")]) == 0
    capsys.readouterr()
    # every cloud file comes from the cloud's own writer
    assert (out_dir / "single_point.json").read_text() == single_point_space(12).to_json() + "\n"
    assert main(["recover", str(out_dir / "single_point.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["vertices"] == ["p"]
    tight_expected = json.loads((out_dir / "tight4.expected.json").read_text())
    assert tight_expected["line_embedding"] == {"v1": "0", "v2": "1", "v3": "2", "v4": "3"}


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


def realized_cloud(cert_graph, tmp_path) -> dict:
    cloud = tmp_path / "cloud.json"
    assert main(["realize", str(cert_graph), "--depth", "12", "--out", str(cloud)]) == 0
    return json.loads(cloud.read_text(encoding="utf-8"))


def test_short_coordinates_exit_2(cert_graph, tmp_path, capsys):
    data = realized_cloud(cert_graph, tmp_path)
    for key in ("coords", "exact"):
        cut = json.loads(json.dumps(data))
        for level in cut["levels"]:
            for point in level["points"]:
                point[key] = point[key][:2]
        short = tmp_path / f"short_{key}.json"
        short.write_text(json.dumps(cut), encoding="utf-8")
        assert main(["recover", str(short), "--exact"]) == 2
        assert "does not have 4 coordinates" in capsys.readouterr().err


def test_cloud_level_missing_field_exit_2(cert_graph, tmp_path, capsys):
    data = realized_cloud(cert_graph, tmp_path)
    for drop in ("points", "n"):
        broken = json.loads(json.dumps(data))
        del broken["levels"][3][drop]
        path = tmp_path / f"no_{drop}.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert main(["recover", str(path)]) == 2
        assert drop in capsys.readouterr().err
    broken = json.loads(json.dumps(data))
    del broken["levels"][3]["points"][1]["coords"]
    path = tmp_path / "no_coords.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    assert main(["recover", str(path)]) == 2
    assert "coords" in capsys.readouterr().err


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
    for tol in ("nan", "inf", "-1"):
        assert main(["recover", str(cloud), "--exact", "--tol-rel", tol]) == 2
        assert "tolerances must be finite and non-negative" in capsys.readouterr().err
    # an exponent literal would build a power of ten beyond what str() prints
    # so would the places of a decimal without one
    for value in ("1e10000000", "1e5000", "0." + "1" * 4300):
        graph = {"vertices": ["a", "b"], "root": "a", "edges": [{"u": "a", "v": "b", "w": value}]}
        path = tmp_path / "exponent_weight.json"
        path.write_text(json.dumps(graph))
        for command in ("check", "spm"):
            assert main([command, str(path)]) == 2
            assert "needs more than 4300 digits" in capsys.readouterr().err
        data = json.loads(cloud.read_text(encoding="utf-8"))
        data["levels"][3]["points"][1]["exact"][0] = value
        path = tmp_path / "exponent_exact.json"
        path.write_text(json.dumps(data))
        for args in (["subsample", str(path), "--indices", "1,2", "--out", str(tmp_path / "s.json")],
                     ["recover", str(path)], ["recover", str(path), "--exact"]):
            assert main(args) == 2
            assert "needs more than 4300 digits" in capsys.readouterr().err


def _set_coordinate(value):
    def edit(data):
        data["levels"][3]["points"][1]["coords"][0] = value
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_coordinate("x"), "non-numeric coordinate"),
        (_set_coordinate(float("nan")), "NaN or infinite coordinate"),
        (_set_coordinate(float("inf")), "NaN or infinite coordinate"),
        (_set_level("r", "0"), "finite and positive"),
        (_set_level("r", "-24"), "finite and positive"),
        (_set_level("r", "inf"), "finite and positive"),
        (_set_level("r_exact", "0"), "r_exact = 0"),
        (_set_level("r_exact", "-24"), "r_exact = -24"),
        (_set_coordinate(10**400), "coordinate beyond binary64"),
        (_set_level("r", 10**400), "scale r that is not a binary64 number"),
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
        (_set_at(["levels", 3, "points", 1, "coords"], "1234"), "not a JSON list"),
        (_set_at(["levels", 3, "points", 1, "exact"], "1234"), "not a JSON list"),
    ],
    ids=[
        "coordinate-non-numeric",
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


def test_tiny_scale_exit_2(cert_graph, tmp_path, capsys):
    # finite and positive, so the loader accepts it, but every normalized
    # distance of the level overflows binary64
    data = realized_cloud(cert_graph, tmp_path)
    data["levels"][-1]["r"] = "5e-324"
    path = tmp_path / "tiny_scale.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["recover", str(path)]) == 2
    assert "not finite" in capsys.readouterr().err
    # exact recovery measures against r_exact, which is intact
    out = tmp_path / "h.json"
    assert main(["recover", str(path), "--exact", "--out", str(out)]) == 0
    assert WeightedRootedGraph.from_json(out.read_text()) == WeightedRootedGraph.from_json(
        cert_graph.read_text()
    )


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
VERDICT_COMMANDS = {("check",), ("isomorphic",), ("fpc", "certify"), ("fpc", "bound")}
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
    ("embed",): (["graph"], ["--json", "--out", ("--mode", ["auto", "circle", "line"])]),
    ("cliques",): (["graph"], ["--json"]),
    ("isomorphic",): (
        ["graph", "graph"],
        ["--json", "--unweighted", "--exact-weights", ("--weight-tol-rel", NUMBERS)],
    ),
    ("fpc", "certify"): (["graph"], ["--json"]),
    ("fpc", "synthesize"): (["graph"], ["--out"]),
    ("fpc", "from-metric"): (["matrix", VERTICES], ["--out"]),
    ("fpc", "bound"): (["graph"], ["--json"]),
    ("fpc", "f"): ([NUMBERS], ["--json"]),
    ("realize",): (
        ["graph"],
        ["--out", "--no-exact", ("--depth", NUMBERS),
         ("--rule", ["factorial", "power_square", "x"]), ("--base", NUMBERS)],
    ),
    ("single-point",): ([], ["--out", ("--depth", NUMBERS), ("--base", NUMBERS)]),
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
    | st.sampled_from([0, -1, 10**400, 1e300, "x", "0", "1/2", "sup", "r", "u"]),
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
