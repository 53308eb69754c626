import json

import pytest

from amalgam import (
    DecompositionRequest,
    EdgeColoring,
    Multigraph,
    check_feasibility,
    coloring_to_json,
    complete_graph,
    graph_to_json,
    verify_bee,
    verify_evenly_equitable,
)
from amalgam.cli import build_parser, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decompose_complete_k7(capsys):
    code, out = run_cli(capsys, "decompose", "complete", "--n", "7", "--lambda", "1")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["classes"]) == 3
    assert all(c["role"] == "hamiltonian" for c in obj["classes"])


def test_decompose_infeasible_exit_2(capsys):
    code, out = run_cli(
        capsys, "decompose", "two-class", "--n", "2", "--m", "3",
        "--lambda", "9", "--mu", "1",
    )
    assert code == 2
    obj = json.loads(out)
    assert obj["feasible"] is False
    assert any("(iii)" in v for v in obj["violations"])


def test_usage_error_exit_64(capsys):
    assert run(["decompose", "complete", "--n", "7"]) == 64
    assert run(["nonsense"]) == 64
    assert run(["decompose", "factorize", "--n", "4", "--lambda", "1", "--r", "x"]) == 64


@pytest.mark.parametrize("m", ["0", "-2"])
def test_factorize_with_fewer_than_one_part_is_infeasible(capsys, m):
    # every m other than 1 goes to the multipartite builder, which reports m < 1
    argv = ["decompose", "factorize", "--n", "4", "--lambda", "1", "--r", "1,2"]
    code, out = run_cli(capsys, *argv, "--m", m)
    assert code == 2
    assert json.loads(out) == {"feasible": False, "violations": ["n must be >= 1 and lambda >= 0"]}
    code, out = run_cli(capsys, *argv, "--m", "1")  # one part is the complete host K_4
    assert code == 0
    obj = json.loads(out)
    assert "parts" not in obj and len(obj["host"]["edges"]) == 6


def test_verify_round_trip(tmp_path, capsys):
    code, out = run_cli(capsys, "decompose", "complete", "--n", "6", "--lambda", "1")
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out = run_cli(capsys, "verify", str(cert_file))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_failing_certificate_exit_2(tmp_path, capsys):
    cert = {
        "host": {"kind": "complete", "n": 3, "lambda": 1},
        "classes": [{"role": "hamiltonian", "edges": [[0, 1], [1, 2]]}],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(cert))
    code, out = run_cli(capsys, "verify", str(f))
    assert code == 2
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("host", [[1, 2], [], "complete", 3, None])
def test_verify_host_that_is_not_an_object_is_usage_error(tmp_path, capsys, host):
    f = tmp_path / "host.json"
    f.write_text(json.dumps({"host": host, "classes": []}))
    assert run(["verify", str(f)]) == 64
    assert capsys.readouterr().err == (
        f"usage error: malformed certificate JSON: host must be a JSON object, got {host!r}\n"
    )


def test_byte_identical_output_for_same_argv(capsys):
    argv = ["decompose", "two-class", "--n", "2", "--m", "3", "--lambda", "2",
            "--mu", "1"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_dot_output(capsys):
    code, out = run_cli(
        capsys, "decompose", "multipartite", "--n", "2", "--m", "3",
        "--lambda", "1", "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph decomposition {")
    assert "cluster_2" in out  # parts drawn as clusters
    assert "--" in out


def test_dot_output_without_parts(capsys):
    code, out = run_cli(capsys, "decompose", "complete", "--n", "4", "--lambda", "1",
                        "--format", "dot")
    assert code == 0
    # one node line per host vertex, no clusters, then the edges class by class
    lines = out.splitlines()
    assert lines[:6] == ["graph decomposition {", "  node [shape=circle];",
                         "  v0;", "  v1;", "  v2;", "  v3;"]
    assert "cluster" not in out
    assert lines[6] == '  v1 -- v3 [color=red, tooltip="class 1"];'
    assert lines[-2:] == ['  v0 -- v3 [color=blue, tooltip="class 2"];', "}"]


def _embed(tmp_path, base, *argv):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    return run(["decompose", "embed", "--base", str(path), *argv])


def test_embed_base_without_a_coloring_is_a_usage_error(tmp_path, capsys):
    assert _embed(tmp_path, {"graph": graph_to_json(complete_graph(3, 1))}, "--n", "2") == 64
    assert capsys.readouterr().err == "usage error: malformed base file: 'coloring'\n"


_STAR_AND_TRIANGLE = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 2, (1, 3): 2, (2, 3): 2}
_TWO_PATHS = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 2, (0, 3): 2, (1, 3): 2}


@pytest.mark.parametrize("by_pair,k,argv,violations", [
    # K_4 + 1: class 1 is the star at 0 (degree 3 > 2), class 2 the triangle it leaves
    (_STAR_AND_TRIANGLE, 2, ["--n", "1"],
     ["class 1: a vertex exceeds degree 2",
      "class 2: contains a cycle, not a disjoint union of paths"]),
    # K_4 + 2: two Hamiltonian paths leave the matching class 3 empty
    (_TWO_PATHS, 3, ["--n", "2"], ["class 3: 4 untouched vertices exceed the 2 new ones"]),
    # K_4 + 1 into factors of degrees 2 and 4: their sum is not K_5's degree 4
    (_TWO_PATHS, 2, ["--n", "1", "--r", "2,4"], ["sum(r)=6 != degree 4"]),
])
def test_embedding_violations_exit_2(tmp_path, capsys, by_pair, k, argv, violations):
    g = complete_graph(4, 1)
    coloring = EdgeColoring(k, tuple(by_pair[e] for e in g.edges))
    base = {"graph": graph_to_json(g), "coloring": coloring_to_json(coloring)}
    assert _embed(tmp_path, base, *argv) == 2
    assert json.loads(capsys.readouterr().out) == {"feasible": False, "violations": violations}


def test_runtime_error_is_an_internal_error_exit_1(tmp_path, capsys, monkeypatch):
    import amalgam.coloring as coloring

    g = tmp_path / "g.json"
    g.write_text(json.dumps(graph_to_json(Multigraph(2, ((0, 1),) * 4))))
    monkeypatch.setattr(coloring, "feasible_circulation", lambda *args: None)
    assert run(["color", str(g), "--mode", "even", "-k", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "internal error: evenly-equitable class 2 of k=2 has no circulation (bug)\n"


def test_color_bee_and_even(tmp_path, capsys):
    g = Multigraph(6, tuple((a, 3 + b) for a in range(3) for b in range(3)))
    f = tmp_path / "g.json"
    f.write_text(json.dumps(graph_to_json(g)))
    code, out = run_cli(capsys, "color", str(f), "--mode", "bee", "-k", "3",
                        "--left", "0,1,2")
    assert code == 0
    coloring = EdgeColoring(3, tuple(json.loads(out)["colors"]))
    assert verify_bee(g, {0, 1, 2}, coloring)

    even = complete_graph(5)
    f2 = tmp_path / "e.json"
    f2.write_text(json.dumps(graph_to_json(even)))
    code, out = run_cli(capsys, "color", str(f2), "--mode", "even", "-k", "2")
    assert code == 0
    coloring = EdgeColoring(2, tuple(json.loads(out)["colors"]))
    assert verify_evenly_equitable(even, coloring)
    # bee without --left is a usage error
    assert run(["color", str(f), "--mode", "bee", "-k", "2"]) == 64


def test_color_bee_bad_left_is_usage_error(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(graph_to_json(complete_graph(3))))
    assert run(["color", str(f), "--mode", "bee", "-k", "2", "--left", "a"]) == 64
    assert capsys.readouterr().err == "usage error: bad vertex list 'a'\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_detach_command(tmp_path, capsys):
    h = Multigraph(1, ((0, 0),) * 6)
    payload = {
        "graph": graph_to_json(h),
        "coloring": coloring_to_json(EdgeColoring(2, (1, 1, 1, 2, 2, 2))),
    }
    inp = tmp_path / "h.json"
    inp.write_text(json.dumps(payload))
    eta = tmp_path / "eta.json"
    eta.write_text("[4]")
    code, out = run_cli(capsys, "detach", str(inp), "--eta", str(eta))
    assert code == 0
    obj = json.loads(out)
    assert obj["graph"]["vertices"] == 4
    assert obj["phi"] == [0, 0, 0, 0]
    assert len(obj["coloring"]["colors"]) == 6
    # malformed eta file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["detach", str(inp), "--eta", str(bad)]) == 64


def test_malformed_numbers_are_usage_errors(tmp_path, capsys):
    cert = {
        "host": {"kind": "complete", "n": 3, "lambda": 1},
        "classes": [{"role": "hamiltonian", "edges": [[0.9, 1], [1, 2], [0, "2"]]}],
    }
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(cert))
    assert run(["verify", str(f)]) == 64
    cert["classes"][0]["edges"] = [[0, 1], [1, 2], [0, 2]]
    cert["host"]["n"] = 3.6
    f.write_text(json.dumps(cert))
    assert run(["verify", str(f)]) == 64
    assert run(["decompose", "complete", "--n", "7", "--lambda", "1", "--out", str(f)]) == 0
    k7 = json.loads(f.read_text())
    for role in (None, 5):
        k7["classes"][0]["role"] = role
        f.write_text(json.dumps(k7))
        assert run(["verify", str(f)]) == 64, role

    payload = {
        "graph": graph_to_json(Multigraph(1, ((0, 0),) * 6)),
        "coloring": coloring_to_json(EdgeColoring(2, (1, 1, 1, 2, 2, 2))),
    }
    inp = tmp_path / "h.json"
    inp.write_text(json.dumps(payload))
    eta = tmp_path / "eta.json"
    for text in ('"32"', '{"0": 3}', "3.7", "true", "[3.0]", "[true]", '["3"]'):
        eta.write_text(text)
        assert run(["detach", str(inp), "--eta", str(eta)]) == 64, text
    eta.write_text("[3]")
    for graph, coloring in (
        ({"vertices": 1.9, "edges": [[0, 0]] * 6}, payload["coloring"]),
        ({"vertices": 1, "edges": [[0, True]] * 6}, payload["coloring"]),
        (payload["graph"], {"k": 2, "colors": [1, 1, 1, 2, 2, 1.9]}),
        (payload["graph"], {"k": True, "colors": [1] * 6}),
    ):
        inp.write_text(json.dumps({"graph": graph, "coloring": coloring}))
        assert run(["detach", str(inp), "--eta", str(eta)]) == 64
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2.0]]}))
    assert run(["color", str(g), "--mode", "even", "-k", "1"]) == 64
    assert "expected a JSON integer" in capsys.readouterr().err


def test_detach_failure_names_its_location(tmp_path, capsys, monkeypatch):
    import amalgam.detachment as detachment

    payload = {
        "graph": graph_to_json(Multigraph(1, ((0, 0),) * 3)),
        "coloring": coloring_to_json(EdgeColoring(1, (1, 1, 1))),
    }
    inp = tmp_path / "h.json"
    inp.write_text(json.dumps(payload))
    eta = tmp_path / "eta.json"
    eta.write_text("[3]")
    # the per-split guard rejects a row, then the windows admit no circulation
    monkeypatch.setattr(detachment, "keeps_components", lambda *args: False)
    assert run(["detach", str(inp), "--eta", str(eta)]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert err.endswith("construction at vertex 0, split delta=3, color 1\n")
    monkeypatch.setattr(detachment, "feasible_circulation", lambda *args: None)
    assert run(["detach", str(inp), "--eta", str(eta)]) == 1
    err = capsys.readouterr().err
    assert err.endswith("construction at vertex 0, split delta=3, no color\n")


def test_sweep_marks_infeasible_cells(capsys):
    code, out = run_cli(
        capsys, "sweep", "--n-max", "2", "--m-max", "2",
        "--lambda-max", "5", "--mu-max", "1",
    )
    assert code == 0
    cells = json.loads(out)["cells"]
    statuses = {(c["n"], c["m"], c["lambda"], c["mu"]): c["status"] for c in cells}
    assert statuses[(2, 2, 2, 1)] == "certified"
    assert statuses[(2, 2, 5, 1)] == "infeasible"
    for c in cells:
        if c["status"] == "infeasible":
            req = DecompositionRequest(
                "two-class", n=c["n"], m=c["m"], lam=c["lambda"], mu=c["mu"]
            )
            assert c["violations"] == check_feasibility(req).violations


@pytest.mark.slow
def test_wide_sweep_grid(tmp_path):
    # the wide two-class grid; about ten seconds
    target = tmp_path / "sweep.json"
    code = run(["sweep", "--n-max", "6", "--m-max", "5", "--lambda-max", "4",
                "--mu-max", "4", "--out", str(target)])
    assert code == 0
    cells = json.loads(target.read_text())["cells"]
    assert sum(c["status"] == "certified" for c in cells) == 382
    infeasible = [c for c in cells if c["status"] == "infeasible"]
    assert len(infeasible) == 2
    for c in infeasible:
        req = DecompositionRequest(
            "two-class", n=c["n"], m=c["m"], lam=c["lambda"], mu=c["mu"]
        )
        assert c["violations"] == check_feasibility(req).violations


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code = run(["decompose", "complete", "--n", "5", "--lambda", "1",
                "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["classes"]


def test_negative_sizes_are_usage_errors(tmp_path, capsys):
    f = tmp_path / "in.json"
    for host in (
        {"vertices": -2, "edges": []},
        {"kind": "complete", "n": 3, "lambda": -1},
        {"kind": "complete", "n": -3},
        {"kind": "two-class", "n": -1, "m": -2, "lambda": 1, "mu": 1},
        {"kind": "multipartite", "n": 2, "m": 2, "lambda": -1},
    ):
        f.write_text(json.dumps({"host": host, "classes": []}))
        assert run(["verify", str(f)]) == 64, host
        assert "is negative" in capsys.readouterr().err
    f.write_text(json.dumps({"vertices": -1, "edges": []}))
    assert run(["color", str(f), "--mode", "even", "-k", "1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "is negative" in captured.err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    # the certificate path and the infeasible-report path
    for argv in (
        ["decompose", "complete", "--n", "7", "--lambda", "1"],
        ["decompose", "two-class", "--n", "3", "--m", "2", "--lambda", "5", "--mu", "1"],
    ):
        assert run(argv + ["--out", str(target)]) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: cannot write {target}: ")
    assert not target.parent.exists()
