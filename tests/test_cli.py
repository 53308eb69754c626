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
from amalgam.cli import run


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


def test_byte_identical_output_for_same_argv(capsys):
    argv = ["decompose", "two-class", "--n", "2", "--m", "3", "--lambda", "2",
            "--mu", "1", "--seed", "4"]
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
    code, out = run_cli(capsys, "detach", str(inp), "--eta", str(eta), "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["graph"]["vertices"] == 4
    assert obj["phi"] == [0, 0, 0, 0]
    assert len(obj["coloring"]["colors"]) == 6
    # malformed eta file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["detach", str(inp), "--eta", str(bad)]) == 64


def test_detach_failure_names_its_location(tmp_path, capsys, monkeypatch):
    from amalgam.detachment import _SplitCounts

    def stuck(self, attempt, rng):
        self.stuck_color, self.nodes = 1, 7
        return None

    monkeypatch.setattr(_SplitCounts, "solve", stuck)
    payload = {
        "graph": graph_to_json(Multigraph(1, ((0, 0),) * 3)),
        "coloring": coloring_to_json(EdgeColoring(1, (1, 1, 1))),
    }
    inp = tmp_path / "h.json"
    inp.write_text(json.dumps(payload))
    eta = tmp_path / "eta.json"
    eta.write_text("[3]")
    assert run(["detach", str(inp), "--eta", str(eta)]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "construction at vertex 0, split delta=3, color 1, 7 search nodes" in err


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


@pytest.mark.slow
def test_wide_sweep_grid(tmp_path):
    # the wide two-class grid; about half a minute
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
