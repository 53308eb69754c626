"""The CLI's JSON writer, and every CLI route under a low recursion limit.

``_dump`` must write exactly ``json.dumps(obj, sort_keys=True, indent=2)``
plus a newline for every object, and no route may recurse with its input.
"""

import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam.cli as cli
from amalgam import (
    DecompositionRequest,
    EdgeColoring,
    Multigraph,
    certificate_to_json,
    check_feasibility,
    coloring_to_json,
    complete_graph,
    graph_to_json,
    walecki_direct,
)


def _write_inputs(tmp_path) -> dict:
    """Input files for the commands below; name -> path."""
    files = {
        "k3": {
            "graph": graph_to_json(complete_graph(3)),
            "coloring": coloring_to_json(EdgeColoring(2, (1, 2, 1))),
        },
        "k33": graph_to_json(Multigraph(6, tuple((a, 3 + b) for a in range(3) for b in range(3)))),
        # parallel edges, loops and an isolated vertex
        "even": graph_to_json(Multigraph(4, ((0, 1),) * 4 + ((0, 0),) * 3 + ((1, 2), (2, 1)))),
        "fused": {
            "graph": graph_to_json(Multigraph(2, ((0, 0),) * 4 + ((0, 1),) * 4)),
            "coloring": coloring_to_json(EdgeColoring(2, (1, 1, 2, 2, 1, 1, 2, 2))),
        },
        "eta": [4, 1],
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(obj, f)
    return paths


def _commands(paths, cert_path):
    """(argv, exit code): every decompose target, both color modes, detach, sweep."""
    return [
        (["decompose", "complete", "--n", "7", "--lambda", "1", "--out", cert_path], 0),
        (["decompose", "complete", "--n", "6", "--lambda", "1"], 0),
        (["decompose", "multipartite", "--n", "3", "--m", "3", "--lambda", "1"], 0),
        (["decompose", "multipartite", "--n", "2", "--m", "3", "--lambda", "1", "--fair"], 0),
        (["decompose", "two-class", "--n", "3", "--m", "3", "--lambda", "2", "--mu", "1"], 0),
        (["decompose", "two-class", "--n", "2", "--m", "3", "--lambda", "3", "--mu", "1"], 0),
        (["decompose", "two-class", "--n", "3", "--m", "2", "--lambda", "2", "--mu", "1"], 0),
        (["decompose", "two-class", "--n", "2", "--m", "3", "--lambda", "9", "--mu", "1"], 2),
        (["decompose", "factorize", "--n", "8", "--lambda", "1", "--r", "2,2,3"], 0),
        (["decompose", "factorize", "--n", "2", "--m", "3", "--lambda", "1", "--r", "2,2"], 0),
        (["decompose", "embed", "--base", paths["k3"], "--n", "2"], 0),
        (["decompose", "embed", "--base", paths["k3"], "--n", "2", "--r", "2,2"], 0),
        (["color", paths["k33"], "--mode", "bee", "-k", "3", "--left", "0,1,2"], 0),
        (["color", paths["even"], "--mode", "even", "-k", "3"], 0),
        (["detach", paths["fused"], "--eta", paths["eta"]], 0),
        (["sweep", "--n-max", "2", "--m-max", "2", "--lambda-max", "2", "--mu-max", "2"], 0),
    ]


def _run_all(tmp_path, capsys):
    """Run every command, then verify a good and a broken certificate; returns their outputs."""
    paths = _write_inputs(tmp_path)
    cert_path = str(tmp_path / "k7.json")
    outputs = []
    for argv, code in _commands(paths, cert_path):
        assert cli.run(argv) == code, argv
        outputs.append(capsys.readouterr().out)
    with open(cert_path) as f:
        broken = json.load(f)
    broken["classes"][1]["edges"].append(broken["classes"][0]["edges"].pop())
    broken_path = str(tmp_path / "broken.json")
    with open(broken_path, "w") as f:
        json.dump(broken, f)
    for path, code in ((cert_path, 0), (broken_path, 2)):
        assert cli.run(["verify", path]) == code
        outputs.append(capsys.readouterr().out)
    return outputs


def test_cli_writes_json_dumps_bytes(tmp_path, capsys, monkeypatch):
    written = []
    dump = cli._dump

    def recording_dump(obj, out):
        written.append((obj, out))
        dump(obj, out)

    monkeypatch.setattr(cli, "_dump", recording_dump)
    outputs = _run_all(tmp_path, capsys)
    assert len(written) == len(outputs) == 18  # one dump per command
    for (obj, out), text in zip(written, outputs):
        if out is not None:
            with open(out) as f:
                text = f.read()
        assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # certificates with and without parts, reports, colorings, detachments, sweep rows
    kinds = {tuple(sorted(obj)) for obj, _ in written}
    assert {("cells",), ("feasible", "violations"), ("colors", "k")} <= kinds
    assert ("classes", "partition_ok", "passed", "structural_errors") in kinds
    assert ("coloring", "graph", "labels", "phi") in kinds
    rows = next(obj["cells"] for obj, _ in written if "cells" in obj)
    assert any(type(row.get("seconds")) is float for row in rows)


def test_every_route_runs_under_recursion_limit_200(tmp_path, capsys):
    # a recursion that grows with the input fails here at toy sizes
    k999 = DecompositionRequest(
        "embed-factorization",
        base_graph=complete_graph(2, 1),
        base_coloring=EdgeColoring(999, (1,)),
        extra=998,
        r=(1,) * 999,
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        outputs = _run_all(tmp_path, capsys)
        verdict = check_feasibility(k999)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.feasible
    assert all(out.endswith("\n") for out in outputs[1:])  # the first went to --out


def _objects():
    return [
        certificate_to_json(walecki_direct(9, 2)),
        certificate_to_json(walecki_direct(10, 3)),
        [[0, 1], [-2, 3]],
        [(0, 1), (2, 3)],
        [[0, 1], [2, 3, 4]],
        [[0, 1], [True, 3]],
        [[0, 1], [2, 3.0]],
        [[0, 1], 2],
        [[0, 1], []],
        [[[0, 1]]],
        [1, True],
        [True, 1],
        [1, 2.5, -3],
        [10**30, -(10**30)],
        {"k": 3, "colors": [1, 2, 3]},
        {"é": ["ü", None, False, math.inf, -0.0]},
        {1: [[0, 1]], 2: {}},
        {"outer": {3: 4, 1: [2]}},
        [],
        {},
        [[]],
        [{}],
        "ascii and ☃",
        None,
        1.5,
    ]


@pytest.mark.parametrize("obj", _objects())
def test_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_writer_raises_as_json_dumps_does():
    for bad in ({"a": 1, 2: 3}, [[0, 1], {1, 2}], {"x": object()}, [1, [2, 3.0, {4}]]):
        with pytest.raises(TypeError) as theirs:
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as ours:
            cli._json_text(bad)
        assert str(ours.value) == str(theirs.value)


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.text(max_size=6)
)
_int_lists = st.lists(st.integers(-9, 10**6), max_size=6)
_pair_lists = st.lists(st.lists(st.integers(-9, 99), min_size=2, max_size=2), max_size=6)
_json_trees = st.recursive(
    _scalars | _int_lists | _pair_lists,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=4), children, max_size=5)
    | st.dictionaries(st.integers(-5, 5), children, max_size=3),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_json_trees)
def test_writer_matches_json_dumps_on_random_trees(obj):
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
