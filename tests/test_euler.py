import random

import pytest

from tests.oracles import euler_circuits


def _check_circuits(vertex_count, edges, circuits):
    covered = []
    for trail in circuits:
        assert trail
        for step, (eid, u, v) in enumerate(trail):
            a, b = edges[eid]
            assert {u, v} == {a, b} or (a == b and u == v == a)
            covered.append(eid)
            if step:
                assert trail[step - 1][2] == u  # consecutive steps share a vertex
        assert trail[0][1] == trail[-1][2]  # closed
    assert sorted(covered) == sorted(edges)


def test_single_cycle():
    edges = {0: (0, 1), 1: (1, 2), 2: (0, 2)}
    circuits = euler_circuits(3, edges)
    assert len(circuits) == 1
    _check_circuits(3, edges, circuits)


def test_loops_are_single_steps():
    edges = {0: (0, 0), 1: (0, 1), 2: (0, 1)}
    circuits = euler_circuits(2, edges)
    _check_circuits(2, edges, circuits)
    loop_steps = [s for t in circuits for s in t if s[0] == 0]
    assert loop_steps == [(0, 0, 0)]


def test_multiple_components():
    edges = {0: (0, 1), 1: (0, 1), 2: (2, 3), 3: (2, 3)}
    circuits = euler_circuits(4, edges)
    assert len(circuits) == 2
    _check_circuits(4, edges, circuits)


def test_odd_degree_rejected():
    with pytest.raises(ValueError):
        euler_circuits(2, {0: (0, 1)})


def test_random_even_graphs():
    rng = random.Random(3)
    for _ in range(60):
        nv = rng.randint(1, 7)
        edges = {}
        for _ in range(rng.randint(1, 4)):  # unions of closed walks stay even
            v = start = rng.randint(0, nv - 1)
            for _ in range(rng.randint(0, 6)):
                w = rng.randint(0, nv - 1)
                edges[len(edges)] = (v, w)
                v = w
            edges[len(edges)] = (v, start)
        _check_circuits(nv, edges, euler_circuits(nv, edges))
