import itertools
import random

import pytest

from amalgam.flows import _max_flow, feasible_circulation, quota_network
from tests.oracles import _RecursiveDinic, _recursive_circulation


def _circulation(num_nodes, arcs):
    """``feasible_circulation`` on (u, v, lo, hi) tuples, unzipped into its parallel lists."""
    tails, heads, lo, hi = (list(column) for column in zip(*arcs)) if arcs else ([], [], [], [])
    return feasible_circulation(num_nodes, tails, heads, lo, hi)


def _network(n, arcs):
    """``_max_flow``'s arrays, filled arc by arc from (u, v, cap) triples."""
    head, to, cap = [[] for _ in range(n)], [], []
    for u, v, c in arcs:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
    return head, to, cap


UNBOUNDED = 1 << 60  # a need no network here meets: run until t is cut off


def test_max_flow_simple_path():
    assert _max_flow(*_network(3, [(0, 1, 5), (1, 2, 3)]), 0, 2, UNBOUNDED) == 3


def test_max_flow_classic_diamond():
    arcs = [(0, 1, 10), (0, 2, 10), (1, 3, 10), (2, 3, 10), (1, 2, 1)]
    assert _max_flow(*_network(4, arcs), 0, 3, UNBOUNDED) == 20


def test_max_flow_stops_once_need_is_routed():
    # the first phase routes 0-1-3; the longer path 0-2-4-3 needs a second phase
    arcs = [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 4, 1), (4, 3, 1)]
    assert _max_flow(*_network(5, arcs), 0, 3, UNBOUNDED) == 2
    head, to, cap = _network(5, arcs)
    assert _max_flow(head, to, cap, 0, 3, 1) == 1
    assert cap[::2] == [0, 0, 1, 1, 1]
    assert _max_flow(head, to, cap, 0, 3, 0) == 0
    assert cap[::2] == [0, 0, 1, 1, 1]


def test_circulation_respects_bounds():
    # cycle 0 -> 1 -> 2 -> 0 with a forced lower bound
    arcs = [(0, 1, 2, 5), (1, 2, 0, 5), (2, 0, 0, 5)]
    flow = _circulation(3, arcs)
    assert flow is not None
    for f, (u, v, lo, hi) in zip(flow, arcs):
        assert lo <= f <= hi
    # conservation
    net = [0, 0, 0]
    for f, (u, v, _, _) in zip(flow, arcs):
        net[u] -= f
        net[v] += f
    assert net == [0, 0, 0]


def test_circulation_infeasible():
    # lower bound on a dead-end arc can never circulate back
    assert _circulation(2, [(0, 1, 1, 1)]) is None


def test_circulation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        _circulation(2, [(0, 1, 3, 2)])


def test_circulation_of_no_arcs_is_empty():
    assert feasible_circulation(3, [], [], [], []) == []


@pytest.mark.parametrize("lo,hi", [(-1, 2), (3, 2)])
def test_circulation_rejects_bounds_outside_zero_to_hi(lo, hi):
    # the second arc's bounds are bad, and the error names that arc
    with pytest.raises(ValueError, match=rf"bad bounds \[{lo},{hi}\] on arc \(1,0\)"):
        feasible_circulation(2, [0, 1], [1, 0], [0, lo], [1, hi])


def test_circulation_rejects_lists_of_unequal_length():
    with pytest.raises(ValueError):
        feasible_circulation(2, [0, 1], [1, 0], [0], [1, 1])


def test_circulation_random_instances_conserve():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 12)):
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            lo = rng.randint(0, 2)
            arcs.append((u, v, lo, lo + rng.randint(0, 3)))
        flow = _circulation(n, arcs)
        if flow is None:
            continue
        net = [0] * n
        for f, (u, v, lo, hi) in zip(flow, arcs):
            assert lo <= f <= hi
            net[u] -= f
            net[v] += f
        assert all(x == 0 for x in net)


# ---------------------------------------------------------------------------
# Oracles: the recursive kernel (tests/oracles.py) and brute force


def _is_circulation(num_nodes, arcs, flow):
    net = [0] * num_nodes
    for f, (u, v, lo, hi) in zip(flow, arcs):
        if not lo <= f <= hi:
            return False
        net[u] -= f
        net[v] += f
    return len(flow) == len(arcs) and not any(net)


def _random_network(rng, widths, planted):
    """Up to 12 nodes and 30 arcs with windows of the given widths.

    A planted network holds a circulation made of random cycles, each arc's
    window around its flow, so it is feasible; otherwise windows are drawn
    freely and most networks are infeasible.
    """
    n = rng.randint(2, 12)
    arcs = []
    if not planted:
        for _ in range(rng.randint(1, 30)):
            lo = rng.randint(0, 3)
            arcs.append((rng.randrange(n), rng.randrange(n), lo, lo + rng.choice(widths)))
        return n, arcs
    size = rng.randint(1, 30)
    while len(arcs) < size:
        cycle = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
        units = rng.randint(0, 3)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            width = rng.choice(widths)
            lo = max(0, units - rng.randint(0, width))
            arcs.append((u, v, lo, lo + width))
    rng.shuffle(arcs)
    return n, arcs


def test_circulation_matches_recursive_oracle():
    # fixed (width 0), unit (width 1) and wide windows; the flows must be
    # the oracle's element for element, not just both feasible
    rng = random.Random(1975)
    feasible = 0
    for i in range(6000):
        widths = ((0, 1), (0, 0, 1), (0, 1, 2, 5), (1,))[i % 4]
        n, arcs = _random_network(rng, widths, planted=i % 3 != 0)
        flow = _circulation(n, arcs)
        assert flow == _recursive_circulation(n, arcs), (n, arcs)
        if flow is not None:
            assert _is_circulation(n, arcs, flow)
            feasible += 1
    assert 3000 < feasible < 5500, feasible


def test_max_flow_matches_recursive_oracle():
    rng = random.Random(1970)
    for _ in range(1000):
        n = rng.randint(2, 10)
        arcs = [
            (rng.randint(0, n - 1), rng.randint(0, n - 1), rng.choice((0, 1, 1, 2, 7)))
            for _ in range(rng.randint(1, 25))
        ]
        head, to, cap = _network(n, arcs)
        oracle = _RecursiveDinic(n)
        for u, v, c in arcs:
            oracle.add_arc(u, v, c)
        value = oracle.max_flow(0, n - 1)
        assert _max_flow(head, to, cap, 0, n - 1, UNBOUNDED) == value
        assert cap == oracle.cap, arcs
        # asked for exactly the max-flow value, it stops with the same residual arrays
        head, to, cap = _network(n, arcs)
        assert _max_flow(head, to, cap, 0, n - 1, value) == value
        assert cap == oracle.cap, arcs


def test_circulation_matches_brute_force():
    # <= 5 nodes, bounds <= 2: try every integral assignment
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randint(1, 5)
        arcs = []
        for _ in range(rng.randint(1, 6)):
            lo = rng.randint(0, 2)
            arcs.append((rng.randint(0, n - 1), rng.randint(0, n - 1), lo, rng.randint(lo, 2)))
        exists = any(
            _is_circulation(n, arcs, list(values))
            for values in itertools.product(*(range(lo, hi + 1) for _, _, lo, hi in arcs))
        )
        flow = _circulation(n, arcs)
        assert (flow is not None) == exists, (n, arcs)
        if flow is not None:
            assert _is_circulation(n, arcs, flow), (n, arcs, flow)


def test_long_chain_needs_no_recursion():
    # a 3,000-node path: a recursive path search would nest 3,000 calls deep
    n = 3000
    network = _network(n, [(v, v + 1, 2) for v in range(n - 1)])
    assert _max_flow(*network, 0, n - 1, UNBOUNDED) == 2
    arcs = [(v, v + 1, 0, 1) for v in range(n - 1)] + [(n - 1, 0, 1, 1)]
    assert _circulation(n, arcs) == [1] * n


def test_quota_network_layout_by_hand():
    # rows 1 and 2 share column 6; cells 1 and 2 of row 1 form a group; halves
    cells = [(1, 5), (1, 6), (1, 7), (2, 6)]
    num_nodes, tails, heads, lo, hi, first = quota_network(cells, [2, 3, 1, 4], [[1, 2]], 2)
    # nodes: source 0, sink 1, rows 1 -> 2 and 2 -> 3, columns 5 -> 4, 6 -> 5, 7 -> 6, group 7
    assert num_nodes == 8
    assert first == 3
    assert list(zip(tails, heads, lo, hi)) == [
        (0, 2, 3, 3), (0, 3, 2, 2),  # rows: 6 and 4 units
        (2, 7, 2, 2),  # the group: 3 + 1 units
        (2, 4, 1, 1), (7, 5, 1, 2), (7, 6, 0, 1), (3, 5, 2, 2),  # cells, from group or row
        (4, 1, 1, 1), (5, 1, 3, 4), (6, 1, 0, 1),  # columns: 2, 7 and 1 units
        (1, 0, 5, 5),  # the total: 10 units
    ]
    flow = feasible_circulation(num_nodes, tails, heads, lo, hi)
    assert flow is not None
    assert all(a <= f <= b for f, a, b in zip(flow, lo, hi))
