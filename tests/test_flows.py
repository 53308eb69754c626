import itertools
import random
from collections import deque

import pytest

from amalgam.flows import Dinic, feasible_circulation


def test_max_flow_simple_path():
    net = Dinic(3)
    net.add_arc(0, 1, 5)
    net.add_arc(1, 2, 3)
    assert net.max_flow(0, 2) == 3


def test_max_flow_classic_diamond():
    net = Dinic(4)
    net.add_arc(0, 1, 10)
    net.add_arc(0, 2, 10)
    net.add_arc(1, 3, 10)
    net.add_arc(2, 3, 10)
    net.add_arc(1, 2, 1)
    assert net.max_flow(0, 3) == 20


def test_circulation_respects_bounds():
    # cycle 0 -> 1 -> 2 -> 0 with a forced lower bound
    arcs = [(0, 1, 2, 5), (1, 2, 0, 5), (2, 0, 0, 5)]
    flow = feasible_circulation(3, arcs)
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
    assert feasible_circulation(2, [(0, 1, 1, 1)]) is None


def test_circulation_rejects_bad_bounds():
    with pytest.raises(ValueError):
        feasible_circulation(2, [(0, 1, 3, 2)])


def test_circulation_random_instances_conserve():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 6)
        arcs = []
        for _ in range(rng.randint(1, 12)):
            u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
            lo = rng.randint(0, 2)
            arcs.append((u, v, lo, lo + rng.randint(0, 3)))
        flow = feasible_circulation(n, arcs)
        if flow is None:
            continue
        net = [0] * n
        for f, (u, v, lo, hi) in zip(flow, arcs):
            assert lo <= f <= hi
            net[u] -= f
            net[v] += f
        assert all(x == 0 for x in net)


# ---------------------------------------------------------------------------
# Oracles: the recursive kernel that routed every arc, and brute force


class _RecursiveDinic:
    """Dinic with a recursive path search and every arc in the network."""

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_arc(self, u, v, cap):
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s, t):
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                total += pushed


def _recursive_circulation(num_nodes, arcs):
    excess = [0] * num_nodes
    for u, v, lo, hi in arcs:
        excess[v] += lo
        excess[u] -= lo
    s, t = num_nodes, num_nodes + 1
    net = _RecursiveDinic(num_nodes + 2)
    arc_ids = [net.add_arc(u, v, hi - lo) for u, v, lo, hi in arcs]
    need = 0
    for v in range(num_nodes):
        if excess[v] > 0:
            net.add_arc(s, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_arc(v, t, -excess[v])
    if net.max_flow(s, t) != need:
        return None
    return [lo + (hi - lo) - net.cap[a] for a, (_, _, lo, hi) in zip(arc_ids, arcs)]


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
        flow = feasible_circulation(n, arcs)
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
        net, oracle = Dinic(n), _RecursiveDinic(n)
        for u, v, cap in arcs:
            net.add_arc(u, v, cap)
            oracle.add_arc(u, v, cap)
        assert net.max_flow(0, n - 1) == oracle.max_flow(0, n - 1)
        assert net.cap == oracle.cap, arcs


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
        flow = feasible_circulation(n, arcs)
        assert (flow is not None) == exists, (n, arcs)
        if flow is not None:
            assert _is_circulation(n, arcs, flow), (n, arcs, flow)


def test_long_chain_needs_no_recursion():
    # a 3,000-node path: a recursive path search would nest 3,000 calls deep
    n = 3000
    net = Dinic(n)
    for v in range(n - 1):
        net.add_arc(v, v + 1, 2)
    assert net.max_flow(0, n - 1) == 2
    arcs = [(v, v + 1, 0, 1) for v in range(n - 1)] + [(n - 1, 0, 1, 1)]
    assert feasible_circulation(n, arcs) == [1] * n
