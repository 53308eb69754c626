"""Small integral max-flow kernel and feasible circulations with lower bounds.

Deliberately minimal. Its heaviest caller is ``detach``: every vertex
split solves one circulation of its quota windows. The laminar quota
selection and the Euler-orientation splitting of the coloring engines
use it too. Not a general flow library.

A circulation costs one pass over its arcs plus a max-flow over the arcs
with room: an arc with lo = hi only moves its lower bound into the node
excesses and never enters the flow network. The split windows are mostly
of width 0 or 1, so what is left is a unit-capacity network, where each
Dinic phase is linear in its arcs (Even & Tarjan, SIAM J. Comput. 4, 1975).
The augmenting-path search is iterative, so no depth of network reaches
Python's recursion limit.
"""

from __future__ import annotations


class Dinic:
    """Integral max-flow (Dinic). Deterministic for a fixed arc insertion order."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        """Returns the arc index; the reverse arc is index+1."""
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        """Blocking flows on BFS level graphs until t is unreachable.

        Each phase walks paths from s along the current arc of each node.
        An augmentation keeps the path up to its first saturated arc and
        walks on from there, and a dead end advances its parent's current
        arc; so every path is the one a recursive walk restarted at s
        would find, without its recursion depth.
        """
        head, to, cap = self.head, self.to, self.cap
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:  # the list grows while it is walked: a FIFO queue
                next_level = level[u] + 1
                for idx in head[u]:
                    v = to[idx]
                    if cap[idx] > 0 and level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
                if level[t] >= 0:
                    break  # nodes at t's level or beyond cannot reach t
            if level[t] < 0:
                return total
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(cap[idx] for idx in path)
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    total += pushed
                    k = next(i for i, idx in enumerate(path) if not cap[idx])
                    del path[k:]
                    u = to[path[-1]] if path else s
                    continue
                arcs, i, want = head[u], it[u], level[u] + 1
                while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == want):
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif path:  # dead end: retreat and advance the parent's current arc
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break


def feasible_circulation(
    num_nodes: int, arcs: list[tuple[int, int, int, int]]
) -> list[int] | None:
    """Integral circulation respecting per-arc bounds, or None if infeasible.

    ``arcs`` holds (u, v, lo, hi). Uses the standard excess transformation:
    send the mandatory lo units, then repair imbalances via a super
    source/sink max-flow; feasible iff all imbalance is absorbed. Only the
    arcs with hi > lo enter the max-flow network.
    """
    excess = [0] * num_nodes
    s, t = num_nodes, num_nodes + 1
    net = Dinic(num_nodes + 2)
    flow = []
    free = []  # (index in arcs, network arc, room) of each arc with hi > lo
    for i, (u, v, lo, hi) in enumerate(arcs):
        if lo > hi or lo < 0:
            raise ValueError(f"bad bounds [{lo},{hi}] on arc ({u},{v})")
        excess[v] += lo
        excess[u] -= lo
        flow.append(lo)
        if hi > lo:
            free.append((i, net.add_arc(u, v, hi - lo), hi - lo))
    need = 0
    for v in range(num_nodes):
        if excess[v] > 0:
            net.add_arc(s, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_arc(v, t, -excess[v])
    if net.max_flow(s, t) != need:
        return None
    for i, arc, room in free:
        flow[i] += room - net.cap[arc]
    return flow
