"""Small integral max-flow kernel and feasible circulations with lower bounds.

Deliberately minimal. Its heaviest caller is ``detach``: every vertex
split solves one circulation of its quota windows. The laminar quota
selection and the Euler-orientation splitting of the coloring engines
use it too. Not a general flow library.
"""

from __future__ import annotations

from collections import deque


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

    def flow_on(self, arc: int, original_cap: int) -> int:
        return original_cap - self.cap[arc]

    def max_flow(self, s: int, t: int) -> int:
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

            def dfs(u: int, pushed: int) -> int:
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


def feasible_circulation(
    num_nodes: int, arcs: list[tuple[int, int, int, int]]
) -> list[int] | None:
    """Integral circulation respecting per-arc bounds, or None if infeasible.

    ``arcs`` holds (u, v, lo, hi). Uses the standard excess transformation:
    send the mandatory lo units, then repair imbalances via a super
    source/sink max-flow; feasible iff all imbalance is absorbed.
    """
    excess = [0] * num_nodes
    for u, v, lo, hi in arcs:
        if lo > hi or lo < 0:
            raise ValueError(f"bad bounds [{lo},{hi}] on arc ({u},{v})")
        excess[v] += lo
        excess[u] -= lo
    s, t = num_nodes, num_nodes + 1
    net = Dinic(num_nodes + 2)
    arc_ids = []
    for u, v, lo, hi in arcs:
        arc_ids.append(net.add_arc(u, v, hi - lo))
    need = 0
    for v in range(num_nodes):
        if excess[v] > 0:
            net.add_arc(s, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_arc(v, t, -excess[v])
    if net.max_flow(s, t) != need:
        return None
    return [
        arcs[i][2] + net.flow_on(arc_ids[i], arcs[i][3] - arcs[i][2])
        for i in range(len(arcs))
    ]
