"""Feasible integral circulations with lower bounds, on a private max-flow.

Deliberately minimal. Its heaviest caller is ``detach``: every vertex
split solves one circulation of its quota windows. Each class of both
coloring engines and each ``select_subset`` call solve one too. Not a
general flow library. A split and a bee class solve ``quota_network``.

The arcs come as four parallel lists, and one pass over them folds each
lower bound into the node excesses and writes each arc with room straight
into the residual arrays: an arc with lo = hi never enters the flow
network. The split windows are mostly of width 0 or 1, so what is left is
a unit-capacity network, where each Dinic phase is linear in its arcs
(Even & Tarjan, SIAM J. Comput. 4, 1975). The augmenting-path search is
iterative, so no depth of network reaches Python's recursion limit.
"""

from __future__ import annotations


def quota_network(cells, sizes: list[int], groups: list[list[int]], divisor: int):
    """The windows [floor(x/divisor), ceil(x/divisor)] of cells over rows and columns.

    Cell i = (row, column) holds ``sizes[i]`` units, and the cells come
    sorted. A group lists two or more cells of one row, each cell in at
    most one group. Each cell, group, row and column, and the total, gets
    the window of its x units. Nodes: source 0, sink 1, the rows, the
    columns, then the groups. Arcs: rows, groups, cells (from their group,
    else their row), columns, total. Returns ``feasible_circulation``'s
    arguments and the index of the first cell arc.
    """
    rows: dict = {}  # row -> units
    cols: dict = {}
    cell_tails = []  # each cell's row node, or its group's node below
    for (r, z), size in zip(cells, sizes):
        rows[r] = rows.get(r, 0) + size
        cols[z] = cols.get(z, 0) + size
        cell_tails.append(1 + len(rows))  # the sorted cells come row by row
    col_node = {z: n for n, z in enumerate(sorted(cols), 2 + len(rows))}
    node = 2 + len(rows) + len(cols)
    # arc i's window shares out sums[i] units
    sums = list(rows.values())
    tails = [0] * len(rows)
    heads = list(range(2, 2 + len(rows)))
    for group in groups:
        sums.append(sum([sizes[i] for i in group]))
        tails.append(cell_tails[group[0]])
        heads.append(node)
        for i in group:
            cell_tails[i] = node
        node += 1
    first = len(sums)
    sums += sizes + [cols[z] for z in col_node] + [sum(sizes)]
    tails += cell_tails + [*col_node.values(), 1]
    heads += [col_node[z] for _, z in cells] + [1] * len(cols) + [0]
    lo = [x // divisor for x in sums]
    hi = [-(-x // divisor) for x in sums]
    return node, tails, heads, lo, hi, first


def feasible_circulation(
    num_nodes: int, tails: list[int], heads: list[int], lo: list[int], hi: list[int]
) -> list[int] | None:
    """Integral circulation respecting per-arc bounds, or None if infeasible.

    Arc i runs from ``tails[i]`` to ``heads[i]`` and carries ``lo[i]`` to
    ``hi[i]`` units. Uses the standard excess transformation: send the
    mandatory lo units, then repair imbalances via a super source/sink
    max-flow; feasible iff all imbalance is absorbed. The arcs with
    hi > lo enter the network in list order, and the super arcs after
    them in node order; each free arc's flow is hi minus the capacity its
    network arc has left.
    """
    excess = [0] * num_nodes
    s, t = num_nodes, num_nodes + 1
    # residual network: arc 2k and its reverse 2k + 1, listed at both ends
    head: list[list[int]] = [[] for _ in range(num_nodes + 2)]
    to, cap = [], []
    free = []  # each arc with hi > lo; the k-th one's network arc is 2k
    for i, u, v, a, b in zip(range(len(tails)), tails, heads, lo, hi, strict=True):
        if not 0 <= a <= b:
            raise ValueError(f"bad bounds [{a},{b}] on arc ({u},{v})")
        if a:
            excess[v] += a
            excess[u] -= a
        if b > a:
            head[u].append(len(to))
            head[v].append(len(to) + 1)
            free.append(i)
            to += (v, u)
            cap += (b - a, 0)
    for v, x in enumerate(excess):
        if x:
            u, w = (s, v) if x > 0 else (v, t)
            head[u].append(len(to))
            head[w].append(len(to) + 1)
            to += (w, u)
            cap += (abs(x), 0)
    need = sum([x for x in excess if x > 0])
    if _max_flow(head, to, cap, s, t, need) != need:
        return None
    flow = list(hi)
    for i, left in zip(free, cap[::2]):
        flow[i] -= left
    return flow


def _max_flow(
    head: list[list[int]], to: list[int], cap: list[int], s: int, t: int, need: int
) -> int:
    """Dinic's blocking flows from s to t, until ``need`` units are routed or t is cut off.

    Arc idx runs to ``to[idx]`` with residual capacity ``cap[idx]``, its
    reverse is idx ^ 1, and ``head[u]`` lists the arcs leaving u; ``cap``
    is updated in place. A circulation's source arcs carry exactly
    ``need``, so once that much is routed no path is left, and the BFS
    that would show it is skipped.

    Each phase walks paths from s along the current arc of each node.
    An augmentation keeps the path up to its first saturated arc and
    walks on from there, and a dead end advances its parent's current
    arc and leaves the level graph (no level arc opens within a phase);
    so every path is the one a recursive walk restarted at s would
    find, without its recursion depth.
    """
    n = len(head)
    total = 0
    while total < need:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:  # the list grows while it is walked: a FIFO queue
            next_level = level[u] + 1
            for idx in head[u]:
                v = to[idx]
                if cap[idx] and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
            if level[t] >= 0:
                break  # nodes at t's level or beyond cannot reach t
        if level[t] < 0:
            break
        it = [0] * n
        path: list[int] = []  # arcs from s to u
        u = s
        while True:
            if u == t:
                pushed = min([cap[idx] for idx in path])
                for idx in path:
                    cap[idx] -= pushed
                    cap[idx ^ 1] += pushed
                total += pushed
                del path[[cap[idx] for idx in path].index(0) :]
                u = to[path[-1]] if path else s
                continue
            arcs, i, want = head[u], it[u], level[u] + 1
            end = len(arcs)
            while i < end:
                idx = arcs[i]
                if cap[idx] and level[to[idx]] == want:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(idx)
                u = to[idx]
            elif path:  # dead end: retreat and advance the parent's current arc
                level[u] = -1
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break
    return total
