"""Eulerian circuits of even multigraphs, loop-aware.

A loop is traversed as a single step that leaves and re-enters its vertex
(contributing two to the degree). Every vertex must have even degree.
"""

from __future__ import annotations


def euler_circuits(
    vertex_count: int, edges: dict[int, tuple[int, int]]
) -> list[list[tuple[int, int, int]]]:
    """Closed trails covering the given edges, one per non-trivial component.

    ``edges`` maps edge id -> endpoints. Each circuit is a list of steps
    (edge_id, from_vertex, to_vertex) with consecutive steps sharing a
    vertex. Adjacency lists are built in ascending edge-id order, so the
    traversal is a function of the input alone.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    degree = [0] * vertex_count
    for eid in sorted(edges):
        a, b = edges[eid]
        if a == b:
            adj[a].append((eid, a))  # single traversal entry for a loop
            degree[a] += 2
        else:
            adj[a].append((eid, b))
            adj[b].append((eid, a))
            degree[a] += 1
            degree[b] += 1
    for v in range(vertex_count):
        if degree[v] % 2:
            raise ValueError(f"vertex {v} has odd degree {degree[v]}")

    used: set[int] = set()
    ptr = [0] * vertex_count
    circuits = []
    for start in range(vertex_count):
        if not adj[start]:
            continue
        if all(eid in used for eid, _ in adj[start]):
            continue
        stack: list[tuple[int, tuple[int, int, int] | None]] = [(start, None)]
        trail_rev: list[tuple[int, int, int]] = []
        while stack:
            v, arrival = stack[-1]
            nxt = None
            while ptr[v] < len(adj[v]):
                eid, w = adj[v][ptr[v]]
                if eid in used:
                    ptr[v] += 1
                    continue
                used.add(eid)
                ptr[v] += 1
                nxt = (eid, v, w)
                break
            if nxt is not None:
                stack.append((nxt[2], nxt))
            else:
                stack.pop()
                if arrival is not None:
                    trail_rev.append(arrival)
        trail = trail_rev[::-1]
        if trail:
            circuits.append(trail)
    return circuits
