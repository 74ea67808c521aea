"""Second implementation of the lift's spanning forest, components,
fundamental cycles, 2-cell embeddings and cycle-space rank, for tests to
compare against.

Shares no code with :mod:`toporag.lifting`: a recursive DFS and a deque
BFS from any roots, Kruskal and the component lists over relabelled
classes, a tree path found by a fresh search over the given tree edges,
a cycle mean summed one row at a time, and the rank of the 2-cells'
boundaries by elimination over GF(2), which
:func:`toporag.lifting.verify_cycle_basis` certifies without reading a
cycle.
"""

import random
from collections import deque

import numpy as np


def _neighbors(graph, edges=None):
    """Per-vertex (edge index, other endpoint) pairs in edge order, over
    every edge or only those in ``edges``."""
    adj = [[] for _ in range(graph.num_nodes)]
    for idx, e in enumerate(graph.edges):
        if edges is None or idx in edges:
            adj[e.src].append((idx, e.dst))
            if e.dst != e.src:
                adj[e.dst].append((idx, e.src))
    return adj


def _union(label, u, v):
    """Relabel the classes of ``u`` and ``v`` as the smaller label; False
    when they are one class already."""
    lo, hi = sorted((label[u], label[v]))
    if lo == hi:
        return False
    label[:] = [lo if x == hi else x for x in label]
    return True


def spanning_tree(graph, policy):
    """Edge indices of the forest ``policy`` grows: DFS or BFS from the
    smallest unreached vertex, neighbors in edge order, or Kruskal over
    the edge order shuffled by ``random.Random(seed)``."""
    tree = set()
    if policy.kind == "random":
        order = list(range(graph.num_edges))
        random.Random(policy.seed).shuffle(order)
        label = list(range(graph.num_nodes))
        for idx in order:
            if _union(label, graph.edges[idx].src, graph.edges[idx].dst):
                tree.add(idx)
        return frozenset(tree)
    return frozenset(forest(_neighbors(graph), range(graph.num_nodes),
                            policy.kind == "dfs")[1].values())


def forest(adj, roots, depth_first):
    """The forest a recursive DFS or a deque BFS grows over ``adj`` (per
    vertex (edge, other endpoint) pairs) from each unreached root in turn.

    Returns ``(parent, parent_edge, depth, trees)``: dicts filled as each
    vertex is reached, roots absent from the first two, and each tree's
    vertices in visiting order.
    """
    parent, parent_edge, depth, trees = {}, {}, {}, []

    def reach(w, v, idx):
        parent[w], parent_edge[w], depth[w] = v, idx, depth[v] + 1

    def dfs(v, tree):
        tree.append(v)
        for idx, w in adj[v]:
            if w not in depth:
                reach(w, v, idx)
                dfs(w, tree)

    def bfs(root, tree):
        queue = deque([root])
        while queue:
            v = queue.popleft()
            tree.append(v)
            for idx, w in adj[v]:
                if w not in depth:
                    reach(w, v, idx)
                    queue.append(w)

    for root in roots:
        if root not in depth:
            depth[root] = 0
            trees.append([])
            (dfs if depth_first else bfs)(root, trees[-1])
    return parent, parent_edge, depth, trees


def components(graph):
    """Sorted vertex lists of the connected components, ordered by their
    smallest vertex."""
    label = list(range(graph.num_nodes))
    for e in graph.edges:
        _union(label, e.src, e.dst)
    groups = {}
    for v, lab in enumerate(label):
        groups.setdefault(lab, []).append(v)
    return [groups[lab] for lab in sorted(groups)]


def fundamental_cycle(graph, edge_index, tree):
    """Closed cycle of a non-tree, non-loop edge: the tree path between its
    endpoints, then the edge.

    Returns ``(vertices, edges)``: ``vertices[0] == vertices[-1]`` is the
    smaller endpoint, ``edges[i]`` joins ``vertices[i]`` to
    ``vertices[i+1]`` and the non-tree edge comes last. Raises
    ``ValueError`` for a tree edge or a self-loop.
    """
    e = graph.edges[edge_index]
    if edge_index in tree or e.src == e.dst:
        raise ValueError(f"edge {edge_index} closes no 2-cell")
    start, goal = min(e.src, e.dst), max(e.src, e.dst)
    adj = _neighbors(graph, tree)
    came = {start: None}
    queue = deque([start])
    while goal not in came:
        v = queue.popleft()
        for idx, w in adj[v]:
            if w not in came:
                came[w] = (v, idx)
                queue.append(w)
    vertices, edges, v = [goal], [], goal
    while came[v] is not None:
        v, idx = came[v]
        vertices.append(v)
        edges.append(idx)
    return vertices[::-1] + [start], edges[::-1] + [edge_index]


def cycle_embedding(cycle, z0, z1):
    """Float32 mean of a cycle's vertex rows of ``z0`` and edge rows of
    ``z1``, summed in float64 one row at a time."""
    vertices, edges = cycle
    rows = [z0[v] for v in vertices[:-1]] + [z1[e] for e in edges]
    total = np.zeros(len(rows[0]), dtype=np.float64)
    for row in rows:
        total += row
    return (total / len(rows)).astype(np.float32)


def betti1(graph):
    """First Betti number: non-loop edges - vertices + components, so it
    counts the 2-cells a lift attaches."""
    non_loop = sum(1 for e in graph.edges if e.src != e.dst)
    return non_loop - graph.num_nodes + len(components(graph))


def gf2_rank(rows):
    """Rank of bitset rows over GF(2), by incremental elimination."""
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            bit = row.bit_length() - 1
            if bit not in pivots:
                pivots[bit] = row
                rank += 1
                break
            row ^= pivots[bit]
    return rank


def boundary_rows(cx):
    """Each 2-cell's boundary, as ``cx.boundary`` reads it, as a GF(2) bitset
    row: bit ``i`` set when 1-cell ``n0 + i`` occurs an odd number of times."""
    rows = []
    for cid in cx.cell_ids(2):
        edges = np.subtract(cx.boundary(cid), cx.n0)
        bits = np.bincount(edges, minlength=cx.n1).astype(np.uint8) & 1
        rows.append(int.from_bytes(np.packbits(bits, bitorder="little"), "little"))
    return rows


def is_cycle(graph, row):
    """Whether the edge set of bitset ``row`` lies in the cycle space: every
    vertex meets its edges an even number of times."""
    odd = 0
    for idx, e in enumerate(graph.edges):
        if row >> idx & 1:
            odd ^= (1 << e.src) ^ (1 << e.dst)
    return odd == 0
