"""Exact references for subcomplex selection.

``brute_force_subcomplex`` enumerates every cell subset of a small
complex. It shares no search code with the solver it checks: only the
objective, the feasibility test and the result packaging of
:mod:`toporag.retrieval`. ``forest_optimum`` is a rooted DP giving the
optimal objective when the 1-skeleton is a forest, at any size, and
``steiner_optimum`` a Dreyfus-Wagner DP giving it on any graph with few
ranked cells; both read only the graph and the assignment's ranked cells
and constants.
"""

import numpy as np

from toporag.errors import EmptyCandidates, TooLarge
from toporag.retrieval import (_make_subcomplex, enforce_boundary_consistency,
                               is_feasible, selection_objective)


def brute_force_subcomplex(complex, assignment):
    """Exact maximizer by exhaustive enumeration; guard: <= 20 cells.

    Ties broken by smaller cell count, then lexicographic ids.
    """
    n = complex.num_cells
    if n > 20:
        raise TooLarge(f"{n} cells exceeds the enumeration guard (20)")
    required = []
    for cid in range(n):
        closure = enforce_boundary_consistency(complex, {cid})
        mask = 0
        for c in closure:
            mask |= 1 << c
        required.append(mask)

    best = None  # (-objective, count, sorted_cells, frozenset)
    for mask in range(1, 1 << n):
        cells_list = [c for c in range(n) if mask >> c & 1]
        req = 0
        for c in cells_list:
            req |= required[c]
        if req != mask:
            continue
        cells = frozenset(cells_list)
        if not is_feasible(complex, cells):
            continue
        prize, cost = selection_objective(complex, assignment, cells)
        key = (-(prize - cost), len(cells_list), tuple(cells_list))
        if best is None or key < best[0]:
            best = (key, cells)
    if best is None:
        raise EmptyCandidates("no feasible nonempty subcomplex")
    return _make_subcomplex(complex, assignment, [best[1]])


def forest_optimum(complex, assignment):
    """Optimal objective over connected selections of a loop-free forest.

    On a tree a connected selection is a subtree. Rooting each tree at its
    first vertex, ``f(v) = prize(v) + sum over children c of
    max(0, f(c) + prize(e) - cost(e))`` is the best subtree whose topmost
    vertex is v, where e joins c to v and ``cost(e)`` is 0 for a ranked
    1-cell and ``c_edge`` otherwise. A tree's optimum is
    ``max(0, max_v f(v))``; the forest's is their sum.
    """
    graph, n0 = complex.graph, complex.n0
    if complex.n2 or any(e.src == e.dst for e in graph.edges):
        raise ValueError("not a loop-free forest")
    prize = {r.cell_id: r.prize for r in assignment.ranked0 + assignment.ranked1}
    ranked1 = {r.cell_id for r in assignment.ranked1}
    adj = [[] for _ in range(n0)]
    for cid, e in enumerate(graph.edges, n0):
        gain = prize.get(cid, 0.0) - (0.0 if cid in ranked1 else assignment.c_edge)
        adj[e.src].append((e.dst, gain))
        adj[e.dst].append((e.src, gain))
    up = [None] * n0  # (parent, gain of the joining edge); a root's stays None
    reached, total = [False] * n0, 0.0
    for root in range(n0):
        if reached[root]:
            continue
        reached[root], order, stack = True, [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w, gain in adj[v]:
                if not reached[w]:
                    reached[w], up[w] = True, (v, gain)
                    stack.append(w)
        f = {v: prize.get(v, 0.0) for v in order}
        for v in reversed(order):  # children before parents
            if up[v] is not None:
                parent, gain = up[v]
                f[parent] += max(0.0, f[v] + gain)
        total += max(0.0, max(f.values()))
    return total


def steiner_optimum(complex, assignment):
    """Optimal objective over connected 1-skeleton selections, one per
    graph component where one pays, as ``solve_subcomplex`` unions them.

    Terminals are the ranked 0-cells and both ends of each ranked
    1-cell. A connected selection whose terminals are T earns the prizes
    of the ranked 0-cells in T and of the ranked 1-cells with both ends
    in T, and pays ``c_edge`` per unranked 1-cell; so the best selection
    over T is the tree spanning T with the fewest hops, where a ranked
    1-cell counts 0 and any other 1-cell 1. ``hops[T][v]``, the fewest
    hops of a tree joining T and v, follows the Dreyfus-Wagner
    recurrence over every subset T (numbered so that a subset's subsets
    come first): the best split of T at some vertex u, plus the
    Floyd-Warshall distance from u to v. The result is the summed prize
    minus ``c_edge`` times the summed hops of each component's best T.
    """
    graph, n0 = complex.graph, complex.n0
    prize0 = {r.cell_id: r.prize for r in assignment.ranked0}
    ranked1 = {r.cell_id: r.prize for r in assignment.ranked1}
    dist = np.full((n0, n0), np.inf)
    np.fill_diagonal(dist, 0.0)
    for cid, e in enumerate(graph.edges, n0):
        hop = 0.0 if cid in ranked1 else 1.0
        dist[e.src, e.dst] = dist[e.dst, e.src] = min(dist[e.src, e.dst], hop)
    for k in range(n0):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    ends = {cid: graph.edges[cid - n0] for cid in ranked1}
    terminals = sorted(set(prize0) | {v for e in ends.values() for v in (e.src, e.dst)})
    hops = np.full((1 << len(terminals), n0), np.inf)
    for i, v in enumerate(terminals):
        hops[1 << i] = dist[v]
    best = {}  # component (its smallest vertex) -> (value, prize, hops)
    for subset in range(1, 1 << len(terminals)):
        if subset & (subset - 1):
            parts, part = [], (subset - 1) & subset
            while part:
                parts.append(part)
                part = (part - 1) & subset
            split = (hops[parts] + hops[[subset ^ p for p in parts]]).min(axis=0)
            hops[subset] = (split[:, None] + dist).min(axis=0)
        cost = hops[subset].min()
        if cost == np.inf:
            continue
        chosen = {v for i, v in enumerate(terminals) if subset >> i & 1}
        prize = sum(prize0.get(v, 0.0) for v in chosen) + sum(
            p for cid, p in ranked1.items()
            if ends[cid].src in chosen and ends[cid].dst in chosen)
        value = prize - assignment.c_edge * int(cost)
        label = int(np.flatnonzero(dist[min(chosen)] < np.inf)[0])
        if value > best.get(label, (0.0,))[0]:
            best[label] = (value, prize, int(cost))
    return sum(b[1] for b in best.values()) - \
        assignment.c_edge * sum(b[2] for b in best.values())
