"""Exact references for subcomplex selection.

``brute_force_subcomplex`` enumerates every cell subset of a small
complex. It shares no search code with the solver it checks: only the
objective, the feasibility test and the result packaging of
:mod:`toporag.retrieval`. ``forest_optimum`` is a rooted DP giving the
optimal objective when the 1-skeleton is a forest, at any size; it reads
only the graph and the assignment's ranked cells and constants.
"""

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
