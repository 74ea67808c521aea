"""Exact reference for subcomplex selection on small instances.

Exhaustive enumeration over every cell subset. It shares no search
code with the solver it checks: only the objective, the feasibility
test and the result packaging of :mod:`toporag.retrieval`.
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
