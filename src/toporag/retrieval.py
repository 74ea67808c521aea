"""Query-driven subcomplex selection.

Given a query embedding, the top-k 0- and 1-cells by cosine similarity
receive descending prizes; 2-cell prizes are induced from their
boundary prizes minus a size cost. A connected, boundary-consistent
subcomplex maximizing total prize minus size cost is then extracted,
per graph component, in two steps:

1. The best 1-skeleton selection, exactly. Only ranked cells carry
   prizes, so the terminals are the ranked 0-cells and both ends of each
   ranked 1-cell. A ranked 1-cell costs nothing, so terminals it joins
   form one group, taken whole: at most k0 + k1 groups. A Dreyfus-Wagner
   search (Dreyfus & Wagner, Networks 1971) over the group subsets, with
   hop counts from breadth-first search over the adjacency CSR, keeps the
   subset of best prize minus ``c_edge`` times hops. It takes about
   3^g |V| + 2^g |E| steps for g groups, so ``PipelineConfig`` refuses
   k0 + k1 above ``MAX_RANKED``.
2. The top-k2 positive-prize 2-cells, staged in with exact
   marginal-objective acceptance.

The objective of a selection ``S`` is::

    sum(prize(x) for x in S)
      - c_edge * #(selected 1-cells outside the ranked top-k)
      - sum(cost(x2) for selected 2-cells)

with ``cost(x2) = |boundary edges| * C2``. A 2-cell's size is charged
twice: once in its induced prize and once in ``cost(x2)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embedding import cosine
from .errors import EmptyCandidates
from .lifting import CellComplex, grow_forest

PRIZE_INDEXING = ("alg3", "eq14")


@dataclass(frozen=True)
class RankedCell:
    cell_id: int
    rank: int  # 0-based
    similarity: float
    prize: float


@dataclass(frozen=True, eq=False)  # an array field has no truth value to compare
class PrizeAssignment:
    """Per-cell prizes and the constants that produced them: ``prize[c]``
    is cell ``c``'s (float64; 0 for an unranked 0- or 1-cell)."""

    prize: np.ndarray
    c2: float
    c_edge: float
    ranked0: tuple[RankedCell, ...]
    ranked1: tuple[RankedCell, ...]

    def prize_of(self, cell_id: int) -> float:
        return self.prize.item(cell_id)

    @cached_property
    def ranked1_ids(self) -> frozenset[int]:
        return frozenset(r.cell_id for r in self.ranked1)


@dataclass(frozen=True)
class Subcomplex:
    """A connected, boundary-consistent cell selection with provenance."""

    complex: CellComplex
    cells0: tuple[int, ...]
    cells1: tuple[int, ...]
    cells2: tuple[int, ...]
    total_prize: float
    total_cost: float
    certificate: tuple[tuple[int, ...], ...]  # per component: spanning 1-cells
    provenance: tuple[dict, ...]
    degenerate: bool = False

    def all_cells(self) -> tuple[int, ...]:
        return tuple(sorted(self.cells0 + self.cells1 + self.cells2))

    @property
    def objective(self) -> float:
        return self.total_prize - self.total_cost


def topk_cells(complex: CellComplex, z_q: np.ndarray, dim: int,
               k: int) -> list[tuple[int, float]]:
    """Top-k cells of one dimension by cosine similarity to the query.

    Descending similarity, ties broken by ascending cell id; at most
    ``min(k, #cells)`` results.
    """
    if dim not in (0, 1):
        raise ValueError("similarity retrieval applies to 0- and 1-cells")
    if k <= 0:
        return []
    scored = ((cid, cosine(complex.vector(cid), z_q))
              for cid in complex.cell_ids(dim))
    best = heapq.nsmallest(k, scored, key=lambda t: (-t[1], t[0]))
    return best


def assign_prizes(ranked0: list[tuple[int, float]],
                  ranked1: list[tuple[int, float]],
                  complex: CellComplex,
                  k: int | tuple[int, int],
                  c2: float,
                  c_edge: float = 1.0,
                  indexing: str = "alg3") -> PrizeAssignment:
    """Turn similarity rankings into one prize vector over the cell ids.

    The r-th ranked cell (0-based) of dimension d gets ``k_d - r``
    under the default ``alg3`` indexing, or ``k_d - r - 1`` under
    ``eq14``; other 0/1-cells get 0. Every 2-cell gets the sum of its
    boundary 0/1-cell prizes minus ``|boundary edges| * C2``.

    With ``down[v]`` the ranked prizes of the vertices and tree 1-cells
    on v's root path summed, a 2-cell whose non-tree 1-cell ``e`` has ends
    ``a``, ``b`` meeting at ``l`` sums ``down[a] + down[b] - 2 down[l] +
    prize(l) + prize(e)``; ``down`` folds over the complex's ancestor table,
    one round per row. Every prize is an integer, so sums are exact.
    """
    if indexing not in PRIZE_INDEXING:
        raise ValueError(f"indexing must be one of {PRIZE_INDEXING}")
    k0, k1 = (k, k) if isinstance(k, int) else k
    offset = 0 if indexing == "alg3" else 1
    cells0, cells1 = (tuple(RankedCell(cell_id=cid, rank=rank, similarity=sim,
                                       prize=float(kd - rank - offset))
                            for rank, (cid, sim) in enumerate(ranked))
                      for ranked, kd in ((ranked0, k0), (ranked1, k1)))
    n0, n01 = complex.n0, complex.n0 + complex.n1
    edge, top = complex.two_edge, complex.two_lca
    prize = np.zeros(complex.num_cells + 1)  # the last 0 is read at a root's -1
    for r in cells0 + cells1:
        prize[r.cell_id] = r.prize
    # down[v]: v's root-path prizes, row k adding the 2^k above; [-1] is a 0
    down = np.zeros(n0 + 1)
    down[:n0] = prize[:n0] + prize[complex.parent_edge]
    for up in complex.ancestors:
        down = down + down[up]
    a, b = complex.edge_src[edge - n0], complex.edge_dst[edge - n0]
    prize[n01:-1] = down[a] + down[b] - 2 * down[top] + prize[top] + prize[edge]
    prize[n01:-1] -= complex.cycle_lengths * c2
    return PrizeAssignment(prize=prize[:-1], c2=c2, c_edge=c_edge,
                           ranked0=cells0, ranked1=cells1)


def topk_two_cells(assignment: PrizeAssignment, complex: CellComplex,
                   k2: int) -> list[int]:
    """Top-k2 2-cells by prize, then id; only positive prizes qualify."""
    if k2 <= 0:
        return []
    n01 = complex.n0 + complex.n1
    two = assignment.prize[n01:]
    eligible = np.flatnonzero(two > 0.0)
    best = eligible[np.argsort(-two[eligible], kind="stable")[:k2]]
    return (best + n01).tolist()


def enforce_boundary_consistency(complex: CellComplex,
                                 cells: set[int] | frozenset[int]) -> frozenset[int]:
    """Close a selection under boundaries; idempotent.

    Every selected 2-cell pulls in its boundary 1-cells; every selected
    1-cell, its endpoints, and so the cycle vertices of those 2-cells.
    """
    closed, n0, n01 = set(cells), complex.n0, complex.n0 + complex.n1
    for low, high in ((n01, complex.num_cells), (n0, n01)):  # 2-cells, then 1-cells
        for cid in [c for c in closed if low <= c < high]:
            closed.update(complex.boundary(cid))
    return frozenset(closed)


def selection_objective(complex: CellComplex, assignment: PrizeAssignment,
                        cells: frozenset[int]) -> tuple[float, float]:
    """(total prize, total cost) of a selection under the assignment."""
    total_prize = sum(assignment.prize_of(c) for c in cells)
    ranked1 = assignment.ranked1_ids
    n0, n01 = complex.n0, complex.n0 + complex.n1
    connective = sum(n0 <= c < n01 and c not in ranked1 for c in cells)
    cost = assignment.c_edge * connective
    lengths = complex.cycle_lengths
    cost += sum(int(lengths[c - n01]) * assignment.c2 for c in cells if c >= n01)
    return total_prize, cost


def _selection_certificate(complex: CellComplex,
                           cells: frozenset[int]) -> tuple[int, ...]:
    """Spanning 1-cells of the selection's 1-skeleton: the parent edges
    of the BFS trees grown from its sorted vertices, in visiting order."""
    roots = sorted(c for c in cells if c < complex.n0)
    forest = grow_forest(roots, lambda v: [
        (ecid, w) for ecid, w in complex.neighbors(v) if ecid in cells])
    return tuple(forest[1].values())


def is_feasible(complex: CellComplex, cells: frozenset[int]) -> bool:
    """Nonempty, boundary-closed, connected 1-skeleton: the selection's
    spanning forest is one tree, with one edge fewer than its vertices."""
    if enforce_boundary_consistency(complex, cells) != cells:
        return False
    n_vertices = sum(1 for c in cells if c < complex.n0)
    return n_vertices > 0 and \
        len(_selection_certificate(complex, cells)) == n_vertices - 1


def _provenance(complex: CellComplex, assignment: PrizeAssignment,
                cells: frozenset[int]) -> tuple[dict, ...]:
    by_id = {r.cell_id: r for r in assignment.ranked0 + assignment.ranked1}
    entries = []
    for cid in sorted(cells):
        ranked = by_id.get(cid)
        entries.append({
            "cell": cid,
            "dim": complex.dim(cid),
            "rank": ranked.rank if ranked else None,
            "similarity": ranked.similarity if ranked else None,
            "prize": assignment.prize_of(cid),
        })
    return tuple(entries)


def _make_subcomplex(complex: CellComplex, assignment: PrizeAssignment,
                     component_selections: list[frozenset[int]],
                     degenerate: bool = False) -> Subcomplex:
    all_cells = frozenset().union(*component_selections) if component_selections else frozenset()
    prize, cost = selection_objective(complex, assignment, all_cells)
    ordered, n0, n01 = sorted(all_cells), complex.n0, complex.n0 + complex.n1
    return Subcomplex(
        complex=complex,
        cells0=tuple(c for c in ordered if c < n0),
        cells1=tuple(c for c in ordered if n0 <= c < n01),
        cells2=tuple(c for c in ordered if c >= n01),
        total_prize=prize,
        total_cost=cost,
        certificate=tuple(_selection_certificate(complex, sel)
                          for sel in component_selections),
        provenance=_provenance(complex, assignment, all_cells),
        degenerate=degenerate,
    )


# --- exact Steiner search over terminal groups ---

MAX_RANKED = 12  # the largest k0 + k1 accepted: the search grows as 3^(k0 + k1)


def _component_entries(complex: CellComplex, label: int):
    """Component ``label``'s sorted vertices, and per adjacency entry of
    one of them: that vertex and the other end, as positions among the
    vertices, and the 1-cell."""
    vertices = np.flatnonzero(complex.component == label)
    owner, other, edge = complex.adj_owner, complex.adj_other, complex.adj_edge
    if len(vertices) < complex.n0:
        keep = np.flatnonzero(complex.component[owner] == label)
        owner, other, edge = (np.searchsorted(vertices, owner[keep]),
                              np.searchsorted(vertices, other[keep]), edge[keep])
    return vertices, owner, other, edge


def _terminal_groups(complex: CellComplex, assignment: PrizeAssignment,
                     label: int) -> list[tuple[list[int], frozenset[int], float]]:
    """The component's ranked cells, grouped where a ranked 1-cell joins
    their ends: per group, by least vertex, its vertices, its cells
    (those vertices and its ranked 1-cells) and its summed prize."""
    root: dict[int, int] = {}

    def find(v: int) -> int:
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    ranked = []
    for r in assignment.ranked0 + assignment.ranked1:
        ends = complex.boundary(r.cell_id) or (r.cell_id,)
        if complex.component.item(ends[0]) == label:
            ranked.append((r, ends))
            root[find(ends[0])] = find(ends[-1])
    members: dict[int, list] = {}
    for r, ends in ranked:
        members.setdefault(find(ends[0]), []).append((r, ends))
    groups = []
    for rs in members.values():
        vertices = sorted({v for _, ends in rs for v in ends})
        groups.append((vertices, frozenset(vertices).union(r.cell_id for r, _ in rs),
                       sum(r.prize for r, _ in rs)))
    return sorted(groups)


def _splits(mask: int):
    """The proper submasks of ``mask`` that hold its lowest bit: each
    split of ``mask`` into two nonempty parts, once."""
    low = mask & -mask
    rest = sub = mask ^ low
    while sub:
        sub = (sub - 1) & rest
        yield low | sub


def _best_tree(complex: CellComplex, assignment: PrizeAssignment,
               label: int) -> frozenset[int]:
    """The best connected 1-skeleton selection in component ``label``.

    Each terminal group is one node, its least vertex, so every 1-cell
    left between nodes is unranked and costs one hop. ``hops[S][v]`` is
    the fewest hops of a tree joining the groups in S and node v
    (Dreyfus-Wagner): a group's row is its BFS distance; a larger S's is
    its best split at v, then spread out one level at a time. Rows stop
    at ``cap``: a tree of more hops loses to the best group alone. The S
    kept has the best ``prize(S) - c_edge * min(hops[S])``, then the
    fewest cells, then the least sorted cells; its cells are read back
    from the rows' splits and one-hop steps.
    """
    groups = _terminal_groups(complex, assignment, label)
    if len(groups) == 1:
        return groups[0][1]
    vertices, owner, other, edge = _component_entries(complex, label)
    prize, sizes = [p for _, _, p in groups], [len(c) for _, c, _ in groups]
    n, g, c_edge = len(vertices), len(groups), assignment.c_edge
    cap = n if c_edge == 0 else min(n, int((sum(prize) - max(prize)) / c_edge) + 2)
    hops = np.full((1 << g, n), cap, dtype=np.int32)
    node, group_at = np.arange(n), {}
    for i, (vs, _, _) in enumerate(groups):
        at = np.searchsorted(vertices, vs)
        rep = at.item(0)
        node[at], group_at[rep] = rep, i
        hops[1 << i, rep] = 0
    src, dst = node[owner], node[other]

    def relax(masks: list[int]) -> None:
        step = max(1, 2**21 // len(dst))  # rows per block: (rows, entries) stays small
        for lo in range(0, len(masks), step):
            chunk = masks[lo:lo + step]
            rows = hops[chunk]
            flat_rows = rows.reshape(-1)
            ends = (np.arange(0, rows.size, n)[:, None] + dst).reshape(-1)
            top = flat_rows.max(initial=-1, where=flat_rows < cap)
            for level in range(int(rows.min()), cap - 1):
                reach = ends[(rows == level)[:, src].reshape(-1)]
                if not len(reach) and level > top:
                    break  # nothing reached this level, so none beyond
                flat_rows[reach] = np.minimum(flat_rows[reach], level + 1)
            hops[chunk] = rows

    layers = [[] for _ in range(g + 1)]  # the subsets by size
    for s in range(1, 1 << g):
        layers[bin(s).count("1")].append(s)
    relax(layers[1])
    for size, layer in enumerate(layers[2:], 2):
        for s in layer:
            parts = np.array(list(_splits(s)))
            hops[s] = np.minimum(hops[s], (hops[parts] + hops[s ^ parts]).min(axis=0))
        if size < g:  # relaxing all g groups' row cannot lower its least value
            relax(layer)

    fewest = hops.min(axis=1).tolist()

    def rank(mask: int) -> tuple[float, int]:
        inside = [i for i in range(g) if mask >> i & 1]
        return (c_edge * fewest[mask] - sum(prize[i] for i in inside),
                sum(sizes[i] for i in inside) + 2 * fewest[mask] + 1 - len(inside))

    ranks = {s: rank(s) for s in range(1, 1 << g) if fewest[s] < cap}
    best = min(ranks.values())

    def extract(mask: int) -> frozenset[int]:
        stack, chosen = [(mask, int(np.argmin(hops[mask])))], set()
        while stack:
            mask, v = stack.pop()
            d, i = hops.item(mask, v), group_at.get(v)
            chosen.add(vertices.item(v))
            if i is not None:
                chosen |= groups[i][1]
                if mask == 1 << i:
                    continue
            split = next((a for a in _splits(mask)
                          if hops.item(a, v) + hops.item(mask ^ a, v) == d), None)
            if split is not None:
                stack += [(split, v), (mask ^ split, v)]
                continue
            k = next(k for k in np.flatnonzero(src == v).tolist()
                     if hops.item(mask, dst.item(k)) == d - 1)
            chosen.add(edge.item(k))
            stack.append((mask, dst.item(k)))
        return frozenset(chosen)

    return min((extract(s) for s, r in ranks.items() if r == best), key=sorted)


def _connector_path(complex: CellComplex, selected: frozenset[int],
                    assignment: PrizeAssignment,
                    targets: set[int]) -> frozenset[int] | None:
    """Cheapest path of cells from the current selection to any target
    vertex; multi-source Dijkstra over the 1-skeleton, which cannot
    leave the sources' component.

    Edge weight is 0 for already-selected or ranked 1-cells, else
    ``c_edge``. Returns the cells to add (vertices and edges), or None
    if unreachable.
    """
    sources = {c for c in selected if c < complex.n0}
    if not sources:
        return None
    ranked1 = assignment.ranked1_ids

    def weight(ecid: int) -> float:
        return 0.0 if ecid in selected or ecid in ranked1 else assignment.c_edge

    dist: dict[int, tuple[float, int]] = {}
    prev: dict[int, tuple[int, int]] = {}
    heap = []
    for s in sorted(sources):
        dist[s] = (0.0, 0)
        heapq.heappush(heap, (0.0, 0, s))
    while heap:
        d, hops, v = heapq.heappop(heap)
        if (d, hops) > dist[v]:
            continue
        if v in targets:  # popped in (dist, hops, vertex) order: the goal
            cells = set()
            while v not in sources:
                cells.add(v)
                v, ecid = prev[v]
                cells.add(ecid)
            return frozenset(cells)
        for ecid, w in complex.neighbors(v):
            nd, nh = d + weight(ecid), hops + 1
            cur = dist.get(w)
            if cur is None or (nd, nh) < cur:
                dist[w] = (nd, nh)
                prev[w] = (v, ecid)
                heapq.heappush(heap, (nd, nh, w))
    return None


_EPS = 1e-12


def _solve_component(complex: CellComplex, assignment: PrizeAssignment,
                     label: int, selected2: list[int]) -> frozenset[int]:
    """The best tree of the graph component ``label``, then its 2-cells."""
    current = _best_tree(complex, assignment, label)

    def objective_of(sel: frozenset[int]) -> float:
        prize, cost = selection_objective(complex, assignment, sel)
        return prize - cost

    def with_two_cell(selection: frozenset[int], cid: int) -> frozenset[int] | None:
        """Closure of selection plus the 2-cell, connected if needed."""
        cycle = set(complex.cycle_vertices(cid))
        if complex.component.item(next(iter(cycle))) != label:
            return None
        addition = {cid}
        if not cycle & {c for c in selection if c < complex.n0}:
            connector = _connector_path(complex, selection, assignment, cycle)
            if connector is None:
                return None
            addition |= connector
        return enforce_boundary_consistency(complex, selection | addition)

    # staged 2-cell addition, exact marginal acceptance
    for cid in selected2:
        tentative = with_two_cell(current, cid)
        if tentative is not None and \
                objective_of(tentative) > objective_of(current) + _EPS:
            current = tentative
    # 2-cells with shared boundary can be jointly profitable while each
    # marginal alone is not; offer the leftovers as one batch
    remaining = [cid for cid in selected2 if cid not in current]
    if len(remaining) > 1:
        batch = current
        for cid in remaining:
            tentative = with_two_cell(batch, cid)
            if tentative is not None:
                batch = tentative
        if objective_of(batch) > objective_of(current) + _EPS:
            current = batch
    return current


def solve_subcomplex(complex: CellComplex, assignment: PrizeAssignment,
                     selected2: list[int],
                     fallback: tuple[int, float] | None = None) -> Subcomplex:
    """Extract a connected, boundary-consistent subcomplex.

    Candidate cells spanning several graph components are solved per
    component and unioned. With no positive-prize cell at all, the
    ``fallback`` (highest-similarity 0-cell) is returned as a
    degenerate single-cell subcomplex, or :class:`EmptyCandidates` is
    raised when none is supplied.
    """
    n0, n01, src = complex.n0, complex.n0 + complex.n1, complex.edge_src
    seeds = [r.cell_id for r in assignment.ranked0 if r.prize > 0]
    seeds += [src.item(r.cell_id - n0) for r in assignment.ranked1 if r.prize > 0]
    # a 2-cell's cycle lies in one component: read its non-tree 1-cell's end
    seeds += [src.item(complex.two_edge.item(cid - n01) - n0) for cid in selected2]

    if not seeds:
        if fallback is None:
            raise EmptyCandidates("no cell has positive prize")
        return _make_subcomplex(complex, assignment,
                                [frozenset([fallback[0]])], degenerate=True)

    selections = [
        _solve_component(complex, assignment, label, selected2)
        for label in sorted({complex.component.item(v) for v in seeds})
    ]
    return _make_subcomplex(complex, assignment, selections)


def subcomplex_to_dict(sub: Subcomplex) -> dict:
    """JSON-ready representation of a subcomplex."""
    return {
        "cells": {
            "0": list(sub.cells0),
            "1": list(sub.cells1),
            "2": list(sub.cells2),
        },
        "prize": sub.total_prize,
        "cost": sub.total_cost,
        "provenance": [dict(p) for p in sub.provenance],
        "certificate": [list(c) for c in sub.certificate],
        "degenerate": sub.degenerate,
    }


def retrieve_subcomplex(complex: CellComplex, z_q: np.ndarray, k0: int,
                        k1: int, k2: int, c2: float, c_edge: float = 1.0,
                        indexing: str = "alg3") -> Subcomplex:
    """Full retrieval: rank cells, assign prizes, solve.

    The highest-similarity 0-cell is the degenerate fallback, whatever
    ``k0``: the 0-cells are ranked once, to at least one place.
    """
    ranked0 = topk_cells(complex, z_q, 0, max(k0, 1))
    ranked1 = topk_cells(complex, z_q, 1, k1)
    assignment = assign_prizes(ranked0[:k0], ranked1, complex, (k0, k1), c2,
                               c_edge=c_edge, indexing=indexing)
    selected2 = topk_two_cells(assignment, complex, k2)
    fallback = ranked0[0] if ranked0 else None
    return solve_subcomplex(complex, assignment, selected2, fallback=fallback)
