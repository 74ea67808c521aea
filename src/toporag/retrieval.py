"""Query-driven subcomplex selection.

Given a query embedding, the top-k 0- and 1-cells by cosine similarity
receive descending prizes; 2-cell prizes are induced from their
boundary prizes minus a size cost. A connected, boundary-consistent
subcomplex maximizing total prize minus size cost is then extracted:
a Goemans-Williamson-style prize-collecting Steiner approximation over
the 1-skeleton, followed by staged addition of positive-prize 2-cells
with exact marginal-objective acceptance.

The objective of a selection ``S`` is::

    sum(prize(x) for x in S)
      - c_edge * #(selected 1-cells outside the ranked top-k)
      - sum(cost(x2) for selected 2-cells)

with ``cost(x2) = |boundary edges| * C2``.
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


# --- Goemans-Williamson-style moat growing over the 1-skeleton ---

_EPS = 1e-12


def _gw_pcst(vertices: tuple[int, ...],
             edges: list[tuple[int, int, int, float]],
             node_prize: dict[int, float]) -> tuple[set[int], set[int]]:
    """Unrooted prize-collecting Steiner approximation.

    ``edges`` are (edge_cell_id, u, v, cost). Grows uniform moats
    around active clusters, merging on tight edges and deactivating
    exhausted clusters, then strong-prunes every forest tree and
    returns the best (vertex set, edge cell id set) by pruned value.

    Only edges incident to an active cluster can fire, so event scans
    are restricted to those; the result is identical to a full scan.
    """
    cluster_of = {v: i for i, v in enumerate(vertices)}
    members: dict[int, list[int]] = {i: [v] for i, v in enumerate(vertices)}
    prize_sum = {i: node_prize.get(v, 0.0) for i, v in enumerate(vertices)}
    dual_sum = {i: 0.0 for i in members}
    incident: dict[int, list[tuple[int, int, int, float]]] = {
        i: [] for i in members}
    for edge in edges:
        _, u, v, _ = edge
        incident[cluster_of[u]].append(edge)
        if cluster_of[v] != cluster_of[u]:
            incident[cluster_of[v]].append(edge)
    active = {i for i in members if prize_sum[i] > _EPS}
    moat = {v: 0.0 for v in vertices}  # accumulated growth around v
    forest_edges: list[tuple[int, int, int, float]] = []

    def grow(dt: float) -> None:
        if dt <= 0:
            return
        for cid in active:
            dual_sum[cid] += dt
            for v in members[cid]:
                moat[v] += dt

    while active:
        best_edge = None  # (dt, eid, edge)
        for cid in active:
            for edge in incident[cid]:
                eid, u, v, cost = edge
                cu, cv = cluster_of[u], cluster_of[v]
                if cu == cv:
                    continue
                rate = int(cu in active) + int(cv in active)
                dt = max(0.0, cost - moat[u] - moat[v]) / rate
                if best_edge is None or (dt, eid) < (best_edge[0], best_edge[1]):
                    best_edge = (dt, eid, edge)
        best_deact = None  # (dt, min_vertex, cid)
        for cid in active:
            dt = max(0.0, prize_sum[cid] - dual_sum[cid])
            key = (dt, min(members[cid]))
            if best_deact is None or key < (best_deact[0], best_deact[1]):
                best_deact = (dt, key[1], cid)

        if best_edge is not None and best_edge[0] <= best_deact[0] + _EPS:
            dt, eid, edge = best_edge
            _, u, v, cost = edge
            grow(dt)
            cu, cv = cluster_of[u], cluster_of[v]
            if len(members[cu]) < len(members[cv]):
                cu, cv = cv, cu
            forest_edges.append(edge)
            for w in members[cv]:
                cluster_of[w] = cu
            members[cu].extend(members[cv])
            incident[cu].extend(incident[cv])
            prize_sum[cu] += prize_sum[cv]
            dual_sum[cu] += dual_sum[cv]
            del members[cv], prize_sum[cv], dual_sum[cv], incident[cv]
            active.discard(cv)
            if prize_sum[cu] - dual_sum[cu] > _EPS:
                active.add(cu)
            else:
                active.discard(cu)
        else:
            grow(best_deact[0])
            active.discard(best_deact[2])

    return _best_pruned_tree(vertices, forest_edges, node_prize)


def _best_pruned_tree(vertices: tuple[int, ...],
                      forest_edges: list[tuple[int, int, int, float]],
                      node_prize: dict[int, float]) -> tuple[set[int], set[int]]:
    """Strong-prune the GW forest; return the best tree's cells.

    For every vertex r, ``g(r)`` is the value of the tree strong-pruned
    with r as root: its own prize plus, per neighbor branch, the
    branch's pruned value minus the connecting edge cost when positive.
    The rerooting pass computes all g values in two sweeps, then the
    selection is extracted from the best root.
    """
    adj: dict[int, list[tuple[int, int, float]]] = {v: [] for v in vertices}
    for eid, u, v, cost in forest_edges:
        adj[u].append((eid, v, cost))
        adj[v].append((eid, u, cost))

    best = None  # ((-value, n_cells, vertex_tuple), (vset, eset))
    parent, _, _, trees = grow_forest(vertices, lambda v: [
        (eid, w) for eid, w, _ in adj[v]])
    for tree in trees:  # each lists parents before children
        # down[v]: pruned value of v's subtree under the initial rooting
        down: dict[int, float] = {}
        for v in reversed(tree):
            value = node_prize.get(v, 0.0)
            for _, w, ccost in adj[v]:
                if parent.get(w) == v:
                    value += max(0.0, down[w] - ccost)
            down[v] = value

        # uc[v]: contribution arriving from the parent side when v is
        # treated as root; g(v) is then the full rerooted value
        uc: dict[int, float] = {tree[0]: 0.0}
        g: dict[int, float] = {}
        for v in tree:
            total = node_prize.get(v, 0.0) + uc[v]
            for _, w, ccost in adj[v]:
                if parent.get(w) == v:
                    total += max(0.0, down[w] - ccost)
            g[v] = total
            for _, w, ccost in adj[v]:
                if parent.get(w) == v:
                    uc[w] = max(0.0, total - max(0.0, down[w] - ccost) - ccost)

        root = min(g, key=lambda v: (-g[v], v))
        vset, eset = {root}, set()
        frontier = [(root, -1)]
        while frontier:
            v, came_from = frontier.pop()
            for eid, w, ccost in adj[v]:
                if w == came_from:
                    continue
                side = down[w] if parent.get(w) == v else g[w] - max(
                    0.0, down[v] - ccost)
                if side - ccost > _EPS:
                    vset.add(w)
                    eset.add(eid)
                    frontier.append((w, v))
        key = (-g[root], len(vset) + len(eset), tuple(sorted(vset)))
        if best is None or key < best[0]:
            best = (key, (vset, eset))
    assert best is not None
    return best[1]


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


def _solve_component(complex: CellComplex, assignment: PrizeAssignment,
                     component_vertices: tuple[int, ...],
                     selected2: list[int]) -> frozenset[int]:
    """Phase a+b of the solver for one graph component."""
    vset, ranked1, n0 = set(component_vertices), assignment.ranked1_ids, complex.n0
    vertices, src, dst = list(component_vertices), complex.edge_src, complex.edge_dst
    node_prize = dict(zip(vertices, assignment.prize[vertices].tolist()))
    inside = np.zeros(n0, bool)
    inside[vertices] = True
    ids = np.flatnonzero(inside[src] & (src != dst))  # its non-loop 1-cells
    edges = []
    for cid, u, v in zip((ids + n0).tolist(), src[ids].tolist(), dst[ids].tolist()):
        ranked = cid in ranked1
        if ranked:  # ranked edge prizes are folded into endpoint half-prizes
            half = assignment.prize_of(cid) / 2.0
            node_prize[u] += half
            node_prize[v] += half
        edges.append((cid, u, v, 0.0 if ranked else assignment.c_edge))

    gw_vertices, gw_edges = _gw_pcst(component_vertices, edges, node_prize)
    base = set(gw_vertices) | set(gw_edges)
    # ranked 1-cells with both endpoints already selected are free prize
    for cid in sorted(ranked1):
        if all(v in base for v in complex.boundary(cid)):
            base.add(cid)
    candidates = [enforce_boundary_consistency(complex, base)]
    # trivial feasible answers: best single ranked 0-cell, each ranked
    # 1-cell's closure
    candidates += [frozenset([r.cell_id]) for r in assignment.ranked0
                   if r.cell_id in vset and r.prize > 0]
    candidates += [enforce_boundary_consistency(complex, {r.cell_id})
                   for r in assignment.ranked1
                   if complex.boundary(r.cell_id)[0] in vset and r.prize > 0]

    def objective_of(sel: frozenset[int]) -> float:
        prize, cost = selection_objective(complex, assignment, sel)
        return prize - cost

    current = min(candidates,
                  key=lambda sel: (-objective_of(sel), len(sel),
                                   tuple(sorted(sel))))

    def with_two_cell(selection: frozenset[int], cid: int) -> frozenset[int] | None:
        """Closure of selection plus the 2-cell, connected if needed."""
        cycle = set(complex.cycle_vertices(cid))
        if not cycle <= vset:
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
    seeds = {r.cell_id for r in assignment.ranked0 if r.prize > 0}
    seeds.update(complex.boundary(r.cell_id)[0]
                 for r in assignment.ranked1 if r.prize > 0)
    seeds.update(complex.cycle_vertices(cid)[0] for cid in selected2)

    if not seeds:
        if fallback is None:
            raise EmptyCandidates("no cell has positive prize")
        return _make_subcomplex(complex, assignment,
                                [frozenset([fallback[0]])], degenerate=True)

    selections = [
        _solve_component(complex, assignment, comp, selected2)
        for comp in complex.components if not seeds.isdisjoint(comp)
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
