"""Lift a textual graph into a regular cell complex.

The 1-skeleton mirrors the graph (vertices become 0-cells, edges
1-cells). A spanning forest is fixed, and every non-tree, non-self-loop
edge contributes one 2-cell glued along its fundamental cycle: the
unique tree path between the edge's endpoints plus the edge itself.
The number of 2-cells therefore equals the cyclomatic number
``|E| - |V| + #components`` (self-loops excluded), and the fundamental
cycles form a basis of the graph's cycle space, which
:func:`verify_cycle_basis` certifies from the forest's arrays.

Cell ids are dense and dimension-ordered: 0-cells are ``0..n0-1``
(equal to node ids), 1-cells ``n0..n0+n1-1`` (in edge order), 2-cells
after that (in non-tree-edge order). :class:`CellComplex` is arrays: the
forest's power-of-two ancestor table and, per 2-cell, its non-tree 1-cell,
cycle length and lowest common ancestor (LCA); cycles are built when read.
"""

from __future__ import annotations

import logging
import random
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .graph_io import TextualGraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpanningTreePolicy:
    """How the spanning forest is grown: dfs, bfs, or random(seed)."""

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("dfs", "bfs", "random"):
            raise ValueError(f"unknown spanning tree policy {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.seed}" if self.kind == "random" else self.kind


DFS = SpanningTreePolicy("dfs")
BFS = SpanningTreePolicy("bfs")
CellView = namedtuple("CellView", "id dim boundary")  # see CellComplex.cells


@dataclass(frozen=True)
class CellComplex:
    """An immutable 2-dimensional cell complex over a textual graph.

    Edge ``i`` joins ``edge_src[i]`` and ``edge_dst[i]`` (int32; equal for a
    self-loop). Int32 ``parent_edge`` (-1 at a root) and ``ancestors`` (row k
    the 2^k-th ancestors, -1 above a root; last slot -1's own) hold the forest;
    2-cell ``j``, of ``cycle_lengths[j]`` 1-cells, closes non-tree 1-cell
    ``two_edge[j]``, whose ends meet at ``two_lca[j]``. Vertex ``v``'s
    non-loop 1-cells and other ends are ``adj_edge``/``adj_other`` over
    ``adj_ptr[v]:adj_ptr[v + 1]``. Int32 ``component[v]`` numbers v's tree,
    in the order of each tree's smallest vertex; row ``c`` of the float32
    ``embeddings`` is 0- or 1-cell ``c``'s vector (see :meth:`vector`);
    ``fingerprint`` names the provider."""

    graph: TextualGraph
    n0: int
    n1: int
    n2: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    ancestors: np.ndarray
    parent_edge: np.ndarray
    two_edge: np.ndarray
    two_lca: np.ndarray
    cycle_lengths: np.ndarray
    adj_ptr: np.ndarray
    adj_edge: np.ndarray
    adj_other: np.ndarray
    component: np.ndarray
    policy: SpanningTreePolicy
    embeddings: np.ndarray
    fingerprint: str = ""

    @property
    def num_cells(self) -> int:
        return self.n0 + self.n1 + self.n2

    def cell_ids(self, dim: int) -> range:
        if dim not in (0, 1, 2):
            raise ValueError(f"no cells of dimension {dim}")
        bounds = (0, self.n0, self.n0 + self.n1, self.num_cells)
        return range(bounds[dim], bounds[dim + 1])

    def dim(self, cell_id: int) -> int:
        n01 = self.n0 + self.n1
        if not 0 <= cell_id < n01 + self.n2:
            raise ValueError(f"no cell {cell_id}")
        return 0 if cell_id < self.n0 else 1 if cell_id < n01 else 2

    def boundary(self, cell_id: int) -> tuple[int, ...]:
        """A 1-cell's endpoints (one for a self-loop), a 2-cell's 1-cells in
        walk order, the non-tree edge last (see :meth:`cycle_vertices`)."""
        i = cell_id - self.n0
        if 0 <= i < self.n1:
            src, dst = self.edge_src.item(i), self.edge_dst.item(i)
            return (src,) if src == dst else (src, dst)
        return () if self.dim(cell_id) == 0 else tuple(self._cycle(cell_id)[1])

    def neighbors(self, vertex: int) -> list[tuple[int, int]]:
        """``(1-cell id, other endpoint)`` per non-loop 1-cell, ascending."""
        if not 0 <= vertex < self.n0:
            raise ValueError(f"no vertex {vertex}")
        start, stop = self.adj_ptr.item(vertex), self.adj_ptr.item(vertex + 1)
        return list(zip(self.adj_edge[start:stop].tolist(),
                        self.adj_other[start:stop].tolist()))

    @cached_property
    def cells(self) -> tuple[CellView, ...]:
        """Read-only ``(id, dim, boundary)`` records, for perfbench."""
        return tuple(CellView(c, self.dim(c), self.boundary(c)) for c in range(self.num_cells))

    def vector(self, cell_id: int) -> np.ndarray:
        """A 0- or 1-cell's row; a 2-cell's is computed on each read: the
        float64 mean of its cycle's vertex then edge rows in walk order."""
        if 0 <= cell_id < self.n0 + self.n1:
            return self.embeddings[cell_id]
        rows = sum(self._cycle(cell_id), [])  # the walk's vertices, then its 1-cells
        return self.embeddings[rows].astype(np.float64).mean(axis=0).astype(np.float32)

    def cycle_vertices(self, cell_id: int) -> list[int]:
        """A 2-cell's cycle vertices in walk order: vertex i is joined to
        vertex i+1 (mod n) by boundary 1-cell i."""
        return self._cycle(cell_id)[0]

    def _cycle(self, cell_id: int) -> tuple[list[int], list[int]]:
        """A 2-cell's walk and boundary: from the smaller end of its non-tree
        1-cell up to the ends' LCA, down to the other end, back over it."""
        if self.dim(cell_id) != 2:
            raise ValueError(f"cell {cell_id} is not a 2-cell")
        j = cell_id - self.n0 - self.n1
        edge, top = self.two_edge.item(j), self.two_lca.item(j)
        walk, path, (parent, parent_edge) = ([], []), ([], []), self._forest_lists
        for side, v in enumerate(sorted(self.boundary(edge))):
            while v != top:
                if v < 0:
                    raise ValueError(f"2-cell {cell_id}: its LCA {top} is not "
                                     f"on both root paths of 1-cell {edge}")
                walk[side].append(v)
                path[side].append(parent_edge[v])
                v = parent[v]
        return walk[0] + [top] + walk[1][::-1], path[0] + path[1][::-1] + [edge]

    @cached_property
    def adj_owner(self) -> np.ndarray:
        """Each adjacency entry's vertex: ``v`` over ``adj_ptr[v]:adj_ptr[v + 1]``."""
        return np.repeat(np.arange(self.n0), np.diff(self.adj_ptr))

    @cached_property
    def _forest_lists(self) -> tuple[list[int], list[int]]:
        """Row 0 of ``ancestors`` and ``parent_edge`` as Python lists, which
        a climb indexes faster than arrays."""
        return self.ancestors[0].tolist(), self.parent_edge.tolist()


def _adjacency(graph: TextualGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex (1-cell id, other endpoint) pairs in edge order,
    self-loops left out: the lift's forests grow over these lists."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_nodes)]
    for ecid, edge in enumerate(graph.edges, graph.num_nodes):
        if edge.src != edge.dst:
            adj[edge.src].append((ecid, edge.dst))
            adj[edge.dst].append((ecid, edge.src))
    return adj


def grow_forest(roots, neighbors, depth_first: bool = False):
    """The spanning forest a traversal grows from each unreached root.

    ``neighbors(v)`` gives ``(edge, w)`` pairs in scan order. A vertex is
    taken when it leaves a deque of (vertex, parent, edge) entries:
    depth-first pops the end and pushes neighbors in reverse, the order
    of a recursive DFS; breadth-first pops the front, the order of a
    queue BFS. State is keyed by the vertices reached, so a call costs
    what it reaches. Returns ``(parent, parent_edge, depth, trees)``:
    the parent vertex and joining edge of every reached non-root vertex
    (both dicts in visiting order), every reached vertex's depth below
    its root, and each tree's vertices in visiting order.
    """
    parent, parent_edge, depth, trees = {}, {}, {}, []
    for root in roots:
        if root in depth:
            continue
        tree = []
        pending = deque([(root, None, None)])
        take = pending.pop if depth_first else pending.popleft
        while pending:
            v, p, e = take()
            if v in depth:
                continue
            if p is None:
                depth[v] = 0
            else:
                parent[v], parent_edge[v], depth[v] = p, e, depth[p] + 1
            tree.append(v)
            step = [(w, v, edge) for edge, w in neighbors(v) if w not in depth]
            pending.extend(reversed(step) if depth_first else step)
        trees.append(tree)
    return parent, parent_edge, depth, trees


def _rooted_forest(graph: TextualGraph, adj, policy: SpanningTreePolicy):
    """The spanning forest ``policy`` grows over the adjacency ``adj``,
    as ``grow_forest`` returns it, each tree rooted at its smallest vertex.

    DFS and BFS scan neighbors in edge order; random runs Kruskal over
    the edge order shuffled by the policy seed, then roots that forest
    by a BFS over its tree edges. Self-loops never enter the forest.
    """
    if policy.kind != "random":
        return grow_forest(range(graph.num_nodes), adj.__getitem__,
                           depth_first=policy.kind == "dfs")
    order = list(range(graph.num_edges))
    random.Random(policy.seed).shuffle(order)
    root = list(range(graph.num_nodes))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    tree = set()
    for idx in order:
        edge = graph.edges[idx]
        ru, rv = find(edge.src), find(edge.dst)
        if ru != rv:
            root[ru] = rv
            tree.add(graph.num_nodes + idx)
    return grow_forest(range(graph.num_nodes), lambda v: [
        (ecid, w) for ecid, w in adj[v] if ecid in tree])


def _climb(table, v: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Each ``v``'s ancestor ``gap`` steps up: one row per set bit of ``gap``."""
    for k, up in enumerate(table):
        v = np.where(gap >> k & 1, up[v], v)
    return v


def lift_graph(graph: TextualGraph, node_vecs: list[np.ndarray],
               edge_vecs: list[np.ndarray],
               policy: SpanningTreePolicy = DFS,
               fingerprint: str = "") -> CellComplex:
    """Lift ``graph`` into a cell complex.

    One 0-cell per node, one 1-cell per edge, and one 2-cell per non-tree,
    non-self-loop edge of the forest ``policy`` grows, glued along its
    fundamental cycle. Stored are the forest's ancestor table, each 2-cell's
    LCA (found by binary lifting over it) and length, and the node and edge
    vectors; cycles and 2-cell vectors are built when read.
    Self-loops are logged and skipped: a one-edge cycle cannot bound a disk.
    """
    if len(node_vecs) != graph.num_nodes:
        raise ValidationError(
            f"need {graph.num_nodes} node vectors, got {len(node_vecs)}")
    if len(edge_vecs) != graph.num_edges:
        raise ValidationError(
            f"need {graph.num_edges} edge vectors, got {len(edge_vecs)}")
    dims = {v.shape for v in node_vecs} | {v.shape for v in edge_vecs}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed embedding shapes: {sorted(dims)}")

    n0, n1 = graph.num_nodes, graph.num_edges
    adj = _adjacency(graph)
    forest = _rooted_forest(graph, adj, policy)  # parent, parent_edge, depth, trees
    tree, two_edge = {e - n0 for e in forest[1].values()}, []
    for idx, edge in enumerate(graph.edges):
        if edge.src == edge.dst:
            logger.warning("self-loop edge %d excluded from 2-cell attachment", idx)
        elif idx not in tree:
            two_edge.append(n0 + idx)
    label = {v: i for i, members in enumerate(forest[3]) for v in members}  # by root
    arrays = {name: np.array(values, dtype=np.int32) for name, values in (
        ("edge_src", [e.src for e in graph.edges]),
        ("edge_dst", [e.dst for e in graph.edges]),
        ("parent", [forest[0].get(v, -1) for v in range(n0)] + [-1]),
        ("per_vertex", [[forest[1].get(v, -1) for v in range(n0)],
                        [label[v] for v in range(n0)]]),
        ("depth", [forest[2][v] for v in range(n0)]),
        ("two_edge", two_edge),
        ("adj_edge", [e for pairs in adj for e, _ in pairs]),
        ("adj_other", [w for pairs in adj for _, w in pairs]))}
    arrays["parent_edge"], arrays["component"] = arrays.pop("per_vertex")  # one call
    depth, table = arrays.pop("depth"), [arrays.pop("parent")]
    for _ in range(1, int(depth.max(initial=1)).bit_length()):  # >= 1 row
        table.append(table[-1][table[-1]])  # 2^(k+1) up is 2^k up, twice
    # each 2-cell's LCA by binary lifting: the deeper end (row 0 of ends)
    # climbs the depth gap, then both ends climb each table row, top down,
    # at which their ancestors differ, and so stop below the LCA
    src, dst = (arrays[end][arrays["two_edge"] - n0] for end in ("edge_src", "edge_dst"))
    gap = depth[src] - depth[dst]
    ends, gap = np.where(gap >= 0, [src, dst], [dst, src]), np.abs(gap)
    ends[0] = _climb(table, ends[0], gap)
    for up in table[::-1]:
        above = up[ends]
        ends = np.where(above[0] != above[1], above, ends)
    top = np.where(ends[0] == ends[1], ends[0], table[0][ends[0]])
    z = np.array([*node_vecs, *edge_vecs], dtype=np.float32).reshape(
        n0 + n1, dims.pop()[0] if dims else 0)
    return CellComplex(
        graph=graph, n0=n0, n1=n1, n2=len(two_edge), **arrays,
        ancestors=np.stack(table), two_lca=top,
        cycle_lengths=depth[src] + depth[dst] - 2 * depth[top] + 1,
        adj_ptr=np.cumsum([0] + [len(pairs) for pairs in adj], dtype=np.int64),
        policy=policy, embeddings=z, fingerprint=fingerprint)


@dataclass(frozen=True)
class CycleBasisReport:
    """``rank_gf2`` counts the 2-cells certified as distinct fundamental
    cycles, so independent over GF(2); ``betti1``, non-loop 1-cells - n0 +
    trees, is the cyclomatic number once the certificate holds."""

    rank_gf2: int
    independent: bool
    spans: bool
    betti1: int


def verify_cycle_basis(complex: CellComplex) -> CycleBasisReport:
    """Certify from the forest's arrays, in O(n0 log depth + n1) and reading
    no cycle, that the 2-cells are a cycle-space basis: fundamental cycles
    of distinct non-tree 1-cells are independent, and span once they cover
    every one (Kavitha et al., "Cycle bases in graphs", Comput. Sci. Rev.
    2009). The checks below show the arrays are such a forest and cycles."""
    n0, n1, table = complex.n0, complex.n1, complex.ancestors
    src, dst, up = complex.edge_src, complex.edge_dst, complex.parent_edge
    loop, child, parent = src == dst, np.flatnonzero(up != -1), table[0]
    edge, top, tree = complex.two_edge - n0, complex.two_lca, up[child] - n0
    betti1 = n1 - int(loop.sum()) - len(child)  # each non-root has a tree 1-cell
    if not (  # ids in range first, so the checks after them index safely
            table.shape[1] == n0 + 1 and ((table >= -1) & (table < n0)).all()
            and (table[:, n0] == -1).all() and ((tree >= 0) & (tree < n1)).all()
            and ((edge >= 0) & (edge < n1)).all() and ((top >= 0) & (top < n0)).all()
            and np.array_equal(parent[:n0] == -1, up == -1)  # roots: -1 in both
            and np.array_equal(np.sort([src[tree], dst[tree]], axis=0),  # child-parent
                               np.sort([child, parent[child]], axis=0))
            # each row the one below squared, the top one squared all -1: no loops
            and np.array_equal(np.take_along_axis(table[:-1], table[:-1], axis=1),
                               table[1:])
            and (table[-1][table[-1]] == -1).all()):
        return CycleBasisReport(0, False, False, betti1)
    depth = np.append(np.ones(n0, int), 0)  # depth + 1: the vertices on a root path
    for row in table:
        depth = depth + depth[row]
    ends = np.array([src[edge], dst[edge]])
    gaps = depth[ends] - depth[top]
    below = _climb(table, ends, np.maximum(gaps - 1, 0))  # a step short of top
    roles = loop + np.bincount(tree, minlength=n1) + np.bincount(edge, minlength=n1)
    certified = ((roles[edge] == 1)  # neither a tree 1-cell, a loop nor shared
                 & (np.where(gaps > 0, parent[below], ends) == top).all(axis=0)
                 & ((gaps == 0).any(axis=0) | (below[0] != below[1]))  # lowest
                 & (complex.cycle_lengths == gaps.sum(axis=0) + 1))
    independent = bool(certified.all())
    return CycleBasisReport(int(certified.sum()), independent,
                            independent and bool((roles == 1).all()), betti1)
