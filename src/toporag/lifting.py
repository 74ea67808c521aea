"""Lift a textual graph into a regular cell complex.

The 1-skeleton mirrors the graph (vertices become 0-cells, edges
1-cells). A spanning forest is fixed, and every non-tree, non-self-loop
edge contributes one 2-cell glued along its fundamental cycle: the
unique tree path between the edge's endpoints plus the edge itself.
The number of 2-cells therefore equals the cyclomatic number
``|E| - |V| + #components`` (self-loops excluded), and the fundamental
cycles form a basis of the graph's cycle space, which
:func:`verify_cycle_basis` certifies by GF(2) rank.

Cell ids are dense and dimension-ordered: 0-cells are ``0..n0-1``
(equal to node ids), 1-cells ``n0..n0+n1-1`` (in edge order), 2-cells
after that (in non-tree-edge order). Row ``c`` of the complex's
embedding matrix is 0- or 1-cell ``c``'s vector; a 2-cell's is computed
when it is read. The complex is arrays, built once (see :class:`CellComplex`).
"""

from __future__ import annotations

import logging
import random
from array import array
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .graph_io import Edge, TextualGraph

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
    self-loop). Two CSRs (int64 offsets, int32 ids) hold 2-cell ``j``'s
    boundary, ``two_edges[two_ptr[j]:two_ptr[j + 1]]``, and vertex ``v``'s
    non-loop 1-cells and their other ends, ``adj_edge``/``adj_other`` over
    ``adj_ptr[v]:adj_ptr[v + 1]``. ``components`` holds each component's
    sorted vertices; row ``c`` of the float32 ``embeddings`` is 0- or 1-cell
    ``c``'s vector (see :meth:`vector`); ``fingerprint`` names the provider."""

    graph: TextualGraph
    n0: int
    n1: int
    n2: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    two_ptr: np.ndarray
    two_edges: np.ndarray
    adj_ptr: np.ndarray
    adj_edge: np.ndarray
    adj_other: np.ndarray
    components: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[int]
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
        if self.dim(cell_id) == 0:
            return ()
        start, stop = self.two_ptr.item(i - self.n1), self.two_ptr.item(i - self.n1 + 1)
        return tuple(self.two_edges[start:stop].tolist())

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

    def edge_index(self, cell_id: int) -> int:
        if not self.n0 <= cell_id < self.n0 + self.n1:
            raise ValueError(f"cell {cell_id} is not a 1-cell")
        return cell_id - self.n0

    def vector(self, cell_id: int) -> np.ndarray:
        """A 0- or 1-cell's row; a 2-cell's is computed on each read: the
        float64 mean of its cycle's vertex then edge rows in walk order."""
        if 0 <= cell_id < self.n0 + self.n1:
            return self.embeddings[cell_id]
        rows = self.cycle_vertices(cell_id) + list(self.boundary(cell_id))
        return self.embeddings[rows].astype(np.float64).mean(axis=0).astype(np.float32)

    def cycle_vertices(self, cell_id: int) -> list[int]:
        """A 2-cell's cycle vertices in walk order: vertex i is joined to
        vertex i+1 (mod n) by boundary 1-cell i. The walk starts at the
        smaller endpoint of the last 1-cell, the non-tree edge."""
        if self.dim(cell_id) != 2:
            raise ValueError(f"cell {cell_id} is not a 2-cell")
        *path, last = self.boundary(cell_id)
        vertices = [min(self.boundary(last))]
        for ecid in path:
            a, b = self.boundary(ecid)
            vertices.append(b if vertices[-1] == a else a)
        return vertices


def _adjacency(graph: TextualGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex (1-cell id, other endpoint) pairs in edge order,
    self-loops left out: the lift's forests grow over these lists."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_nodes)]
    for ecid, edge in enumerate(graph.edges, graph.num_nodes):
        if edge.src != edge.dst:
            adj[edge.src].append((ecid, edge.dst))
            adj[edge.dst].append((ecid, edge.src))
    return adj


def _arrays(graph: TextualGraph, adj) -> dict[str, np.ndarray]:
    """The :class:`CellComplex` arrays ``edge_src``, ``edge_dst`` and the
    adjacency CSR ``adj_ptr``, ``adj_edge``, ``adj_other`` of ``adj``."""
    return dict(
        edge_src=np.array([e.src for e in graph.edges], dtype=np.int32),
        edge_dst=np.array([e.dst for e in graph.edges], dtype=np.int32),
        adj_ptr=np.cumsum([0] + [len(pairs) for pairs in adj], dtype=np.int64),
        adj_edge=np.array([e for pairs in adj for e, _ in pairs], dtype=np.int32),
        adj_other=np.array([w for pairs in adj for _, w in pairs], dtype=np.int32))


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


def _fundamental_cycle(forest, ecid: int, edge: Edge) -> list[int]:
    """The 1-cell ids of the tree path in a rooted forest from the smaller
    endpoint of the non-tree 1-cell ``ecid`` to the other, closed by that
    1-cell. Both endpoints lie in one tree of the forest."""
    parent, parent_edge, depth = forest[:3]
    a, b = min(edge.src, edge.dst), max(edge.src, edge.dst)
    edges_a, edges_b = [], []
    while a != b:  # climb the deeper side; at equal depth, either
        if depth[a] >= depth[b]:
            edges_a.append(parent_edge[a])
            a = parent[a]
        else:
            edges_b.append(parent_edge[b])
            b = parent[b]
    return edges_a + edges_b[::-1] + [ecid]


def lift_graph(graph: TextualGraph, node_vecs: list[np.ndarray],
               edge_vecs: list[np.ndarray],
               policy: SpanningTreePolicy = DFS,
               fingerprint: str = "") -> CellComplex:
    """Lift ``graph`` into a cell complex.

    One 0-cell per node, one 1-cell per edge, and one 2-cell per
    non-tree, non-self-loop edge of the forest ``policy`` grows, glued
    along its fundamental cycle. Only the node and edge vectors are stored
    (:meth:`CellComplex.vector` computes a 2-cell's). Self-loops are
    logged and skipped: a one-edge cycle cannot bound a regular disk.
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
    forest = _rooted_forest(graph, adj, policy)
    tree = frozenset(ecid - n0 for ecid in forest[1].values())
    z = np.array([*node_vecs, *edge_vecs], dtype=np.float32).reshape(
        n0 + n1, dims.pop()[0] if dims else 0)
    two_ptr, two_edges = [0], array("i")  # int32 entries, grown in place
    for idx, edge in enumerate(graph.edges):
        if edge.src == edge.dst:
            logger.warning("self-loop edge %d excluded from 2-cell attachment", idx)
        elif idx not in tree:
            two_edges.extend(_fundamental_cycle(forest, n0 + idx, edge))
            two_ptr.append(len(two_edges))

    return CellComplex(
        graph=graph,
        n0=n0, n1=n1, n2=len(two_ptr) - 1,
        two_ptr=np.array(two_ptr, dtype=np.int64),
        two_edges=np.frombuffer(two_edges, dtype=np.int32),
        **_arrays(graph, adj),
        components=tuple(tuple(sorted(c)) for c in forest[3]),
        tree_edges=tree,
        policy=policy,
        embeddings=z,
        fingerprint=fingerprint,
    )


def betti1(graph: TextualGraph) -> int:
    """First Betti number: independent cycles, summed per component.

    Self-loops are excluded, so the value matches the number of
    attachable 2-cells.
    """
    n_components = len(_rooted_forest(graph, _adjacency(graph), BFS)[3])
    n_edges = sum(1 for e in graph.edges if e.src != e.dst)
    return n_edges - graph.num_nodes + n_components


def gf2_rank(rows: list[int]) -> int:
    """Rank of bitset rows over GF(2), by incremental elimination."""
    pivots: dict[int, int] = {}
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


@dataclass(frozen=True)
class CycleBasisReport:
    rank_gf2: int
    independent: bool
    spans: bool


def verify_cycle_basis(complex: CellComplex) -> CycleBasisReport:
    """Certify that the attached 2-cells form a cycle-space basis.

    Each 2-cell boundary becomes an edge-incidence bitvector over
    GF(2); full rank (== number of 2-cells) certifies independence,
    and matching the graph's cyclomatic number certifies spanning.
    """
    rows = []
    for cid in complex.cell_ids(2):
        row = 0
        for ecid in complex.boundary(cid):
            row ^= 1 << complex.edge_index(ecid)
        rows.append(row)
    rank = gf2_rank(rows)
    return CycleBasisReport(
        rank_gf2=rank,
        independent=rank == complex.n2,
        spans=rank == betti1(complex.graph),
    )
