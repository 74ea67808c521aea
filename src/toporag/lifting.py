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
embedding matrix is cell ``c``'s vector, so the cells of one dimension
are a row slice.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SelfLoopExcluded, ValidationError
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


@dataclass(frozen=True)
class Cell:
    """One cell of the complex.

    ``boundary`` lists cell ids of dimension ``dim - 1``: the two
    endpoint 0-cells of a 1-cell (one entry for a flagged self-loop),
    or the ordered 1-cells around a 2-cell's attaching cycle. For
    2-cells, ``walk`` spells the closed cycle as (vertex cell id,
    edge cell id) steps: vertex i is joined to vertex i+1 (mod n) by
    edge i.
    """

    id: int
    dim: int
    boundary: tuple[int, ...] = ()
    walk: tuple[tuple[int, int], ...] = ()

    @property
    def is_self_loop(self) -> bool:
        return self.dim == 1 and len(self.boundary) == 1


@dataclass(frozen=True)
class CellComplex:
    """An immutable 2-dimensional cell complex over a textual graph.

    ``coboundary[c]`` lists the cofaces of cell ``c`` in ascending id;
    for a vertex these are its 1-cells, a self-loop once. ``components``
    holds the sorted vertex ids of each connected component of the
    graph, found once when the skeleton is built. ``embeddings`` is a
    float32 ``(num_cells, d)`` matrix whose row ``c`` is cell ``c``'s
    vector; ``fingerprint`` names the provider that embedded the texts.
    """

    graph: TextualGraph
    cells: tuple[Cell, ...]
    n0: int
    n1: int
    n2: int
    coboundary: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[int]
    policy: SpanningTreePolicy | None
    embeddings: np.ndarray
    fingerprint: str = ""
    self_loop_edges: frozenset[int] = field(default_factory=frozenset)

    @property
    def num_cells(self) -> int:
        return self.n0 + self.n1 + self.n2

    def cell_ids(self, dim: int) -> range:
        if dim == 0:
            return range(self.n0)
        if dim == 1:
            return range(self.n0, self.n0 + self.n1)
        if dim == 2:
            return range(self.n0 + self.n1, self.num_cells)
        raise ValueError(f"no cells of dimension {dim}")

    def one_cell_id(self, edge_index: int) -> int:
        return self.n0 + edge_index

    def edge_index(self, cell_id: int) -> int:
        if not self.n0 <= cell_id < self.n0 + self.n1:
            raise ValueError(f"cell {cell_id} is not a 1-cell")
        return cell_id - self.n0

    def vector(self, cell_id: int) -> np.ndarray:
        return self.embeddings[cell_id]


def _adjacency(graph: TextualGraph,
               edge_filter=None) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (edge index, other endpoint), in edge order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_nodes)]
    for idx, edge in enumerate(graph.edges):
        if edge_filter is not None and idx not in edge_filter:
            continue
        adj[edge.src].append((idx, edge.dst))
        if edge.dst != edge.src:
            adj[edge.dst].append((idx, edge.src))
    return adj


def _bfs_forest(adj: list[list[tuple[int, int]]]):
    """Breadth-first spanning forest over an ``_adjacency`` list.

    Each tree is rooted at the smallest vertex not yet reached, and
    adjacency lists are scanned in edge order. Returns ``(parent,
    parent_edge, depth, components)``: per-vertex parent vertex and the
    edge index joining them (-1 at roots), depth below the root, and
    each component's vertices in visiting order.
    """
    n = len(adj)
    parent, parent_edge, depth = [-1] * n, [-1] * n, [0] * n
    seen = [False] * n
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:  # comp is the queue: the loop reaches appended vertices
            for idx, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w], parent_edge[w] = v, idx
                    depth[w] = depth[v] + 1
                    comp.append(w)
        components.append(comp)
    return parent, parent_edge, depth, components


def connected_components(graph: TextualGraph) -> list[list[int]]:
    """Vertex lists of the graph's connected components, each sorted."""
    return [sorted(comp) for comp in _bfs_forest(_adjacency(graph))[3]]


def build_skeleton(graph: TextualGraph, node_vecs: list[np.ndarray],
                   edge_vecs: list[np.ndarray],
                   fingerprint: str = "") -> CellComplex:
    """Build the 1-skeleton: one 0-cell per node, one 1-cell per edge."""
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
    cells = [Cell(id=v, dim=0) for v in range(n0)]
    self_loops = set()
    for idx, edge in enumerate(graph.edges):
        if edge.src == edge.dst:
            self_loops.add(idx)
            boundary = (edge.src,)
        else:
            boundary = (edge.src, edge.dst)
        cells.append(Cell(id=n0 + idx, dim=1, boundary=boundary))

    coboundary = [[] for _ in range(n0 + n1)]
    for idx, edge in enumerate(graph.edges):
        cid = n0 + idx
        coboundary[edge.src].append(cid)
        if edge.dst != edge.src:
            coboundary[edge.dst].append(cid)

    dim = dims.pop()[0] if dims else 0
    return CellComplex(
        graph=graph,
        cells=tuple(cells),
        n0=n0, n1=n1, n2=0,
        coboundary=tuple(tuple(c) for c in coboundary),
        components=tuple(tuple(c) for c in connected_components(graph)),
        tree_edges=frozenset(),
        policy=None,
        embeddings=np.array([*node_vecs, *edge_vecs],
                            dtype=np.float32).reshape(n0 + n1, dim),
        fingerprint=fingerprint,
        self_loop_edges=frozenset(self_loops),
    )


def spanning_tree(graph: TextualGraph,
                  policy: SpanningTreePolicy = DFS) -> frozenset[int]:
    """Edge indices of a spanning forest (one tree per component).

    DFS and BFS start from the smallest vertex of each component and
    scan neighbors in edge order; random shuffles the edge order with
    the policy seed and runs Kruskal. Self-loops never enter the
    forest. Always ``|T| == |V| - #components``.
    """
    n = graph.num_nodes
    tree: set[int] = set()
    if policy.kind == "random":
        order = list(range(graph.num_edges))
        random.Random(policy.seed).shuffle(order)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx in order:
            edge = graph.edges[idx]
            ru, rv = find(edge.src), find(edge.dst)
            if ru != rv:
                parent[ru] = rv
                tree.add(idx)
        return frozenset(tree)

    adj = _adjacency(graph)
    if policy.kind == "bfs":
        return frozenset(idx for idx in _bfs_forest(adj)[1] if idx != -1)
    seen = [False] * n
    for root in range(n):  # dfs, recursion order over adjacency lists
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            _, neighbors = stack[-1]
            for idx, w in neighbors:
                if not seen[w]:
                    seen[w] = True
                    tree.add(idx)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
    return frozenset(tree)


class _RootedForest:
    """Spanning forest rooted per component, for O(path) tree paths."""

    def __init__(self, graph: TextualGraph, tree: frozenset[int]):
        self.parent, self.parent_edge, self.depth, _ = _bfs_forest(
            _adjacency(graph, edge_filter=tree))

    def path(self, start: int, goal: int) -> tuple[list[int], list[int]]:
        """Unique forest path from start to goal: (vertices, edges)."""
        up_a, edges_a = [start], []
        up_b, edges_b = [goal], []
        a, b = start, goal
        while self.depth[a] > self.depth[b]:
            edges_a.append(self.parent_edge[a])
            a = self.parent[a]
            up_a.append(a)
        while self.depth[b] > self.depth[a]:
            edges_b.append(self.parent_edge[b])
            b = self.parent[b]
            up_b.append(b)
        while a != b:
            if self.parent[a] == -1:
                raise ValidationError(
                    f"vertices {start} and {goal} are in different components")
            edges_a.append(self.parent_edge[a])
            a = self.parent[a]
            up_a.append(a)
            edges_b.append(self.parent_edge[b])
            b = self.parent[b]
            up_b.append(b)
        vertices = up_a + up_b[-2::-1]
        edges = edges_a + edges_b[::-1]
        return vertices, edges


def find_fundamental_cycle(graph: TextualGraph, edge_index: int,
                           tree: frozenset[int],
                           forest: _RootedForest | None = None,
                           ) -> tuple[list[int], list[int]]:
    """Closed cycle induced by a non-tree edge: tree path plus the edge.

    Returns ``(vertices, edges)`` where ``vertices[0] == vertices[-1]``
    is the smaller endpoint of the non-tree edge and ``edges[i]`` joins
    ``vertices[i]`` to ``vertices[i+1]``; the non-tree edge comes last.
    """
    if edge_index in tree:
        raise ValueError(f"edge {edge_index} is a tree edge")
    edge = graph.edges[edge_index]
    if edge.src == edge.dst:
        raise SelfLoopExcluded(
            f"self-loop edge {edge_index} at vertex {edge.src} induces no 2-cell")
    if forest is None:
        forest = _RootedForest(graph, tree)
    start, other = min(edge.src, edge.dst), max(edge.src, edge.dst)
    vertices, edges = forest.path(start, other)
    vertices.append(start)
    edges.append(edge_index)
    return vertices, edges


def aggregate_cycle_embedding(cycle: tuple[list[int], list[int]],
                              z0: np.ndarray, z1: np.ndarray,
                              mode: str = "mean") -> np.ndarray:
    """Pool the 0- and 1-cell embeddings around a cycle into one vector.

    ``z0``/``z1`` are the per-node and per-edge embedding matrices;
    ``mode`` is ``"mean"`` or ``"max"``.
    """
    vertices, edges = cycle
    members = [z0[v] for v in vertices[:-1]] + [z1[e] for e in edges]
    if not members:
        raise ValueError("empty cycle")
    stack = np.array(members, dtype=np.float64)
    if stack.ndim != 2:
        raise DimensionMismatch("cycle members have mixed dimensions")
    if mode == "mean":
        pooled = stack.mean(axis=0)
    elif mode == "max":
        pooled = stack.max(axis=0)
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    return pooled.astype(np.float32)


def attach_two_cells(skeleton: CellComplex, tree: frozenset[int],
                     policy: SpanningTreePolicy | None = None) -> CellComplex:
    """Attach one 2-cell per non-tree, non-self-loop edge.

    2-cell embeddings are pooled from the boundary cycle's 0/1-cell
    embeddings. Self-loops are logged and skipped: a one-edge cycle
    cannot bound a regular disk.
    """
    graph = skeleton.graph
    n0, n1 = skeleton.n0, skeleton.n1
    cells = list(skeleton.cells[:n0 + n1])
    coboundary = [list(c) for c in skeleton.coboundary[:n0 + n1]]

    z = skeleton.embeddings
    z0, z1 = z[:n0], z[n0:n0 + n1]
    z2_rows = []
    next_id = n0 + n1
    forest = _RootedForest(graph, tree)
    for idx in range(graph.num_edges):
        if idx in tree:
            continue
        if idx in skeleton.self_loop_edges:
            logger.warning("self-loop edge %d excluded from 2-cell attachment", idx)
            continue
        vertices, edges = find_fundamental_cycle(graph, idx, tree, forest=forest)
        walk = tuple(
            (vertices[i], skeleton.one_cell_id(edges[i]))
            for i in range(len(edges))
        )
        boundary = tuple(skeleton.one_cell_id(e) for e in edges)
        cells.append(Cell(id=next_id, dim=2, boundary=boundary, walk=walk))
        for ecid in boundary:
            coboundary[ecid].append(next_id)
        z2_rows.append(aggregate_cycle_embedding((vertices, edges), z0, z1))
        next_id += 1

    n2 = next_id - n0 - n1
    coboundary.extend([] for _ in range(n2))

    return CellComplex(
        graph=graph,
        cells=tuple(cells),
        n0=n0, n1=n1, n2=n2,
        coboundary=tuple(tuple(c) for c in coboundary),
        components=skeleton.components,
        tree_edges=tree,
        policy=policy,
        embeddings=np.concatenate([
            z[:n0 + n1],
            np.array(z2_rows, dtype=np.float32).reshape(n2, z.shape[1])]),
        fingerprint=skeleton.fingerprint,
        self_loop_edges=skeleton.self_loop_edges,
    )


def lift_graph(graph: TextualGraph, node_vecs: list[np.ndarray],
               edge_vecs: list[np.ndarray],
               policy: SpanningTreePolicy = DFS,
               fingerprint: str = "") -> CellComplex:
    """Full lifting: skeleton, spanning forest, 2-cell attachment."""
    skeleton = build_skeleton(graph, node_vecs, edge_vecs, fingerprint=fingerprint)
    tree = spanning_tree(graph, policy)
    return attach_two_cells(skeleton, tree, policy=policy)


def betti1(graph: TextualGraph, count_self_loops: bool = False) -> int:
    """First Betti number: independent cycles, summed per component.

    Defaults to excluding self-loops so the value matches the number
    of attachable 2-cells; with ``count_self_loops`` each loop adds 1.
    """
    n_components = len(connected_components(graph))
    n_edges = graph.num_edges
    if not count_self_loops:
        n_edges -= sum(1 for e in graph.edges if e.src == e.dst)
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
        for ecid in complex.cells[cid].boundary:
            row ^= 1 << complex.edge_index(ecid)
        rows.append(row)
    rank = gf2_rank(rows)
    return CycleBasisReport(
        rank_gf2=rank,
        independent=rank == complex.n2,
        spans=rank == betti1(complex.graph, count_self_loops=False),
    )
