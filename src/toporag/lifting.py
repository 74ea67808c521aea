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
from collections import deque
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CellComplex:
    """An immutable 2-dimensional cell complex over a textual graph.

    ``coboundary[c]`` lists the cofaces of cell ``c`` in ascending id;
    for a vertex these are its 1-cells, a self-loop once. ``components``
    holds the sorted vertex ids of each connected component of the
    graph, found by the traversal that grows the spanning forest.
    ``embeddings`` is a float32 ``(num_cells, d)`` matrix whose row
    ``c`` is cell ``c``'s vector; ``fingerprint`` names the provider
    that embedded the texts.
    """

    graph: TextualGraph
    cells: tuple[Cell, ...]
    n0: int
    n1: int
    n2: int
    coboundary: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]
    tree_edges: frozenset[int]
    policy: SpanningTreePolicy
    embeddings: np.ndarray
    fingerprint: str = ""

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


def _adjacency(graph: TextualGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (edge index, other endpoint), in edge order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_nodes)]
    for idx, edge in enumerate(graph.edges):
        adj[edge.src].append((idx, edge.dst))
        if edge.dst != edge.src:
            adj[edge.dst].append((idx, edge.src))
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


def _rooted_forest(graph: TextualGraph, policy: SpanningTreePolicy):
    """The spanning forest ``policy`` grows, as ``grow_forest`` returns it,
    each tree rooted at its smallest vertex.

    DFS and BFS scan neighbors in edge order; random runs Kruskal over
    the edge order shuffled by the policy seed, then roots that forest
    by a BFS over its tree edges. Self-loops never enter the forest.
    """
    adj = _adjacency(graph)
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
            tree.add(idx)
    return grow_forest(range(graph.num_nodes), lambda v: [
        (idx, w) for idx, w in adj[v] if idx in tree])


def _fundamental_cycle(forest, edge_index: int,
                       edge: Edge) -> tuple[list[int], list[int]]:
    """Path in a rooted forest from the smaller endpoint of a non-tree
    edge to the other, closed by that edge: (vertices, edges). Both
    endpoints lie in one tree of the forest."""
    parent, parent_edge, depth = forest[:3]
    start, goal = min(edge.src, edge.dst), max(edge.src, edge.dst)
    up_a, edges_a = [start], []
    up_b, edges_b = [goal], []
    a, b = start, goal
    while a != b:  # climb the deeper side; at equal depth, either
        if depth[a] >= depth[b]:
            edges_a.append(parent_edge[a])
            a = parent[a]
            up_a.append(a)
        else:
            edges_b.append(parent_edge[b])
            b = parent[b]
            up_b.append(b)
    return (up_a + up_b[-2::-1] + [start],
            edges_a + edges_b[::-1] + [edge_index])


def lift_graph(graph: TextualGraph, node_vecs: list[np.ndarray],
               edge_vecs: list[np.ndarray],
               policy: SpanningTreePolicy = DFS,
               fingerprint: str = "") -> CellComplex:
    """Lift ``graph`` into a cell complex.

    One 0-cell per node, one 1-cell per edge, and one 2-cell per
    non-tree, non-self-loop edge of the forest ``policy`` grows, glued
    along its fundamental cycle. A 2-cell's embedding is the mean, taken
    in float64, of its cycle's 0/1-cell embeddings. Self-loops are
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
    forest = _rooted_forest(graph, policy)
    tree = frozenset(forest[1].values())
    # every non-loop edge outside the forest (which holds no loop) is a 2-cell
    n2 = sum(edge.src != edge.dst for edge in graph.edges) - len(tree)
    z = np.empty((n0 + n1 + n2, dims.pop()[0] if dims else 0), dtype=np.float32)
    z[:n0 + n1] = np.array([*node_vecs, *edge_vecs],
                           dtype=np.float32).reshape(n0 + n1, z.shape[1])
    z0, z1 = z[:n0], z[n0:n0 + n1]
    cells = [Cell(id=v, dim=0) for v in range(n0)]
    two_cells = []
    coboundary = [[] for _ in range(n0 + n1 + n2)]
    for idx, edge in enumerate(graph.edges):
        boundary = (edge.src,) if edge.src == edge.dst else (edge.src, edge.dst)
        cells.append(Cell(id=n0 + idx, dim=1, boundary=boundary))
        for v in boundary:
            coboundary[v].append(n0 + idx)
        if len(boundary) == 1:
            logger.warning("self-loop edge %d excluded from 2-cell attachment", idx)
            continue
        if idx in tree:
            continue
        cid = n0 + n1 + len(two_cells)
        vertices, edges = _fundamental_cycle(forest, idx, edge)
        cycle = tuple(n0 + e for e in edges)
        two_cells.append(Cell(id=cid, dim=2, boundary=cycle,
                              walk=tuple(zip(vertices, cycle))))
        for ecid in cycle:
            coboundary[ecid].append(cid)
        members = [z0[v] for v in vertices[:-1]] + [z1[e] for e in edges]
        z[cid] = np.array(members, dtype=np.float64).mean(axis=0)

    return CellComplex(
        graph=graph,
        cells=(*cells, *two_cells),
        n0=n0, n1=n1, n2=n2,
        coboundary=tuple(tuple(c) for c in coboundary),
        components=tuple(tuple(sorted(c)) for c in forest[3]),
        tree_edges=tree,
        policy=policy,
        embeddings=z,
        fingerprint=fingerprint,
    )


def betti1(graph: TextualGraph, count_self_loops: bool = False) -> int:
    """First Betti number: independent cycles, summed per component.

    Defaults to excluding self-loops so the value matches the number
    of attachable 2-cells; with ``count_self_loops`` each loop adds 1.
    """
    n_components = len(_rooted_forest(graph, BFS)[3])
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
