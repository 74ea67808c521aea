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
    or the 1-cells around a 2-cell's attaching cycle in walk order, the
    non-tree edge last (see :meth:`CellComplex.cycle_vertices`).
    """

    id: int
    dim: int
    boundary: tuple[int, ...] = ()


@dataclass(frozen=True)
class CellComplex:
    """An immutable 2-dimensional cell complex over a textual graph.

    ``adjacency[v]`` lists ``(1-cell id, other endpoint)`` for each
    non-loop 1-cell at vertex ``v``, in ascending 1-cell id. ``components``
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
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
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

    def cycle_vertices(self, cell_id: int) -> list[int]:
        """A 2-cell's cycle vertices in walk order: vertex i is joined to
        vertex i+1 (mod n) by boundary 1-cell i. The walk starts at the
        smaller endpoint of the last 1-cell, the non-tree edge."""
        boundary = self.cells[cell_id].boundary
        vertices = [min(self.cells[boundary[-1]].boundary)]
        for ecid in boundary[:-1]:
            a, b = self.cells[ecid].boundary
            vertices.append(b if vertices[-1] == a else a)
        return vertices


def _adjacency(graph: TextualGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-vertex (1-cell id, other endpoint) pairs in edge order,
    self-loops left out. Each 1-cell id is one int object, which both
    endpoints, the forest's parent edges and the 2-cell boundaries share."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_nodes)]
    for ecid, edge in enumerate(graph.edges, graph.num_nodes):
        if edge.src != edge.dst:
            adj[edge.src].append((ecid, edge.dst))
            adj[edge.dst].append((ecid, edge.src))
    return tuple(map(tuple, adj))


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


def _fundamental_cycle(forest, ecid: int,
                       edge: Edge) -> tuple[list[int], list[int]]:
    """Path in a rooted forest from the smaller endpoint of the non-tree
    1-cell ``ecid`` to the other, closed by that 1-cell: (vertices,
    1-cell ids). Both endpoints lie in one tree of the forest."""
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
            edges_a + edges_b[::-1] + [ecid])


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
    adjacency = _adjacency(graph)
    forest = _rooted_forest(graph, adjacency, policy)
    tree = frozenset(ecid - n0 for ecid in forest[1].values())
    # every non-loop edge outside the forest (which holds no loop) is a 2-cell
    n2 = sum(edge.src != edge.dst for edge in graph.edges) - len(tree)
    z = np.empty((n0 + n1 + n2, dims.pop()[0] if dims else 0), dtype=np.float32)
    z[:n0 + n1] = np.array([*node_vecs, *edge_vecs],
                           dtype=np.float32).reshape(n0 + n1, z.shape[1])
    cells = [Cell(id=v, dim=0) for v in range(n0)]
    two_cells = []
    for idx, edge in enumerate(graph.edges):
        boundary = (edge.src,) if edge.src == edge.dst else (edge.src, edge.dst)
        cells.append(Cell(id=n0 + idx, dim=1, boundary=boundary))
        if len(boundary) == 1:
            logger.warning("self-loop edge %d excluded from 2-cell attachment", idx)
            continue
        if idx in tree:
            continue
        cid = n0 + n1 + len(two_cells)
        vertices, cycle = _fundamental_cycle(forest, n0 + idx, edge)
        two_cells.append(Cell(id=cid, dim=2, boundary=tuple(cycle)))
        z[cid] = z[vertices[:-1] + cycle].astype(np.float64).mean(axis=0)

    return CellComplex(
        graph=graph,
        cells=(*cells, *two_cells),
        n0=n0, n1=n1, n2=n2,
        adjacency=adjacency,
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
        for ecid in complex.cells[cid].boundary:
            row ^= 1 << complex.edge_index(ecid)
        rows.append(row)
    rank = gf2_rank(rows)
    return CycleBasisReport(
        rank_gf2=rank,
        independent=rank == complex.n2,
        spans=rank == betti1(complex.graph),
    )
