import random
import tracemalloc

import numpy as np
import pytest

from toporag.embedding import DeterministicProvider, embed_texts
from toporag.lifting import (BFS, DFS, SpanningTreePolicy, betti1, gf2_rank,
                             grow_forest, lift_graph, verify_cycle_basis)

import reference_lifting as ref
from helpers import (k4, lift, make_graph, messy_graph, path3,
                     random_connected_graph, triangle, two_triangles)
from reference_reasoning import cofaces, upper_adjacent

POLICIES = [DFS, BFS, SpanningTreePolicy("random", seed=11)]


def bare_lift(graph, policy, vec=np.zeros(2, dtype=np.float32)):
    """The complex with every node and edge embedded as ``vec``."""
    return lift_graph(graph, [vec] * graph.num_nodes,
                      [vec] * graph.num_edges, policy=policy)


def cycles_of(cx):
    """Each 2-cell's cycle as (vertices, edge indices), the first vertex
    repeated at the end."""
    cycles = []
    for cid in cx.cell_ids(2):
        walk = cx.cycle_vertices(cid)
        cycles.append((walk + walk[:1],
                       [cx.edge_index(e) for e in cx.boundary(cid)]))
    return cycles


def numpy_gf2_rank(rows_as_sets, n_cols):
    """Independent GF(2) rank oracle: dense elimination mod 2."""
    if not rows_as_sets:
        return 0
    mat = np.zeros((len(rows_as_sets), n_cols), dtype=np.int64)
    for i, cols in enumerate(rows_as_sets):
        for c in cols:
            mat[i, c] = 1
    rank, row = 0, 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[row, pivot]] = mat[[pivot, row]]
        for r in range(len(mat)):
            if r != row and mat[r, col]:
                mat[r] = (mat[r] + mat[row]) % 2
        rank += 1
        row += 1
    return rank


# --- skeleton ---

def test_path_graph_skeleton_counts():
    cx = lift(path3())
    assert (cx.n0, cx.n1, cx.n2) == (3, 2, 0)


def non_loop_cofaces(cx, v):
    """(1-cell, other endpoint) for each non-loop coface of vertex ``v``,
    from the reference transpose of the boundaries."""
    return [(c, w) for c in cofaces(cx, v)
            for w in cx.boundary(c) if w != v]


def test_triangle_coboundary_incidence():
    cx = lift(triangle())
    for v in range(3):
        assert len(cx.neighbors(v)) == 2
        assert all(cx.dim(c) == 1 for c, _ in cx.neighbors(v))
        assert list(cx.neighbors(v)) == non_loop_cofaces(cx, v)


def test_coboundary_is_transpose_of_boundary():
    rng = random.Random(0)
    for g in (random_connected_graph(rng, 50, 120), messy_graph(rng)):
        cx = lift(g)
        assert len(cx.adj_ptr) == cx.n0 + 1
        for v in cx.cell_ids(0):
            assert list(cx.neighbors(v)) == non_loop_cofaces(cx, v)
        # oracle: check both directions over every (1-cell, endpoint) pair
        for e in cx.cell_ids(1):
            if len(cx.boundary(e)) == 2:
                for b in cx.boundary(e):
                    assert e in [c for c, _ in cx.neighbors(b)]
        for v in cx.cell_ids(0):
            for c, w in cx.neighbors(v):
                assert v != w and set(cx.boundary(c)) == {v, w}


# --- spanning trees ---

def test_tree_input_uses_all_edges():
    g = make_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    for policy in POLICIES:
        assert bare_lift(g, policy).tree_edges == {0, 1, 2, 3}


def test_triangle_dfs_tree_size():
    t = bare_lift(triangle(), DFS).tree_edges
    assert len(t) == 2


def test_two_disjoint_triangles_forest():
    g = two_triangles()
    for policy in POLICIES:
        t = bare_lift(g, policy).tree_edges
        # per-component formula: sum over components of |V_c| - 1
        assert len(t) == sum(len(c) - 1 for c in ref.components(g))
        assert len(t) == 4


def test_spanning_tree_deterministic():
    rng = random.Random(5)
    g = random_connected_graph(rng, 30, 70)
    for policy in POLICIES:
        assert bare_lift(g, policy).tree_edges == \
            bare_lift(g, policy).tree_edges


def test_random_policy_reproducible_from_seed():
    rng = random.Random(6)
    g = random_connected_graph(rng, 30, 70)
    a = bare_lift(g, SpanningTreePolicy("random", seed=9)).tree_edges
    b = bare_lift(g, SpanningTreePolicy("random", seed=9)).tree_edges
    c = bare_lift(g, SpanningTreePolicy("random", seed=10)).tree_edges
    assert a == b
    assert a != c or len(g.edges) == len(a)


def test_forest_is_acyclic():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, 20, 45)
        for policy in POLICIES:
            t = bare_lift(g, policy).tree_edges
            rows = []
            for idx in t:
                e = g.edges[idx]
                rows.append((1 << e.src) | (1 << e.dst))
            # acyclic iff the edge incidence vectors are GF(2)-independent
            assert gf2_rank(rows) == len(t)


# --- fundamental cycles ---

def test_triangle_fundamental_cycle():
    cx = bare_lift(triangle(), BFS)
    assert cx.tree_edges == {0, 1}  # (0,1) and (0,2)
    [(vertices, edges)] = cycles_of(cx)
    assert vertices == [1, 0, 2, 1]
    assert len(edges) == 3
    assert edges[-1] == 2


def test_k4_star_tree_cycles_have_length_three():
    cx = bare_lift(k4(), BFS)
    assert cx.tree_edges == {0, 1, 2}  # the star (0,1),(0,2),(0,3)
    cycles = cycles_of(cx)
    assert [edges[-1] for _, edges in cycles] == [3, 4, 5]
    for vertices, edges in cycles:
        assert len(edges) == 3
        assert vertices[0] == vertices[-1]


def test_cycle_even_degree_parity():
    rng = random.Random(8)
    for _ in range(20):
        g = random_connected_graph(rng, 15, 35)
        cx = bare_lift(g, DFS)
        assert cx.n2 == g.num_edges - len(cx.tree_edges)
        for vertices, edges in cycles_of(cx):
            # parity oracle: every vertex is incident to an even number
            # of cycle edges
            degree = {}
            for e in edges:
                edge = g.edges[e]
                degree[edge.src] = degree.get(edge.src, 0) + 1
                degree[edge.dst] = degree.get(edge.dst, 0) + 1
            assert all(d % 2 == 0 for d in degree.values())
            # closed simple walk
            assert vertices[0] == vertices[-1]
            assert len(set(vertices[:-1])) == len(vertices) - 1


def test_self_loop_rejected():
    g = make_graph(2, [(0, 1), (1, 1)])
    cx = bare_lift(g, DFS)
    assert cx.tree_edges == {0}
    assert cx.n2 == 0
    with pytest.raises(ValueError):
        ref.fundamental_cycle(g, 1, cx.tree_edges)


# --- 2-cell attachment ---

def test_triangle_single_two_cell():
    cx = lift(triangle())
    assert cx.n2 == 1
    assert len(cx.boundary(cx.cell_ids(2)[0])) == 3


def test_k4_three_two_cells():
    cx = lift(k4())
    assert cx.n2 == 3
    assert betti1(k4()) == 3


def test_scene_loop_two_cell_has_four_edges():
    from toporag.graph_io import load_graph
    from helpers import FIXTURES
    g = load_graph(FIXTURES / "scene_loop")
    cx = lift(g)
    assert cx.n2 == 1
    assert len(cx.boundary(cx.cell_ids(2)[0])) == 4


def test_parallel_edge_makes_two_gon():
    g = make_graph(2, [(0, 1), (0, 1)])
    cx = lift(g)
    assert cx.n2 == 1
    cid = cx.cell_ids(2)[0]
    assert len(cx.boundary(cid)) == 2
    assert cx.cycle_vertices(cid) == [0, 1]
    assert cycles_of(cx) == [ref.fundamental_cycle(g, 1, cx.tree_edges)]


def test_self_loop_skipped_with_warning(caplog):
    g = make_graph(2, [(0, 1), (1, 1)])
    with caplog.at_level("WARNING"):
        cx = lift(g)
    assert cx.n2 == 0
    assert any("self-loop" in r.message for r in caplog.records)
    # the self-loop 1-cell is flagged by its single-entry boundary
    loop_cell = cx.n0 + 1
    assert cx.dim(loop_cell) == 1 and cx.boundary(loop_cell) == (1,)


def test_two_cell_walks_are_closed():
    rng = random.Random(9)
    for _ in range(10):
        g = random_connected_graph(rng, 12, 30)
        cx = lift(g)
        for cid in cx.cell_ids(2):
            walk = cx.cycle_vertices(cid)
            boundary = cx.boundary(cid)
            assert len(walk) == len(boundary)
            for i, (v, ecid) in enumerate(zip(walk, boundary)):
                w = walk[(i + 1) % len(walk)]
                endpoints = set(cx.boundary(ecid))
                assert endpoints == {v, w} or (v == w and endpoints == {v})
            vertices, _ = ref.fundamental_cycle(
                g, cx.edge_index(boundary[-1]), cx.tree_edges)
            assert walk == vertices[:-1]


def test_upper_adjacency_via_shared_coface():
    cx = lift(triangle())
    two_cell = cx.cell_ids(2)[0]
    for ecid in cx.boundary(two_cell):
        partners = [w for w, cof in upper_adjacent(cx, ecid) if cof == two_cell]
        assert len(partners) == 2  # the other two edges of the triangle
    # 0-cells are upper-adjacent through their shared 1-cells
    assert [(w, cx.dim(cof)) for w, cof in upper_adjacent(cx, 0)] == \
        [(1, 1), (2, 1)]


def test_every_nontree_nonloop_edge_in_exactly_one_two_cell():
    rng = random.Random(10)
    g = random_connected_graph(rng, 20, 50)
    cx = lift(g)
    count = {}
    for cid in cx.cell_ids(2):
        non_tree = cx.boundary(cid)[-1]
        count[non_tree] = count.get(non_tree, 0) + 1
    non_tree_edges = [cx.n0 + i for i in range(g.num_edges)
                      if i not in cx.tree_edges]
    assert sorted(count) == sorted(non_tree_edges)
    assert all(v == 1 for v in count.values())


def test_lift_retains_a_bounded_size_per_cell():
    """A 2-cell keeps only its non-tree 1-cell and the lowest common
    ancestor of its ends: no boundary entries, no per-step walk, no coface
    lists, no per-cell objects."""
    g = random_connected_graph(random.Random(1), 500, 1500)
    provider = DeterministicProvider(dim=8, seed=7)
    node_vecs = embed_texts([n.text for n in g.nodes], provider)
    edge_vecs = embed_texts([e.text for e in g.edges], provider)
    tracemalloc.start()
    try:
        cx = lift_graph(g, node_vecs, edge_vecs, policy=DFS)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = sum(len(cx.boundary(cid)) for cid in cx.cell_ids(2))
    assert entries == 146_657 == cx.cycle_lengths.sum()
    # 160 bytes per cell holds the rows, the edge and adjacency arrays and
    # the forest; the boundaries as int32, 195 bytes per cell, do not fit
    bound = 160 * cx.num_cells
    assert 4 * entries > bound
    assert cx.two_edge.dtype == cx.two_lca.dtype == np.int32
    assert retained <= bound


def test_lift_stores_no_two_cell_rows():
    """One embedding row per 0- and 1-cell: a stored row per 2-cell, n2 *
    d * 4 bytes (1 MB here), would not fit in the bound."""
    g = random_connected_graph(random.Random(1), 500, 1500)
    d = 256
    rng = np.random.default_rng(1)
    node_vecs = list(rng.normal(size=(g.num_nodes, d)).astype(np.float32))
    edge_vecs = list(rng.normal(size=(g.num_edges, d)).astype(np.float32))
    tracemalloc.start()
    try:
        cx = lift_graph(g, node_vecs, edge_vecs, policy=DFS)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n01 = cx.n0 + cx.n1
    assert cx.embeddings.shape == (n01, d) and cx.n2 == 1001
    assert retained <= n01 * d * 4 + 160 * cx.num_cells


# the accessors refuse each id below on the triangle (n0 = n1 = 3, n2 = 1):
# -1, one past the end, and a cell of the wrong dimension
BAD_IDS = {"dim": (-1, 7), "boundary": (-1, 7), "vector": (-1, 7),
           "neighbors": (-1, 3, 6), "edge_index": (-1, 6, 0),
           "cycle_vertices": (-1, 7, 0, 3)}


@pytest.mark.parametrize("accessor, bad", [
    (accessor, bad) for accessor, ids in BAD_IDS.items() for bad in ids])
def test_accessors_refuse_bad_ids_naming_them(accessor, bad):
    cx = bare_lift(triangle(), DFS)
    assert (cx.n0, cx.n1, cx.n2) == (3, 3, 1)
    with pytest.raises(ValueError, match=rf"(cell|vertex) {bad}\b"):
        getattr(cx, accessor)(bad)


def test_lift_rooting_matches_public_tree_and_cycles():
    rng = random.Random(13)
    for trial in range(60):
        g = messy_graph(rng)
        for policy in (DFS, BFS, SpanningTreePolicy("random", seed=trial)):
            cx = bare_lift(g, policy)
            assert cx.tree_edges == ref.spanning_tree(g, policy)
            assert cx.components == tuple(map(tuple, ref.components(g)))
            # the reference finds each tree path by its own search
            expected = [ref.fundamental_cycle(g, idx, cx.tree_edges)
                        for idx, e in enumerate(g.edges)
                        if idx not in cx.tree_edges and e.src != e.dst]
            assert cycles_of(cx) == expected
            assert [[cx.edge_index(e) for e in cx.boundary(cid)]
                    for cid in cx.cell_ids(2)] == [e for _, e in expected]


def test_accessors_match_reference_lift():
    """dim, boundary, neighbors and cycle_vertices, read off the arrays,
    against the graph and the reference lift: self-loops, parallel edges,
    several components."""
    rng = random.Random(31)
    for trial in range(40):
        g = messy_graph(rng)
        for policy in (DFS, BFS, SpanningTreePolicy("random", seed=trial)):
            cx = bare_lift(g, policy)
            n0, n1 = g.num_nodes, g.num_edges
            cycles = [ref.fundamental_cycle(g, idx, cx.tree_edges)
                      for idx, e in enumerate(g.edges)
                      if idx not in cx.tree_edges and e.src != e.dst]
            assert [cx.dim(c) for c in range(cx.num_cells)] == \
                [0] * n0 + [1] * n1 + [2] * len(cycles)
            for bad in (-1, cx.num_cells):
                with pytest.raises(ValueError):
                    cx.dim(bad)
            for not_two_cell in (0, n0 + n1 - 1, cx.num_cells):
                with pytest.raises(ValueError):
                    cx.cycle_vertices(not_two_cell)
            adj = ref._neighbors(g)
            for v in range(n0):
                assert cx.boundary(v) == ()
                assert cx.neighbors(v) == [(n0 + idx, w) for idx, w in adj[v]
                                           if w != v]
            for idx, e in enumerate(g.edges):
                assert cx.boundary(n0 + idx) == \
                    ((e.src,) if e.src == e.dst else (e.src, e.dst))
            for cid, (vertices, edges) in zip(cx.cell_ids(2), cycles):
                assert cx.boundary(cid) == tuple(n0 + i for i in edges)
                assert cx.cycle_vertices(cid) == vertices[:-1]
            for c in range(cx.num_cells):
                assert all(type(b) is int for b in cx.boundary(c))
            # the read-only view perfbench reads
            assert cx.cells == tuple((c, cx.dim(c), cx.boundary(c))
                                     for c in range(cx.num_cells))


def test_grow_forest_matches_reference():
    """Both orders, from every vertex over every edge (the lift's use) and
    from a sorted vertex subset over an edge subset (the certificate's)."""
    rng = random.Random(29)
    for _ in range(80):
        g = messy_graph(rng)
        every = range(g.num_nodes)
        subset = sorted(rng.sample(every, rng.randint(0, g.num_nodes)))
        kept = {idx for idx in range(g.num_edges) if rng.random() < 0.7}
        for roots, adj in ((every, ref._neighbors(g)),
                           (subset, ref._neighbors(g, kept))):
            for depth_first in (True, False):
                got = grow_forest(roots, adj.__getitem__, depth_first)
                want = ref.forest(adj, roots, depth_first)
                # the dicts are compared in visiting order too
                assert [list(d.items()) for d in got[:3]] == \
                    [list(d.items()) for d in want[:3]]
                assert got[3] == want[3]


def naive_root_path(parent, v):
    """v and its ancestors, one parent link at a time."""
    path = [v]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def naive_lca(parent, a, b):
    """The lowest common ancestor by climbing: b up to the first vertex on
    a's root path."""
    above = set(naive_root_path(parent, a))
    while b not in above:
        b = parent[b]
    return b


def lca_pairs(cx):
    """Each 2-cell's non-tree 1-cell ends and its LCA, as the lift found."""
    ends = [cx.boundary(e) for e in cx.two_edge.tolist()]
    return ends, cx.two_lca.tolist()


def deep_graph(policy, depth):
    """A graph whose ``policy`` forest has the given largest depth, with 60
    seeded chords. DFS runs down a path of depth + 1 vertices, where every
    chord joins a vertex to an ancestor. BFS splits a ring of 2 * depth
    vertices at vertex 0 into two arms of that depth; a chord joins the
    arms at one depth and meets its ends at vertex 0, far above them."""
    rng = random.Random(depth)
    if policy is DFS:
        n, edges = depth + 1, [(v, v + 1) for v in range(depth)]
        chords = [tuple(rng.sample(range(n), 2)) for _ in range(60)]
        return make_graph(n, edges + [(0, depth), (1, depth - 1)] + chords)
    n, edges = 2 * depth, [(v, (v + 1) % (2 * depth)) for v in range(2 * depth)]
    chords = [(v, n - v) for v in rng.sample(range(1, depth), 60)]
    return make_graph(n, edges + chords)


@pytest.mark.parametrize("policy", [DFS, BFS], ids=str)
@pytest.mark.parametrize("depth", [2**10 - 1, 2**10, 2**10 + 1])
def test_two_lca_matches_a_naive_climb_on_deep_forests(policy, depth):
    """Depths around a power of two: the table has one row per bit of the
    largest depth, which the longest climbs need."""
    g = deep_graph(policy, depth)
    cx = bare_lift(g, policy)
    parent = cx.ancestors[0].tolist()
    ends, lcas = lca_pairs(cx)
    assert cx.n2 == g.num_edges - g.num_nodes + 1
    assert lcas == [naive_lca(parent, a, b) for a, b in ends]
    assert max(len(naive_root_path(parent, v)) for v in range(cx.n0)) == \
        depth + 1
    assert len(cx.ancestors) == depth.bit_length()


def test_two_lca_matches_a_naive_climb_on_messy_graphs():
    rng = random.Random(17)
    for trial in range(60):
        g = messy_graph(rng)
        for policy in (DFS, BFS, SpanningTreePolicy("random", seed=trial)):
            cx = bare_lift(g, policy)
            parent = cx.ancestors[0].tolist()
            ends, lcas = lca_pairs(cx)
            assert lcas == [naive_lca(parent, a, b) for a, b in ends]
            depth = [len(naive_root_path(parent, v)) - 1 for v in range(cx.n0)]
            assert len(cx.ancestors) == max(1, max(depth, default=0).bit_length())
            for low, high in zip(cx.ancestors, cx.ancestors[1:]):
                assert np.array_equal(high, low[low])  # 2^(k+1) up: 2^k twice
            assert cx.cycle_lengths.tolist() == \
                [len(cx.boundary(c)) for c in cx.cell_ids(2)]


# --- cycle embedding aggregation ---

def test_aggregate_identical_vectors_is_identity():
    cx = bare_lift(triangle(), DFS, vec=np.arange(4, dtype=np.float32))
    out = cx.vector(cx.cell_ids(2)[0])
    assert np.allclose(out, np.arange(4), atol=1e-7)


def test_aggregate_two_basis_vectors():
    g = make_graph(2, [(0, 1), (0, 1)])  # a 2-gon: two vertices, two edges
    cx = lift_graph(g, [np.array([1.0, 0.0], dtype=np.float32)] * 2,
                    [np.array([0.0, 1.0], dtype=np.float32)] * 2)
    out = cx.vector(cx.cell_ids(2)[0])
    assert np.allclose(out, [0.5, 0.5])


def test_aggregate_matches_bruteforce_mean():
    rng = np.random.default_rng(0)
    z0 = rng.normal(size=(3, 8)).astype(np.float32)
    z1 = rng.normal(size=(3, 8)).astype(np.float32)
    cx = lift_graph(triangle(), list(z0), list(z1))
    out = cx.vector(cx.cell_ids(2)[0])
    expected = np.zeros(8)
    for v in (0, 1, 2):
        expected += z0[v]
    for e in (0, 1, 2):
        expected += z1[e]
    expected /= 6.0
    assert np.allclose(out, expected, atol=1e-7)


def test_embedding_rows_follow_cell_ids():
    g = make_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 3),
                       (3, 3)])
    provider = DeterministicProvider(dim=16, seed=7)
    node_vecs = embed_texts([n.text for n in g.nodes], provider)
    edge_vecs = embed_texts([e.text for e in g.edges], provider)
    z0, z1 = np.array(node_vecs), np.array(edge_vecs)
    for policy in (DFS, BFS, SpanningTreePolicy("random", seed=3)):
        cx = lift_graph(g, node_vecs, edge_vecs, policy=policy)
        z, n0, n1 = cx.embeddings, cx.n0, cx.n1
        assert z.dtype == np.float32 and z.shape == (n0 + n1, 16)
        assert z.flags.c_contiguous
        assert np.array_equal(z[:n0], z0)
        assert np.array_equal(z[n0:n0 + n1], z1)
        assert cx.n2 == 3
        for cid in range(n0 + n1):
            assert np.array_equal(cx.vector(cid), z[cid])
        for cid, cycle in zip(cx.cell_ids(2), cycles_of(cx)):
            out = cx.vector(cid)
            assert out.dtype == np.float32
            assert np.array_equal(out, ref.cycle_embedding(cycle, z0, z1))


def test_two_cell_embeddings_equal_reference_mean_on_ladder():
    rng = random.Random(21)
    vec_rng = np.random.default_rng(21)
    for n, m in ((10, 25), (60, 150), (300, 900)):
        g = random_connected_graph(rng, n, m)
        z0 = vec_rng.normal(size=(n, 8)).astype(np.float32)
        z1 = vec_rng.normal(size=(m, 8)).astype(np.float32)
        for policy in (DFS, BFS, SpanningTreePolicy("random", seed=n)):
            cx = lift_graph(g, list(z0), list(z1), policy=policy)
            assert cx.n2 == m - n + 1
            for cid, cycle in zip(cx.cell_ids(2), cycles_of(cx)):
                assert np.array_equal(cx.vector(cid),
                                      ref.cycle_embedding(cycle, z0, z1))


# --- homology counting ---

def test_betti1_examples():
    assert betti1(path3()) == 0
    assert betti1(triangle()) == 1
    assert betti1(k4()) == 3
    assert betti1(two_triangles()) == 2


def test_betti1_self_loops():
    g = make_graph(2, [(0, 1), (1, 1)])
    assert betti1(g) == 0
    assert betti1(make_graph(1, [(0, 0), (0, 0)])) == 0


def test_two_cell_count_equals_betti1_every_policy():
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected_graph(rng, 25, 60)
        for policy in POLICIES:
            cx = lift(g, policy=policy)
            assert cx.n2 == betti1(g)


def test_verify_cycle_basis_triangle_and_k4():
    assert verify_cycle_basis(lift(triangle())).rank_gf2 == 1
    report = verify_cycle_basis(lift(k4()))
    assert report.rank_gf2 == 3
    assert report.independent
    assert report.spans


def test_rank_matches_numpy_oracle_across_policies():
    rng = random.Random(12)
    for _ in range(15):
        g = random_connected_graph(rng, 18, 40)
        ranks = set()
        for policy in POLICIES:
            cx = lift(g, policy=policy)
            report = verify_cycle_basis(cx)
            rows = [
                {cx.edge_index(e) for e in cx.boundary(cid)}
                for cid in cx.cell_ids(2)
            ]
            assert report.rank_gf2 == numpy_gf2_rank(rows, g.num_edges)
            assert report.independent and report.spans
            ranks.add(report.rank_gf2)
        assert len(ranks) == 1  # identical across policies


def test_disconnected_graph_lifts_per_component():
    cx = lift(two_triangles())
    assert cx.n2 == 2
    report = verify_cycle_basis(cx)
    assert report.rank_gf2 == 2
    assert report.spans
