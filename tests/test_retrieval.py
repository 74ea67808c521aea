import heapq
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporag import retrieval
from toporag.embedding import DeterministicProvider, cosine, embed_texts
from toporag.errors import EmptyCandidates, TooLarge
from toporag.lifting import BFS, DFS, SpanningTreePolicy, lift_graph
from toporag.retrieval import (PRIZE_INDEXING, assign_prizes,
                               enforce_boundary_consistency,
                               is_feasible, retrieve_subcomplex,
                               selection_objective, solve_subcomplex,
                               subcomplex_to_dict, topk_cells, topk_two_cells)

from helpers import (lift, make_graph, messy_graph, random_connected_graph,
                     triangle, two_triangles)
from reference_lifting import components
from reference_pcst import (brute_force_subcomplex, forest_optimum,
                            steiner_optimum)
from reference_prizes import (cycle_cells, dict_prizes,
                              loop_topk_two_cells, two_cell_prizes)


def ranked_of(cells_with_sims):
    return [(cid, sim) for cid, sim in cells_with_sims]


# --- query encoding ---

def test_encode_query_stable(provider):
    a = embed_texts(["what holds the vase"], provider)[0]
    b = embed_texts(["what holds the vase"], provider)[0]
    assert np.array_equal(a, b)


def test_encode_empty_question_ok(provider):
    v = embed_texts([""], provider)[0]
    assert v.shape == (provider.dim,)


def test_dim_mismatch_at_retrieval_time():
    cx = lift(triangle(), dim=16)
    z_q = DeterministicProvider(dim=8, seed=7).embed(["q"])[0]
    from toporag.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        topk_cells(cx, z_q, 0, 2)


# --- top-k ---

def test_topk_zero_returns_empty(provider):
    cx = lift(triangle())
    z_q = embed_texts(["q"], provider)[0]
    assert topk_cells(cx, z_q, 0, 0) == []


def test_topk_saturates(provider):
    cx = lift(triangle())
    z_q = embed_texts(["anything"], provider)[0]
    ranked = topk_cells(cx, z_q, 0, 99)
    assert [cid for cid, _ in ranked] == sorted(
        range(3), key=lambda c: (-cosine(cx.vector(c), z_q), c))
    assert len(ranked) == 3


def test_topk_matches_full_sort_oracle():
    rng = random.Random(1)
    for trial in range(10):
        g = random_connected_graph(rng, 40, 90)
        cx = lift(g, dim=12, seed=trial)
        z_q = DeterministicProvider(dim=12, seed=trial).embed(
            [f"query {trial} node"])[0]
        for dim in (0, 1):
            k = rng.randrange(1, 10)
            got = topk_cells(cx, z_q, dim, k)
            scored = [(cid, cosine(cx.vector(cid), z_q))
                      for cid in cx.cell_ids(dim)]
            expected = sorted(scored, key=lambda t: (-t[1], t[0]))[:k]
            assert got == expected


def test_topk_tiebreak_ascending_id():
    g = make_graph(3, [(0, 1), (1, 2)],
                   node_texts=["same", "same", "same"])
    cx = lift(g)
    z_q = cx.vector(0)
    ranked = topk_cells(cx, z_q, 0, 3)
    assert [cid for cid, _ in ranked] == [0, 1, 2]


def test_topk_invariant_under_uniform_scaling(provider):
    import dataclasses
    rng = random.Random(14)
    g = random_connected_graph(rng, 20, 40)
    cx = lift(g)
    scaled = dataclasses.replace(cx, embeddings=3.0 * cx.embeddings)
    z_q = embed_texts(["node 7 edge 3"], provider)[0]
    for dim in (0, 1):
        base = [cid for cid, _ in topk_cells(cx, z_q, dim, 5)]
        after = [cid for cid, _ in topk_cells(scaled, z_q, dim, 5)]
        assert base == after


# --- prize assignment ---

def test_alg3_prizes_start_at_k():
    cx = lift(triangle())
    a = assign_prizes(ranked_of([(0, .9), (1, .8), (2, .7)]), [], cx, 3, 1.0)
    assert [a.prize_of(c) for c in (0, 1, 2)] == [3.0, 2.0, 1.0]


def test_eq14_prizes_start_at_k_minus_one():
    cx = lift(triangle())
    a = assign_prizes(ranked_of([(0, .9), (1, .8), (2, .7)]), [], cx, 3, 1.0,
                      indexing="eq14")
    assert [a.prize_of(c) for c in (0, 1, 2)] == [2.0, 1.0, 0.0]


def test_two_cell_prize_direct_substitution():
    cx = lift(triangle())
    edge_cell = cx.n0
    a = assign_prizes(ranked_of([(0, .9), (1, .8)]),
                      ranked_of([(edge_cell, .95)]), cx, 3, 1.0)
    # boundary node prizes {3,2,0}, edge prizes {3,0,0}, cost 3*1
    two_cell = cx.cell_ids(2)[0]
    assert a.prize_of(two_cell) == (3 + 2 + 0) + (3 + 0 + 0) - 3 * 1.0
    closure = enforce_boundary_consistency(cx, {two_cell})
    cost_with = selection_objective(cx, a, closure)[1]
    cost_without = selection_objective(cx, a, closure - {two_cell})[1]
    assert cost_with - cost_without == 3.0


def test_two_cell_prize_all_zero_boundary():
    from toporag.graph_io import load_graph
    from helpers import FIXTURES
    cx = lift(load_graph(FIXTURES / "scene_loop"))
    a = assign_prizes([], [], cx, 3, 1.0)
    two_cell = cx.cell_ids(2)[0]
    assert a.prize_of(two_cell) == -4.0


def test_prize_monotone_nonincreasing_in_c2():
    rng = random.Random(2)
    g = random_connected_graph(rng, 8, 16)
    cx = lift(g)
    ranked0 = ranked_of([(0, .9), (1, .8), (2, .7)])
    values = []
    for c2 in (0.0, 0.5, 1.0, 2.0, 5.0):
        a = assign_prizes(ranked0, [], cx, 3, c2)
        values.append([a.prize_of(c) for c in cx.cell_ids(2)])
    for prev, cur in zip(values, values[1:]):
        assert all(c <= p for p, c in zip(prev, cur))


def test_two_cell_prizes_match_loop_reference():
    """The prize vector equals the per-cell loop over the reference lift's
    cycles exactly, entry by entry (an unranked 0/1-cell reads 0.0), as
    Python floats, under every policy and indexing:
    long DFS cycles and short BFS ones, and messy graphs with self-loops,
    parallel edges (2-cycles whose LCA is an end), several components and
    isolated vertices."""
    rng = random.Random(17)
    vec_rng = np.random.default_rng(17)
    graphs = [random_connected_graph(rng, n, m) for n, m in ((60, 180), (500, 1500))]
    graphs += [messy_graph(rng) for _ in range(20)]
    for g in graphs:
        n, m = g.num_nodes, g.num_edges
        z0 = list(vec_rng.standard_normal((n, 16)).astype(np.float32))
        z1 = list(vec_rng.standard_normal((m, 16)).astype(np.float32))
        for policy in (DFS, BFS, SpanningTreePolicy("random", seed=n)):
            cx = lift_graph(g, z0, z1, policy=policy)
            cycles = cycle_cells(cx)
            for _ in range(3):
                z_q = vec_rng.standard_normal(16).astype(np.float32)
                for k in (3, 5):
                    ranked0 = topk_cells(cx, z_q, 0, k)
                    ranked1 = topk_cells(cx, z_q, 1, k)
                    for c2 in (0.5, 0.3, 0.1):
                        for indexing in PRIZE_INDEXING:
                            a = assign_prizes(ranked0, ranked1, cx, k, c2,
                                              indexing=indexing)
                            expected = {r.cell_id: r.prize
                                        for r in a.ranked0 + a.ranked1}
                            expected.update(two_cell_prizes(cycles, a))
                            assert len(a.prize) == cx.num_cells
                            for c in range(cx.num_cells):
                                assert type(a.prize_of(c)) is float
                                assert a.prize_of(c) == expected.get(c, 0.0)


def test_prize_vector_and_two_cell_ranking_match_dict_reference():
    """The prize vector and the argsort top-k2 equal the dict-and-loop
    ``assign_prizes``/``topk_two_cells`` exactly: every cell's prize and
    every top-k2 list for k2 = 0..5, on messy graphs (self-loops, parallel
    edges, 1-3 components) under every policy, indexing and c2."""
    rng = random.Random(25)
    vec_rng = np.random.default_rng(25)
    for trial in range(30):
        g = messy_graph(rng)
        n, m = g.num_nodes, g.num_edges
        z0 = list(vec_rng.standard_normal((n, 8)).astype(np.float32))
        z1 = list(vec_rng.standard_normal((m, 8)).astype(np.float32))
        z_q = vec_rng.standard_normal(8).astype(np.float32)
        k = (rng.randint(0, 5), rng.randint(0, 5))
        for policy in (DFS, BFS, SpanningTreePolicy("random", seed=trial)):
            cx = lift_graph(g, z0, z1, policy=policy)
            ranked0 = topk_cells(cx, z_q, 0, k[0])
            ranked1 = topk_cells(cx, z_q, 1, k[1])
            for c2 in (0.5, 0.3, 0.1):
                for indexing in PRIZE_INDEXING:
                    a = assign_prizes(ranked0, ranked1, cx, k, c2,
                                      indexing=indexing)
                    ref = dict_prizes(ranked0, ranked1, cx, k, c2,
                                      indexing=indexing)
                    assert [a.prize_of(c) for c in range(cx.num_cells)] == \
                        [ref.get(c, 0.0) for c in range(cx.num_cells)]
                    for k2 in range(6):
                        assert topk_two_cells(a, cx, k2) == \
                            loop_topk_two_cells(ref, cx, k2)


# --- top-k 2-cells ---

def test_topk2_zero_disables_two_cells():
    cx = lift(triangle())
    a = assign_prizes(ranked_of([(0, .9)]), [], cx, 3, 0.0)
    assert topk_two_cells(a, cx, 0) == []


def test_all_negative_prizes_yield_empty():
    cx = lift(triangle())
    a = assign_prizes([], [], cx, 3, 1.0)  # 2-cell prize -3
    assert topk_two_cells(a, cx, 2) == []


def test_topk2_argmax():
    cx = lift(two_triangles())
    t1, t2 = cx.cell_ids(2)
    a = assign_prizes(ranked_of([(0, .9), (1, .8), (3, .7)]), [], cx, 5, 0.0)
    # first triangle has two ranked vertices (prizes 5,4), second has one (3)
    assert a.prize_of(t1) > a.prize_of(t2) > 0
    assert topk_two_cells(a, cx, 1) == [t1]
    assert topk_two_cells(a, cx, 5) == [t1, t2]


# --- boundary closure ---

def test_closure_of_two_cell_is_whole_triangle():
    cx = lift(triangle())
    two_cell = cx.cell_ids(2)[0]
    closed = enforce_boundary_consistency(cx, {two_cell})
    assert closed == frozenset(range(7))


def test_closure_idempotent():
    cx = lift(triangle())
    closed = enforce_boundary_consistency(cx, {cx.cell_ids(2)[0]})
    assert enforce_boundary_consistency(cx, closed) == closed


def test_closure_of_one_cell_adds_endpoints():
    cx = lift(triangle())
    e = cx.n0
    assert enforce_boundary_consistency(cx, {e}) == {0, 1, e}


def test_is_feasible_agrees_with_components_of_selection():
    """On closed random selections, feasibility is exactly "the selected
    0/1-cells form one connected graph"."""
    rng = random.Random(11)
    checked = {True: 0, False: 0}
    for trial in range(200):
        n_parts = trial % 3 + 1
        edges, offset = [], 0
        for _ in range(n_parts):
            part = random_connected_graph(rng, rng.randrange(2, 7),
                                          rng.randrange(1, 10))
            edges += [(offset + e.src, offset + e.dst) for e in part.edges]
            offset += part.num_nodes
        if trial % 4 == 0:
            v = rng.randrange(offset)
            edges.append((v, v))
        cx = lift(make_graph(offset, edges))
        size = rng.randrange(0, min(6, cx.num_cells) + 1)
        cells = enforce_boundary_consistency(
            cx, set(rng.sample(range(cx.num_cells), size)))
        vertices = sorted(c for c in cells if cx.dim(c) == 0)
        relabel = {v: i for i, v in enumerate(vertices)}
        sub_edges = []
        for c in sorted(cells):
            if cx.dim(c) == 1:
                boundary = cx.boundary(c)
                loop = len(boundary) == 1
                u, v = boundary * 2 if loop else boundary
                sub_edges.append((relabel[u], relabel[v]))
        sub_graph = make_graph(len(vertices), sub_edges)
        expected = len(components(sub_graph)) == 1
        assert is_feasible(cx, cells) == expected, (trial, sorted(cells))
        checked[expected] += 1
    assert min(checked.values()) >= 20


# --- brute force oracle ---

def make_assignment(cx, ranked0, ranked1, k=3, c2=0.5, c_edge=1.0):
    return assign_prizes(ranked_of(ranked0), ranked_of(ranked1), cx, k, c2,
                         c_edge=c_edge)


def test_bruteforce_single_node():
    g = make_graph(1, [])
    cx = lift(g)
    a = make_assignment(cx, [(0, .9)], [])
    best = brute_force_subcomplex(cx, a)
    assert best.cells0 == (0,)
    assert best.total_prize == 3.0


def test_bruteforce_prefers_path_over_two_cell():
    cx = lift(triangle())
    e = cx.n0  # edge (0,1)
    a = make_assignment(cx, [(0, .9), (1, .8)], [(e, .95)], k=3, c2=5.0)
    best = brute_force_subcomplex(cx, a)
    assert best.cells2 == ()
    assert set(best.cells0) == {0, 1}
    assert best.cells1 == (e,)


def test_bruteforce_takes_profitable_two_cell():
    cx = lift(triangle())
    a = make_assignment(cx, [(0, .9), (1, .8), (2, .7)], [], k=3, c2=0.1)
    two_cell = cx.cell_ids(2)[0]
    assert a.prize_of(two_cell) == pytest.approx(6 - 0.3)
    best = brute_force_subcomplex(cx, a)
    assert best.cells2 == (two_cell,)


def test_bruteforce_guard():
    rng = random.Random(3)
    g = random_connected_graph(rng, 12, 15)
    cx = lift(g)  # 12 + 15 + 4 = 31 cells
    a = make_assignment(cx, [(0, .9)], [])
    with pytest.raises(TooLarge):
        brute_force_subcomplex(cx, a)


# --- solver ---

def test_solver_degenerate_fallback():
    cx = lift(triangle())
    a = make_assignment(cx, [], [])
    sub = solve_subcomplex(cx, a, [], fallback=(1, 0.42))
    assert sub.degenerate
    assert sub.cells0 == (1,)
    assert sub.cells1 == () and sub.cells2 == ()


def test_solver_no_fallback_raises():
    cx = lift(triangle())
    a = make_assignment(cx, [], [])
    with pytest.raises(EmptyCandidates):
        solve_subcomplex(cx, a, [])


def test_solver_triangle_closure_of_selected_two_cell():
    cx = lift(triangle())
    a = make_assignment(cx, [(0, .9), (1, .8), (2, .7)], [], k=3, c2=0.1)
    selected2 = topk_two_cells(a, cx, 1)
    sub = solve_subcomplex(cx, a, selected2, fallback=(0, .9))
    assert set(sub.cells0) == {0, 1, 2}
    assert len(sub.cells1) == 3
    assert len(sub.cells2) == 1


def test_solver_single_heavy_node():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    cx = lift(g)
    a = make_assignment(cx, [(2, .99)], [], k=3, c_edge=10.0)
    sub = solve_subcomplex(cx, a, [], fallback=(2, .99))
    assert sub.cells0 == (2,)
    assert sub.cells1 == ()


def test_leftover_two_cells_enter_together_as_one_batch():
    """Neither offered 2-cell pays on its own, so only the batch of
    leftovers, offered after the one-by-one pass, takes both."""
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (2, 3), (0, 3),
                       (2, 3)])
    rng = np.random.default_rng(285)
    node_vecs = list(rng.standard_normal((6, 8)).astype(np.float32))
    edge_vecs = list(rng.standard_normal((8, 8)).astype(np.float32))
    z_q = rng.standard_normal(8).astype(np.float32)
    cx = lift_graph(g, node_vecs, edge_vecs, policy=BFS)
    a = assign_prizes(topk_cells(cx, z_q, 0, 3), topk_cells(cx, z_q, 1, 3), cx,
                      (3, 3), 0.5)
    assert topk_two_cells(a, cx, 2) == [14, 15]
    sub = retrieve_subcomplex(cx, z_q, 3, 3, 2, 0.5)
    assert sub.cells2 == (14, 15)
    assert is_feasible(cx, frozenset(sub.all_cells()))
    assert sub.objective <= brute_force_subcomplex(cx, a).objective


def reference_connector_path(complex, selected, assignment, targets):
    """The connector search that settles every vertex of the sources'
    component, then picks the target of least (distance, hops, vertex)."""
    sources = {c for c in selected if c < complex.n0}
    if not sources:
        return None
    ranked1 = assignment.ranked1_ids
    dist, prev, heap = {}, {}, []
    for s in sorted(sources):
        dist[s] = (0.0, 0)
        heapq.heappush(heap, (0.0, 0, s))
    while heap:
        d, hops, v = heapq.heappop(heap)
        if (d, hops) > dist[v]:
            continue
        for ecid, w in complex.neighbors(v):
            step = 0.0 if ecid in selected or ecid in ranked1 else assignment.c_edge
            if w not in dist or (d + step, hops + 1) < dist[w]:
                dist[w], prev[w] = (d + step, hops + 1), (v, ecid)
                heapq.heappush(heap, (d + step, hops + 1, w))
    reachable = [t for t in targets if t in dist]
    if not reachable:
        return None
    v, cells = min(reachable, key=lambda t: (*dist[t], t)), set()
    while v not in sources:
        cells.add(v)
        v, ecid = prev[v]
        cells.add(ecid)
    return frozenset(cells)


def test_connector_search_stops_at_the_reference_goal(monkeypatch):
    """Every connector the solver asks for on seeded sparse BFS complexes
    equals the settle-everything reference's."""
    real, found = retrieval._connector_path, []

    def checked(*args):
        got = real(*args)
        assert got == reference_connector_path(*args)
        found.append(got)
        return got

    monkeypatch.setattr(retrieval, "_connector_path", checked)
    for seed in range(40):
        g = random_connected_graph(random.Random(seed), 60, 80)
        rng = np.random.default_rng(seed)
        cx = lift_graph(g, list(rng.standard_normal((60, 8)).astype(np.float32)),
                        list(rng.standard_normal((80, 8)).astype(np.float32)),
                        policy=BFS)
        for _ in range(5):
            z_q = rng.standard_normal(8).astype(np.float32)
            retrieve_subcomplex(cx, z_q, 3, 3, 3, 0.1)
    assert sum(cells is not None for cells in found) >= 100


def random_forest(rng):
    """1-3 random trees of up to 60 vertices each, vertex ids shuffled
    across trees and edges in random order."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 60)
        edges += [(n + rng.randrange(v), n + v) for v in range(1, size)]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_solver_is_exact_on_forests():
    """On forests the solver's objective equals the rooted-DP optimum of
    ``forest_optimum`` exactly: 300 seeded forests, c_edge 1 and 0.5,
    k = 3 and 5, both indexings."""
    rng = random.Random(31)
    vec_rng = np.random.default_rng(31)
    for _ in range(300):
        g = random_forest(rng)
        cx = lift_graph(
            g, list(vec_rng.standard_normal((g.num_nodes, 8)).astype(np.float32)),
            list(vec_rng.standard_normal((g.num_edges, 8)).astype(np.float32)))
        z_q = vec_rng.standard_normal(8).astype(np.float32)
        ranked0, ranked1 = topk_cells(cx, z_q, 0, 5), topk_cells(cx, z_q, 1, 5)
        for k in (3, 5):
            for c_edge in (1.0, 0.5):
                for indexing in PRIZE_INDEXING:
                    a = assign_prizes(ranked0[:k], ranked1[:k], cx, k, 0.5,
                                      c_edge=c_edge, indexing=indexing)
                    sub = solve_subcomplex(cx, a, [], ranked0[0])
                    assert sub.objective == forest_optimum(cx, a)


def seeded_vectors(rng, graph, dim=8):
    """Seeded float32 normals: one per node, one per edge, one query."""
    draw = rng.standard_normal((graph.num_nodes + graph.num_edges + 1, dim))
    rows = list(draw.astype(np.float32))
    return rows[:graph.num_nodes], rows[graph.num_nodes:-1], rows[-1]


def test_steiner_oracle_matches_brute_force():
    """The Dreyfus-Wagner oracle equals exhaustive enumeration on seeded
    connected complexes of at most 14 cells where no 2-cell pays (c2 = 100):
    parallel edges, ranked self-loops, k = 1..4, non-dyadic c_edge, both
    indexings."""
    rng, vec_rng = random.Random(41), np.random.default_rng(41)
    checked = 0
    while checked < 120:
        n = rng.randrange(2, 6)
        g = random_connected_graph(rng, n, rng.randrange(n - 1, n + 3))
        if rng.random() < 0.3:
            loop = rng.randrange(n)
            g = make_graph(n, [(e.src, e.dst) for e in g.edges] + [(loop, loop)])
        z0, z1, z_q = seeded_vectors(vec_rng, g)
        cx = lift_graph(g, z0, z1)
        if cx.num_cells > 14:
            continue
        k = rng.randint(1, 4)
        a = assign_prizes(topk_cells(cx, z_q, 0, k), topk_cells(cx, z_q, 1, k),
                          cx, k, 100.0, c_edge=rng.choice((1.0, 0.5, 0.3)),
                          indexing=rng.choice(PRIZE_INDEXING))
        assert steiner_optimum(cx, a) == brute_force_subcomplex(cx, a).objective
        checked += 1


def test_solver_equals_steiner_optimum():
    """With no 2-cell offered, the solver's objective equals the oracle's
    exactly on seeded 60/180 graphs: BFS and DFS lifts, c_edge 1, 0.5 and
    0.3, both indexings (under eq14 the last rank has prize 0)."""
    vec_rng = np.random.default_rng(43)
    for seed in range(3):
        g = random_connected_graph(random.Random(seed), 60, 180)
        z0, z1, _ = seeded_vectors(vec_rng, g)
        lifts = [lift_graph(g, z0, z1, policy=policy) for policy in (BFS, DFS)]
        for _ in range(4):
            z_q = vec_rng.standard_normal(8).astype(np.float32)
            ranked0, ranked1 = (topk_cells(lifts[0], z_q, d, 3) for d in (0, 1))
            for c_edge in (1.0, 0.5, 0.3):
                for indexing in PRIZE_INDEXING:
                    a = [assign_prizes(ranked0, ranked1, cx, 3, 0.5,
                                       c_edge=c_edge, indexing=indexing)
                         for cx in lifts]
                    best = steiner_optimum(lifts[0], a[0])
                    for cx, assignment in zip(lifts, a):
                        sub = solve_subcomplex(cx, assignment, [], ranked0[0])
                        assert sub.objective == best


def test_solver_is_exact_on_large_trees():
    """``forest_optimum`` on trees of 2,000 to 3,000 vertices, from bushy
    to path-like (each vertex hangs below one of the 3 before it, so the
    tree is about n / 2 deep), with c_edge low enough that long joins pay
    (dyadic, so the reference's sums of gains round nowhere)."""
    rng, vec_rng = random.Random(47), np.random.default_rng(47)
    for n, span in ((2000, 3), (2500, 40), (3000, None)):
        perm = list(range(n))
        rng.shuffle(perm)
        g = make_graph(n, [(perm[rng.randrange(max(0, v - (span or v)), v)], perm[v])
                           for v in range(1, n)])
        z0, z1, z_q = seeded_vectors(vec_rng, g)
        cx = lift_graph(g, z0, z1)
        ranked0, ranked1 = (topk_cells(cx, z_q, d, 3) for d in (0, 1))
        for c_edge in (0.0625, 0.25, 1.0):
            a = assign_prizes(ranked0, ranked1, cx, 3, 0.5, c_edge=c_edge)
            sub = solve_subcomplex(cx, a, [], ranked0[0])
            assert sub.objective == forest_optimum(cx, a)


def relabelled(graph, z0, z1, rng):
    """``graph`` with its vertices renumbered and its edges reordered (ends
    swapped at random), every cell keeping its vector."""
    perm = list(range(graph.num_nodes))
    rng.shuffle(perm)
    order = list(range(graph.num_edges))
    rng.shuffle(order)
    ends = [(perm[graph.edges[i].src], perm[graph.edges[i].dst]) for i in order]
    ends = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in ends]
    nodes = [None] * graph.num_nodes
    for v, p in enumerate(perm):
        nodes[p] = z0[v]
    return make_graph(graph.num_nodes, ends), nodes, [z1[i] for i in order]


def query_graph(data):
    """A drawn graph (messy or 4-40 vertices connected), its vectors, and a
    query, each cell ranked by a seeded normal."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        g = messy_graph(rng)
    else:
        n = rng.randrange(4, 41)
        g = random_connected_graph(rng, n, rng.randrange(n - 1, 3 * n))
    return (rng, g, *seeded_vectors(np.random.default_rng(rng.randrange(10**6)), g))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_objective_invariant_under_relabelling(data):
    """Renumbering the vertices and permuting the edges, each cell keeping
    its vector, leaves the objective and the cell counts unchanged (k2 = 0;
    the counts, being the fewest of any optimum, do not depend on ids)."""
    rng, g, z0, z1, z_q = query_graph(data)
    h, y0, y1 = relabelled(g, z0, z1, rng)
    policy = data.draw(st.sampled_from([DFS, BFS]))
    k0, k1 = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    c_edge = data.draw(st.sampled_from([1.0, 0.5, 0.3]))
    subs = [retrieve_subcomplex(lift_graph(graph, a, b, policy=policy), z_q,
                                k0, k1, 0, 0.5, c_edge=c_edge)
            for graph, a, b in ((g, z0, z1), (h, y0, y1))]
    assert subs[0].objective == subs[1].objective
    assert [(len(s.cells0), len(s.cells1)) for s in subs] == \
        [(len(subs[0].cells0), len(subs[0].cells1))] * 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lowering_c_edge_never_lowers_the_objective(data):
    _, g, z0, z1, z_q = query_graph(data)
    cx = lift_graph(g, z0, z1)
    k0, k1 = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    objectives = [retrieve_subcomplex(cx, z_q, k0, k1, 0, 0.5, c_edge=c).objective
                  for c in (0.0, 0.25, 0.3, 0.5, 1.0, 2.0)]
    assert objectives == sorted(objectives, reverse=True)


def test_solver_feasible_and_bounded_by_oracle():
    rng = random.Random(4)
    ratios = []
    for trial in range(20):
        n = rng.randrange(3, 5)
        m = rng.randrange(n - 1, n + 2)
        g = random_connected_graph(rng, n, m)
        cx = lift(g, seed=trial)
        if cx.num_cells > 12:
            continue
        ranked0 = [(cid, 1.0 - 0.1 * i) for i, cid in enumerate(
            rng.sample(list(cx.cell_ids(0)), min(2, cx.n0)))]
        ranked1 = [(cid, 1.0 - 0.1 * i) for i, cid in enumerate(
            rng.sample(list(cx.cell_ids(1)), min(2, cx.n1)))]
        a = make_assignment(cx, ranked0, ranked1, k=3,
                            c2=rng.choice([0.1, 0.5, 1.0]),
                            c_edge=rng.choice([0.5, 1.0]))
        selected2 = topk_two_cells(a, cx, 2)
        sub = solve_subcomplex(cx, a, selected2,
                               fallback=(ranked0[0][0], ranked0[0][1]))
        cells = frozenset(sub.all_cells())
        assert is_feasible(cx, cells)
        oracle = brute_force_subcomplex(cx, a)
        assert sub.objective <= oracle.objective + 1e-9
        if oracle.objective > 0:
            ratios.append(sub.objective / oracle.objective)
    assert ratios and sum(ratios) / len(ratios) >= 0.9


def test_solver_bridges_steiner_points():
    # prizes sit at the path ends; the middle vertices are worthless
    # connectors that the tree must pay for
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cx = lift(g)
    a = make_assignment(cx, [(0, .99), (4, .95)], [], k=3, c_edge=0.25)
    sub = solve_subcomplex(cx, a, [], fallback=(0, .99))
    oracle = brute_force_subcomplex(cx, a)
    # connecting both ends: 3 + 2 - 4 * 0.25 = 4 beats the best singleton 3
    assert oracle.objective == pytest.approx(4.0)
    assert sub.objective == pytest.approx(oracle.objective)
    assert set(sub.cells0) == {0, 1, 2, 3, 4}


def test_solver_leaves_unprofitable_ends_alone():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cx = lift(g)
    a = make_assignment(cx, [(0, .99), (4, .95)], [], k=3, c_edge=2.0)
    sub = solve_subcomplex(cx, a, [], fallback=(0, .99))
    oracle = brute_force_subcomplex(cx, a)
    # 3 + 2 - 4 * 2 < 3: the best answer is the single best node
    assert oracle.objective == pytest.approx(3.0)
    assert oracle.cells0 == (0,)
    assert sub.objective == pytest.approx(3.0)


def test_solver_connects_two_cell_through_connector():
    # triangle {2,3,4} holds the 2-cell; the prized node 0 hangs off it
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    cx = lift(g)
    e34 = cx.n0 + 4
    a = make_assignment(cx, [(0, .99), (3, .9), (4, .85)], [(e34, .9)],
                        k=3, c2=0.1, c_edge=0.25)
    selected2 = topk_two_cells(a, cx, 1)
    assert selected2  # the triangle's 2-cell carries positive prize
    sub = solve_subcomplex(cx, a, selected2, fallback=(0, .99))
    oracle = brute_force_subcomplex(cx, a)
    assert sub.objective == pytest.approx(oracle.objective)
    assert sub.cells2 == tuple(selected2)
    assert 0 in sub.cells0 and 3 in sub.cells0 and 4 in sub.cells0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_properties(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    g = random_connected_graph(rng, rng.randrange(3, 10), rng.randrange(3, 16))
    cx = lift(g)
    size = data.draw(st.integers(1, cx.num_cells))
    selection = set(rng.sample(range(cx.num_cells), size))
    closed = enforce_boundary_consistency(cx, selection)
    assert selection <= closed
    assert enforce_boundary_consistency(cx, closed) == closed
    for cid in closed:
        assert all(b in closed for b in cx.boundary(cid))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_solver_always_feasible(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    g = random_connected_graph(rng, rng.randrange(3, 9), rng.randrange(3, 14))
    cx = lift(g)
    k = data.draw(st.integers(1, 4))
    n0 = data.draw(st.integers(1, min(k, cx.n0)))
    n1 = data.draw(st.integers(0, min(k, cx.n1)))
    ranked0 = [(cid, 1.0 - 0.05 * i) for i, cid in enumerate(
        rng.sample(list(cx.cell_ids(0)), n0))]
    ranked1 = [(cid, 1.0 - 0.05 * i) for i, cid in enumerate(
        rng.sample(list(cx.cell_ids(1)), n1))]
    a = make_assignment(cx, ranked0, ranked1, k=k,
                        c2=data.draw(st.sampled_from([0.0, 0.25, 1.0])),
                        c_edge=data.draw(st.sampled_from([0.25, 1.0, 3.0])))
    sub = solve_subcomplex(cx, a, topk_two_cells(a, cx, data.draw(
        st.integers(0, 3))), fallback=ranked0[0])
    cells = frozenset(sub.all_cells())
    assert is_feasible(cx, cells)
    best_singleton = max(r.prize for r in a.ranked0)
    assert sub.objective >= best_singleton - 1e-9


def test_solver_deterministic():
    rng = random.Random(5)
    g = random_connected_graph(rng, 10, 20)
    cx = lift(g)
    a = make_assignment(cx, [(0, .9), (3, .8), (5, .7)],
                        [(cx.n0 + 2, .85)], k=3, c2=0.25)
    selected2 = topk_two_cells(a, cx, 2)
    s1 = solve_subcomplex(cx, a, selected2, fallback=(0, .9))
    s2 = solve_subcomplex(cx, a, selected2, fallback=(0, .9))
    assert subcomplex_to_dict(s1) == subcomplex_to_dict(s2)


def test_solver_spans_components_when_candidates_do():
    cx = lift(two_triangles())
    a = make_assignment(cx, [(0, .9), (3, .8)], [])
    sub = solve_subcomplex(cx, a, [], fallback=(0, .9))
    assert 0 in sub.cells0 and 3 in sub.cells0
    assert len(sub.certificate) == 2


def test_selected_one_cells_have_endpoints_selected():
    rng = random.Random(6)
    g = random_connected_graph(rng, 8, 18)
    cx = lift(g)
    a = make_assignment(cx, [(0, .9), (4, .8)],
                        [(cx.n0, .9), (cx.n0 + 5, .7)])
    sub = solve_subcomplex(cx, a, topk_two_cells(a, cx, 1), fallback=(0, .9))
    for ecid in sub.cells1:
        for v in cx.boundary(ecid):
            assert v in sub.cells0


# --- stats, serialization, end-to-end retrieval ---

def test_subcomplex_stats_triangle_closure():
    cx = lift(triangle())
    a = make_assignment(cx, [(0, .9), (1, .8), (2, .7)], [], c2=0.1)
    sub = solve_subcomplex(cx, a, topk_two_cells(a, cx, 1), fallback=(0, .9))
    assert (len(sub.cells0), len(sub.cells1), len(sub.cells2)) == (3, 3, 1)


def test_retrieve_k2_zero_matches_skeleton_only_path(provider):
    rng = random.Random(7)
    g = random_connected_graph(rng, 12, 25)
    cx = lift(g)
    z_q = embed_texts(["node 3 edge 1 4"], provider)[0]
    via_k2 = retrieve_subcomplex(cx, z_q, k0=3, k1=3, k2=0, c2=0.25)
    ranked0 = topk_cells(cx, z_q, 0, 3)
    ranked1 = topk_cells(cx, z_q, 1, 3)
    a = assign_prizes(ranked0, ranked1, cx, (3, 3), 0.25)
    explicit = solve_subcomplex(cx, a, [], fallback=topk_cells(cx, z_q, 0, 1)[0])
    assert via_k2.cells2 == ()
    assert json.dumps(subcomplex_to_dict(via_k2), sort_keys=True) == \
        json.dumps(subcomplex_to_dict(explicit), sort_keys=True)


def test_retrieve_deterministic(provider):
    cx = lift(triangle())
    z_q = embed_texts(["node 0"], provider)[0]
    s1 = retrieve_subcomplex(cx, z_q, 3, 3, 2, 0.25)
    s2 = retrieve_subcomplex(cx, z_q, 3, 3, 2, 0.25)
    assert subcomplex_to_dict(s1) == subcomplex_to_dict(s2)


def test_objective_components_consistency():
    cx = lift(triangle())
    a = make_assignment(cx, [(0, .9), (1, .8)], [(cx.n0, .9)],
                        c2=0.25)
    sub = solve_subcomplex(cx, a, topk_two_cells(a, cx, 1), fallback=(0, .9))
    prize, cost = selection_objective(cx, a, frozenset(sub.all_cells()))
    assert sub.total_prize == prize
    assert sub.total_cost == cost
