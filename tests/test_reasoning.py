import hashlib
import json
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from toporag import reasoning
from toporag.errors import DimensionMismatch, EmptySubcomplex, ValidationError
from toporag.lifting import BFS, DFS, CellComplex, SpanningTreePolicy
from toporag.config import PipelineConfig
from toporag.graph_io import load_qa_fixture
from toporag.pipeline import lift_from_config, retrieve_for_question
from toporag.reasoning import (CellStates, ReasoningConfig, ReasoningWeights,
                               _products, forward, init_states, pool, project,
                               stage1_pass, stage2_pass)
from toporag.retrieval import Subcomplex, retrieve_subcomplex

from helpers import (FIXTURES, k4, lift, make_graph, random_connected_graph,
                     triangle, two_triangles)
from reference_reasoning import (_pairwise_messages, identity_weights,
                                 naive_forward, pairwise_forward,
                                 sequential_initialize, serial_products,
                                 cofaces, upper_adjacent)

D = 16


def full_subcomplex(cx) -> Subcomplex:
    return Subcomplex(
        complex=cx,
        cells0=tuple(cx.cell_ids(0)),
        cells1=tuple(cx.cell_ids(1)),
        cells2=tuple(cx.cell_ids(2)),
        total_prize=0.0, total_cost=0.0,
        certificate=(), provenance=(),
    )


def config(**kwargs):
    defaults = dict(layers=2, state_dim=D, activation="relu",
                    aggregation="sum", seed=3)
    defaults.update(kwargs)
    return ReasoningConfig(**defaults)


# --- init ---

def test_init_states_equal_embeddings():
    cx = lift(triangle(), dim=D)
    sub = full_subcomplex(cx)
    states = init_states(sub, state_dim=D)
    assert len(states.cell_ids) == cx.num_cells
    for cid in states.cell_ids:
        assert np.allclose(states.state(cid),
                           np.asarray(cx.vector(cid), dtype=np.float64))


def test_init_states_read_vector_for_every_selected_cell():
    """Retrieved subcomplexes with 2-cells in them, under each policy: a
    state row is the cell's vector, a 2-cell's computed as it is read."""
    rng = random.Random(5)
    two_cells = 0
    for trial in range(12):
        g = random_connected_graph(rng, 12, 30)
        policy = (DFS, BFS, SpanningTreePolicy("random", seed=trial))[trial % 3]
        cx = lift(g, dim=D, seed=trial, policy=policy)
        sub = retrieve_subcomplex(cx, cx.vector(trial % g.num_nodes),
                                  k0=3, k1=3, k2=2, c2=0.2)
        states = init_states(sub, state_dim=D)
        assert states.cell_ids == sub.all_cells()
        for cid in states.cell_ids:
            assert np.array_equal(states.state(cid), cx.vector(cid))
        two_cells += len(sub.cells2)
    assert two_cells > 0


def test_init_states_dim_mismatch():
    cx = lift(triangle(), dim=D)
    with pytest.raises(DimensionMismatch):
        init_states(full_subcomplex(cx), state_dim=D + 1)


def test_init_states_missing_embedding_errors():
    cx = lift(triangle(), dim=D)
    stripped = cx.embeddings[:-1]  # drop the last 1-cell's row
    import dataclasses
    broken = dataclasses.replace(cx, embeddings=stripped)
    with pytest.raises(ValidationError):
        init_states(full_subcomplex(broken))


# --- fixed point and locality ---

def test_identity_weights_are_fixed_point():
    cfg = config(activation="identity")
    cx = lift(triangle(), dim=D)
    sub = full_subcomplex(cx)
    weights = identity_weights(cfg)
    states = init_states(sub, state_dim=D)
    after1 = stage1_pass(states, sub, weights, cfg)
    after2 = stage2_pass(after1, sub, weights, cfg)
    assert np.array_equal(after2.states, states.states)
    assert after2.layer == cfg.layers + 1


def test_stage1_locality_on_path_graph():
    # path 0-1-2-3; perturbing node 3 must not move node 0's state
    # within L=2 incidence hops
    cfg = config(layers=2, activation="identity")
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    cx = lift(g, dim=D)
    weights = ReasoningWeights.initialize(cfg)

    def run(complex):
        sub = full_subcomplex(complex)
        return stage1_pass(init_states(sub, state_dim=D), sub, weights, cfg)

    base = run(cx)

    import dataclasses
    z = cx.embeddings.copy()
    z[3] = z[3] + 1.5
    perturbed_cx = dataclasses.replace(cx, embeddings=z)
    moved = run(perturbed_cx)

    # node 0 is 5 incidence hops from node 3: unchanged, exactly
    assert np.array_equal(base.state(0), moved.state(0))
    # edge (0,1) is 4 hops away: unchanged
    assert np.array_equal(base.state(cx.n0), moved.state(cx.n0))
    # node 2 is 2 hops away: must move
    assert not np.array_equal(base.state(2), moved.state(2))


def test_stage1_leaves_two_cells_untouched():
    cfg = config()
    cx = lift(triangle(), dim=D)
    sub = full_subcomplex(cx)
    weights = ReasoningWeights.initialize(cfg)
    states = init_states(sub, state_dim=D)
    out = stage1_pass(states, sub, weights, cfg)
    two_cell = cx.cell_ids(2)[0]
    assert np.array_equal(out.state(two_cell), states.state(two_cell))


def test_stage2_one_cells_ignore_upper_weights_without_two_cells():
    cfg = config(layers=1)
    g = make_graph(4, [(0, 1), (1, 2), (1, 3)])  # tree: no 2-cells
    cx = lift(g, dim=D)
    sub = full_subcomplex(cx)
    w1 = ReasoningWeights.initialize(cfg)
    params = {k: v.copy() for k, v in w1.params.items()}
    params["final.upper.w"] = params["final.upper.w"] + 10.0
    w2 = ReasoningWeights(config=cfg, params=params)
    s1 = stage2_pass(init_states(sub, state_dim=D), sub, w1, cfg)
    s2 = stage2_pass(init_states(sub, state_dim=D), sub, w2, cfg)
    for ecid in cx.cell_ids(1):
        assert np.array_equal(s1.state(ecid), s2.state(ecid))
    # 0-cells do have upper neighbors (via shared edges), so they move
    assert not np.array_equal(s1.state(0), s2.state(0))


# --- oracle equivalence ---

@pytest.mark.parametrize("activation,aggregation", [
    ("relu", "sum"), ("tanh", "mean"), ("identity", "sum"),
])
def test_forward_matches_naive_reference(activation, aggregation):
    rng = random.Random(1)
    for trial in range(6):
        g = random_connected_graph(rng, rng.randrange(4, 9),
                                   rng.randrange(8, 14))
        cx = lift(g, dim=D, seed=trial)
        sub = full_subcomplex(cx)
        cfg = config(layers=rng.randrange(1, 4), activation=activation,
                     aggregation=aggregation, seed=trial)
        weights = ReasoningWeights.initialize(cfg)
        states = forward(sub, weights, cfg)
        expected = naive_forward(sub, weights, cfg)
        for cid in states.cell_ids:
            assert np.allclose(states.state(cid), expected[cid], atol=1e-6)


def graph_with_loops_and_parallels(rng: random.Random):
    """1-3 components, each with a self-loop and a parallel edge."""
    edges, n = [], 0
    for _ in range(rng.randrange(1, 4)):
        m = rng.randrange(2, 6)
        edges += [(n + rng.randrange(v), n + v) for v in range(1, m)]
        edges.append(edges[-1])
        loop = n + rng.randrange(m)
        edges.append((loop, loop))
        edges += [(n + rng.randrange(m), n + rng.randrange(m))
                  for _ in range(rng.randrange(4))]
        n += m
    rng.shuffle(edges)
    return make_graph(n, edges)


def selection(cx: CellComplex, cells) -> Subcomplex:
    """The given cells, not closed under boundaries."""
    cells = set(cells)
    return Subcomplex(
        complex=cx,
        **{f"cells{k}": tuple(c for c in cx.cell_ids(k) if c in cells)
           for k in range(3)},
        total_prize=0.0, total_cost=0.0, certificate=(), provenance=())


def partial_subcomplex(cx: CellComplex, rng: random.Random) -> Subcomplex:
    """A random cell subset, not closed under boundaries."""
    return selection(
        cx, {c for c in range(cx.num_cells) if rng.random() < 0.6} or {0})


@pytest.mark.parametrize("activation", reasoning.ACTIVATIONS)
@pytest.mark.parametrize("aggregation", reasoning.AGGREGATIONS)
def test_forward_matches_naive_reference_on_partial_selections(activation,
                                                               aggregation):
    rng = random.Random(5)
    for trial in range(8):
        policy = rng.choice([DFS, BFS, SpanningTreePolicy("random", trial)])
        cx = lift(graph_with_loops_and_parallels(rng), dim=D, seed=trial,
                  policy=policy)
        sub = partial_subcomplex(cx, rng)
        selected = set(sub.all_cells())
        # upper messages are summed in upper_adjacent's order
        inc = reasoning._Incidence(sub)
        assert [tuple(sub.all_cells()[i] for i in row) for row in inc.upper] == [
            (x, w, c) for x in sub.all_cells()
            for w, c in upper_adjacent(cx, x) if w in selected and c in selected]
        cfg = config(layers=rng.randrange(1, 4), activation=activation,
                     aggregation=aggregation, seed=trial)
        weights = ReasoningWeights.initialize(cfg)
        states = forward(sub, weights, cfg)
        staged = stage2_pass(
            stage1_pass(init_states(sub, state_dim=D), sub, weights, cfg),
            sub, weights, cfg)
        assert np.array_equal(states.states, staged.states)
        assert states.layer == staged.layer == cfg.layers + 1
        expected = naive_forward(sub, weights, cfg)
        for cid in states.cell_ids:
            assert np.allclose(states.state(cid), expected[cid], atol=1e-6)
        # the factored maps only reorder float64 sums
        np.testing.assert_allclose(states.states,
                                   pairwise_forward(sub, weights, cfg),
                                   rtol=1e-12, atol=1e-12)


def test_forward_matches_pairwise_reference_on_fixture():
    cfg = PipelineConfig()  # d = 1024, 3 layers
    weights = ReasoningWeights.initialize(cfg.reasoning_config())
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    assert len(examples) == 10
    for ex in examples:
        sub = retrieve_for_question(lift_from_config(ex.graph, cfg),
                                    ex.question, cfg)
        states = forward(sub, weights, cfg.reasoning_config())
        np.testing.assert_allclose(
            states.states,
            pairwise_forward(sub, weights, cfg.reasoning_config()),
            rtol=1e-12, atol=1e-12)


def selections_with_silent_cells():
    """Subcomplexes where some cell receives no message of some kind: an
    isolated vertex, every kind of single cell, and 0-cells none of whose
    cofaces is selected beside a 2-cell missing some of its edges."""
    isolated = lift(make_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3)]), dim=D)
    assert not isolated.neighbors(4)
    cx = lift(two_triangles(), dim=D, seed=3)
    two_cell = cx.cell_ids(2)[0]
    edges = cx.boundary(two_cell)
    yield full_subcomplex(isolated)
    yield from (selection(cx, [cx.cell_ids(k)[0]]) for k in range(3))
    yield selection(cx, [*cx.cell_ids(0), edges[0], two_cell])
    yield selection(cx, [*cx.cell_ids(0)[:2], *edges[1:], *cx.cell_ids(2)])


@pytest.mark.parametrize("cast_pool", [2], indirect=True)
@pytest.mark.parametrize("aggregation", reasoning.AGGREGATIONS)
def test_forward_on_cells_without_messages(cast_pool, aggregation,
                                           monkeypatch):
    monkeypatch.setattr(reasoning, "_CAST_ROWS", 5)  # D = 16: 5, 5, 5, 1
    for trial, sub in enumerate(selections_with_silent_cells()):
        cfg = config(layers=2, aggregation=aggregation, seed=trial)
        weights = ReasoningWeights.initialize(cfg)
        states = forward(sub, weights, cfg)
        np.testing.assert_allclose(states.states,
                                   pairwise_forward(sub, weights, cfg),
                                   rtol=1e-12, atol=1e-12)
        expected = naive_forward(sub, weights, cfg)
        for cid in states.cell_ids:
            assert np.allclose(states.state(cid), expected[cid], atol=1e-6)
        with monkeypatch.context() as patch:
            patch.setattr(reasoning, "_products", held_serial_products)
            assert np.array_equal(states.states,
                                  forward(sub, weights, cfg).states)


# --- permutation equivariance ---

def permute_complex(cx: CellComplex, rng: random.Random) -> tuple[CellComplex, dict]:
    """Relabel cells within each dimension; returns (complex, old->new map)."""
    import dataclasses
    p0 = list(range(cx.n0))
    p1 = list(range(cx.n1))
    p2 = list(range(cx.n2))
    rng.shuffle(p0)
    rng.shuffle(p1)
    rng.shuffle(p2)
    mapping = {}
    for v in range(cx.n0):
        mapping[v] = p0[v]
    for i in range(cx.n1):
        mapping[cx.n0 + i] = cx.n0 + p1[i]
    for j in range(cx.n2):
        mapping[cx.n0 + cx.n1 + j] = cx.n0 + cx.n1 + p2[j]

    def csr(rows, dtype):
        ptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
        return ptr, np.array([x for r in rows for x in r], dtype=dtype)

    def moved(values, new_index, relabel=True):
        """``values`` placed at ``new_index``, relabeled through the
        mapping when ``relabel`` (-1, at a root, stays)."""
        out = np.empty_like(values)
        out[new_index] = [mapping.get(x, -1) for x in values.tolist()] \
            if relabel else values
        return out

    ends = [None] * cx.n1
    for i in range(cx.n1):
        ends[p1[i]] = [p0[v] for v in cx.boundary(cx.n0 + i)]
    src = np.array([e[0] for e in ends], dtype=np.int32)
    dst = np.array([e[-1] for e in ends], dtype=np.int32)
    # the walks follow from the relabeled forest and non-tree 1-cells
    forest = dict(
        ancestors=np.stack([moved(row, p0 + [cx.n0]) for row in cx.ancestors]),
        parent_edge=moved(cx.parent_edge, p0),
        two_edge=moved(cx.two_edge, p2), two_lca=moved(cx.two_lca, p2),
        cycle_lengths=moved(cx.cycle_lengths, p2, relabel=False))
    pairs = [None] * cx.n0
    for v in range(cx.n0):
        pairs[mapping[v]] = [(mapping[e], mapping[w])
                             for e, w in cx.neighbors(v)]
    adj_ptr, adj = csr(pairs, np.int32)
    adj = adj.reshape(-1, 2)
    z = np.empty_like(cx.embeddings)
    for cid in range(cx.n0 + cx.n1):  # a 2-cell's vector is read off these
        z[mapping[cid]] = cx.embeddings[cid]
    permuted = dataclasses.replace(
        cx,
        edge_src=src, edge_dst=dst, **forest,
        adj_ptr=adj_ptr, adj_edge=adj[:, 0], adj_other=adj[:, 1],
        embeddings=z,
    )
    return permuted, mapping


def test_pooled_embedding_invariant_under_relabeling():
    rng = random.Random(2)
    cfg = config(layers=2)
    weights = ReasoningWeights.initialize(cfg)
    for trial in range(5):
        g = random_connected_graph(rng, 6, 10)
        cx = lift(g, dim=D, seed=trial)
        sub = full_subcomplex(cx)
        pooled = pool(forward(sub, weights, cfg), sub)

        permuted, mapping = permute_complex(cx, rng)
        psub = full_subcomplex(permuted)
        pstates = forward(psub, weights, cfg)
        ppooled = pool(pstates, psub)
        assert np.allclose(pooled, ppooled, atol=1e-6)

        # per-cell states are permuted along with the ids
        states = forward(sub, weights, cfg)
        for cid in states.cell_ids:
            assert np.allclose(states.state(cid), pstates.state(mapping[cid]),
                               atol=1e-6)


# --- pooling and projection ---

def test_pool_of_identical_states():
    cx = lift(triangle(), dim=D)
    sub = full_subcomplex(cx)
    v = np.arange(D, dtype=np.float64)
    states = CellStates(cell_ids=sub.all_cells(),
                        states=np.tile(v, (cx.num_cells, 1)), layer=0)
    assert np.allclose(pool(states, sub), v)


def test_pool_two_basis_states():
    cx = lift(make_graph(2, [(0, 1)]), dim=2)
    sub = Subcomplex(complex=cx, cells0=(0, 1), cells1=(), cells2=(),
                     total_prize=0, total_cost=0, certificate=(),
                     provenance=())
    states = CellStates(cell_ids=(0, 1),
                        states=np.array([[1.0, 0.0], [0.0, 1.0]]), layer=0)
    assert np.allclose(pool(states, sub), [0.5, 0.5])


def test_pool_empty_raises():
    cx = lift(triangle(), dim=D)
    sub = Subcomplex(complex=cx, cells0=(), cells1=(), cells2=(),
                     total_prize=0, total_cost=0, certificate=(),
                     provenance=())
    with pytest.raises(EmptySubcomplex):
        pool(CellStates(cell_ids=(), states=np.zeros((0, D)), layer=0), sub)


def test_identity_projection():
    cfg = config(activation="identity")
    weights = identity_weights(cfg)
    h = np.linspace(-1, 1, D)
    assert np.allclose(project(h, weights), h)


def test_zero_projection():
    cfg = config()
    weights = identity_weights(cfg)
    params = {k: v.copy() for k, v in weights.params.items()}
    params["proj.w"] = np.zeros_like(params["proj.w"])
    zeroed = ReasoningWeights(config=cfg, params=params)
    assert np.allclose(project(np.ones(D), zeroed), 0.0)


def test_projection_dim():
    cfg = config(proj_dim=7)
    weights = ReasoningWeights.initialize(cfg)
    out = project(np.ones(D), weights)
    assert out.shape == (7,)
    with pytest.raises(DimensionMismatch):
        project(np.ones(D + 1), weights)


# --- weight files ---

def assert_one_buffer(weights):
    base = weights["layer0.face.w"].base
    assert base is not None
    assert all(arr.base is base for arr in weights.params.values())
    assert base.size == sum(arr.size for arr in weights.params.values())


def test_weight_file_round_trip_bit_exact(tmp_path):
    cfg = config(layers=3, proj_dim=9)
    weights = ReasoningWeights.initialize(cfg)
    p1 = tmp_path / "w1.bin"
    p2 = tmp_path / "w2.bin"
    weights.save(p1)
    reloaded = ReasoningWeights.load(p1)
    assert reloaded.config == cfg
    for name, arr in weights.params.items():
        assert np.array_equal(arr, reloaded.params[name])
        assert arr.dtype == reloaded.params[name].dtype == np.float32
    assert_one_buffer(reloaded)
    reloaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_weight_file_bytes_are_pinned(tmp_path):
    # pins the spec order, the seeded values and the header bytes
    path = tmp_path / "w.bin"
    ReasoningWeights.initialize(config(proj_dim=9)).save(path)
    data = path.read_bytes()
    assert len(data) == 27935
    assert hashlib.sha256(data).hexdigest() == (
        "879941f292ce44b48d5b53bc8062906fc1f15f9108e8cdd32dc0fb4c5833408c")


def _cut_payload(header, payload):
    return header, payload[:-1]


def _shrink_state_dim(header, payload):
    return {**header, "state_dim": D - 1}, payload


def _zero_proj_dim(header, payload):
    # arrays that agree with proj_dim 0, so only the dimension is wrong
    arrays = [{**spec, "shape": [0] + spec["shape"][1:]}
              if spec["name"].startswith("proj.") else spec
              for spec in header["arrays"]]
    return {**header, "proj_dim": 0, "arrays": arrays}, payload


def poison(payload, header, values):
    """The payload with ``values[name] = (flat index, value)`` written."""
    weights = np.frombuffer(payload, dtype="<f4").copy()
    offset = 0
    for spec in header["arrays"]:
        if spec["name"] in values:
            index, value = values[spec["name"]]
            weights[offset + index] = value
        offset += int(np.prod(spec["shape"]))
    return weights.tobytes()


def _nan_proj(header, payload):
    return header, poison(payload, header, {"proj.w": (0, np.nan)})


def _inf_and_nan(header, payload):
    # layer0.face.w[1, 1] comes first in the file
    return header, poison(payload, header, {
        "proj.w": (0, np.nan), "layer0.face.w": (2 * D + 1, np.inf)})


def _negative_inf_bias(header, payload):
    return header, poison(payload, header, {"final.upper.b": (D - 1, -np.inf)})


@pytest.mark.parametrize("damage,message", [
    (_cut_payload, "truncated weight payload"),
    (_shrink_state_dim, "weight shapes do not match the config"),
    (_zero_proj_dim, "proj_dim must be positive"),
    (_nan_proj, "weight proj.w is not finite"),
    (_inf_and_nan, "weight layer0.face.w is not finite"),
    (_negative_inf_bias, "weight final.upper.b is not finite"),
], ids=["truncated", "shapes-disagree", "proj_dim-0", "nan", "inf-and-nan",
        "negative-inf-bias"])
def test_damaged_weight_file_is_validation_error(tmp_path, damage, message):
    path = tmp_path / "w.bin"
    ReasoningWeights.initialize(config(proj_dim=9)).save(path)
    header, _, payload = path.read_bytes().partition(b"\n")
    header, payload = damage(json.loads(header), payload)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValidationError, match=message):
        ReasoningWeights.load(path)


def test_projection_bit_stable_through_file(tmp_path):
    cfg = config()
    weights = ReasoningWeights.initialize(cfg)
    path = tmp_path / "w.bin"
    weights.save(path)
    reloaded = ReasoningWeights.load(path)
    h = np.linspace(0, 1, D)
    a = project(h, weights)
    b = project(h, reloaded)
    assert np.array_equal(a, b)


def test_forward_deterministic():
    cfg = config()
    cx = lift(triangle(), dim=D)
    sub = full_subcomplex(cx)
    weights = ReasoningWeights.initialize(cfg)
    s1 = forward(sub, weights, cfg)
    s2 = forward(sub, weights, cfg)
    assert np.array_equal(s1.states, s2.states)


# --- chunked threaded init and block-cast affine maps ---

@pytest.mark.parametrize("cfg", [
    ReasoningConfig(layers=2, state_dim=D, seed=3),
    ReasoningConfig(layers=3, state_dim=7, proj_dim=5, seed=11),
    # 343,200 draws: two full chunks and a ragged third
    ReasoningConfig(layers=1, state_dim=130, proj_dim=300, seed=5,
                    activation="tanh", aggregation="mean"),
])
@pytest.mark.parametrize("chunk", [reasoning._INIT_CHUNK, 997])
def test_initialize_matches_sequential_reference(cfg, chunk, monkeypatch):
    monkeypatch.setattr(reasoning, "_INIT_CHUNK", chunk)
    expected = sequential_initialize(cfg)
    weights = ReasoningWeights.initialize(cfg)
    assert list(weights.params) == list(expected)
    for name, arr in expected.items():
        got = weights.params[name]
        assert got.dtype == np.float32 and got.shape == arr.shape
        assert np.array_equal(got, arr), name


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_initialize_independent_of_worker_count(workers, monkeypatch):
    monkeypatch.setattr(reasoning, "_INIT_CHUNK", 1009)
    cfg = ReasoningConfig(layers=2, state_dim=33, proj_dim=10, seed=9)
    expected = np.concatenate(
        [arr.ravel() for arr in sequential_initialize(cfg).values()])
    got = np.empty_like(expected)
    reasoning._fill_uniform(got, cfg.seed, 1.0 / np.sqrt(cfg.state_dim),
                            workers)
    assert np.array_equal(got, expected)


def test_initialize_params_share_one_buffer():
    assert_one_buffer(ReasoningWeights.initialize(config()))


def test_products_matches_whole_matrix_cast():
    rng = np.random.default_rng(4)
    cfg = ReasoningConfig(layers=1, state_dim=D, proj_dim=300, seed=2)
    weights = ReasoningWeights.initialize(cfg)
    w, b = weights["proj.w"], weights["proj.b"]  # 300 rows: a ragged block
    h = rng.standard_normal(D)
    assert np.array_equal(project(h, weights),
                          w.astype(np.float64) @ h + b.astype(np.float64))
    x = rng.standard_normal((5, D))
    expected = x @ w.T.astype(np.float64)
    [[got]] = _products([([x], w)])
    assert got.shape == (5, 300)
    # BLAS may sum the ragged last block in another order: a few ulps
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_forward_holds_no_float64_weight_copy():
    # d = 1024: final.update.w cast whole is 32 MB of float64; cast a
    # tile of 128 rows by one input's 1024 columns at a time, it is 1 MB
    # per worker
    d = 1024
    cfg = ReasoningConfig(layers=1, state_dim=d, proj_dim=d, seed=1)
    weights = ReasoningWeights.initialize(cfg)
    sub = full_subcomplex(lift(k4(), dim=d))
    tracemalloc.start()
    try:
        states = forward(sub, weights, cfg)
        project(pool(states, sub), weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"forward peaked at {peak / 2**20:.1f} MB"


# --- no wasted work ---

def record_products(patch, weights) -> list[tuple[str, list[np.ndarray]]]:
    """Patch ``_products`` to record (map name, inputs) per job."""
    names = {id(weights[name]): name.removesuffix(".w")
             for name in weights.params if name.endswith(".w")}
    products = reasoning._products
    calls = []

    def recording(jobs):
        calls.extend((names[id(w)], [x.copy() for x in xs]) for xs, w in jobs)
        return products(jobs)

    patch.setattr(reasoning, "_products", recording)
    return calls


def count_dispatches(patch) -> list[int]:
    """Patch ``_cast_pool`` to run each dispatch's tasks in order on the
    calling thread, recording the number of tasks of each."""
    dispatches = []

    class CountingPool:
        _max_workers = 2

        def map(self, fn, items):
            items = list(items)
            dispatches.append(len(items))
            return map(fn, items)

    patch.setattr(reasoning, "_cast_pool", CountingPool)
    return dispatches


def test_degenerate_subcomplex_casts_no_message_map(monkeypatch):
    cfg = config(layers=2)
    cx = lift(k4(), dim=D)
    sub = retrieve_subcomplex(cx, cx.embeddings[0], k0=0, k1=0, k2=0, c2=0.5)
    assert sub.degenerate and len(sub.all_cells()) == 1
    weights = ReasoningWeights.initialize(cfg)
    calls = record_products(monkeypatch, weights)
    dispatches = count_dispatches(monkeypatch)
    forward(sub, weights, cfg)
    assert [name for name, xs in calls if any(len(x) for x in xs)] == [
        "layer0.update", "layer1.update", "final.update"]
    # the one cell's own state, and no message: none lands on it
    for name, xs in calls:
        assert [len(x) for x in xs] == (
            [1] + [0] * (len(xs) - 1) if name.endswith(".update")
            else [0] * len(xs)), name
    assert len(dispatches) == cfg.layers + 1


def test_stage1_passes_no_two_cell_row_to_a_map(monkeypatch):
    rng = random.Random(11)
    graphs = [k4()] + [graph_with_loops_and_parallels(rng) for _ in range(4)]
    checked = 0  # selections with both 2-cells and a stage-1 update
    for trial, g in enumerate(graphs):
        cx = lift(g, dim=D, seed=trial)
        sub = full_subcomplex(cx) if trial < 2 else partial_subcomplex(cx, rng)
        cfg = config(layers=3, seed=trial)
        weights = ReasoningWeights.initialize(cfg)
        states = init_states(sub, state_dim=D)
        dims = np.array([cx.dim(c) for c in states.cell_ids])
        two_cells = states.states[dims == 2]
        with monkeypatch.context() as patch:
            calls = record_products(patch, weights)
            stage1_pass(states, sub, weights, cfg)
        updates = [xs for name, xs in calls
                   if name.endswith(".update") and len(xs[0])]
        assert len(updates) == (cfg.layers if (dims <= 1).any() else 0)
        for name, xs in calls:
            assert name.startswith("layer")
            if name.endswith(".update"):
                # every 0- and 1-cell's own state; at most one message each
                assert len(xs[0]) == (dims <= 1).sum()
                assert all(len(x) <= len(xs[0]) for x in xs[1:])
            # 2-cell states never change in stage 1, so any row equal to
            # one would be a 2-cell's
            for x in xs:
                assert not (x[:, None] == two_cells[None]).all(-1).any(), name
        checked += bool(len(two_cells) and updates)
    assert checked >= 2


def landing_cells(sub):
    """{message: sorted cells at least one message lands on}, read off
    the complex: stage 1's face and coface, then stage 2's three."""
    cx, selected = sub.complex, set(sub.all_cells())
    low = {c for c in selected if cx.dim(c) <= 1}
    faces = {c for c in selected
             if any(b in selected for b in cx.boundary(c))}
    above = {c for c in selected
             if any(z in selected for z in cofaces(cx, c))}
    return {
        "face": sorted(faces & low),
        "coface": sorted(c for c in low if any(
            z in selected and cx.dim(z) == 1
            for z in cofaces(cx, c))),
        "final.face": sorted(faces),
        "final.coface": sorted(above),
        "final.upper": sorted(c for c in selected if any(
            w in selected and z in selected
            for w, z in upper_adjacent(cx, c))),
    }


def test_update_multiplies_only_cells_a_message_lands_on(monkeypatch):
    rng = random.Random(17)
    for trial in range(6):
        cx = lift(graph_with_loops_and_parallels(rng), dim=D, seed=trial)
        sub = full_subcomplex(cx) if trial < 2 else partial_subcomplex(cx, rng)
        cfg = config(layers=2, seed=trial,
                     aggregation=reasoning.AGGREGATIONS[trial % 2])
        weights = ReasoningWeights.initialize(cfg)
        states = init_states(sub, state_dim=D)
        landing = landing_cells(sub)
        with monkeypatch.context() as patch:
            calls = record_products(patch, weights)
            stage2_pass(states, sub, weights, cfg)
        # the message parts of final.update: one row per landing cell,
        # its aggregated message, in cell order
        final = dict(calls)["final.update"]
        inc = reasoning._Incidence(sub)
        for x, message, pairs in zip(final[1:], ("face", "coface", "upper"),
                                     (inc.face, inc.coface, inc.upper)):
            cells = landing[f"final.{message}"]
            rows = [sub.all_cells().index(c) for c in cells]
            expected = _pairwise_messages(states.states, pairs, weights,
                                          f"final.{message}", cfg)[rows]
            np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12)
        with monkeypatch.context() as patch:
            calls = record_products(patch, weights)
            stage1_pass(states, sub, weights, cfg)
        for name, xs in calls:
            if name.endswith(".update") and len(xs[0]):
                assert [len(x) for x in xs[1:]] == [
                    len(landing["face"]), len(landing["coface"])], name


def test_forward_dispatches_once_per_step(monkeypatch):
    monkeypatch.setattr(reasoning, "_CAST_ROWS", 5)  # 4 blocks a map
    rng = random.Random(19)
    cfg = config(layers=3, proj_dim=11)
    weights = ReasoningWeights.initialize(cfg)
    subs = [full_subcomplex(lift(k4(), dim=D))] + [
        partial_subcomplex(lift(graph_with_loops_and_parallels(rng), dim=D,
                                seed=trial), rng) for trial in range(6)]
    for i, sub in enumerate(subs):
        with monkeypatch.context() as patch:
            dispatches = count_dispatches(patch)
            states = forward(sub, weights, cfg)
            stepped = len(dispatches)
            project(pool(states, sub), weights)
        # a message step and an update step per stage-1 layer and in
        # stage 2; every step has work on k4
        assert stepped <= 2 * cfg.layers + 2
        if i == 0:
            assert stepped == 2 * cfg.layers + 2
        assert len(dispatches) == stepped + 1
        # one task per worker, whatever the number of maps and blocks
        assert dispatches == [2] * len(dispatches)


# --- row blocks on a pool, BLAS held to one thread ---

def held_serial_products(jobs):
    """The serial reference over the same tiles and BLAS thread count."""
    with reasoning._one_blas_thread():
        return serial_products(jobs, rows=reasoning._CAST_ROWS)


@pytest.fixture
def cast_pool(request, monkeypatch):
    """Deal ``_products``' blocks to a pool of ``request.param`` workers."""
    executor = ThreadPoolExecutor(max_workers=request.param)
    monkeypatch.setattr(reasoning, "_cast_pool", lambda: executor)
    yield executor
    executor.shutdown()


@pytest.mark.parametrize("cast_pool", [1, 2], indirect=True)
@pytest.mark.parametrize("rows", [1, 127, 128, 129, 300, 1024])
@pytest.mark.parametrize("batch", [(), (0,), (5,), (40,)])
def test_pooled_linear_matches_serial_reference(cast_pool, rows, batch):
    rng = np.random.default_rng(rows + len(batch))
    k = 1024
    # one, two and three column blocks, each a job with its own weights
    # (so its own number of row blocks), all in one call; after the
    # first, each input has its own number of rows, as distinct rows do
    jobs = []
    for extra, widths in enumerate(((k,), (512, 512), (384, 128, 512))):
        w = rng.standard_normal((rows + extra, k)).astype(np.float32)
        xs = [rng.standard_normal(
                  ((batch[0] + 3 * j,) if batch and j else batch) + (width,))
              for j, width in enumerate(widths)]
        jobs.append((xs, w))
    got = _products(jobs)
    expected = held_serial_products(jobs)
    assert len(got) == len(jobs)
    for (xs, w), outs, wants in zip(jobs, got, expected):
        assert len(outs) == len(xs)
        for x, out, want in zip(xs, outs, wants):
            assert out.shape == x.shape[:-1] + (len(w),)
            assert np.array_equal(out, want)


@pytest.mark.parametrize("cast_pool", [1, 2], indirect=True)
@pytest.mark.parametrize("activation", reasoning.ACTIVATIONS)
@pytest.mark.parametrize("aggregation", reasoning.AGGREGATIONS)
def test_pooled_forward_matches_serial_reference(cast_pool, activation,
                                                 aggregation, monkeypatch):
    monkeypatch.setattr(reasoning, "_CAST_ROWS", 5)  # D = 16: 5, 5, 5, 1
    rng = random.Random(13)
    for trial in range(4):
        policy = rng.choice([DFS, BFS, SpanningTreePolicy("random", trial)])
        cx = lift(graph_with_loops_and_parallels(rng), dim=D, seed=trial,
                  policy=policy)
        sub = partial_subcomplex(cx, rng)
        cfg = config(layers=rng.randrange(1, 4), activation=activation,
                     aggregation=aggregation, seed=trial, proj_dim=11)
        weights = ReasoningWeights.initialize(cfg)
        states = forward(sub, weights, cfg)
        projected = project(pool(states, sub), weights)
        with monkeypatch.context() as patch:
            patch.setattr(reasoning, "_products", held_serial_products)
            expected = forward(sub, weights, cfg)
            expected_projected = project(pool(expected, sub), weights)
        assert np.array_equal(states.states, expected.states)
        assert np.array_equal(projected, expected_projected)


def test_blas_held_to_one_thread_and_restored(monkeypatch):
    blas = reasoning._blas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter found")
    get, set_ = blas

    seen = []

    class RecordingPool:
        _max_workers = 2

        def map(self, fn, items):
            seen.append(get())
            return map(fn, items)

    cfg = config()
    weights = ReasoningWeights.initialize(cfg)
    sub = full_subcomplex(lift(k4(), dim=D))
    start = get()
    try:
        for threads in (1, 2):
            set_(threads)
            forward(sub, weights, cfg)
            assert get() == threads
            with monkeypatch.context() as patch:
                patch.setattr(reasoning, "_cast_pool", RecordingPool)
                forward(sub, weights, cfg)
            assert get() == threads
    finally:
        set_(start)
    assert seen and set(seen) == {1}


def test_blas_threads_found_where_numpy_names_openblas():
    # a lookup that silently failed would run _products on one worker
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25: no mode
        pytest.skip("numpy cannot report its BLAS")
    if "openblas" not in blas["name"].lower():
        pytest.skip(f"numpy links {blas['name']}, not OpenBLAS")
    assert reasoning._blas_threads() is not None


@pytest.mark.parametrize("cpus,found,workers", [
    (1, True, 1), (2, True, 2), (8, True, 2), (8, False, 1)])
def test_cast_pool_size(cpus, found, workers, monkeypatch):
    monkeypatch.setattr(reasoning, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(reasoning, "_blas_threads",
                        lambda: (lambda: 1, lambda n: None) if found else None)
    executor = reasoning._cast_pool.__wrapped__()
    try:
        assert executor._max_workers == workers
    finally:
        executor.shutdown()
