"""Acceptance criteria, one test per criterion.

Each test prints one `[ACCEPTANCE n] name: PASS` line (pytest shows the
failure otherwise) and asserts its runtime budget.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import requests

import toporag
from toporag.config import PipelineConfig
from toporag.embedding import DeterministicProvider, cosine
from toporag.evaluation import evaluate, sweep_k2
from toporag.generation import mock_llm, textualize
from toporag.graph_io import load_qa_fixture, save_graph
from toporag.lifting import (BFS, DFS, SpanningTreePolicy, lift_graph,
                             verify_cycle_basis)
from toporag.pipeline import retrieve_for_question
from toporag.reasoning import ReasoningConfig, ReasoningWeights, forward, pool
from toporag.retrieval import (PRIZE_INDEXING, assign_prizes, is_feasible,
                               retrieve_subcomplex, solve_subcomplex,
                               subcomplex_to_dict, topk_cells, topk_two_cells)
from toporag.service import make_server

import reference_lifting as ref
from helpers import (FIXTURES, lift, make_graph, random_connected_graph,
                     tree_edges)
from reference_pcst import brute_force_subcomplex
from reference_reasoning import naive_forward

POLICIES = [DFS, BFS, SpanningTreePolicy("random", seed=17)]


def report(number, name, budget_s, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" ({elapsed:.1f}s{', ' + detail if detail else ''})"
    print(f"[ACCEPTANCE {number:02d}] {name}: PASS{suffix}")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_c01_homology_counting():
    started = time.perf_counter()
    rng = random.Random(2024)
    zero = np.zeros(4, dtype=np.float32)
    sizes = [(200, 800), (5, 800), (200, 199)]  # envelope corners
    while len(sizes) < 200:
        n = rng.randrange(5, 201)
        sizes.append((n, rng.randrange(n - 1, 801)))
    for n, m in sizes:
        g = random_connected_graph(rng, n, m)
        expected = g.num_edges - g.num_nodes + 1
        node_vecs, edge_vecs = [zero] * g.num_nodes, [zero] * g.num_edges
        for policy in POLICIES:
            cx = lift_graph(g, node_vecs, edge_vecs, policy=policy)
            assert cx.n2 == expected
            rep = verify_cycle_basis(cx)
            assert rep.betti1 == expected
            assert ref.gf2_rank(ref.boundary_rows(cx)) == rep.rank_gf2 == cx.n2
            assert rep.independent and rep.spans
    report(1, "homology counting over 200 random graphs x 3 policies", 30,
           started, detail=f"{len(sizes)} graphs")


def test_c02_spanning_tree_structural_invariance():
    started = time.perf_counter()
    rng = random.Random(77)
    zero = np.zeros(4, dtype=np.float32)
    for _ in range(100):
        n = rng.randrange(5, 80)
        m = rng.randrange(n - 1, 3 * n)
        g = random_connected_graph(rng, n, m)
        node_vecs, edge_vecs = [zero] * g.num_nodes, [zero] * g.num_edges
        results = []
        for policy in POLICIES:
            cx = lift_graph(g, node_vecs, edge_vecs, policy=policy)
            rep = verify_cycle_basis(cx)
            forest_sizes = sorted(np.bincount(cx.component).tolist())
            rank = ref.gf2_rank(ref.boundary_rows(cx))
            results.append((cx.n2, rep.rank_gf2, rank, forest_sizes))
        assert results[0] == results[1] == results[2]
    report(2, "per-graph |X2| and GF(2) rank invariant across policies", 10,
           started)


def test_c03_topk_matches_full_sort_oracle():
    started = time.perf_counter()
    rng = random.Random(31)
    instances = 0
    for trial in range(100):
        if trial < 97:
            n = rng.randrange(5, 60)
            m = rng.randrange(n - 1, 2 * n)
        else:  # a few near the 2,000-cell bound
            n = rng.randrange(500, 700)
            m = rng.randrange(n - 1, 1300)
        g = random_connected_graph(rng, n, m)
        cx = lift(g, dim=8, seed=trial)
        assert cx.n0 + cx.n1 <= 2000 or trial >= 97
        z_q = DeterministicProvider(dim=8, seed=1000 + trial).embed(
            [f"query {trial} node {rng.randrange(n)}"])[0]
        for dim in (0, 1):
            k = rng.choice([0, 1, 3, 10, 10_000])
            got = topk_cells(cx, z_q, dim, k)
            scored = [(cid, cosine(cx.vector(cid), z_q))
                      for cid in cx.cell_ids(dim)]
            expected = sorted(scored, key=lambda t: (-t[1], t[0]))[:k]
            assert got == expected
        instances += 1
    report(3, "top-k equals full-sort oracle on 100 instances", 10, started,
           detail=f"{instances} instances")


def test_c04_prize_formula_exactness_and_monotonicity():
    started = time.perf_counter()
    rng = random.Random(44)
    tuples_checked = 0
    while tuples_checked < 1000:
        n = rng.randrange(5, 25)
        m = rng.randrange(n + 3, 2 * n + 12)
        base = random_connected_graph(rng, n, m)
        # a self-loop at a vertex that is ranked first, and a parallel edge
        loop_at = rng.randrange(n)
        parallel = base.edges[rng.randrange(m)]
        g = make_graph(n, [(e.src, e.dst) for e in base.edges]
                       + [(loop_at, loop_at), (parallel.src, parallel.dst)])
        cx = lift(g, dim=4, seed=n)
        k = rng.randrange(1, 6)
        others = [v for v in cx.cell_ids(0) if v != loop_at]
        ranked0 = [(cid, 1.0 - 0.01 * i) for i, cid in enumerate(
            [loop_at] + rng.sample(others, min(k, cx.n0) - 1))]
        ranked1 = [(cid, 1.0 - 0.01 * i) for i, cid in enumerate(
            rng.sample(list(cx.cell_ids(1)), min(k, cx.n1)))]
        c2 = rng.choice([0.0, 0.1, 0.5, 1.0, 2.5])
        indexing = rng.choice(PRIZE_INDEXING)
        offset = {"alg3": 0, "eq14": 1}[indexing]
        a = assign_prizes(ranked0, ranked1, cx, k, c2, indexing=indexing)
        higher = assign_prizes(ranked0, ranked1, cx, k,
                               c2 + rng.choice([0.1, 1.0]), indexing=indexing)
        # independent substitution: rebuild the prize map from scratch
        direct = {cid: float(k - r - offset)
                  for r, (cid, _) in enumerate(ranked0)}
        direct.update({cid: float(k - r - offset)
                       for r, (cid, _) in enumerate(ranked1)})
        for cid in cx.cell_ids(2):
            # the cycle's vertices as the reference lift finds them
            vertices, _ = ref.fundamental_cycle(
                g, cx.boundary(cid)[-1] - cx.n0, tree_edges(cx))
            boundary_prize = 0.0
            for v in vertices[:-1]:
                boundary_prize += direct.get(v, 0.0)
            for e in cx.boundary(cid):
                boundary_prize += direct.get(e, 0.0)
            expected = boundary_prize - len(cx.boundary(cid)) * c2
            assert a.prize_of(cid) == expected  # exact
            assert higher.prize_of(cid) <= a.prize_of(cid)  # exact monotone
            tuples_checked += 1
    report(4, "2-cell prizes match direct substitution", 30, started,
           detail=f"{tuples_checked} tuples")


def _curated_suite():
    """20 fixed small instances (<= 12 cells) with seeded prize draws."""
    rng = random.Random(9)
    structures = [
        ("edge", make_graph(2, [(0, 1)])),
        ("path3", make_graph(3, [(0, 1), (1, 2)])),
        ("star4", make_graph(4, [(0, 1), (0, 2), (0, 3)])),
        ("triangle", make_graph(3, [(0, 1), (0, 2), (1, 2)])),
        ("square", make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
        ("square_chord", make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
        ("parallel_pair", make_graph(2, [(0, 1), (0, 1)])),
        ("parallel_triple", make_graph(2, [(0, 1), (0, 1), (0, 1)])),
        ("triangle_pendant", make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])),
        ("five_cycle", make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])),
    ]
    instances = []
    for name, g in structures:
        for draw in range(2):
            cx = lift(g, dim=4, seed=draw)
            assert cx.num_cells <= 12, name
            k = 3
            n_r0 = rng.randrange(1, min(3, cx.n0) + 1)
            n_r1 = rng.randrange(0, min(3, cx.n1) + 1)
            ranked0 = [(cid, 1.0 - 0.05 * i) for i, cid in enumerate(
                rng.sample(list(cx.cell_ids(0)), n_r0))]
            ranked1 = [(cid, 1.0 - 0.05 * i) for i, cid in enumerate(
                rng.sample(list(cx.cell_ids(1)), n_r1))]
            a = assign_prizes(ranked0, ranked1, cx, k,
                              c2=rng.choice([0.1, 0.5, 1.0]),
                              c_edge=rng.choice([0.5, 1.0]))
            instances.append((f"{name}#{draw}", cx, a, ranked0))
    return instances


def test_c05_solver_feasibility_and_oracle_gap():
    started = time.perf_counter()
    suite = _curated_suite()
    assert len(suite) == 20
    ratios = []
    for name, cx, a, ranked0 in suite:
        selected2 = topk_two_cells(a, cx, 2)
        sub = solve_subcomplex(cx, a, selected2, fallback=ranked0[0])
        cells = frozenset(sub.all_cells())
        assert is_feasible(cx, cells), name
        oracle = brute_force_subcomplex(cx, a)
        assert sub.objective <= oracle.objective + 1e-12, name
        if oracle.objective > 0:
            ratios.append(sub.objective / oracle.objective)
    mean_ratio = sum(ratios) / len(ratios)
    detail = f"mean objective ratio {mean_ratio:.3f} over {len(ratios)}"
    if mean_ratio < 0.9:
        print(f"[ACCEPTANCE 05] design target missed: {detail}")
    assert mean_ratio >= 0.9, detail  # holds for this solver; see detail
    report(5, "solver feasible, oracle-bounded on curated suite", 60, started,
           detail=detail)


def test_c06_k2_zero_degeneration_and_sweep_monotonicity():
    started = time.perf_counter()
    rng = random.Random(66)
    provider = DeterministicProvider(dim=16, seed=7)
    for trial in range(10):
        g = random_connected_graph(rng, 12, 26)
        cx = lift(g)
        z_q = provider.embed([f"node {rng.randrange(12)} edge"])[0]
        via_k2 = retrieve_subcomplex(cx, z_q, 3, 3, 0, c2=0.25)
        a = assign_prizes(topk_cells(cx, z_q, 0, 3), topk_cells(cx, z_q, 1, 3),
                          cx, (3, 3), 0.25)
        explicit = solve_subcomplex(cx, a, [],
                                    fallback=topk_cells(cx, z_q, 0, 1)[0])
        assert via_k2.cells2 == ()
        assert json.dumps(subcomplex_to_dict(via_k2), sort_keys=True) == \
            json.dumps(subcomplex_to_dict(explicit), sort_keys=True)

    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    cfg = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                         mock_llm_mode="lookup", c2=0.1)
    reports = sweep_k2(examples, cfg)
    n2 = [r.size_table["avg_n2"] for r in reports]
    assert n2[0] == 0.0
    assert all(b >= a for a, b in zip(n2, n2[1:]))
    report(6, "k2=0 degenerates bit-for-bit; n2 non-decreasing in k2", 20,
           started, detail=f"avg n2 by k2: {n2}")


def test_c07_reasoning_engine_properties():
    started = time.perf_counter()
    rng = random.Random(7)
    import test_reasoning as tr

    # (a) pooled embedding invariant under relabeling
    cfg = ReasoningConfig(layers=2, state_dim=16, activation="relu",
                          aggregation="sum", seed=5)
    weights = ReasoningWeights.initialize(cfg)
    for trial in range(8):
        g = random_connected_graph(rng, 7, 12)
        cx = lift(g, dim=16, seed=trial)
        sub = tr.full_subcomplex(cx)
        pooled = pool(forward(sub, weights, cfg), sub)
        permuted, _ = tr.permute_complex(cx, rng)
        psub = tr.full_subcomplex(permuted)
        ppooled = pool(forward(psub, weights, cfg), psub)
        assert np.all(np.abs(pooled - ppooled) <= 1e-6)

    # (b) stage-1 locality, exact under identity activation
    icfg = ReasoningConfig(layers=2, state_dim=16, activation="identity",
                           aggregation="sum", seed=5)
    iweights = ReasoningWeights.initialize(icfg)
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cx = lift(g, dim=16)
    from toporag.reasoning import init_states, stage1_pass

    def run(complex):
        sub = tr.full_subcomplex(complex)
        return stage1_pass(init_states(sub, state_dim=16), sub, iweights, icfg)

    base = run(cx)
    z = cx.embeddings.copy()
    z[4] += 2.0
    moved = run(dataclasses.replace(cx, embeddings=z))
    assert np.array_equal(base.state(0), moved.state(0))  # 8 hops away
    assert np.array_equal(base.state(1), moved.state(1))  # 6 hops away
    assert np.array_equal(base.state(2), moved.state(2))  # 4 hops away
    assert not np.array_equal(base.state(3), moved.state(3))  # 2 hops

    # (c) optimized pass equals the naive loop oracle on 50 subcomplexes
    checked = 0
    for trial in range(50):
        g = random_connected_graph(rng, rng.randrange(4, 9),
                                   rng.randrange(6, 14))
        cx = lift(g, dim=16, seed=trial)
        sub = tr.full_subcomplex(cx)
        cfg_t = ReasoningConfig(
            layers=rng.randrange(1, 4), state_dim=16,
            activation=rng.choice(["relu", "tanh", "identity"]),
            aggregation=rng.choice(["sum", "mean"]), seed=trial)
        w = ReasoningWeights.initialize(cfg_t)
        states = forward(sub, w, cfg_t)
        expected = naive_forward(sub, w, cfg_t)
        for cid in states.cell_ids:
            assert np.all(np.abs(states.state(cid) - expected[cid]) <= 1e-6)
        checked += 1
    report(7, "reasoning: relabeling invariance, locality, naive oracle", 30,
           started, detail=f"{checked} random subcomplexes")


_TWO_RUN_SCRIPT = r"""
import sys
import numpy as np
from toporag.config import PipelineConfig
from toporag.embedding import DeterministicProvider, cache_get_or_embed
from toporag.generation import build_prompt, textualize
from toporag.graph_io import load_graph, save_graph
from toporag.pipeline import lift_from_config, retrieve_for_question
from toporag.reasoning import ReasoningConfig, ReasoningWeights

out = sys.argv[1]
graph = load_graph(sys.argv[2])
save_graph(graph, out + "/graph.json")
provider = DeterministicProvider(dim=16, seed=3)
texts = [n.text for n in graph.nodes] + [e.text for e in graph.edges]
cache_get_or_embed(texts, provider, out + "/emb.cache")
weights = ReasoningWeights.initialize(
    ReasoningConfig(layers=2, state_dim=16, seed=3))
weights.save(out + "/weights.bin")
cfg = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                     embed_seed=3)
complex = lift_from_config(graph, cfg, provider=provider)
sub = retrieve_for_question(complex, "where is the vase", cfg,
                            provider=provider)
bundle = build_prompt(textualize(sub), "where is the vase")
open(out + "/prompt.txt", "w", encoding="utf-8").write(bundle.prompt)
"""


def test_c08_determinism_and_round_trips(tmp_path):
    started = time.perf_counter()
    graph_path = tmp_path / "scene.json"
    from toporag.graph_io import load_graph
    save_graph(load_graph(FIXTURES / "scene_loop"), graph_path)
    # the subprocess runs from tests/, so a relative PYTHONPATH would not
    # resolve: put this package's absolute source root first
    src = str(Path(toporag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", _TWO_RUN_SCRIPT, str(out), str(graph_path)],
            check=True, cwd=str(Path(__file__).parent), env=env)
        outs.append(out)
    for name in ("graph.json", "emb.cache", "weights.bin", "prompt.txt"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs across runs"
    report(8, "graph/cache/weights/prompt artifacts byte-identical", 10,
           started)


def _entity_fixture(tmp_path):
    """10 graphs, each with a distinctive target entity; gold is 'yes'."""
    entities = [
        "crimson lighthouse", "marble fountain", "copper kettle",
        "velvet armchair", "wicker basket", "cedar wardrobe",
        "porcelain teapot", "ivory chessboard", "walnut dresser",
        "amber lantern",
    ]
    fillers = ["garden wall", "narrow hallway", "dusty window",
               "iron gate", "stone floor"]
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    lines = []
    table = {}
    for idx, entity in enumerate(entities):
        nodes = [entity] + fillers[: 3 + idx % 3]
        edges = [{"src": 0, "dst": j, "text": "next to"}
                 for j in range(1, len(nodes))]
        edges.append({"src": 1, "dst": len(nodes) - 1, "text": "faces"})
        graph = {
            "nodes": [{"id": j, "text": t} for j, t in enumerate(nodes)],
            "edges": edges,
            "directed": False,
        }
        (graphs_dir / f"{idx}.json").write_text(json.dumps(graph))
        question = f"is the {entity} visible in this scene?"
        table[question] = [entity]
        lines.append(json.dumps({
            "idx": idx, "question": question, "answers": ["yes"],
            "graph": f"graphs/{idx}.json", "dataset": "explagraphs",
        }))
    (tmp_path / "questions.jsonl").write_text("\n".join(lines) + "\n")
    return table


def test_c09_end_to_end_hermetic_smoke(tmp_path):
    started = time.perf_counter()
    table = _entity_fixture(tmp_path)
    examples = load_qa_fixture(tmp_path)
    assert len(examples) == 10
    cfg = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    provider = DeterministicProvider(dim=16, seed=cfg.embed_seed)
    client = mock_llm("contains-context", answers=table)

    # independent retrieval inspection, example by example
    from toporag.pipeline import lift_from_config
    expected_yes = {}
    for ex in examples:
        cx = lift_from_config(ex.graph, cfg, provider=provider)
        sub = retrieve_for_question(cx, ex.question, cfg, provider=provider)
        rendered = textualize(sub).rendered
        expected_yes[ex.idx] = table[ex.question][0] in rendered
    assert any(expected_yes.values())  # retrieval surfaces entities at all

    rep = evaluate(examples, cfg, llm_client=client, provider=provider)
    by_idx = {r.idx: r for r in rep.records}
    for ex in examples:
        predicted = by_idx[ex.idx].predicted
        assert predicted == ("yes" if expected_yes[ex.idx] else "no")
    expected_accuracy = sum(expected_yes.values()) / len(examples)
    assert rep.aggregate == expected_accuracy  # exact self-consistency
    report(9, "hermetic end-to-end smoke, retrieval/answer self-consistent",
           20, started,
           detail=f"{sum(expected_yes.values())}/10 entities retrieved")


def test_c10_service_concurrency_and_contract():
    started = time.perf_counter()
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                            mock_llm_mode="echo")
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    base = f"http://{host}:{port}"
    try:
        health = requests.get(f"{base}/healthz", timeout=5)
        assert health.status_code == 200 and health.text == "ok"
        assert requests.post(f"{base}/v1/retrieve",
                             json={"graph_id": "missing", "question": "q"},
                             timeout=5).status_code == 404
        assert requests.post(f"{base}/v1/retrieve", data=b"]bad",
                             timeout=5).status_code == 422

        questions = [f"where is the vase {i % 5}" for i in range(32)]

        def fetch(q):
            resp = requests.post(f"{base}/v1/retrieve",
                                 json={"graph_id": "scene", "question": q},
                                 timeout=15)
            assert resp.status_code == 200
            return json.dumps(resp.json(), sort_keys=True)

        serial = [fetch(q) for q in questions]
        with ThreadPoolExecutor(max_workers=32) as pool_:
            parallel = list(pool_.map(fetch, questions))
        assert parallel == serial
    finally:
        server.shutdown()
        server.server_close()
    report(10, "service: healthz, error codes, 32-way concurrency parity", 20,
           started)
