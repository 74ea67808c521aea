"""The pipeline called stage by stage, each public call timed from outside.

``lift``, ``retrieve`` and ``answer`` make the same toporag calls, in the
same order, as ``lift_from_config``, ``retrieve_for_question`` and
``answer_question``; they only wrap each call in a timer. Only the traced
run uses them. ``retrieve`` is checked against ``retrieve_subcomplex``
cell for cell (``same_selection``), so the traced path cannot drift from
the real one without failing ops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from toporag.embedding import embed_texts
from toporag.generation import build_prompt, generate, textualize
from toporag.lifting import lift_graph
from toporag.pipeline import spanning_policy
from toporag.reasoning import forward, pool, project
from toporag.retrieval import (assign_prizes, retrieve_subcomplex,
                               solve_subcomplex, topk_cells, topk_two_cells)

# stage (public function) -> layer (toporag module)
LAYER_OF = {
    "load_graph": "graph_io",
    "load_qa_fixture": "graph_io",
    "embed_texts": "embedding",
    "lift_graph": "lifting",
    "verify_cycle_basis": "lifting",
    "topk_cells": "retrieval",
    "assign_prizes": "retrieval",
    "topk_two_cells": "retrieval",
    "solve_subcomplex": "retrieval",
    "weights_init": "reasoning",
    "forward": "reasoning",
    "pool": "reasoning",
    "project": "reasoning",
    "textualize": "generation",
    "build_prompt": "generation",
    "generate": "generation",
}


class OpTrace:
    """Stage durations (ms) and counters of one op or one set-up."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.shapes: list[dict] = []  # workloads.shape_of, per lifted graph

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
            self.ms[name] = self.ms.get(name, 0.0) + elapsed

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def stage_ms(self) -> float:
        """Sum of stage times, without checks (they run outside ops)."""
        return sum(ms for name, ms in self.ms.items()
                   if name != "verify_cycle_basis")


def stage(op: OpTrace | None, name: str):
    """``op.stage(name)``, or no timing at all when not tracing."""
    return nullcontext() if op is None else op.stage(name)


def lift(graph, config, provider, op: OpTrace):
    """``lift_from_config`` without an embedding cache."""
    texts = [n.text for n in graph.nodes] + [e.text for e in graph.edges]
    with op.stage("embed_texts"):
        vectors = embed_texts(texts, provider)
    op.count("embed_calls")
    op.count("embed_texts", len(texts))
    with op.stage("lift_graph"):
        complex = lift_graph(graph, vectors[:graph.num_nodes],
                             vectors[graph.num_nodes:],
                             policy=spanning_policy(config),
                             fingerprint=provider.fingerprint)
    op.count("lifts")
    return complex


def retrieve(complex, question, config, provider, op: OpTrace):
    """``retrieve_for_question``; also returns the query embedding."""
    with op.stage("embed_texts"):
        z_q = embed_texts([question], provider)[0]
    op.count("embed_calls")
    op.count("embed_texts", 1)
    with op.stage("topk_cells"):
        ranked0 = topk_cells(complex, z_q, 0, config.k0)
        ranked1 = topk_cells(complex, z_q, 1, config.k1)
    with op.stage("assign_prizes"):
        assignment = assign_prizes(ranked0, ranked1, complex,
                                   (config.k0, config.k1), config.c2,
                                   c_edge=config.c_edge,
                                   indexing=config.prize_indexing)
    with op.stage("topk_two_cells"):
        selected2 = topk_two_cells(assignment, complex, config.k2)
    with op.stage("topk_cells"):
        fallback_list = topk_cells(complex, z_q, 0, 1)
    with op.stage("solve_subcomplex"):
        sub = solve_subcomplex(complex, assignment, selected2,
                               fallback=fallback_list[0] if fallback_list else None)
    op.count("retrievals")
    op.count("cells_out", len(sub.all_cells()))
    op.count("two_cells_offered", len(selected2))
    op.count("two_cells_accepted", len(sub.cells2))
    op.count("degenerate", int(sub.degenerate))
    return sub, z_q


def answer(complex, question, config, llm_client, provider, weights,
           op: OpTrace):
    """``answer_question``; returns (subcomplex, query embedding, bundle,
    answer, latency_ms) with latency measured as ``answer_question`` does."""
    start = time.perf_counter()
    sub, z_q = retrieve(complex, question, config, provider, op)
    reasoning_cfg = config.reasoning_config()
    with op.stage("forward"):
        states = forward(sub, weights, reasoning_cfg)
    with op.stage("pool"):
        pooled = pool(states, sub)
    with op.stage("project"):
        project(pooled, weights)
    op.count("forwards")
    op.count("cells_in", len(states.cell_ids))
    with op.stage("textualize"):
        text = textualize(sub)
    with op.stage("build_prompt"):
        bundle = build_prompt(text, question, preamble=config.preamble,
                              max_input_tokens=config.max_input_tokens)
    with op.stage("generate"):
        result = generate(bundle, llm_client)
    op.count("prompts")
    op.count("prompt_tokens", bundle.token_estimate)
    op.count("truncated", int(bundle.truncation_flagged))
    latency_ms = (time.perf_counter() - start) * 1000.0
    return sub, z_q, bundle, result.answer, latency_ms


def same_selection(complex, sub, z_q, config) -> bool:
    """True iff ``retrieve_subcomplex`` selects exactly the staged cells."""
    ref = retrieve_subcomplex(complex, z_q, k0=config.k0, k1=config.k1,
                              k2=config.k2, c2=config.c2,
                              c_edge=config.c_edge,
                              indexing=config.prize_indexing)
    return ((ref.cells0, ref.cells1, ref.cells2, ref.degenerate,
             ref.total_prize, ref.total_cost)
            == (sub.cells0, sub.cells1, sub.cells2, sub.degenerate,
                sub.total_prize, sub.total_cost))
