"""End-to-end composition: lift, retrieve, textualize, generate; reason on request."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .embedding import (DeterministicProvider, HttpEmbeddingProvider,
                        cache_get_or_embed, embed_texts)
from .generation import (ChatCompletionsClient, GenerationResult, PromptBundle,
                         build_prompt, generate, mock_llm, textualize)
from .lifting import CellComplex, SpanningTreePolicy, lift_graph
from .graph_io import TextualGraph
from .reasoning import (ReasoningWeights, check_weight_file, forward, pool,
                        project)
from .retrieval import Subcomplex, retrieve_subcomplex


def build_embedding_provider(config: PipelineConfig):
    if config.embed_provider == "deterministic":
        return DeterministicProvider(dim=config.embed_dim, seed=config.embed_seed)
    return HttpEmbeddingProvider(dim=config.embed_dim,
                                 timeout=config.llm_timeout_ms / 1000.0)


def build_llm_client(config: PipelineConfig,
                     mock_answers: dict[str, list[str]] | None = None):
    if config.llm_provider == "mock":
        return mock_llm(config.mock_llm_mode, answers=mock_answers or {})
    return ChatCompletionsClient(timeout_ms=config.llm_timeout_ms,
                                 max_new_tokens=config.max_new_tokens)


def spanning_policy(config: PipelineConfig) -> SpanningTreePolicy:
    return SpanningTreePolicy(kind=config.policy, seed=config.policy_seed)


def lift_from_config(graph: TextualGraph, config: PipelineConfig,
                     provider=None) -> CellComplex:
    """Embed every node/edge text and lift the graph."""
    provider = provider or build_embedding_provider(config)
    texts = [n.text for n in graph.nodes] + [e.text for e in graph.edges]
    if config.embed_cache:
        vectors = cache_get_or_embed(texts, provider, config.embed_cache)
    else:
        vectors = embed_texts(texts, provider)
    node_vecs = vectors[:graph.num_nodes]
    edge_vecs = vectors[graph.num_nodes:]
    return lift_graph(graph, node_vecs, edge_vecs,
                      policy=spanning_policy(config),
                      fingerprint=provider.fingerprint)


def retrieve_for_question(complex: CellComplex, question: str,
                          config: PipelineConfig, provider=None) -> Subcomplex:
    provider = provider or build_embedding_provider(config)
    z_q = embed_texts([question], provider)[0]
    return retrieve_subcomplex(
        complex, z_q, k0=config.k0, k1=config.k1, k2=config.k2,
        c2=config.c2, c_edge=config.c_edge, indexing=config.prize_indexing,
    )


def check_weights(config: PipelineConfig) -> None:
    """Check the configured weights file's header against the config.

    Reads only the header line, so it is cheap enough to run at start
    where the weights themselves may never be needed. A file that
    disagrees on the architecture (the seed may differ) raises
    ``ValidationError``; with no file configured this does nothing.
    """
    if config.weights_path:
        check_weight_file(config.weights_path, config.reasoning_config())


def load_or_init_weights(config: PipelineConfig) -> ReasoningWeights:
    """The weights file's, if the config names one, else a seeded init.

    The file is checked by :func:`check_weights` first.
    """
    if not config.weights_path:
        return ReasoningWeights.initialize(config.reasoning_config())
    check_weights(config)
    return ReasoningWeights.load(config.weights_path)


@dataclass(frozen=True)
class AnswerOutcome:
    answer: str
    subcomplex: Subcomplex
    bundle: PromptBundle
    pooled: np.ndarray | None  # None when answered without weights
    projected: np.ndarray | None
    generation: GenerationResult
    latency_ms: float


def answer_question(complex: CellComplex, question: str,
                    config: PipelineConfig, llm_client, provider=None,
                    weights: ReasoningWeights | None = None) -> AnswerOutcome:
    """Full pipeline over a pre-lifted complex: retrieve, textualize,
    prompt, generate.

    The generator reads only the prompt, so the reasoning pass runs only
    when ``weights`` are given: then ``pooled`` and ``projected`` carry
    the forward pass's pooled states and their projection to the
    generator width, a diagnostic artifact that is not injected into the
    generator. Without weights both are ``None``; the answer, subcomplex
    and prompt are the same either way.
    """
    start = time.perf_counter()
    sub = retrieve_for_question(complex, question, config, provider=provider)
    pooled = projected = None
    if weights is not None:
        states = forward(sub, weights, config.reasoning_config())
        pooled = pool(states, sub)
        projected = project(pooled, weights)
    bundle = build_prompt(textualize(sub), question, preamble=config.preamble,
                          max_input_tokens=config.max_input_tokens)
    result = generate(bundle, llm_client)
    latency_ms = (time.perf_counter() - start) * 1000.0
    return AnswerOutcome(
        answer=result.answer,
        subcomplex=sub,
        bundle=bundle,
        pooled=pooled,
        projected=projected,
        generation=result,
        latency_ms=latency_ms,
    )
