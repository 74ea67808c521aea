"""Topology-aware retrieval over textual graphs.

Lifts node/edge text graphs into 2-dimensional cell complexes (cycles
become 2-cells over a fundamental cycle basis), retrieves query-relevant
connected subcomplexes through multi-dimensional prize assignment and a
prize-collecting Steiner approximation, runs a two-stage message-passing
forward pass over the result, and renders topology-grounded prompts for
an external (or mock) chat-completions endpoint.
"""

from .config import PipelineConfig, load_config, save_config
from .embedding import (DeterministicProvider, HttpEmbeddingProvider,
                        cache_get_or_embed, cosine, embed_texts)
from .generation import (ChatCompletionsClient, GenerationResult, MockLlmClient,
                         PromptBundle, TextualizedSubcomplex, build_prompt,
                         generate, mock_llm, textualize)
from .graph_io import (Edge, Node, QaExample, TextualGraph, load_graph,
                       load_qa_fixture, save_graph)
from .lifting import (BFS, DFS, CellComplex, CycleBasisReport,
                      SpanningTreePolicy, lift_graph, verify_cycle_basis)
from .pipeline import answer_question, lift_from_config, retrieve_for_question
from .reasoning import (CellStates, ReasoningConfig, ReasoningWeights, forward,
                        init_states, pool, project, stage1_pass, stage2_pass)
from .retrieval import (PrizeAssignment, RankedCell, Subcomplex, assign_prizes,
                        enforce_boundary_consistency, retrieve_subcomplex,
                        solve_subcomplex, subcomplex_to_dict, topk_cells,
                        topk_two_cells)

__version__ = "0.1.0"
