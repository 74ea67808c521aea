import numpy as np

from toporag.config import PipelineConfig
from toporag.evaluation import mock_answer_table
from toporag.generation import mock_llm
from toporag.graph_io import load_qa_fixture
from toporag.pipeline import (answer_question, build_embedding_provider,
                              lift_from_config, load_or_init_weights)
from toporag.reasoning import forward, pool, project
from toporag.retrieval import subcomplex_to_dict

from helpers import FIXTURES


def test_answer_without_weights_is_the_text_path():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    provider = build_embedding_provider(config)
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    client = mock_llm("lookup", answers=mock_answer_table(examples))
    weights = load_or_init_weights(config)
    for ex in examples:
        complex = lift_from_config(ex.graph, config, provider=provider)
        with_w = answer_question(complex, ex.question, config, client,
                                 provider=provider, weights=weights)
        without = answer_question(complex, ex.question, config, client,
                                  provider=provider)
        assert without.answer == with_w.answer
        assert (subcomplex_to_dict(without.subcomplex)
                == subcomplex_to_dict(with_w.subcomplex))
        assert without.bundle.prompt == with_w.bundle.prompt
        assert without.pooled is None and without.projected is None
        # with weights, the artifact is the explicit reasoning pass
        states = forward(with_w.subcomplex, weights, config.reasoning_config())
        pooled = pool(states, with_w.subcomplex)
        assert np.array_equal(with_w.pooled, pooled)
        assert np.array_equal(with_w.projected, project(pooled, weights))
