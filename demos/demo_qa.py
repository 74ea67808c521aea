"""End-to-end question answering over the bundled QA fixture.

Everything is hermetic: the deterministic embedding provider stands in
for a sentence encoder and a mock client stands in for the LLM
endpoint, so the demo runs offline and reproducibly.

Run from the repository root:  python3 demos/demo_qa.py
"""

from pathlib import Path

from toporag import (PipelineConfig, answer_question, lift_from_config,
                     load_qa_fixture, mock_llm)
from toporag.evaluation import evaluate, format_report
from toporag.pipeline import build_embedding_provider, load_or_init_weights

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

config = PipelineConfig(embed_dim=64, state_dim=64, proj_dim=64, layers=2,
                        k2=2, c2=0.1, mock_llm_mode="lookup")
provider = build_embedding_provider(config)
examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
print(f"loaded {len(examples)} QA examples "
      f"(avg {sum(e.graph.num_nodes for e in examples) / len(examples):.1f} nodes)")

# one example in detail, with a lookup mock that always knows the gold
example = examples[0]
client = mock_llm("lookup", answers={example.question: list(example.answers)})
complex = lift_from_config(example.graph, config, provider=provider)
# passing weights runs the reasoning pass, for its soft-prompt artifact
outcome = answer_question(complex, example.question, config, client,
                          provider=provider,
                          weights=load_or_init_weights(config))
sub = outcome.subcomplex
print(f"\nquestion: {example.question}")
print(f"retrieved subcomplex: {len(sub.cells0)} nodes, {len(sub.cells1)} "
      f"edges, {len(sub.cells2)} cycle cell(s); objective {sub.objective:.1f}")
print("prompt sent to the generator:")
print("  | " + outcome.bundle.prompt.replace("\n", "\n  | "))
print(f"answer: {outcome.answer}")
print(f"soft-prompt artifact: vector of dim {outcome.projected.shape[0]} "
      "(emitted alongside the prompt, not injected)")

# the whole fixture, scored with the lookup mock from the config
report = evaluate(examples, config)
print("\nfixture evaluation:")
print(format_report(report))
