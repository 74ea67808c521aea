import json

from toporag.config import PipelineConfig
from toporag.evaluation import (accuracy_match, evaluate, hit_match,
                                metric_for_dataset, mock_answer_table,
                                sweep_k2)
from toporag.generation import mock_llm
from toporag.graph_io import load_qa_fixture
from toporag.reasoning import ReasoningWeights

from helpers import FIXTURES

SMALL = dict(embed_dim=16, state_dim=16, proj_dim=16, layers=2)


def small_config(**kwargs):
    return PipelineConfig(**{**SMALL, **kwargs})


def test_matchers():
    assert accuracy_match(" Support ", ("support",))
    assert not accuracy_match("supportive", ("support",))
    assert hit_match("the answer is Paris, France", ("paris",))
    assert not hit_match("the answer is Lyon", ("paris",))


def test_metric_selection():
    assert metric_for_dataset("webqsp") == "hit"
    assert metric_for_dataset("explagraphs") == "accuracy"
    assert metric_for_dataset("scenegraphs") == "accuracy"


def test_lookup_client_gives_perfect_accuracy():
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    cfg = small_config(mock_llm_mode="lookup")
    report = evaluate(examples, cfg)
    assert report.metric == "accuracy"
    assert report.aggregate == 1.0
    assert len(report.records) == 10
    assert report.aggregate == sum(r.correct for r in report.records) / 10


def test_echo_client_misses_constructed_fixture(tmp_path):
    # questions start with "yes..." while every gold answer is "no"
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    lines = []
    for idx in range(4):
        graph = {
            "nodes": [{"id": 0, "text": "thing"}, {"id": 1, "text": "stuff"}],
            "edges": [{"src": 0, "dst": 1, "text": "relates to"}],
            "directed": False,
        }
        (graphs_dir / f"{idx}.json").write_text(json.dumps(graph))
        lines.append(json.dumps({
            "idx": idx,
            "question": f"yes or no, example {idx}?",
            "answers": ["no"],
            "graph": f"graphs/{idx}.json",
        }))
    (tmp_path / "questions.jsonl").write_text("\n".join(lines) + "\n")
    examples = load_qa_fixture(tmp_path)
    report = evaluate(examples, small_config(mock_llm_mode="echo"))
    assert report.aggregate == 0.0


def test_hit_metric_for_webqsp_tag(tmp_path):
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    graph = {
        "nodes": [{"id": 0, "text": "paris"}, {"id": 1, "text": "france"}],
        "edges": [{"src": 0, "dst": 1, "text": "capital of"}],
        "directed": False,
    }
    (graphs_dir / "0.json").write_text(json.dumps(graph))
    (tmp_path / "questions.jsonl").write_text(json.dumps({
        "idx": 0,
        "question": "what is the capital of france?",
        "answers": ["Paris"],
        "graph": "graphs/0.json",
        "dataset": "webqsp",
    }) + "\n")
    examples = load_qa_fixture(tmp_path)
    client = mock_llm("lookup", answers={
        examples[0].question: ["the capital is paris indeed"]})
    report = evaluate(examples, small_config(), llm_client=client)
    assert report.metric == "hit"
    assert report.aggregate == 1.0


def test_aggregate_equals_record_mean():
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")[:5]
    client = mock_llm("lookup", answers={
        ex.question: list(ex.answers) for ex in examples[:3]})
    report = evaluate(examples, small_config(), llm_client=client)
    assert report.aggregate == sum(r.correct for r in report.records) / 5


def test_sweep_k2_sizes_non_decreasing():
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    cfg = small_config(mock_llm_mode="lookup", c2=0.1)
    reports = sweep_k2(examples, cfg)
    assert [r.k2 for r in reports] == [0, 1, 2, 3]
    n2 = [r.size_table["avg_n2"] for r in reports]
    assert n2[0] == 0.0
    assert all(b >= a for a, b in zip(n2, n2[1:]))


def test_mock_answer_table():
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")[:2]
    table = mock_answer_table(examples)
    assert table[examples[0].question] == list(examples[0].answers)


def test_evaluate_runs_no_reasoning_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reasoning pass ran")

    monkeypatch.setattr("toporag.pipeline.forward", refuse)
    monkeypatch.setattr(ReasoningWeights, "initialize", refuse)
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    report = evaluate(examples, small_config(mock_llm_mode="lookup"))
    assert report.aggregate == 1.0
