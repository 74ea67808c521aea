"""Desk-scale evaluation harness: Accuracy and Hit over QA fixtures."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .config import PipelineConfig
from .graph_io import QaExample
from .pipeline import (answer_question, build_embedding_provider,
                       build_llm_client, check_weights, lift_from_config)


def accuracy_match(predicted: str, golds: tuple[str, ...]) -> bool:
    """Case-insensitive exact match against any gold answer."""
    norm = predicted.strip().lower()
    return any(norm == g.strip().lower() for g in golds)


def hit_match(predicted: str, golds: tuple[str, ...]) -> bool:
    """Any gold answer appears as a case-insensitive substring."""
    norm = predicted.lower()
    return any(g.lower() in norm for g in golds if g)


def metric_for_dataset(dataset: str) -> str:
    return "hit" if dataset == "webqsp" else "accuracy"


@dataclass(frozen=True)
class EvalRecord:
    idx: int
    predicted: str
    gold: tuple[str, ...]
    correct: bool
    n0: int
    n1: int
    n2: int


@dataclass
class EvalReport:
    metric: str
    records: list[EvalRecord]
    aggregate: float
    size_table: dict[str, float]  # avg n0/n1/n2
    wall_clock_s: float
    k2: int

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "aggregate": self.aggregate,
            "k2": self.k2,
            "size_table": self.size_table,
            "wall_clock_s": self.wall_clock_s,
            "records": [dataclasses.asdict(r) for r in self.records],
        }


def _size_table(records: list[EvalRecord]) -> dict[str, float]:
    if not records:
        return {"avg_n0": 0.0, "avg_n1": 0.0, "avg_n2": 0.0}
    n = len(records)
    return {
        "avg_n0": sum(r.n0 for r in records) / n,
        "avg_n1": sum(r.n1 for r in records) / n,
        "avg_n2": sum(r.n2 for r in records) / n,
    }


def mock_answer_table(examples: list[QaExample]) -> dict[str, list[str]]:
    return {ex.question: list(ex.answers) for ex in examples}


def evaluate(examples: list[QaExample], config: PipelineConfig,
             llm_client=None, provider=None) -> EvalReport:
    """Run the full pipeline over a fixture and score it.

    The metric follows the dataset tag of the first example: Hit for
    webqsp, Accuracy otherwise. With no explicit client, a mock client
    is built from the config, fed the fixture's gold answers as its
    lookup table. Scoring reads only the answers, so the reasoning pass
    does not run; a configured weights file is still checked.
    """
    start = time.perf_counter()
    check_weights(config)
    provider = provider or build_embedding_provider(config)
    if llm_client is None:
        llm_client = build_llm_client(config, mock_answers=mock_answer_table(examples))
    metric = metric_for_dataset(examples[0].dataset) if examples else "accuracy"
    match = hit_match if metric == "hit" else accuracy_match

    records = []
    for ex in examples:
        complex = lift_from_config(ex.graph, config, provider=provider)
        outcome = answer_question(complex, ex.question, config, llm_client,
                                  provider=provider)
        sub = outcome.subcomplex
        records.append(EvalRecord(
            idx=ex.idx,
            predicted=outcome.answer,
            gold=ex.answers,
            correct=match(outcome.answer, ex.answers),
            n0=len(sub.cells0),
            n1=len(sub.cells1),
            n2=len(sub.cells2),
        ))
    aggregate = (sum(r.correct for r in records) / len(records)) if records else 0.0
    return EvalReport(
        metric=metric,
        records=records,
        aggregate=aggregate,
        size_table=_size_table(records),
        wall_clock_s=time.perf_counter() - start,
        k2=config.k2,
    )


def sweep_k2(examples: list[QaExample], config: PipelineConfig,
             k2_values: tuple[int, ...] = (0, 1, 2, 3),
             llm_client=None, provider=None) -> list[EvalReport]:
    """One evaluation per k2 value; size rows in the per-k table format."""
    reports = []
    for k2 in k2_values:
        cfg = dataclasses.replace(config, k2=k2)
        reports.append(evaluate(examples, cfg, llm_client=llm_client,
                                provider=provider))
    return reports


def format_report(report: EvalReport) -> str:
    """Human-readable summary table."""
    lines = [
        f"metric: {report.metric}",
        f"examples: {len(report.records)}",
        f"aggregate: {report.aggregate:.4f}",
        f"k2: {report.k2}",
        "cells per subcomplex: "
        f"0-cells {report.size_table['avg_n0']:.2f}  "
        f"1-cells {report.size_table['avg_n1']:.2f}  "
        f"2-cells {report.size_table['avg_n2']:.2f}",
        f"wall clock: {report.wall_clock_s:.2f}s",
    ]
    return "\n".join(lines)


def format_sweep(reports: list[EvalReport]) -> str:
    """Size table across k2 values, one row per k2."""
    if not reports:
        return ""
    lines = [f"k2  avg_n0  avg_n1  avg_n2  {reports[0].metric}"]
    for rep in reports:
        lines.append(
            f"{rep.k2:<3} {rep.size_table['avg_n0']:<7.2f} "
            f"{rep.size_table['avg_n1']:<7.2f} {rep.size_table['avg_n2']:<7.2f} "
            f"{rep.aggregate:.4f}"
        )
    return "\n".join(lines)
