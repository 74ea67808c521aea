"""Command-line entry points: lift, stats, retrieve, answer, eval, serve.

Exit codes: 0 success, 3 provider errors, 2 any other package error
(bad input, parse or I/O failures), 4 internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import errors
from .config import PipelineConfig, load_config
from .evaluation import evaluate, format_report, format_sweep, sweep_k2
from .generation import MockLlmClient
from .graph_io import check_question, load_graph, load_qa_fixture
from .lifting import betti1, verify_cycle_basis
from .pipeline import (answer_question, build_embedding_provider,
                       build_llm_client, check_weights, lift_from_config,
                       load_or_init_weights, retrieve_for_question)
from .retrieval import subcomplex_to_dict
from .service import load_manifest, serve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROVIDER = 3
EXIT_INTERNAL = 4

_PROVIDER_ERRORS = (errors.ProviderUnavailable, errors.ProviderRejected)


def _load_pipeline_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    if getattr(args, "k2", None) is not None:
        overrides["k2"] = args.k2
    if getattr(args, "policy", None) is not None:
        overrides["policy"] = args.policy
    if getattr(args, "seed", None) is not None:
        overrides["policy_seed"] = args.seed
        overrides["embed_seed"] = args.seed
        overrides["weights_seed"] = args.seed
    if getattr(args, "mock_llm", None) is not None:
        overrides["llm_provider"] = "mock"
        overrides["mock_llm_mode"] = args.mock_llm
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _stats_line(n0: int, n1: int, n2: int, b1: int, rank: int,
                independent: bool, spans: bool) -> str:
    verdict = "OK" if independent and spans else "FAIL"
    return f"X0={n0} X1={n1} X2={n2} betti1={b1} rank={rank} basis={verdict}"


def _complex_dump(complex, report, cache: str = "") -> dict:
    return {
        "counts": {"n0": complex.n0, "n1": complex.n1, "n2": complex.n2},
        "betti1": betti1(complex.graph),
        "rank_gf2": report.rank_gf2,
        "independent": report.independent,
        "spans": report.spans,
        "policy": str(complex.policy),
        "tree_edges": sorted(complex.tree_edges),
        "cells": {
            "1": [{"id": c, "boundary": list(complex.boundary(c))}
                  for c in complex.cell_ids(1)],
            "2": [{"id": c, "boundary": boundary,
                   "walk": [list(step) for step in zip(
                       complex.cycle_vertices(c), boundary)]}
                  for c in complex.cell_ids(2)
                  for boundary in [list(complex.boundary(c))]],
        },
        "embedding": {
            "dim": complex.embeddings.shape[1],
            "fingerprint": complex.fingerprint,
            "cache": cache or None,
        },
    }


def _write_text(path: Path, text: str) -> None:
    with errors.file_io(path, "write"):
        path.write_text(text, encoding="utf-8")


def cmd_lift(args) -> int:
    config = _load_pipeline_config(args)
    graph = load_graph(args.graph, format=args.format)
    complex = lift_from_config(graph, config)
    report = verify_cycle_basis(complex)
    print(_stats_line(complex.n0, complex.n1, complex.n2,
                      betti1(graph), report.rank_gf2,
                      report.independent, report.spans))
    if args.out:
        _write_text(Path(args.out), json.dumps(
            _complex_dump(complex, report, cache=config.embed_cache),
            indent=1) + "\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    with errors.file_io(args.dump):
        text = Path(args.dump).read_bytes()

    def field(doc, key: str, kind: type):
        return errors.typed(doc.get(key), kind, f"{args.dump}: {key}",
                            errors.ParseError)

    dump = errors.typed(errors.parse_json(text, args.dump, errors.ParseError),
                        dict, args.dump, errors.ParseError)
    counts = field(dump, "counts", dict)
    print(_stats_line(*(field(counts, key, int) for key in ("n0", "n1", "n2")),
                      *(field(dump, key, int) for key in ("betti1", "rank_gf2")),
                      *(field(dump, key, bool)
                        for key in ("independent", "spans"))))
    return EXIT_OK


def cmd_retrieve(args) -> int:
    check_question(args.question, "--question")
    config = _load_pipeline_config(args)
    graph = load_graph(args.graph, format=args.format)
    provider = build_embedding_provider(config)
    complex = lift_from_config(graph, config, provider=provider)
    sub = retrieve_for_question(complex, args.question, config,
                                provider=provider)
    print(json.dumps(subcomplex_to_dict(sub), indent=1, sort_keys=True))
    return EXIT_OK


def cmd_answer(args) -> int:
    check_question(args.question, "--question")
    config = _load_pipeline_config(args)
    check_weights(config)
    graph = load_graph(args.graph, format=args.format)
    provider = build_embedding_provider(config)
    complex = lift_from_config(graph, config, provider=provider)
    answers = None
    if config.llm_provider == "mock" and args.gold:
        answers = {args.question: list(args.gold)}
    client = build_llm_client(config, mock_answers=answers)
    # only the soft-prompt artifact needs the reasoning pass
    weights = load_or_init_weights(config) if args.artifacts_dir else None
    outcome = answer_question(complex, args.question, config, client,
                              provider=provider, weights=weights)
    print(outcome.answer)
    if args.artifacts_dir:
        art = Path(args.artifacts_dir)
        with errors.file_io(art, "create"):
            art.mkdir(parents=True, exist_ok=True)
        _write_text(art / "prompt.txt", outcome.bundle.prompt)
        _write_text(art / "soft_prompt.json", json.dumps(
            {"projected": [float(x) for x in outcome.projected]}))
        _write_text(art / "subcomplex.json", json.dumps(
            subcomplex_to_dict(outcome.subcomplex), indent=1))
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_pipeline_config(args)
    examples = load_qa_fixture(args.fixture)
    if args.sweep_k2:
        reports = sweep_k2(examples, config)
        print(format_sweep(reports))
        payload = [r.to_dict() for r in reports]
    else:
        report = evaluate(examples, config)
        print(format_report(report))
        payload = report.to_dict()
    if args.out:
        _write_text(Path(args.out), json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_serve(args) -> int:
    config = _load_pipeline_config(args)
    graph_paths = load_manifest(args.manifest)
    serve(config, graph_paths, host=args.host, port=args.port)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toporag",
        description="Topology-aware retrieval over textual graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, question=False):
        p.add_argument("--config", help="pipeline config file")
        p.add_argument("--seed", type=int, help="override all seeds")
        p.add_argument("--k2", type=int, help="top-k for 2-cells")
        p.add_argument("--policy", choices=["dfs", "bfs", "random"],
                       help="spanning tree policy")
        p.add_argument("--mock-llm", dest="mock_llm",
                       choices=list(MockLlmClient.MODES),
                       help="use an in-process mock LLM")
        if question:
            p.add_argument("--question", required=True)

    p_lift = sub.add_parser("lift", help="lift a graph and print complex stats")
    p_lift.add_argument("graph")
    p_lift.add_argument("--format", choices=["json", "csv-pair"])
    p_lift.add_argument("--out", help="write a complex dump JSON")
    common(p_lift)
    p_lift.set_defaults(func=cmd_lift)

    p_stats = sub.add_parser("stats", help="print stats from a complex dump")
    p_stats.add_argument("dump")
    p_stats.set_defaults(func=cmd_stats)

    p_retrieve = sub.add_parser("retrieve", help="retrieve a subcomplex")
    p_retrieve.add_argument("graph")
    p_retrieve.add_argument("--format", choices=["json", "csv-pair"])
    common(p_retrieve, question=True)
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_answer = sub.add_parser("answer", help="full pipeline to an answer")
    p_answer.add_argument("graph")
    p_answer.add_argument("--format", choices=["json", "csv-pair"])
    p_answer.add_argument("--gold", action="append",
                          help="gold answer for mock lookup/contains modes")
    p_answer.add_argument("--artifacts-dir",
                          help="write prompt, soft-prompt vector, subcomplex")
    common(p_answer, question=True)
    p_answer.set_defaults(func=cmd_answer)

    p_eval = sub.add_parser("eval", help="evaluate a QA fixture directory")
    p_eval.add_argument("fixture")
    p_eval.add_argument("--sweep-k2", action="store_true",
                        help="run k2 in {0,1,2,3} and print per-k2 size rows")
    p_eval.add_argument("--out", help="write the report JSON")
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_serve = sub.add_parser("serve", help="run the HTTP service")
    p_serve.add_argument("--manifest", required=True,
                         help="JSON manifest of graph_id -> graph path")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    common(p_serve)
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PROVIDER_ERRORS as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except errors.ToporagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
