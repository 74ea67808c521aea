"""Ingest, validate, and serialize textual graphs and QA fixtures.

Graphs are node/edge lists where every element carries a free-text
attribute. On load, node ids are compacted to the dense range
``[0, |V|)``; the original ids are kept in ``original_ids`` so that
serialization and textualization can refer to them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (MissingGraphError, ParseError, ValidationError,
                     file_io, parse_json, read_text, typed)

VALID_DATASETS = ("explagraphs", "scenegraphs", "webqsp", "custom")


@dataclass(frozen=True)
class Node:
    id: int
    text: str


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    text: str


@dataclass(frozen=True)
class TextualGraph:
    """A graph whose nodes and edges carry textual attributes.

    ``nodes[i].id == i`` always holds (dense ids); ``original_ids[i]``
    is the id the node had in the source file. Direction is stored for
    rendering fidelity but the topological lifting treats edges as
    undirected.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    directed: bool = False
    original_ids: tuple[int, ...] = field(default=(), compare=True)

    def __post_init__(self):
        if not self.original_ids:
            object.__setattr__(
                self, "original_ids", tuple(n.id for n in self.nodes)
            )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def original_id(self, node_id: int) -> int:
        return self.original_ids[node_id]


@dataclass(frozen=True)
class QaExample:
    """One QA instance: a question over a graph with gold answers."""

    idx: int
    question: str
    graph: TextualGraph
    answers: tuple[str, ...]
    dataset: str = "custom"


def _compact(raw_nodes: list[tuple[int, str]], raw_edges: list[tuple[int, int, str]],
             directed: bool) -> TextualGraph:
    """Validate raw node/edge tuples and compact ids to a dense range."""
    seen: dict[int, int] = {}
    for original, _ in raw_nodes:
        if original in seen:
            raise ValidationError(f"duplicate node_id {original}")
        seen[original] = len(seen)
    nodes = tuple(Node(id=seen[orig], text=text) for orig, text in raw_nodes)
    edges = []
    for src, dst, text in raw_edges:
        if src not in seen:
            raise ValidationError(f"edge references unknown node_id {src}")
        if dst not in seen:
            raise ValidationError(f"edge references unknown node_id {dst}")
        edges.append(Edge(src=seen[src], dst=seen[dst], text=text))
    return TextualGraph(
        nodes=nodes,
        edges=tuple(edges),
        directed=directed,
        original_ids=tuple(orig for orig, _ in raw_nodes),
    )


def check_question(question: str, where: str) -> None:
    """Reject an empty question with :class:`ValidationError`: the one rule
    for a question from a fixture, the CLI or the service."""
    if not question:
        raise ValidationError(f"{where}: empty question")


def _load_json_graph(path: Path) -> TextualGraph:
    with file_io(path):
        raw = path.read_bytes()
    data = parse_json(raw, str(path), ParseError)
    if not isinstance(data, dict) or "nodes" not in data or "edges" not in data:
        raise ParseError(f"{path}: expected object with 'nodes' and 'edges'")
    directed = typed(data.get("directed", False), bool, f"{path}: directed",
                     ParseError)
    raw_nodes, raw_edges = [], []
    try:
        for entry in typed(data["nodes"], list, "nodes", ParseError):
            raw_nodes.append((typed(entry["id"], int, "id", ParseError),
                              typed(entry["text"], str, "text", ParseError)))
        for entry in typed(data["edges"], list, "edges", ParseError):
            raw_edges.append((typed(entry["src"], int, "src", ParseError),
                              typed(entry["dst"], int, "dst", ParseError),
                              typed(entry["text"], str, "text", ParseError)))
    except (KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"{path}: malformed node/edge entry: {exc}") from exc
    return _compact(raw_nodes, raw_edges, directed)


def _csv_rows(path: Path, ids: tuple[str, ...], text: str) -> list[tuple]:
    """``(*ids, text)`` per row of the CSV file ``path``, ids as ints; a
    missing id column, a missing or non-integer id cell is ParseError."""
    try:
        with file_io(path), path.open(encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's cells: ""
            if not set(ids) <= set(reader.fieldnames or ()):
                raise ParseError(f"{path}: expected header "
                                 + ",".join(ids + (text,)))
            return [tuple(int(row[key]) for key in ids) + (row.get(text, ""),)
                    for row in reader]
    except (ValueError, csv.Error) as exc:  # ValueError: int(), UTF-8
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def _load_csv_pair(directory: Path) -> TextualGraph:
    nodes = _csv_rows(directory / "nodes.csv", ("node_id",), "node_attr")
    edges = _csv_rows(directory / "edges.csv", ("src", "dst"), "edge_attr")
    return _compact(nodes, edges, directed=True)


def load_graph(path: str | Path, format: str | None = None) -> TextualGraph:
    """Load a textual graph from ``path``.

    ``format`` is ``"json"`` or ``"csv-pair"``; when omitted it is
    inferred (a directory means csv-pair). Raises :class:`IoError` on an
    unusable file, :class:`ParseError` on malformed files or JSON values
    of the wrong type, and :class:`ValidationError` on dangling edge
    endpoints or duplicate node ids.
    """
    path = Path(path)
    if format is None:
        format = "csv-pair" if path.is_dir() else "json"
    if format == "json":
        return _load_json_graph(path)
    if format == "csv-pair":
        return _load_csv_pair(path)
    raise ValueError(f"unknown graph format: {format!r}")


def graph_to_dict(graph: TextualGraph) -> dict:
    """JSON-schema dict for ``graph``, using original node ids."""
    return {
        "nodes": [
            {"id": graph.original_ids[n.id], "text": n.text} for n in graph.nodes
        ],
        "edges": [
            {
                "src": graph.original_ids[e.src],
                "dst": graph.original_ids[e.dst],
                "text": e.text,
            }
            for e in graph.edges
        ],
        "directed": graph.directed,
    }


def save_graph(graph: TextualGraph, path: str | Path) -> None:
    """Serialize ``graph`` as JSON; ``load_graph`` round-trips it exactly."""
    path = Path(path)
    payload = json.dumps(graph_to_dict(graph), ensure_ascii=False, indent=1)
    with file_io(path, "write"):
        path.write_text(payload + "\n", encoding="utf-8")


def load_qa_fixture(path: str | Path) -> list[QaExample]:
    """Load a QA fixture directory: ``questions.jsonl`` + per-example graphs.

    Each line is ``{"idx", "question", "answers", "graph"}`` with the graph
    path relative to the fixture root. Returns examples ordered by idx. A
    directory without ``questions.jsonl`` is an :class:`IoError` naming it.
    """
    root = Path(path)
    questions = root / "questions.jsonl"
    examples = []
    for lineno, line in enumerate(read_text(questions, ParseError).splitlines(), 1):
        if not line.strip():
            continue
        record = parse_json(line, f"{questions}:{lineno}", ParseError)
        try:
            idx = typed(record["idx"], int, "idx", ParseError)
            question = typed(record["question"], str, "question", ParseError)
            answers = tuple(typed(a, str, "answer", ParseError) for a in
                            typed(record["answers"], list, "answers", ParseError))
            graph_rel = typed(record["graph"], str, "graph", ParseError)
            dataset = typed(record.get("dataset", "custom"), str, "dataset",
                            ParseError)
        except (KeyError, TypeError, ParseError) as exc:
            raise ParseError(f"{questions}:{lineno}: {exc}") from exc
        check_question(question, f"{questions}:{lineno}")
        if not answers:
            raise ValidationError(f"{questions}:{lineno}: empty answers list")
        if dataset not in VALID_DATASETS:
            raise ValidationError(f"{questions}:{lineno}: unknown dataset tag {dataset!r}")
        graph_path = root / graph_rel
        if not graph_path.exists():
            raise MissingGraphError(f"example {idx}: missing graph file {graph_path}")
        graph = load_graph(graph_path)
        examples.append(QaExample(idx=idx, question=question, graph=graph,
                                  answers=answers, dataset=dataset))
    examples.sort(key=lambda ex: ex.idx)
    return examples
