"""Turn a retrieved subcomplex into a deterministic prompt and answer.

Textualization renders three sections: node lines ``node_id,node_attr``
and edge lines ``src,edge_attr,dst`` in the GraphQA CSV convention, and
one block per 2-cell: a ``cycle:`` header spelling the closed vertex
walk followed by the member edge lines in walk order. Node ids are the
source graph's original ids. Rendering is a pure function of the
subcomplex, so identical inputs give byte-identical prompts.

The assembled prompt follows a fixed grammar::

    <preamble>\\n[CONTEXT]\\n<node lines>\\n<edge lines>\\n<cycle lines>\\n
    [QUESTION]\\n<question>\\n[ANSWER]\\n

Empty sections contribute no lines; the cycle section disappears when
no 2-cell is selected.

:class:`ChatCompletionsClient` sends the prompt through the embedding
client's JSON transport, :func:`toporag.embedding.post_json`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embedding import endpoint_from_env, post_json
from .errors import DanglingCell, ProviderUnavailable
from .retrieval import Subcomplex

DEFAULT_PREAMBLE = (
    "Answer the question using the graph context: node lines, edge "
    "lines, and cycle lines describing closed relational loops."
)
DEFAULT_MAX_INPUT_TOKENS = 512
DEFAULT_MAX_NEW_TOKENS = 32


@dataclass(frozen=True)
class TextualizedSubcomplex:
    node_lines: tuple[str, ...]
    edge_lines: tuple[str, ...]
    cycle_lines: tuple[str, ...]
    rendered: str


@dataclass(frozen=True)
class PromptBundle:
    context: str
    question: str
    preamble: str
    prompt: str
    token_estimate: int
    truncation_flagged: bool


def textualize(sub: Subcomplex) -> TextualizedSubcomplex:
    """Render a subcomplex's cells as text sections, ascending cell id."""
    complex = sub.complex
    graph = complex.graph
    n_nodes, n_edges = graph.num_nodes, graph.num_edges

    def original(node_cell: int) -> int:
        return graph.original_id(node_cell)

    def edge_line(edge_cell: int) -> str:
        edge = graph.edges[edge_cell - complex.n0]
        return f"{original(edge.src)},{edge.text},{original(edge.dst)}"

    node_lines = []
    for cid in sub.cells0:
        if cid >= n_nodes:
            raise DanglingCell(f"0-cell {cid} not present in the source graph")
        node_lines.append(f"{original(cid)},{graph.nodes[cid].text}")
    edge_lines = []
    for cid in sub.cells1:
        if not complex.n0 <= cid < complex.n0 + n_edges:
            raise DanglingCell(f"1-cell {cid} not present in the source graph")
        edge_lines.append(edge_line(cid))
    cycle_lines = []
    for cid in sub.cells2:
        walk = complex.cycle_vertices(cid)
        head = "cycle: " + " -> ".join(str(original(v)) for v in walk + walk[:1])
        cycle_lines.append(head)
        cycle_lines.extend(edge_line(ecid) for ecid in complex.boundary(cid))

    rendered = "\n".join(list(node_lines) + list(edge_lines) + list(cycle_lines))
    return TextualizedSubcomplex(
        node_lines=tuple(node_lines),
        edge_lines=tuple(edge_lines),
        cycle_lines=tuple(cycle_lines),
        rendered=rendered,
    )


def build_prompt(textualized: TextualizedSubcomplex, question: str,
                 preamble: str = DEFAULT_PREAMBLE,
                 max_input_tokens: int = DEFAULT_MAX_INPUT_TOKENS) -> PromptBundle:
    """Assemble the fixed-grammar prompt and estimate its token count.

    The estimate is ceil(utf-8 bytes / 4); exceeding the budget sets a
    flag but never truncates silently.
    """
    parts = [preamble, "[CONTEXT]"]
    if textualized.rendered:
        parts.append(textualized.rendered)
    parts.extend(["[QUESTION]", question, "[ANSWER]"])
    prompt = "\n".join(parts) + "\n"
    estimate = math.ceil(len(prompt.encode("utf-8")) / 4)
    return PromptBundle(
        context=textualized.rendered,
        question=question,
        preamble=preamble,
        prompt=prompt,
        token_estimate=estimate,
        truncation_flagged=estimate > max_input_tokens,
    )


@dataclass(frozen=True)
class GenerationResult:
    answer: str
    raw: object


class ChatCompletionsClient:
    """Client for an OpenAI-style ``/v1/chat/completions`` endpoint (``LLM_*``)."""

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout_ms: int = 30000,
                 max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS):
        self.base_url, self.api_key, self.model = endpoint_from_env(
            "LLM", base_url, api_key, model)
        self.timeout = timeout_ms / 1000.0
        self.max_new_tokens = max_new_tokens

    def complete(self, bundle: PromptBundle):
        reply = post_json(
            f"{self.base_url}/v1/chat/completions",
            {"model": self.model,
             "messages": [{"role": "user", "content": bundle.prompt}],
             "max_tokens": self.max_new_tokens},
            self.api_key, self.timeout)
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise ProviderUnavailable("malformed chat response: "
                                      "choices[0].message.content is not a string")
        return content, reply


class MockLlmClient:
    """Deterministic in-process stand-in for the chat endpoint.

    Modes: ``echo`` answers with the first line of the question;
    ``lookup`` returns the gold answer from a question-keyed table;
    ``contains-context`` answers "yes" iff any of the question's
    target strings appears verbatim in the prompt's context section.
    """

    MODES = ("echo", "lookup", "contains-context")

    def __init__(self, mode: str, answers: dict[str, list[str]] | None = None):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        if mode in ("lookup", "contains-context") and answers is None:
            raise ValueError(f"{mode} mode requires an answer table")
        self.mode = mode
        self.answers = answers or {}
        self.calls = 0

    def complete(self, bundle: PromptBundle):
        self.calls += 1
        if self.mode == "echo":
            answer = bundle.question.splitlines()[0] if bundle.question else ""
        elif self.mode == "lookup":
            targets = self.answers.get(bundle.question, [])
            answer = targets[0] if targets else ""
        else:
            targets = self.answers.get(bundle.question, [])
            answer = "yes" if any(t in bundle.context for t in targets) else "no"
        return answer, {"mock": self.mode, "answer": answer}


def mock_llm(mode: str, answers: dict[str, list[str]] | None = None) -> MockLlmClient:
    """Construct a mock client; see :class:`MockLlmClient`."""
    return MockLlmClient(mode, answers=answers)


def generate(bundle: PromptBundle, client) -> GenerationResult:
    """Obtain an answer for the bundle; transport only.

    The model's answer is returned with trailing whitespace trimmed
    and is otherwise untouched.
    """
    content, raw = client.complete(bundle)
    return GenerationResult(answer=str(content).rstrip(), raw=raw)
