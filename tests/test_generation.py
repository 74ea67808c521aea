import dataclasses
import json
import socket

import pytest

from toporag.embedding import HttpEmbeddingProvider, embed_texts
from toporag.errors import (DanglingCell, ProviderRejected,
                            ProviderUnavailable, ValidationError)
from toporag.generation import (ChatCompletionsClient, build_prompt, generate,
                                mock_llm, textualize)
from toporag.graph_io import load_graph
from toporag.retrieval import (assign_prizes, solve_subcomplex,
                               topk_two_cells)

from helpers import (FIXTURES, StubProviderHandler, base_url, lift,
                     make_graph, stub_server, triangle)


def scene_loop_subcomplex():
    g = load_graph(FIXTURES / "scene_loop")
    cx = lift(g)
    ranked0 = [(0, .9), (1, .8), (2, .7), (3, .6)]
    a = assign_prizes(ranked0, [], cx, 4, 0.1)
    return solve_subcomplex(cx, a, topk_two_cells(a, cx, 1), fallback=(0, .9))


def path_subcomplex():
    cx = lift(make_graph(2, [(0, 1)], node_texts=["alpha", "beta"],
                         edge_texts=["links"]))
    a = assign_prizes([(0, .9), (1, .8)], [(cx.one_cell_id(0), .9)], cx, 2, 0.5)
    return solve_subcomplex(cx, a, [], fallback=(0, .9))


# --- textualize ---

def test_scene_loop_cycle_walk():
    sub = scene_loop_subcomplex()
    tx = textualize(sub)
    assert tx.cycle_lines[0] == "cycle: 0 -> 1 -> 2 -> 3 -> 0"
    assert tx.node_lines == (
        "0,bookshelf", "1,vase", "2,mirror", "3,clock")
    assert len(tx.cycle_lines) == 5  # header + 4 member edges


def test_textualize_deterministic():
    sub = scene_loop_subcomplex()
    assert textualize(sub).rendered == textualize(sub).rendered


def test_no_cycle_section_without_two_cells():
    sub = path_subcomplex()
    tx = textualize(sub)
    assert tx.cycle_lines == ()
    assert "cycle" not in tx.rendered


def test_every_cell_rendered_once():
    sub = scene_loop_subcomplex()
    tx = textualize(sub)
    assert len(tx.node_lines) == len(sub.cells0)
    assert len(tx.edge_lines) == len(sub.cells1)


def test_textualize_uses_original_ids(tmp_path):
    path = tmp_path / "g.json"
    payload = {
        "nodes": [{"id": 10, "text": "a"}, {"id": 20, "text": "b"}],
        "edges": [{"src": 10, "dst": 20, "text": "r"}],
        "directed": False,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    g = load_graph(path)
    cx = lift(g)
    a = assign_prizes([(0, .9), (1, .8)], [(cx.one_cell_id(0), .9)], cx, 2, 0.5)
    sub = solve_subcomplex(cx, a, [], fallback=(0, .9))
    tx = textualize(sub)
    assert tx.node_lines == ("10,a", "20,b")
    assert tx.edge_lines == ("10,r,20",)


def test_dangling_cell_detected():
    sub = scene_loop_subcomplex()
    smaller = lift(triangle()).graph
    sub = dataclasses.replace(
        sub, complex=dataclasses.replace(sub.complex, graph=smaller))
    with pytest.raises(DanglingCell):
        textualize(sub)


# --- prompt assembly ---

def test_prompt_grammar_golden():
    sub = path_subcomplex()
    bundle = build_prompt(textualize(sub), "what links alpha?",
                          preamble="PREAMBLE")
    assert bundle.prompt == (
        "PREAMBLE\n"
        "[CONTEXT]\n"
        "0,alpha\n"
        "1,beta\n"
        "0,links,1\n"
        "[QUESTION]\n"
        "what links alpha?\n"
        "[ANSWER]\n"
    )


def test_empty_context_prompt():
    from toporag.generation import TextualizedSubcomplex
    empty = TextualizedSubcomplex((), (), (), "")
    bundle = build_prompt(empty, "q?", preamble="P")
    assert bundle.prompt == "P\n[CONTEXT]\n[QUESTION]\nq?\n[ANSWER]\n"


def test_token_estimate_and_truncation_flag():
    from toporag.generation import TextualizedSubcomplex
    empty = TextualizedSubcomplex((), (), (), "")
    bundle = build_prompt(empty, "q" * 100, preamble="P", max_input_tokens=10)
    import math
    assert bundle.token_estimate == math.ceil(
        len(bundle.prompt.encode("utf-8")) / 4)
    assert bundle.truncation_flagged
    assert "q" * 100 in bundle.prompt  # never silently truncated


def test_prompt_deterministic():
    sub = scene_loop_subcomplex()
    b1 = build_prompt(textualize(sub), "where is the vase?")
    b2 = build_prompt(textualize(sub), "where is the vase?")
    assert b1.prompt == b2.prompt


# --- mock clients ---

def test_mock_echo_first_line():
    client = mock_llm("echo")
    from toporag.generation import TextualizedSubcomplex
    b = build_prompt(TextualizedSubcomplex((), (), (), ""),
                     "first line\nsecond line")
    assert generate(b, client).answer == "first line"


def test_mock_echo_deterministic():
    client = mock_llm("echo")
    from toporag.generation import TextualizedSubcomplex
    b = build_prompt(TextualizedSubcomplex((), (), (), ""), "ask me")
    answers = {generate(b, client).answer for _ in range(100)}
    assert answers == {"ask me"}


def test_mock_lookup_returns_gold():
    client = mock_llm("lookup", answers={"q?": ["the gold answer"]})
    from toporag.generation import TextualizedSubcomplex
    b = build_prompt(TextualizedSubcomplex((), (), (), ""), "q?")
    assert generate(b, client).answer == "the gold answer"


def test_mock_lookup_requires_table():
    with pytest.raises(ValueError):
        mock_llm("lookup")


def test_mock_contains_context():
    sub = scene_loop_subcomplex()
    tx = textualize(sub)
    client = mock_llm("contains-context",
                      answers={"where is the vase?": ["vase"]})
    bundle = build_prompt(tx, "where is the vase?")
    assert generate(bundle, client).answer == "yes"


def test_mock_contains_context_empty_subcomplex():
    from toporag.generation import TextualizedSubcomplex
    client = mock_llm("contains-context", answers={"q?": ["vase"]})
    bundle = build_prompt(TextualizedSubcomplex((), (), (), ""), "q?")
    assert generate(bundle, client).answer == "no"


# --- HTTP transport ---

class _StubChatHandler(StubProviderHandler):
    """The shared stub, reconfigured in place by the tests below."""


@pytest.fixture
def stub_chat_server():
    with stub_server(_StubChatHandler) as server:
        yield server


def bundle_for(question="q?"):
    from toporag.generation import TextualizedSubcomplex
    return build_prompt(TextualizedSubcomplex((), (), (), ""), question)


def test_http_client_trims_trailing_whitespace_only(stub_chat_server):
    _StubChatHandler.status = 200
    host, port = stub_chat_server.server_address
    client = ChatCompletionsClient(base_url=f"http://{host}:{port}",
                                   model="m", timeout_ms=2000)
    result = generate(bundle_for(), client)
    assert result.answer == "stub answer"


def test_http_client_rejected_on_4xx(stub_chat_server):
    _StubChatHandler.status = 404
    host, port = stub_chat_server.server_address
    client = ChatCompletionsClient(base_url=f"http://{host}:{port}",
                                   model="m", timeout_ms=2000)
    with pytest.raises(ProviderRejected):
        generate(bundle_for(), client)
    _StubChatHandler.status = 200


def test_http_client_unreachable():
    client = ChatCompletionsClient(base_url="http://127.0.0.1:1", model="m",
                                   timeout_ms=200)
    with pytest.raises(ProviderUnavailable):
        generate(bundle_for(), client)



# --- the failure table, shared by both providers ---

EMBEDDING_ROWS = {"data": [{"index": 0, "embedding": [1.0, 0.0]},
                           {"index": 1, "embedding": [0.0, 1.0]}]}


def ask_embeddings(url, timeout=2.0):
    provider = HttpEmbeddingProvider(base_url=url, model="m", dim=2,
                                     timeout=timeout)
    return embed_texts(["a", "b"], provider)


def ask_chat(url, timeout=2.0):
    client = ChatCompletionsClient(base_url=url, model="m",
                                   timeout_ms=int(timeout * 1000))
    return generate(bundle_for(), client).answer


PROVIDERS = {"embeddings": (ask_embeddings, EMBEDDING_ROWS),
             "chat": (ask_chat, StubProviderHandler.body)}


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("reply,error", [
    ({"status": 400}, ProviderRejected),
    ({"status": 503}, ProviderUnavailable),
    ({"status": 201}, ProviderUnavailable),
    ({"body": b"<html>busy</html>"}, ProviderUnavailable),
    ({"truncate": True}, ProviderUnavailable),
], ids=["400", "503", "201", "not-json", "truncated"])
def test_failure_table(provider, reply, error):
    ask, body = PROVIDERS[provider]
    with stub_server(**{"body": body, **reply}) as server:
        with pytest.raises(error):
            ask(base_url(server))


@pytest.mark.parametrize("provider", PROVIDERS)
def test_transport_faults_are_unavailable(provider):
    ask, _ = PROVIDERS[provider]
    with socket.create_server(("127.0.0.1", 0)) as silent:  # never answers
        for url in ("http://127.0.0.1:99999",  # not a valid URL
                    "http://%s:%d" % silent.getsockname()):  # times out
            with pytest.raises(ProviderUnavailable):
                ask(url, timeout=0.2)


@pytest.mark.parametrize("content", [None, ["a", "b"], 5],
                         ids=["null", "list", "number"])
def test_chat_content_must_be_a_string(content):
    reply = {"choices": [{"message": {"content": content}}]}
    with stub_server(body=reply) as server:
        with pytest.raises(ProviderUnavailable, match="not a string"):
            ask_chat(base_url(server))


@pytest.mark.parametrize("provider,prefix", [
    (HttpEmbeddingProvider, "EMBED"), (ChatCompletionsClient, "LLM"),
])
def test_missing_base_url_is_validation_error(monkeypatch, provider, prefix):
    monkeypatch.delenv(f"{prefix}_API_BASE", raising=False)
    with pytest.raises(ValidationError, match=f"{prefix}_API_BASE"):
        provider()
    monkeypatch.setenv(f"{prefix}_API_BASE", "http://127.0.0.1:1/")
    monkeypatch.setenv(f"{prefix}_API_KEY", "k")
    monkeypatch.setenv(f"{prefix}_MODEL", "m")
    client = provider()
    assert (client.base_url, client.api_key, client.model) == (
        "http://127.0.0.1:1", "k", "m")
