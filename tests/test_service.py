import http.client
import json
import re
import statistics
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from toporag.config import PipelineConfig
from toporag.errors import IoError, ValidationError
from toporag.graph_io import save_graph
from toporag.reasoning import ReasoningConfig, ReasoningWeights
from toporag.service import (MAX_BODY_BYTES, ServiceState, load_manifest,
                             make_server)

from helpers import EmbeddingStub, FIXTURES, base_url, stub_server, triangle


@pytest.fixture(scope="module")
def service():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                            mock_llm_mode="echo")
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def test_manifest_loader(tmp_path):
    g = tmp_path / "g.json"
    save_graph(triangle(), g)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"graphs": {"tri": "g.json"}}))
    paths = load_manifest(manifest)
    assert paths == {"tri": str(g)}


def test_healthz(service):
    resp = requests.get(f"{service}/healthz", timeout=5)
    assert resp.status_code == 200
    assert resp.text == "ok"


def test_retrieve_endpoint(service):
    resp = requests.post(f"{service}/v1/retrieve",
                         json={"graph_id": "scene",
                               "question": "where is the vase"},
                         timeout=10)
    assert resp.status_code == 200
    payload = resp.json()
    assert set(payload["cells"]) == {"0", "1", "2"}
    assert payload["cells"]["0"]


def test_answer_endpoint(service):
    resp = requests.post(f"{service}/v1/answer",
                         json={"graph_id": "scene",
                               "question": "where is the vase"},
                         timeout=10)
    assert resp.status_code == 200
    payload = resp.json()
    assert payload["answer"] == "where is the vase"  # echo mock
    assert "subcomplex" in payload
    assert payload["latency_ms"] >= 0


@pytest.mark.parametrize("handler", ["retrieve", "answer"])
def test_unexpected_handler_error_is_500_and_the_server_stays_up(monkeypatch,
                                                                 handler):
    real, failures = getattr(ServiceState, handler), [RuntimeError("boom")]

    def fails_once(self, *args):
        if failures:
            raise failures.pop()
        return real(self, *args)

    monkeypatch.setattr(ServiceState, handler, fails_once)
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                            mock_llm_mode="echo")
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        url = f"http://{host}:{port}/v1/{handler}"
        body = {"graph_id": "scene", "question": "where is the vase"}
        resp = requests.post(url, json=body, timeout=10)
        assert resp.status_code == 500
        assert resp.json() == {"error": "RuntimeError: boom"}
        assert requests.post(url, json=body, timeout=10).status_code == 200
    finally:
        server.shutdown()
        server.server_close()


def test_unknown_graph_404(service):
    resp = requests.post(f"{service}/v1/retrieve",
                         json={"graph_id": "nope", "question": "q"},
                         timeout=5)
    assert resp.status_code == 404


def test_unknown_path_404(service):
    assert requests.get(f"{service}/other", timeout=5).status_code == 404
    assert requests.post(f"{service}/v1/other", json={},
                         timeout=5).status_code == 404


def test_malformed_body_422(service):
    for data in (b"{not json", b"[" * 100_000):  # the second nests too deep
        resp = requests.post(f"{service}/v1/retrieve", data=data, timeout=5)
        assert resp.status_code == 422
    resp = requests.post(f"{service}/v1/retrieve", json={"graph_id": "scene"},
                         timeout=5)
    assert resp.status_code == 422
    # both fields must be JSON strings: no str() of a list or a number
    for body in ({"graph_id": "scene", "question": ["a"]},
                 {"graph_id": "scene", "question": 5},
                 {"graph_id": ["scene"], "question": "where is the vase"},
                 {"graph_id": "scene", "question": ""}):
        for path in ("/v1/retrieve", "/v1/answer"):
            resp = requests.post(f"{service}{path}", json=body, timeout=5)
            assert resp.status_code == 422, (path, body)


def test_provider_down_503(tmp_path, monkeypatch):
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                            llm_provider="http", llm_timeout_ms=200)
    with stub_server(truncate=True) as truncated:
        for base in ("http://127.0.0.1:1", base_url(truncated)):
            monkeypatch.setenv("LLM_API_BASE", base)
            server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                                 port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address
            try:
                resp = requests.post(f"http://{host}:{port}/v1/answer",
                                     json={"graph_id": "scene", "question": "q"},
                                     timeout=10)
                assert resp.status_code == 503
                # retrieval does not touch the generation provider
                resp = requests.post(f"http://{host}:{port}/v1/retrieve",
                                     json={"graph_id": "scene", "question": "q"},
                                     timeout=10)
                assert resp.status_code == 200
            finally:
                server.shutdown()
                server.server_close()


def test_all_zero_question_embedding_503(monkeypatch):
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                            embed_provider="http")
    with stub_server(EmbeddingStub, zero_texts={"q"}) as stub:
        monkeypatch.setenv("EMBED_API_BASE", base_url(stub))
        server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                             port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            resp = requests.post(f"http://{host}:{port}/v1/retrieve",
                                 json={"graph_id": "scene", "question": "q"},
                                 timeout=10)
            assert resp.status_code == 503
            assert resp.json() == {"error": "embedding is all zeros"}
        finally:
            server.shutdown()
            server.server_close()


class _SlowEchoClient:
    def __init__(self, delay):
        self.delay = delay
        self.started = threading.Event()  # a request reached the handler
        self.finished = threading.Event()  # and its generation returned

    def complete(self, bundle):
        import time
        self.started.set()
        time.sleep(self.delay)
        self.finished.set()
        return bundle.question, {"mock": "slow-echo"}


def test_shutdown_drains_in_flight_requests():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    client = _SlowEchoClient(delay=0.8)
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0, llm_client=client)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    done = threading.Event()
    result = {}

    def slow_call():
        resp = requests.post(f"http://{host}:{port}/v1/answer",
                             json={"graph_id": "scene", "question": "q"},
                             timeout=15)
        result["status"] = resp.status_code
        done.set()

    caller = threading.Thread(target=slow_call)
    caller.start()
    assert client.started.wait(timeout=10)
    server.shutdown()
    server.server_close()  # must block until the in-flight request finished
    assert client.finished.is_set()
    # the reply is on the wire once server_close returns; the caller may
    # still be reading it
    caller.join(timeout=5)
    assert not caller.is_alive()
    assert done.is_set()
    assert result["status"] == 200


def test_shutdown_returns_promptly():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    start = time.monotonic()
    server.shutdown()
    elapsed = time.monotonic() - start
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert elapsed < 0.25


def test_concurrent_retrieves_match_serial(service):
    questions = [f"where is the vase {i % 4}" for i in range(32)]

    def fetch(q):
        resp = requests.post(f"{service}/v1/retrieve",
                             json={"graph_id": "scene", "question": q},
                             timeout=15)
        assert resp.status_code == 200
        return json.dumps(resp.json(), sort_keys=True)

    serial = [fetch(q) for q in questions]
    with ThreadPoolExecutor(max_workers=32) as pool:
        parallel = list(pool.map(fetch, questions))
    assert parallel == serial


def test_burst_of_connects_is_queued_not_refused():
    # every connect completes while no request is being accepted yet; with
    # a listen backlog of 5 the kernel drops the SYNs beyond it
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    address = server.server_address
    socks, thread = [], None
    try:
        for _ in range(32):
            socks.append(socket.create_connection(address, timeout=0.5))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        for sock in socks:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                         b"Connection: close\r\n\r\n")
        for sock in socks:
            sock.settimeout(10)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
            assert reply.startswith(b"HTTP/1.1 200") and reply.endswith(b"ok")
    finally:
        for sock in socks:
            sock.close()
        if thread is not None:  # shutdown() waits for serve_forever to end
            server.shutdown()
        server.server_close()


def test_mismatched_weight_file_fails_at_start(tmp_path):
    weights_path = tmp_path / "w.bin"
    ReasoningWeights.initialize(
        ReasoningConfig(layers=2, state_dim=16, proj_dim=16)).save(weights_path)
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=3,
                            weights_path=str(weights_path))
    with pytest.raises(ValidationError, match="layers=2"):
        make_server(config, {"scene": str(FIXTURES / "scene_loop")}, port=0)


def test_missing_weight_file_fails_at_start():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                            weights_path="/nonexistent/w.bin")
    with pytest.raises(IoError, match="/nonexistent/w.bin"):
        make_server(config, {"scene": str(FIXTURES / "scene_loop")}, port=0)


def test_graph_with_no_nodes_fails_at_start(tmp_path):
    """No cell of an empty graph can be retrieved, so every request for it
    would fail: the server refuses it at start, naming its id and path."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"nodes": [], "edges": []}))
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    with pytest.raises(ValidationError,
                       match=re.escape(f"graph 'void' at {empty} has no nodes")):
        make_server(config, {"scene": str(FIXTURES / "scene_loop"),
                             "void": str(empty)}, port=0)


def test_answer_runs_no_reasoning_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reasoning pass ran")

    monkeypatch.setattr("toporag.pipeline.forward", refuse)
    monkeypatch.setattr(ReasoningWeights, "initialize", refuse)
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2,
                            mock_llm_mode="echo")
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        resp = requests.post(f"http://{host}:{port}/v1/answer",
                             json={"graph_id": "scene",
                                   "question": "where is the vase"},
                             timeout=10)
        assert resp.status_code == 200
        assert resp.json()["answer"] == "where is the vase"
    finally:
        server.shutdown()
        server.server_close()


def test_weights_load_once_under_concurrent_reads(monkeypatch):
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    state = ServiceState(config, {"scene": str(FIXTURES / "scene_loop")})
    real_init = ReasoningWeights.initialize
    calls = []

    def slow_init(cfg):
        calls.append(cfg)
        time.sleep(0.05)  # widen the window for a second initialisation
        return real_init(cfg)

    monkeypatch.setattr(ReasoningWeights, "initialize", slow_init)
    barrier = threading.Barrier(4)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append(state.weights)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read) for _ in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=10)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(reader.is_alive() for reader in readers)
    assert len(calls) == 1
    assert len(seen) == 4 and all(w is seen[0] for w in seen)


@pytest.mark.parametrize("length_header,status", [
    (None, 411),
    ("-1", 400),
    ("ten", 400),
    ("1.5", 400),
    (str(MAX_BODY_BYTES + 1), 413),
])
def test_bad_content_length_is_refused_at_once(service, length_header,
                                               status):
    # no body follows: a server that tried to read one would wait for the
    # client to close the connection
    host, port = service.removeprefix("http://").split(":")
    head = "POST /v1/answer HTTP/1.1\r\nHost: t\r\n"
    if length_header is not None:
        head += f"Content-Length: {length_header}\r\n"
    start = time.monotonic()
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall((head + "\r\n").encode("ascii"))
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert time.monotonic() - start < 3
    assert reply.startswith(f"HTTP/1.1 {status} ".encode("ascii"))


def test_requests_share_one_persistent_connection(service):
    host, port = service.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    body = json.dumps({"graph_id": "scene", "question": "where is the vase"})
    try:
        conn.connect()
        sock = conn.sock
        round_trips = []
        for i in range(20):
            path = ("/v1/retrieve", "/v1/answer")[i % 2]
            start = time.perf_counter()
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            round_trips.append(time.perf_counter() - start)
            assert resp.status == 200 and resp.version == 11
            assert resp.getheader("Connection") is None
            assert set(payload["cells"] if i % 2 == 0
                       else payload["subcomplex"]["cells"]) == {"0", "1", "2"}
            assert conn.sock is sock  # not closed and reopened
    finally:
        conn.close()
    # a reply held back until the client's delayed ACK takes >= 40 ms
    assert statistics.median(round_trips) < 0.02


def test_unread_body_closes_the_connection(service):
    # the body of a request refused before it is read must not be parsed
    # as the next request on the connection
    host, port = service.removeprefix("http://").split(":")
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    head = (f"POST /v1/other HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(smuggled)}\r\n\r\n").encode("ascii")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(head + smuggled)
        reply = b""
        while chunk := sock.recv(4096):  # times out if left open
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 404 ")
    assert reply.count(b"HTTP/1.1 ") == 1
    assert b"\r\nConnection: close\r\n" in reply


def test_server_close_ends_idle_persistent_connections():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=2)
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")},
                         port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        assert conn.getresponse().read() == b"ok"
        # the connection stays open, its handler waiting for a request
        server.shutdown()
        closer = threading.Thread(target=server.server_close, daemon=True)
        closer.start()
        closer.join(timeout=3)
        assert not closer.is_alive()
    finally:
        conn.close()
