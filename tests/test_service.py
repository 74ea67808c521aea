import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from toporag.config import PipelineConfig
from toporag.errors import ValidationError
from toporag.graph_io import save_graph
from toporag.reasoning import ReasoningConfig, ReasoningWeights
from toporag.service import load_manifest, make_server

from helpers import FIXTURES, triangle


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
    resp = requests.post(f"{service}/v1/retrieve", data=b"{not json",
                         timeout=5)
    assert resp.status_code == 422
    resp = requests.post(f"{service}/v1/retrieve", json={"graph_id": "scene"},
                         timeout=5)
    assert resp.status_code == 422


def test_provider_down_503(tmp_path, monkeypatch):
    monkeypatch.setenv("LLM_API_BASE", "http://127.0.0.1:1")
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                            llm_provider="http", llm_timeout_ms=200)
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
            assert reply.startswith(b"HTTP/1.0 200") and reply.endswith(b"ok")
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
