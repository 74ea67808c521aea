"""HTTP retrieval/answer service over preloaded complexes.

Complexes are lifted once at startup from a manifest and shared
immutably across request threads; retrieval and the reasoning forward
pass allocate per-request state only. Endpoints::

    GET  /healthz                          -> 200 "ok"
    POST /v1/retrieve {graph_id, question} -> subcomplex JSON
    POST /v1/answer   {graph_id, question} -> {answer, subcomplex, latency_ms}

Errors: 404 unknown graph_id or path, 422 malformed body, 503 when the
generation provider is unavailable.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .config import PipelineConfig
from .errors import ProviderRejected, ProviderUnavailable
from .graph_io import load_graph
from .pipeline import (answer_question, build_embedding_provider,
                       build_llm_client, lift_from_config,
                       load_or_init_weights, retrieve_for_question)
from .retrieval import subcomplex_to_dict

logger = logging.getLogger(__name__)


def load_manifest(path: str | Path) -> dict[str, str]:
    """Manifest file: ``{"graphs": {"<graph_id>": "<graph path>"}}``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    graphs = data.get("graphs")
    if not isinstance(graphs, dict):
        raise ValueError(f"{path}: expected a 'graphs' object")
    base = Path(path).parent
    return {str(gid): str((base / p) if not Path(p).is_absolute() else p)
            for gid, p in graphs.items()}


class ServiceState:
    """Preloaded complexes plus the shared provider/client handles."""

    def __init__(self, config: PipelineConfig, graph_paths: dict[str, str],
                 llm_client=None):
        self.config = config
        self.provider = build_embedding_provider(config)
        self.llm_client = llm_client or build_llm_client(config)
        self.weights = load_or_init_weights(config)
        self.complexes = {}
        for gid, path in graph_paths.items():
            graph = load_graph(path)
            self.complexes[gid] = lift_from_config(graph, config,
                                                   provider=self.provider)
            logger.info("preloaded graph %s from %s", gid, path)

    def retrieve(self, graph_id: str, question: str) -> dict:
        sub = retrieve_for_question(self.complexes[graph_id], question,
                                    self.config, provider=self.provider)
        return subcomplex_to_dict(sub)

    def answer(self, graph_id: str, question: str) -> dict:
        outcome = answer_question(self.complexes[graph_id], question,
                                  self.config, self.llm_client,
                                  provider=self.provider,
                                  weights=self.weights)
        return {
            "answer": outcome.answer,
            "subcomplex": subcomplex_to_dict(outcome.subcomplex),
            "latency_ms": outcome.latency_ms,
        }


class _Handler(BaseHTTPRequestHandler):
    state: ServiceState  # set by make_server

    def log_message(self, format, *args):  # quiet by default
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(self, code: int, payload: dict | str) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/healthz":
            self._send(200, "ok")
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def _read_body(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        return data

    def do_POST(self):
        if self.path not in ("/v1/retrieve", "/v1/answer"):
            self._send(404, {"error": f"unknown path {self.path}"})
            return
        body = self._read_body()
        if body is None or "graph_id" not in body or "question" not in body:
            self._send(422, {"error": "body must be JSON with graph_id and question"})
            return
        graph_id = str(body["graph_id"])
        question = str(body["question"])
        if graph_id not in self.state.complexes:
            self._send(404, {"error": f"unknown graph_id {graph_id!r}"})
            return
        try:
            if self.path == "/v1/retrieve":
                self._send(200, self.state.retrieve(graph_id, question))
            else:
                self._send(200, self.state.answer(graph_id, question))
        except (ProviderUnavailable, ProviderRejected) as exc:
            self._send(503, {"error": str(exc)})
        except Exception as exc:  # internal error, keep the server alive
            logger.exception("request failed")
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})


class _DrainingServer(ThreadingHTTPServer):
    # non-daemon request threads are joined by server_close(), so
    # shutdown drains in-flight requests
    daemon_threads = False
    block_on_close = True
    # listen backlog: socketserver's default of 5 drops or resets a burst
    # of simultaneous connects before the accept loop gets to them
    request_queue_size = 128


def make_server(config: PipelineConfig, graph_paths: dict[str, str],
                host: str = "127.0.0.1", port: int = 0,
                llm_client=None) -> ThreadingHTTPServer:
    """Build a ready-to-run threaded server; ``port=0`` picks a free port."""
    state = ServiceState(config, graph_paths, llm_client=llm_client)
    handler = type("BoundHandler", (_Handler,), {"state": state})
    server = _DrainingServer((host, port), handler)
    server.state = state
    return server


def serve(config: PipelineConfig, graph_paths: dict[str, str],
          host: str = "127.0.0.1", port: int = 8080) -> None:
    """Run the service until interrupted; drains in-flight requests."""
    server = make_server(config, graph_paths, host=host, port=port)
    logger.info("serving on %s:%d", *server.server_address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
