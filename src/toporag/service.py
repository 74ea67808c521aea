"""HTTP retrieval/answer service over preloaded complexes.

Complexes are lifted once at startup from a manifest and shared
immutably across request threads; retrieval and answering allocate
per-request state only. Answers come from the text path alone (retrieve,
textualize, prompt, generate): the reasoning forward pass never runs in
the service, and its weights are not loaded at start. A configured
weights file is still checked at start, by its header. Endpoints::

    GET  /healthz                          -> 200 "ok"
    POST /v1/retrieve {graph_id, question} -> subcomplex JSON
    POST /v1/answer   {graph_id, question} -> {answer, subcomplex, latency_ms}

Errors: 400 malformed Content-Length, 404 unknown graph_id or path, 411
missing Content-Length, 413 body over ``MAX_BODY_BYTES``, 422 malformed
body, 503 when the embedding or generation provider fails.

Connections are persistent (HTTP/1.1): a client's requests share one
connection and one handler thread. The server closes a connection after
a reply whose request body it did not read (400, 411, 413, 404 on an
unknown POST path), and when it is closed itself.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .config import PipelineConfig
from .errors import (IoError, ParseError, ProviderRejected,
                     ProviderUnavailable, ValidationError)
from .graph_io import load_graph
from .pipeline import (answer_question, build_embedding_provider,
                       build_llm_client, check_weights, lift_from_config,
                       load_or_init_weights, retrieve_for_question)
from .reasoning import ReasoningWeights
from .retrieval import subcomplex_to_dict

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20  # request bodies are {graph_id, question}


def load_manifest(path: str | Path) -> dict[str, str]:
    """Manifest file: ``{"graphs": {"<graph_id>": "<graph path>"}}``.

    Relative graph paths are resolved against the manifest's directory.
    Raises :class:`IoError` on an unreadable file, :class:`ParseError`
    on malformed JSON or a missing ``graphs`` object, and
    :class:`ValidationError` on a graph path that is not a string.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"manifest {path}: {exc.strerror}") from exc
    except ValueError as exc:  # includes JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc
    graphs = data.get("graphs") if isinstance(data, dict) else None
    if not isinstance(graphs, dict):
        raise ParseError(f"{path}: expected a 'graphs' object")
    for gid, p in graphs.items():
        if not isinstance(p, str):
            raise ValidationError(
                f"{path}: graph {gid!r} needs a string path, got {p!r}")
    base = Path(path).parent
    return {gid: str((base / p) if not Path(p).is_absolute() else p)
            for gid, p in graphs.items()}


class ServiceState:
    """Preloaded complexes plus the shared provider/client handles."""

    def __init__(self, config: PipelineConfig, graph_paths: dict[str, str],
                 llm_client=None):
        self.config = config
        self.provider = build_embedding_provider(config)
        self.llm_client = llm_client or build_llm_client(config)
        check_weights(config)
        self._weights = None
        self._weights_lock = threading.Lock()
        self.complexes = {}
        for gid, path in graph_paths.items():
            graph = load_graph(path)
            self.complexes[gid] = lift_from_config(graph, config,
                                                   provider=self.provider)
            logger.info("preloaded graph %s from %s", gid, path)

    @property
    def weights(self) -> ReasoningWeights:
        """The reasoning weights, loaded once, under a lock, on first read.

        No request handler reads them; they serve callers that run the
        reasoning pass over the preloaded complexes.
        """
        with self._weights_lock:
            if self._weights is None:
                self._weights = load_or_init_weights(self.config)
            return self._weights

    def retrieve(self, graph_id: str, question: str) -> dict:
        sub = retrieve_for_question(self.complexes[graph_id], question,
                                    self.config, provider=self.provider)
        return subcomplex_to_dict(sub)

    def answer(self, graph_id: str, question: str) -> dict:
        outcome = answer_question(self.complexes[graph_id], question,
                                  self.config, self.llm_client,
                                  provider=self.provider)
        return {
            "answer": outcome.answer,
            "subcomplex": subcomplex_to_dict(outcome.subcomplex),
            "latency_ms": outcome.latency_ms,
        }


class _Handler(BaseHTTPRequestHandler):
    state: ServiceState  # set by make_server
    # persistent connections: without them every request costs a connect,
    # a new handler thread and a close, and leaves a socket in TIME_WAIT
    protocol_version = "HTTP/1.1"
    # a reply's body leaves at once instead of waiting, behind its headers,
    # for the client's delayed ACK (about 40 ms per reply)
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # quiet by default
        logger.debug("%s - %s", self.address_string(), format % args)

    def handle_one_request(self):
        if not self.server.wait_for_request(self.connection):
            self.close_connection = True
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        self.server.request_arrived(self.connection)
        return super().parse_request()

    def _send(self, code: int, payload: dict | str,
              close: bool = False) -> None:
        """Reply; ``close`` ends the connection after it, which a reply
        must do when the request body was left unread."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        if close or self.server.closing:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/healthz":
            self._send(200, "ok")
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def _read_body(self) -> dict | None:
        """The request's JSON object with string graph_id and question, or
        None once an error reply has been sent.

        The length is checked before anything is read: ``rfile.read`` of a
        negative length reads until the client closes the connection.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            self._send(411, {"error": "Content-Length required"}, close=True)
            return None
        raw = raw.strip()
        if not (raw.isascii() and raw.isdigit()):
            self._send(400, {"error": f"bad Content-Length {raw!r}"},
                       close=True)
            return None
        if int(raw) > MAX_BODY_BYTES:
            self._send(413, {"error": f"body over {MAX_BODY_BYTES} bytes"},
                       close=True)
            return None
        try:
            data = json.loads(self.rfile.read(int(raw)).decode("utf-8"))
        except ValueError:  # includes JSONDecodeError, UnicodeDecodeError
            data = None
        if not (isinstance(data, dict)
                and isinstance(data.get("graph_id"), str)
                and isinstance(data.get("question"), str)):
            self._send(422, {"error": "body must be a JSON object with "
                                      "string graph_id and question"})
            return None
        return data

    def do_POST(self):
        if self.path not in ("/v1/retrieve", "/v1/answer"):
            self._send(404, {"error": f"unknown path {self.path}"}, close=True)
            return
        body = self._read_body()
        if body is None:
            return
        graph_id, question = body["graph_id"], body["question"]
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._idle_lock = threading.Lock()
        self._idle = set()  # connections whose handler waits for a request
        self.closing = False

    def wait_for_request(self, conn) -> bool:
        """Mark ``conn`` idle; False once the server is closing."""
        with self._idle_lock:
            if not self.closing:
                self._idle.add(conn)
            return not self.closing

    def request_arrived(self, conn) -> None:
        with self._idle_lock:
            self._idle.discard(conn)

    def shutdown_request(self, request) -> None:
        self.request_arrived(request)  # the connection is done
        super().shutdown_request(request)

    def server_close(self) -> None:
        # an idle persistent connection would keep its handler thread, and
        # so server_close, waiting for the client: end its read side so the
        # handler sees end of stream; busy handlers finish their request
        with self._idle_lock:
            self.closing = True
            for conn in self._idle:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:  # the client closed it already
                    pass
        super().server_close()

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        # shutdown() returns only once the accept loop next polls its flag;
        # socketserver's 0.5 s default made every stop take half a second
        super().serve_forever(poll_interval)


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
