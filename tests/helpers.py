import json
import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

from toporag.embedding import DeterministicProvider, embed_texts
from toporag.graph_io import Edge, Node, TextualGraph
from toporag.lifting import DFS, lift_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_graph(n_nodes, edge_list, directed=False, node_texts=None,
               edge_texts=None):
    nodes = tuple(
        Node(i, node_texts[i] if node_texts else f"node {i}")
        for i in range(n_nodes)
    )
    edges = tuple(
        Edge(u, v, edge_texts[j] if edge_texts else f"edge {u} {v}")
        for j, (u, v) in enumerate(edge_list)
    )
    return TextualGraph(nodes=nodes, edges=edges, directed=directed)


def triangle():
    return make_graph(3, [(0, 1), (0, 2), (1, 2)])


def k4():
    return make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def path3():
    return make_graph(3, [(0, 1), (1, 2)])


def two_triangles():
    return make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def random_connected_graph(rng: random.Random, n: int, m: int) -> TextualGraph:
    """Connected multigraph without self-loops: random tree + extra edges."""
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return make_graph(n, edges)


def messy_graph(rng):
    """1-3 components with self-loops and parallel edges, isolated
    vertices, vertex ids shuffled across components."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 20)
        edges += [(n + rng.randrange(v), n + v) for v in range(1, size)]
        edges += [(n + rng.randrange(size), n + rng.randrange(size))
                  for _ in range(rng.randint(0, 2 * size))]
        n += size
    n += rng.randint(0, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


def tree_edges(cx):
    """Edge indices of the complex's spanning forest, from ``parent_edge``."""
    return frozenset((cx.parent_edge[cx.parent_edge >= 0] - cx.n0).tolist())


def lift(graph, dim=16, seed=7, policy=DFS):
    provider = DeterministicProvider(dim=dim, seed=seed)
    node_vecs = embed_texts([n.text for n in graph.nodes], provider)
    edge_vecs = embed_texts([e.text for e in graph.edges], provider)
    return lift_graph(graph, node_vecs, edge_vecs, policy=policy,
                      fingerprint=provider.fingerprint)


class StubProviderHandler(BaseHTTPRequestHandler):
    """Local stand-in for the embedding and chat endpoints.

    Every POST gets ``status`` with ``body``: JSON-encoded, or sent as is
    when it is bytes. With ``truncate`` the reply announces more bytes
    than it sends, then the connection closes.
    """

    status = 200
    body = {"choices": [{"message": {"content": "stub answer   \n"}}]}
    truncate = False

    def log_message(self, *args):
        pass

    def reply(self, request: bytes):
        """The body that answers ``request``."""
        return self.body

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.reply(self.rfile.read(length))
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length",
                         str(len(payload) + 16 * self.truncate))
        self.end_headers()
        self.wfile.write(payload)


class EmbeddingStub(StubProviderHandler):
    """An embeddings endpoint: one row of width ``dim`` per input text, all
    zeros for the texts in ``zero_texts`` and a unit vector otherwise."""

    dim = 16
    zero_texts = frozenset()

    def reply(self, request: bytes):
        texts = json.loads(request)["input"]
        return {"data": [
            {"index": i,
             "embedding": [float(text not in self.zero_texts)]
             + [0.0] * (self.dim - 1)}
            for i, text in enumerate(texts)]}


@contextmanager
def stub_server(handler=StubProviderHandler, **reply):
    """Serve ``handler`` on a free local port; ``reply`` overrides its
    ``status``, ``body`` or ``truncate`` for this server only."""
    if reply:
        handler = type(handler.__name__, (handler,), reply)
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def base_url(server) -> str:
    return "http://%s:%d" % server.server_address
