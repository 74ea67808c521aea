"""The three benchmark workloads, each driven through toporag's public API.

A workload builds its state in ``setup`` (timed for ``setup_s``), then
serves ops: ``op(client, index, sink)`` runs one operation, timing only the
calls into toporag, and returns its latency in ms and ``finish``, which
checks and scores the outputs into an ``OpResult``. The phase calls
``finish`` after its clock has stopped, so checks take no timed time. With
a ``sink`` list the op runs the traced path (``staged``) and appends its
``OpTrace`` to the sink; without one it calls the real entry points. The
op sequence of each client is a pure function of the seed and index.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import re
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from toporag.config import PipelineConfig
from toporag.evaluation import accuracy_match, mock_answer_table
from toporag.generation import mock_llm, textualize
from toporag.graph_io import load_graph, load_qa_fixture
from toporag.lifting import verify_cycle_basis
from toporag.pipeline import (answer_question, build_embedding_provider,
                              build_llm_client, lift_from_config,
                              load_or_init_weights, retrieve_for_question)
from toporag.retrieval import is_feasible, subcomplex_to_dict
from toporag.service import make_server

import graphgen
import staged
from staged import OpTrace, stage

FIXTURE = Path("fixtures") / "explagraphs_mini"
SUBCOMPLEX_KEYS = {"cells", "prize", "cost", "provenance", "certificate",
                   "degenerate"}
ANSWER_KEYS = {"answer", "subcomplex", "latency_ms"}


@dataclass
class OpResult:
    latency_ms: float
    ok: bool
    objective: float | None = None
    hit: bool | None = None  # None: the question names no node
    output: str = ""  # canonical rendering of the outputs, for the digest
    # service_answer only: per-request round trips (ms) and the answer's
    # server-reported latency_ms
    round_trips: tuple[float, ...] = ()
    server_ms: float | None = None
    non_2xx: int = 0


@dataclass
class SetupReport:
    seconds: float
    ok: bool
    shape: list[dict] = field(default_factory=list)  # one per lifted graph


def shape_of(graph, complex) -> dict:
    """Size of a lifted complex: cells per dimension, 3-cycles, 2-cell
    boundary lengths."""
    return {
        "n0": complex.n0, "n1": complex.n1, "n2": complex.n2,
        "triangles": len(graphgen.triangles((e.src, e.dst) for e in graph.edges)),
        "boundaries": [len(complex.cells[c].boundary)
                       for c in complex.cell_ids(2)],
    }


def basis_ok(complex, op: OpTrace | None = None) -> bool:
    """verify_cycle_basis, timed into ``op`` when tracing."""
    with stage(op, "verify_cycle_basis"):
        report = verify_cycle_basis(complex)
    if op is not None:
        op.count("verifies")
    return report.independent and report.spans


def named_nodes(graph, question: str) -> tuple[int, ...]:
    """Nodes whose whole text occurs in the question as words."""
    q = question.lower()
    return tuple(n.id for n in graph.nodes
                 if re.search(r"\b" + re.escape(n.text.lower()) + r"\b", q))


def node_line_hit(graph, named, node_lines) -> bool | None:
    """All named nodes have their line in the rendered context."""
    if not named:
        return None
    lines = set(node_lines)
    return all(f"{graph.original_id(v)},{graph.nodes[v].text}" in lines
               for v in named)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class FixtureQa:
    """lift_from_config + answer_question per fixture example, one client."""

    name = "fixture_qa"
    clients = 1

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.config = PipelineConfig(mock_llm_mode="lookup")
        rng = random.Random(f"fixture_qa:{seed}")
        self.order: list[int] = []
        for _ in range(400):
            perm = list(range(10))
            rng.shuffle(perm)
            self.order.extend(perm)

    def setup(self, op: OpTrace | None = None) -> SetupReport:
        self.weights = None  # release the previous set-up's weights first
        start = time.perf_counter()
        with stage(op, "weights_init"):
            self.weights = load_or_init_weights(self.config)
        with stage(op, "load_qa_fixture"):
            self.examples = load_qa_fixture(self.root / FIXTURE)
        self.provider = build_embedding_provider(self.config)
        self.llm = build_llm_client(
            self.config, mock_answers=mock_answer_table(self.examples))
        seconds = time.perf_counter() - start
        self.named = [named_nodes(ex.graph, ex.question) for ex in self.examples]
        return SetupReport(seconds=seconds, ok=len(self.examples) == 10)

    def op(self, client: int, index: int,
           sink: list | None) -> tuple[float, Callable[[], OpResult]]:
        ex = self.examples[self.order[index % len(self.order)]]
        cfg, prov = self.config, self.provider
        op = z_q = None
        if sink is None:
            start = time.perf_counter()
            complex = lift_from_config(ex.graph, cfg, provider=prov)
            out = answer_question(complex, ex.question, cfg, self.llm,
                                  provider=prov, weights=self.weights)
            latency_ms = (time.perf_counter() - start) * 1000.0
            sub, bundle, answer = out.subcomplex, out.bundle, out.answer
        else:
            op = OpTrace()
            start = time.perf_counter()
            complex = staged.lift(ex.graph, cfg, prov, op)
            sub, z_q, bundle, answer, _ = staged.answer(
                complex, ex.question, cfg, self.llm, prov, self.weights, op)
            latency_ms = (time.perf_counter() - start) * 1000.0
            sink.append(op)

        def finish() -> OpResult:
            ok = basis_ok(complex, op)
            if op is not None:
                ok = ok and staged.same_selection(complex, sub, z_q, cfg)
                op.shapes.append(shape_of(ex.graph, complex))
            ok = (ok and is_feasible(complex, frozenset(sub.all_cells()))
                  and accuracy_match(answer, ex.answers))
            return OpResult(
                latency_ms=latency_ms, ok=ok, objective=sub.objective,
                hit=node_line_hit(ex.graph, self.named[ex.idx],
                                  bundle.context.split("\n")),
                output=canonical({"sub": subcomplex_to_dict(sub),
                                  "prompt": bundle.prompt, "answer": answer}))
        return latency_ms, finish

    def close(self) -> None:
        pass


class GraphRetrieve:
    """retrieve_for_question + textualize over one generated 500/1500 graph."""

    name = "graph_retrieve"
    clients = 1

    def __init__(self, root: Path, seed: int):
        self.config = PipelineConfig()
        graph = graphgen.make_graph()
        self.questions = graphgen.make_questions(seed, graph)
        self.triangle_count = len(graphgen.triangles(
            (e["src"], e["dst"]) for e in graph["edges"]))
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
        self.path = Path(self.tmp.name) / "graph.json"
        self.path.write_text(json.dumps(graph), encoding="utf-8")

    def setup(self, op: OpTrace | None = None) -> SetupReport:
        self.complex = None  # release the previous set-up's complex first
        start = time.perf_counter()
        self.provider = build_embedding_provider(self.config)
        with stage(op, "load_graph"):
            self.graph = load_graph(self.path)
        if op is None:
            self.complex = lift_from_config(self.graph, self.config,
                                            provider=self.provider)
        else:
            self.complex = staged.lift(self.graph, self.config,
                                       self.provider, op)
        seconds = time.perf_counter() - start
        shape = shape_of(self.graph, self.complex)
        ok = (basis_ok(self.complex, op) and shape["triangles"] == self.triangle_count
              and (self.complex.n0, self.complex.n1)
              == (graphgen.N_NODES, graphgen.N_EDGES))
        return SetupReport(seconds=seconds, ok=ok, shape=[shape])

    def op(self, client: int, index: int,
           sink: list | None) -> tuple[float, Callable[[], OpResult]]:
        q = self.questions[index % len(self.questions)]
        cfg, prov, complex = self.config, self.provider, self.complex
        z_q = None
        if sink is None:
            start = time.perf_counter()
            sub = retrieve_for_question(complex, q.text, cfg, provider=prov)
            text = textualize(sub)
            latency_ms = (time.perf_counter() - start) * 1000.0
        else:
            op = OpTrace()
            start = time.perf_counter()
            sub, z_q = staged.retrieve(complex, q.text, cfg, prov, op)
            with op.stage("textualize"):
                text = textualize(sub)
            latency_ms = (time.perf_counter() - start) * 1000.0
            sink.append(op)

        def finish() -> OpResult:
            ok = ((z_q is None or staged.same_selection(complex, sub, z_q, cfg))
                  and is_feasible(complex, frozenset(sub.all_cells())))
            return OpResult(
                latency_ms=latency_ms, ok=ok, objective=sub.objective,
                hit=node_line_hit(self.graph, q.named, text.node_lines),
                output=canonical({"sub": subcomplex_to_dict(sub),
                                  "context": text.rendered}))
        return latency_ms, finish

    def close(self) -> None:
        self.tmp.cleanup()


class ServiceAnswer:
    """Two closed-loop HTTP clients against an in-process make_server,
    each alternating POST /v1/answer and POST /v1/retrieve."""

    name = "service_answer"
    clients = 2

    def __init__(self, root: Path, seed: int):
        self.config = PipelineConfig()
        fixture = root / FIXTURE
        self.examples = {str(ex.idx): ex for ex in load_qa_fixture(fixture)}
        self.paths = {}
        for line in (fixture / "questions.jsonl").read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                self.paths[str(record["idx"])] = str(fixture / record["graph"])
        self.named = {gid: named_nodes(ex.graph, ex.question)
                      for gid, ex in self.examples.items()}
        ids = sorted(self.examples)
        self.order = []
        for client in range(self.clients):
            rng = random.Random(f"service_answer:{seed}:{client}")
            self.order.append([rng.choice(ids) for _ in range(4000)])
        self.server = self.thread = None
        self.conns = {}
        self.checked: dict[tuple[str, str], bool] = {}

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join()
            self.server = self.thread = None

    def setup(self, op: OpTrace | None = None) -> SetupReport:
        self._stop_server()
        gc.collect()  # the old server's state sits in reference cycles
        if op is not None:
            # make_server does these calls internally; replay them one by
            # one so the traced run can attribute set-up time to layers
            with op.stage("weights_init"):
                load_or_init_weights(self.config)
            provider = build_embedding_provider(self.config)
            for path in self.paths.values():
                with op.stage("load_graph"):
                    graph = load_graph(path)
                basis_ok(staged.lift(graph, self.config, provider, op), op)
        llm = mock_llm("lookup", answers=mock_answer_table(
            list(self.examples.values())))
        start = time.perf_counter()
        self.server = make_server(self.config, self.paths, llm_client=llm)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-server")
        self.thread.start()
        seconds = time.perf_counter() - start
        self.port = self.server.server_address[1]
        complexes = self.server.state.complexes
        ok = (set(complexes) == set(self.examples)
              and all(basis_ok(c) for c in complexes.values()))
        shape = [shape_of(self.examples[gid].graph, c)
                 for gid, c in sorted(complexes.items())]
        return SetupReport(seconds=seconds, ok=ok, shape=shape)

    def install_staged(self, sink: list) -> None:
        """Serve requests through the traced path, recording one OpTrace
        per request inside the handler thread."""
        state = self.server.state

        def retrieve(graph_id, question):
            op = OpTrace()
            sub, _ = staged.retrieve(state.complexes[graph_id], question,
                                     state.config, state.provider, op)
            sink.append(op)
            return subcomplex_to_dict(sub)

        def answer(graph_id, question):
            op = OpTrace()
            sub, _, _, answer_text, latency_ms = staged.answer(
                state.complexes[graph_id], question, state.config,
                state.llm_client, state.provider, state.weights, op)
            sink.append(op)
            return {"answer": answer_text, "subcomplex": subcomplex_to_dict(sub),
                    "latency_ms": latency_ms}

        state.retrieve, state.answer = retrieve, answer

    def _matches_reference(self, gid: str, question: str, cells: dict) -> bool:
        """Reply cells equal retrieve_for_question's, once per request key."""
        if (gid, question) not in self.checked:
            state = self.server.state
            ref = retrieve_for_question(state.complexes[gid], question,
                                        state.config, provider=state.provider)
            self.checked[(gid, question)] = cells == {
                "0": list(ref.cells0), "1": list(ref.cells1),
                "2": list(ref.cells2)}
        return self.checked[(gid, question)]

    def _post(self, client: int, path: str, body: str):
        """One request; returns (status or None, parsed JSON or None, ms)."""
        conn = self.conns.get(client)
        if conn is None:
            conn = self.conns[client] = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60)
        start = time.perf_counter()
        try:
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            status, payload = resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            status, payload = None, b""
        ms = (time.perf_counter() - start) * 1000.0
        try:
            reply = json.loads(payload) if status == 200 else None
        except ValueError:
            reply = None
        return status, reply, ms

    def op(self, client: int, index: int,
           sink: list | None) -> tuple[float, Callable[[], OpResult]]:
        """POST /v1/answer, then POST /v1/retrieve, for one example.

        One op is the pair: with single requests as ops, a 50/50 mix of
        ~100 ms answers and ~1 ms retrievals puts the median in the gap
        between the two, where it jumps from run to run."""
        gid = self.order[client][index % len(self.order[client])]
        ex = self.examples[gid]
        body = json.dumps({"graph_id": gid, "question": ex.question})
        s1, answer, ms1 = self._post(client, "/v1/answer", body)
        s2, sub, ms2 = self._post(client, "/v1/retrieve", body)
        latency_ms = ms1 + ms2

        def finish() -> OpResult:
            result = OpResult(latency_ms=latency_ms, ok=False,
                              round_trips=(ms1, ms2),
                              non_2xx=sum(s is None or not 200 <= s < 300
                                          for s in (s1, s2)))
            if not (isinstance(answer, dict) and set(answer) == ANSWER_KEYS
                    and isinstance(sub, dict) and set(sub) == SUBCOMPLEX_KEYS
                    and isinstance(answer["subcomplex"], dict)
                    and set(answer["subcomplex"]) == SUBCOMPLEX_KEYS):
                return result
            result.server_ms = float(answer["latency_ms"])
            cells = sub["cells"]
            selected = frozenset(cells["0"] + cells["1"] + cells["2"])
            complex = self.server.state.complexes[gid]
            result.ok = (accuracy_match(str(answer["answer"]), ex.answers)
                         and answer["subcomplex"]["cells"] == cells
                         and is_feasible(complex, selected)
                         and (sink is None or self._matches_reference(
                             gid, ex.question, cells)))
            result.objective = float(sub["prize"]) - float(sub["cost"])
            named = self.named[gid]
            result.hit = set(named) <= set(cells["0"]) if named else None
            result.output = canonical({"answer": dict(answer, latency_ms=None),
                                       "retrieve": sub})
            return result
        return latency_ms, finish

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()
        self._stop_server()


WORKLOADS = {w.name: w for w in (FixtureQa, GraphRetrieve, ServiceAnswer)}
