"""One type policy for every document read from outside the package.

Each property writes a well-typed document, puts one ill-typed value at
one place in it (or deletes a required key), and checks that the
surface refuses it as it refuses any bad input: exit 2 from the CLI,
422 from the service. Behind every surface are ``errors.parse_json``
and ``errors.typed``.
"""

import copy
import dataclasses
import json
import math
import threading

import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from toporag.cli import main
from toporag.config import PipelineConfig
from toporag.errors import ParseError, typed
from toporag.graph_io import graph_to_dict, save_graph
from toporag.reasoning import ReasoningConfig, ReasoningWeights
from toporag.service import make_server

from helpers import FIXTURES, triangle

MISSING = object()  # stands for a deleted key

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def well_typed(value, kind):
    """The policy, restated: an int is never a bool, and a float is an
    int or a finite float."""
    if kind is float:
        try:
            return type(value) in (int, float) and math.isfinite(float(value))
        except OverflowError:  # an int beyond the float range
            return False
    return type(value) is kind


def one_change(places):
    """(path, value) pairs: a value of the wrong type for one of
    ``places``, each ``(path, kind, required)``, or MISSING where the key
    is required."""
    def at(place):
        path, kind, required = place
        values = JSON_VALUES.filter(lambda v: not well_typed(v, kind))
        return st.tuples(st.just(path),
                         st.just(MISSING) | values if required else values)
    return st.sampled_from(places).flatmap(at)


def put(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path`` (MISSING deletes it)."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def write_config(path, **values):
    values = {"embed_dim": 16, "state_dim": 16, "proj_dim": 16, "layers": 1,
              **values}
    path.write_text("".join(f"{key} = {json.dumps(value)}\n"
                            for key, value in values.items()))
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    save_graph(triangle(), path)
    return str(path)


@pytest.mark.parametrize("value,kind,ok", [
    (1, int, True), (True, int, False), (1.0, int, False), ("1", int, False),
    (1, float, True), (0.5, float, True), (True, float, False),
    (float("nan"), float, False), (float("-inf"), float, False),
    (10 ** 400, float, False), (True, bool, True), (0, bool, False),
    ("a", str, True), (None, str, False), ([], list, True), ({}, list, False),
], ids=lambda v: repr(v)[:12])
def test_typed_policy(value, kind, ok):
    assert well_typed(value, kind) == ok
    if ok:
        assert typed(value, kind, "v", ParseError) is value
    else:
        with pytest.raises(ParseError, match="v must be"):
            typed(value, kind, "v", ParseError)


CONFIG_PLACES = [((f.name,), type(f.default), False)
                 for f in dataclasses.fields(PipelineConfig)]


@SETTINGS
@given(change=one_change(CONFIG_PLACES))
@example(change=(("c2",), float("nan")))
@example(change=(("c_edge",), float("inf")))
def test_ill_typed_config_is_refused(tmp_path, triangle_path, change):
    (key,), value = change
    cfg = write_config(tmp_path / "bad.cfg", **{key: value})
    assert main(["lift", triangle_path, "--config", cfg]) == 2


GRAPH_PLACES = [
    (("nodes",), list, True), (("edges",), list, True),
    (("directed",), bool, False), (("nodes", 1), dict, False),
    (("edges", 2), dict, False), (("nodes", 1, "id"), int, True),
    (("nodes", 1, "text"), str, True), (("edges", 2, "src"), int, True),
    (("edges", 2, "dst"), int, True), (("edges", 2, "text"), str, True),
]


@SETTINGS
@given(change=one_change(GRAPH_PLACES))
def test_ill_typed_graph_is_refused(tmp_path, change):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(put(graph_to_dict(triangle()), *change)))
    assert main(["lift", str(path),
                 "--config", write_config(tmp_path / "ok.cfg")]) == 2


WEIGHT_PLACES = [((key,), kind, True) for key, kind in (
    ("layers", int), ("state_dim", int), ("activation", str),
    ("aggregation", str), ("seed", int), ("proj_dim", int), ("arrays", list))]
WEIGHT_PLACES += [
    (("arrays", 3), dict, False), (("arrays", 3, "name"), str, True),
    (("arrays", 3, "shape"), list, True),
    (("arrays", 3, "shape", 0), int, False),
]


@SETTINGS
@given(change=one_change(WEIGHT_PLACES))
@example(change=(("layers",), True))
@example(change=(("arrays",), MISSING))
def test_ill_typed_weight_header_is_refused(tmp_path, triangle_path, change):
    weights = tmp_path / "w.bin"
    ReasoningWeights.initialize(ReasoningConfig(
        layers=1, state_dim=16, proj_dim=16)).save(weights)
    header, _, payload = weights.read_bytes().partition(b"\n")
    header = put(json.loads(header), *change)
    weights.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    cfg = write_config(tmp_path / "w.cfg", weights_path=str(weights))
    assert main(["answer", triangle_path, "--question", "q", "--config", cfg,
                 "--mock-llm", "echo",
                 "--artifacts-dir", str(tmp_path / "out")]) == 2


DUMP = {"counts": {"n0": 3, "n1": 3, "n2": 1}, "betti1": 1, "rank_gf2": 1,
        "independent": True, "spans": True}
DUMP_PLACES = [((), dict, False), (("counts",), dict, True)]
DUMP_PLACES += [(("counts", key), int, True) for key in ("n0", "n1", "n2")]
DUMP_PLACES += [((key,), kind, True) for key, kind in (
    ("betti1", int), ("rank_gf2", int), ("independent", bool),
    ("spans", bool))]


@SETTINGS
@given(change=one_change(DUMP_PLACES))
@example(change=(("counts", "n0"), "4"))
@example(change=(("independent",), 1))
def test_ill_typed_complex_dump_is_refused(tmp_path, change):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(put(DUMP, *change)))
    assert main(["stats", str(path)]) == 2


DEEP = "[" * 100_000  # nests past the parser's recursion limit


@pytest.mark.parametrize("surface", ["config", "graph", "qa", "manifest",
                                     "weights", "cache", "dump"])
def test_too_deeply_nested_document_is_refused(tmp_path, triangle_path,
                                               surface):
    doc = tmp_path / "doc"
    doc.write_text(DEEP + "\n")
    cfg = write_config(tmp_path / "ok.cfg")
    if surface == "config":
        doc.write_text(f"k2 = {DEEP}\n")
        argv = ["lift", triangle_path, "--config", str(doc)]
    elif surface == "graph":
        argv = ["lift", str(doc), "--config", cfg]
    elif surface == "qa":
        (tmp_path / "questions.jsonl").write_text(DEEP + "\n")
        argv = ["eval", str(tmp_path), "--config", cfg]
    elif surface == "dump":
        argv = ["stats", str(doc)]
    elif surface == "manifest":
        argv = ["serve", "--manifest", str(doc), "--config", cfg,
                "--port", "0"]
    else:
        key = "weights_path" if surface == "weights" else "embed_cache"
        argv = ["answer", triangle_path, "--question", "q", "--mock-llm",
                "echo", "--config",
                write_config(tmp_path / "w.cfg", **{key: str(doc)})]
    assert main(argv) == 2


@pytest.fixture(scope="module")
def service():
    config = PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16, layers=1)
    server = make_server(config, {"scene": str(FIXTURES / "scene_loop")})
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with requests.Session() as session:
        yield session, "http://%s:%d" % server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


BODY_PLACES = [((), dict, False), (("graph_id",), str, True),
               (("question",), str, True)]


@SETTINGS
@given(change=one_change(BODY_PLACES),
       endpoint=st.sampled_from(["/v1/retrieve", "/v1/answer"]))
def test_ill_typed_service_body_is_refused(service, change, endpoint):
    session, url = service
    body = put({"graph_id": "scene", "question": "where is the vase"}, *change)
    resp = session.post(url + endpoint, data=json.dumps(body).encode(),
                        timeout=3)
    assert resp.status_code == 422, resp.text
