import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporag.errors import (IoError, MissingGraphError, ParseError,
                             ValidationError)
from toporag.graph_io import (Edge, Node, TextualGraph, load_graph,
                              load_qa_fixture, save_graph)

from helpers import FIXTURES, make_graph, triangle


def write_json_graph(path, nodes, edges, directed=False):
    payload = {
        "nodes": [{"id": i, "text": t} for i, t in nodes],
        "edges": [{"src": s, "dst": d, "text": t} for s, d, t in edges],
        "directed": directed,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_load_triangle_json(tmp_path):
    p = tmp_path / "g.json"
    write_json_graph(p, [(0, "a"), (1, "b"), (2, "c")],
                     [(0, 1, "x"), (1, 2, "y"), (2, 0, "z")])
    g = load_graph(p)
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert g.nodes[1].text == "b"


def test_dangling_edge_rejected(tmp_path):
    p = tmp_path / "g.json"
    write_json_graph(p, [(0, "a"), (1, "b"), (2, "c")], [(0, 99, "x")])
    with pytest.raises(ValidationError):
        load_graph(p)


def test_duplicate_node_id_rejected(tmp_path):
    p = tmp_path / "g.json"
    write_json_graph(p, [(0, "a"), (0, "b")], [])
    with pytest.raises(ValidationError):
        load_graph(p)


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_graph(p)


def test_non_dense_ids_compacted(tmp_path):
    p = tmp_path / "g.json"
    write_json_graph(p, [(10, "a"), (20, "b")], [(20, 10, "x")])
    g = load_graph(p)
    assert [n.id for n in g.nodes] == [0, 1]
    assert g.original_ids == (10, 20)
    assert g.edges[0] == Edge(src=1, dst=0, text="x")


def test_scene_loop_csv_pair():
    g = load_graph(FIXTURES / "scene_loop", format="csv-pair")
    assert g.num_nodes == 4
    assert g.num_edges == 4
    assert g.nodes[0].text == "bookshelf"
    assert g.nodes[3].text == "clock"


# (file, text): a required column missing, an id cell missing, an id
# that is not an integer
MALFORMED_CSV = [
    ("nodes.csv", "node_attr\na\n"),
    ("edges.csv", "src,edge_attr\n0,r\n"),
    ("edges.csv", "src,edge_attr,dst\n0,r\n"),
    ("edges.csv", "src,edge_attr,dst\n0,r,one\n"),
]


@pytest.mark.parametrize("name,text", MALFORMED_CSV, ids=[
    "no-node_id-column", "no-dst-column", "missing-id-cell", "non-integer-id"])
def test_malformed_csv_pair_is_parse_error(tmp_path, name, text):
    (tmp_path / "nodes.csv").write_text("node_id,node_attr\n0,a\n1,b\n",
                                        encoding="utf-8")
    (tmp_path / "edges.csv").write_text("src,edge_attr,dst\n0,r,1\n",
                                        encoding="utf-8")
    load_graph(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(str(tmp_path / name))):
        load_graph(tmp_path)


def test_unreadable_csv_pair_file_is_io_error(tmp_path):
    (tmp_path / "nodes.csv").mkdir()
    (tmp_path / "edges.csv").write_text("src,dst,edge_attr\n", encoding="utf-8")
    with pytest.raises(IoError, match=re.escape(str(tmp_path / "nodes.csv"))):
        load_graph(tmp_path)


def test_round_trip_triangle(tmp_path):
    g = triangle()
    p = tmp_path / "t.json"
    save_graph(g, p)
    assert load_graph(p) == g


def test_round_trip_unicode(tmp_path):
    g = make_graph(2, [(0, 1)], node_texts=["café ☕", "règle\n二"],
                   edge_texts=["induit → précède"])
    p = tmp_path / "u.json"
    save_graph(g, p)
    g2 = load_graph(p)
    assert g2.nodes[1].text == "règle\n二"
    assert g2.edges[0].text == "induit → précède"
    assert g2 == g


def test_save_is_deterministic(tmp_path):
    g = triangle()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, p1)
    save_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_round_trip_random_graphs(tmp_path_factory, data):
    n = data.draw(st.integers(1, 40))
    texts = st.text(max_size=8)
    nodes = tuple(Node(i, data.draw(texts)) for i in range(n))
    m = data.draw(st.integers(0, 60))
    edges = tuple(
        Edge(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)),
             data.draw(texts))
        for _ in range(m)
    )
    g = TextualGraph(nodes=nodes, edges=edges,
                     directed=data.draw(st.booleans()))
    p = tmp_path_factory.mktemp("rt") / "g.json"
    save_graph(g, p)
    assert load_graph(p) == g


def test_large_round_trip(tmp_path):
    import random
    rng = random.Random(3)
    nodes = tuple(Node(i, f"t{rng.randrange(1000)}") for i in range(1000))
    edges = tuple(
        Edge(rng.randrange(1000), rng.randrange(1000), f"e{j}")
        for j in range(1500)
    )
    g = TextualGraph(nodes=nodes, edges=edges)
    p = tmp_path / "big.json"
    save_graph(g, p)
    assert load_graph(p) == g


def test_load_qa_fixture_profile():
    examples = load_qa_fixture(FIXTURES / "explagraphs_mini")
    assert len(examples) == 10
    assert [ex.idx for ex in examples] == list(range(10))
    avg_nodes = sum(ex.graph.num_nodes for ex in examples) / len(examples)
    assert abs(avg_nodes - 5.17) < 1.0
    assert all(ex.dataset == "explagraphs" for ex in examples)
    assert all(ex.answers for ex in examples)


def test_load_qa_fixture_empty_dir(tmp_path):
    with pytest.raises(IoError, match=re.escape(
            f"cannot read {tmp_path / 'questions.jsonl'}")):
        load_qa_fixture(tmp_path)


def test_load_qa_fixture_missing_graph(tmp_path):
    (tmp_path / "questions.jsonl").write_text(
        json.dumps({"idx": 0, "question": "q", "answers": ["a"],
                    "graph": "graphs/0.json"}) + "\n",
        encoding="utf-8")
    with pytest.raises(MissingGraphError):
        load_qa_fixture(tmp_path)


def _triangle_payload():
    return {"nodes": [{"id": i, "text": t} for i, t in enumerate("abc")],
            "edges": [{"src": s, "dst": d, "text": t}
                      for s, d, t in [(0, 1, "x"), (1, 2, "y"), (2, 0, "z")]],
            "directed": False}


# (section, index or None, key, value): each value is one that int(),
# str() or bool() would coerce into a well-formed graph
ILL_TYPED_GRAPH = [
    ("nodes", 0, "id", "0"), ("nodes", 0, "id", 0.0), ("nodes", 0, "id", False),
    ("nodes", 1, "id", 1.7), ("edges", 0, "src", "0"), ("edges", 0, "dst", True),
    ("nodes", 0, "text", 5), ("edges", 0, "text", 5.0),
    (None, None, "directed", "no"),
]


def write_ill_typed_graph(path, section, index, key, value):
    payload = _triangle_payload()
    target = payload if section is None else payload[section][index]
    target[key] = value
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("section,index,key,value", ILL_TYPED_GRAPH)
def test_ill_typed_graph_value_is_parse_error(tmp_path, section, index, key,
                                              value):
    p = tmp_path / "g.json"
    write_ill_typed_graph(p, section, index, key, value)
    with pytest.raises(ParseError, match=key):
        load_graph(p)


def write_qa_fixture(root, **overrides):
    (root / "graphs").mkdir()
    (root / "graphs" / "0.json").write_text(json.dumps(_triangle_payload()),
                                            encoding="utf-8")
    record = {"idx": 0, "question": "q", "answers": ["a"],
              "graph": "graphs/0.json", **overrides}
    (root / "questions.jsonl").write_text(json.dumps(record) + "\n",
                                          encoding="utf-8")


# values that int() or str() would coerce, and a graph path that is not
# a string
ILL_TYPED_QA = [
    ("idx", "0"), ("idx", 0.5), ("idx", True), ("question", 5),
    ("answers", "support"), ("answers", [1]), ("graph", 5),
]


@pytest.mark.parametrize("key,value", ILL_TYPED_QA)
def test_ill_typed_qa_record_is_parse_error(tmp_path, key, value):
    write_qa_fixture(tmp_path, **{key: value})
    with pytest.raises(ParseError, match="answer" if key == "answers" else key):
        load_qa_fixture(tmp_path)


@pytest.mark.parametrize("case, message", [
    ("unknown-src", "unknown node_id 99"),
    ("empty-answers", "empty answers list"),
    ("unknown-dataset", "unknown dataset tag 'trivia'"),
])
def test_dangling_or_empty_fixture_entry_is_validation_error(tmp_path, case,
                                                            message):
    graph = tmp_path / "g.json"
    write_json_graph(graph, [(0, "a"), (1, "b")], [(0, 1, "x"), (99, 1, "y")])
    if case != "unknown-src":
        write_qa_fixture(tmp_path, **({"answers": []} if case == "empty-answers"
                                      else {"dataset": "trivia"}))
    with pytest.raises(ValidationError, match=message):
        load_graph(graph) if case == "unknown-src" else load_qa_fixture(tmp_path)


def test_well_typed_qa_record_loads(tmp_path):
    write_qa_fixture(tmp_path, answers=["a", "b"])
    [example] = load_qa_fixture(tmp_path)
    assert (example.idx, example.question, example.answers) == (0, "q", ("a", "b"))
    assert example.graph.num_edges == 3 and not example.graph.directed
