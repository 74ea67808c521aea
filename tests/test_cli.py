import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from toporag import cli, errors
from toporag.cli import main
from toporag.config import PipelineConfig, load_config, save_config
from toporag.graph_io import load_graph, save_graph
from toporag.pipeline import (build_embedding_provider, lift_from_config,
                              retrieve_for_question)
from toporag.reasoning import (ReasoningConfig, ReasoningWeights, forward,
                               pool, project)

from helpers import (FIXTURES, EmbeddingStub, StubProviderHandler, base_url,
                     make_graph, stub_server, triangle)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    save_config(PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                               layers=2), path)
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    save_graph(triangle(), path)
    return str(path)


def test_lift_triangle_stats_line(tmp_path, capsys, small_cfg, triangle_path):
    assert main(["lift", triangle_path, "--config", small_cfg]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "X0=3 X1=3 X2=1 betti1=1 rank=1 basis=OK"


def test_lift_tree_has_no_two_cells(tmp_path, capsys, small_cfg):
    path = tmp_path / "path.json"
    save_graph(make_graph(3, [(0, 1), (1, 2)]), path)
    assert main(["lift", str(path), "--config", small_cfg]) == 0
    assert "X2=0" in capsys.readouterr().out


def test_lift_scene_loop(capsys, small_cfg):
    assert main(["lift", str(FIXTURES / "scene_loop"),
                 "--config", small_cfg]) == 0
    out = capsys.readouterr().out
    assert "X2=1" in out and "betti1=1" in out


def test_lift_directory_as_json_is_io_error(capsys, small_cfg):
    scene = str(FIXTURES / "scene_loop")
    assert main(["lift", scene, "--format", "json",
                 "--config", small_cfg]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and scene in err


def test_lift_dump_and_stats_roundtrip(tmp_path, capsys, small_cfg,
                                       triangle_path):
    dump = tmp_path / "dump.json"
    assert main(["lift", triangle_path, "--config", small_cfg,
                 "--out", str(dump)]) == 0
    lift_line = capsys.readouterr().out.strip()
    payload = json.loads(dump.read_text())
    assert payload["counts"] == {"n0": 3, "n1": 3, "n2": 1}
    assert sorted(payload["tree_edges"]) == payload["tree_edges"]
    assert payload["cells"]["2"][0]["boundary"]
    assert main(["stats", str(dump)]) == 0
    assert capsys.readouterr().out.strip() == lift_line


@pytest.mark.parametrize("flags, policy, seed", [
    ([], "dfs", 13), (["--policy", "bfs"], "bfs", 13),
    (["--seed", "5"], "dfs", 5),
    (["--policy", "random", "--seed", "5"], "random:5", 5),
])
def test_policy_and_seed_flags_override_the_config(tmp_path, capsys, small_cfg,
                                                   triangle_path, flags, policy,
                                                   seed):
    dump = tmp_path / "dump.json"
    assert main(["lift", triangle_path, "--config", small_cfg, *flags,
                 "--out", str(dump)]) == 0
    payload = json.loads(dump.read_text())
    assert payload["policy"] == policy
    assert payload["embedding"]["fingerprint"] == \
        f"deterministic:v1:seed={seed}:dim=16"


@pytest.mark.parametrize("text", [
    None,  # no file
    "{not json",
    '{"counts": {}}',
    json.dumps({"counts": {"n0": "4", "n1": 4, "n2": 1}, "betti1": 1,
                "rank_gf2": 1, "independent": 1, "spans": True}),
], ids=["missing", "malformed", "no-counts", "ill-typed"])
def test_stats_refuses_a_bad_dump(tmp_path, capsys, text):
    dump = tmp_path / "dump.json"
    if text is not None:
        dump.write_text(text)
    assert main(["stats", str(dump)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_retrieve_k2_zero_has_no_two_cells(capsys, small_cfg, triangle_path):
    assert main(["retrieve", triangle_path, "--question", "node 0",
                 "--config", small_cfg, "--k2", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"]["2"] == []


def test_retrieve_deterministic(capsys, small_cfg, triangle_path):
    args = ["retrieve", triangle_path, "--question", "node 1 edge",
            "--config", small_cfg]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_retrieve_matches_bruteforce_oracle(capsys, small_cfg, triangle_path):
    from toporag.config import load_config
    from toporag.embedding import DeterministicProvider, embed_texts
    from toporag.pipeline import lift_from_config
    from toporag.retrieval import assign_prizes, topk_cells
    from reference_pcst import brute_force_subcomplex

    question = "node 0 edge 0 1"
    assert main(["retrieve", triangle_path, "--question", question,
                 "--config", small_cfg]) == 0
    got = json.loads(capsys.readouterr().out)

    cfg = load_config(small_cfg)
    provider = DeterministicProvider(dim=cfg.embed_dim, seed=cfg.embed_seed)
    cx = lift_from_config(triangle(), cfg, provider=provider)
    z_q = embed_texts([question], provider)[0]
    a = assign_prizes(topk_cells(cx, z_q, 0, cfg.k0),
                      topk_cells(cx, z_q, 1, cfg.k1), cx,
                      (cfg.k0, cfg.k1), cfg.c2, c_edge=cfg.c_edge)
    oracle = brute_force_subcomplex(cx, a)
    assert got["cells"] == {"0": list(oracle.cells0),
                            "1": list(oracle.cells1),
                            "2": list(oracle.cells2)}


def test_answer_with_lookup_mock(capsys, small_cfg, triangle_path):
    assert main(["answer", triangle_path, "--question", "which node?",
                 "--config", small_cfg, "--mock-llm", "lookup",
                 "--gold", "node zero"]) == 0
    assert capsys.readouterr().out.strip() == "node zero"


def test_answer_contains_context_mode(capsys, small_cfg):
    assert main(["answer", str(FIXTURES / "scene_loop"),
                 "--question", "where is the vase",
                 "--config", small_cfg, "--mock-llm", "contains-context",
                 "--gold", "vase"]) == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_answer_writes_artifacts(tmp_path, capsys, small_cfg, triangle_path):
    art = tmp_path / "artifacts"
    assert main(["answer", triangle_path, "--question", "which node?",
                 "--config", small_cfg, "--mock-llm", "echo",
                 "--artifacts-dir", str(art)]) == 0
    assert (art / "prompt.txt").exists()
    soft = json.loads((art / "soft_prompt.json").read_text())
    assert len(soft["projected"]) == 16
    assert (art / "subcomplex.json").exists()


def test_answer_artifacts_equal_explicit_reasoning_pass(tmp_path, capsys,
                                                       small_cfg,
                                                       triangle_path):
    art = tmp_path / "artifacts"
    assert main(["answer", triangle_path, "--question", "which node?",
                 "--config", small_cfg, "--mock-llm", "echo",
                 "--artifacts-dir", str(art)]) == 0
    soft = json.loads((art / "soft_prompt.json").read_text())
    config = load_config(small_cfg)
    provider = build_embedding_provider(config)
    complex = lift_from_config(load_graph(triangle_path), config,
                               provider=provider)
    sub = retrieve_for_question(complex, "which node?", config,
                                provider=provider)
    weights = ReasoningWeights.initialize(config.reasoning_config())
    projected = project(pool(forward(sub, weights, config.reasoning_config()),
                             sub), weights)
    assert soft["projected"] == [float(x) for x in projected]


def test_answer_without_artifacts_runs_no_reasoning_pass(capsys, monkeypatch,
                                                         small_cfg,
                                                         triangle_path):
    def refuse(*args, **kwargs):
        raise AssertionError("reasoning pass ran")

    monkeypatch.setattr("toporag.pipeline.forward", refuse)
    monkeypatch.setattr(ReasoningWeights, "initialize", refuse)
    assert main(["answer", triangle_path, "--question", "which node?",
                 "--config", small_cfg, "--mock-llm", "echo"]) == 0
    assert capsys.readouterr().out.strip() == "which node?"


def test_answer_provider_down_exit_code(tmp_path, capsys, triangle_path,
                                        monkeypatch):
    cfg_path = tmp_path / "http.cfg"
    save_config(PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                               llm_provider="http", llm_timeout_ms=200),
                cfg_path)
    with stub_server(truncate=True) as truncated:
        for base in ("http://127.0.0.1:1", base_url(truncated)):
            monkeypatch.setenv("LLM_API_BASE", base)
            assert main(["answer", triangle_path, "--question", "q",
                         "--config", str(cfg_path)]) == 3
            assert "provider" in capsys.readouterr().err


def test_embedding_request_times_out_at_llm_timeout_ms(tmp_path, capsys,
                                                       triangle_path,
                                                       monkeypatch):
    release = threading.Event()

    class Stalled(StubProviderHandler):
        def do_POST(self):
            release.wait(10)

    cfg = write_small_cfg(tmp_path / "http.cfg", embed_provider="http",
                          llm_timeout_ms=200)
    with stub_server(Stalled) as stalled:
        monkeypatch.setenv("EMBED_API_BASE", base_url(stalled))
        started = time.perf_counter()
        try:
            assert main(["lift", triangle_path, "--config", cfg]) == 3
        finally:
            release.set()
    assert time.perf_counter() - started < 5  # not the 30 s default
    assert "provider" in capsys.readouterr().err


def test_all_zero_question_embedding_exits_3(tmp_path, capsys, triangle_path,
                                             monkeypatch):
    cfg = write_small_cfg(tmp_path / "http.cfg", embed_provider="http")
    with stub_server(EmbeddingStub, zero_texts={"q"}) as stub:
        monkeypatch.setenv("EMBED_API_BASE", base_url(stub))
        assert main(["retrieve", triangle_path, "--question", "q",
                     "--config", cfg]) == 3
    assert "provider error: embedding is all zeros" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, -1])
def test_llm_timeout_must_be_positive(tmp_path, capsys, triangle_path, value):
    cfg = write_small_cfg(tmp_path / "http.cfg", llm_provider="http",
                          llm_timeout_ms=value)
    assert main(["answer", triangle_path, "--question", "q",
                 "--config", cfg]) == 2
    assert "llm_timeout_ms" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["retrieve", "answer"])
def test_empty_question_is_validation_error(capsys, small_cfg, triangle_path,
                                            command):
    assert main([command, triangle_path, "--question", "",
                 "--config", small_cfg, "--mock-llm", "echo"]) == 2
    assert "empty question" in capsys.readouterr().err
    # the library still answers an empty question
    config = load_config(small_cfg)
    complex = lift_from_config(load_graph(triangle_path), config)
    assert retrieve_for_question(complex, "", config).cells0


@pytest.mark.parametrize("command,key,prefix", [
    ("retrieve", "embed_provider", "EMBED"),
    ("answer", "embed_provider", "EMBED"),
    ("answer", "llm_provider", "LLM"),
    ("serve", "embed_provider", "EMBED"),
    ("serve", "llm_provider", "LLM"),
])
def test_missing_endpoint_is_validation_error(tmp_path, capsys, monkeypatch,
                                              triangle_path, command, key,
                                              prefix):
    monkeypatch.delenv(f"{prefix}_API_BASE", raising=False)
    cfg = write_small_cfg(tmp_path / "http.cfg", **{key: "http"})
    if command == "serve":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"graphs": {"tri": triangle_path}}))
        args = ["serve", "--manifest", str(manifest), "--port", "0"]
    else:
        args = [command, triangle_path, "--question", "q"]
    assert main(args + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{prefix}_API_BASE" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unusable_embed_cache_is_io_error(tmp_path, capsys, triangle_path,
                                          where):
    cache = {"missing-dir": tmp_path / "nope" / "emb.cache",
             "directory": tmp_path}[where]
    cfg = write_small_cfg(tmp_path / "c.cfg", embed_cache=str(cache))
    assert main(["lift", triangle_path, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cache) in err


@pytest.mark.parametrize("case", ["lift", "eval", "answer-mkdir",
                                  "answer-write"])
def test_unwritable_output_is_io_error(tmp_path, capsys, small_cfg,
                                       triangle_path, case):
    missing = tmp_path / "nope" / "out.json"
    blocker = tmp_path / "blocker"  # a file where a directory should be
    blocker.write_text("")
    art = tmp_path / "artifacts"
    (art / "prompt.txt").mkdir(parents=True)  # a directory where a file goes
    answer = ["answer", triangle_path, "--question", "which node?",
              "--mock-llm", "echo", "--artifacts-dir"]
    args, path = {
        "lift": (["lift", triangle_path, "--out", str(missing)], missing),
        "eval": (["eval", str(FIXTURES / "explagraphs_mini"), "--mock-llm",
                  "lookup", "--out", str(missing)], missing),
        "answer-mkdir": (answer + [str(blocker / "art")], blocker / "art"),
        "answer-write": (answer + [str(art)], art / "prompt.txt"),
    }[case]
    assert main(args + ["--config", small_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_validation_exit_code(tmp_path, capsys, small_cfg):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": 0, "text": "a"}], '
                   '"edges": [{"src": 0, "dst": 5, "text": "x"}]}')
    assert main(["lift", str(bad), "--config", small_cfg]) == 2
    assert "error" in capsys.readouterr().err


PACKAGE_ERRORS = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.ToporagError)
     and c is not errors.ToporagError),
    key=lambda c: c.__name__)
PROVIDER_ERRORS = (errors.ProviderUnavailable, errors.ProviderRejected)


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda c: c.__name__)
def test_package_error_exit_code(monkeypatch, capsys, triangle_path, error):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "load_graph", fail)
    expected = 3 if error in PROVIDER_ERRORS else 2
    assert main(["lift", triangle_path]) == expected
    err = capsys.readouterr().err
    assert "boom" in err and "internal error" not in err


def test_eval_lookup_accuracy_one(capsys, small_cfg):
    assert main(["eval", str(FIXTURES / "explagraphs_mini"),
                 "--config", small_cfg, "--mock-llm", "lookup"]) == 0
    out = capsys.readouterr().out
    assert "aggregate: 1.0000" in out


def test_eval_sweep_writes_report(tmp_path, capsys, small_cfg):
    report_path = tmp_path / "report.json"
    assert main(["eval", str(FIXTURES / "explagraphs_mini"),
                 "--config", small_cfg, "--mock-llm", "lookup",
                 "--sweep-k2", "--out", str(report_path)]) == 0
    rows = json.loads(report_path.read_text())
    assert [r["k2"] for r in rows] == [0, 1, 2, 3]
    n2 = [r["size_table"]["avg_n2"] for r in rows]
    assert all(b >= a for a, b in zip(n2, n2[1:]))
    out = capsys.readouterr().out
    assert "k2" in out


def test_missing_fixture_dir_is_io_error(capsys, small_cfg, tmp_path):
    assert main(["eval", str(tmp_path / "nope"), "--config", small_cfg]) == 2


def test_retrieve_rejects_string_node_id(tmp_path, capsys, small_cfg):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "0", "text": "a"}, {"id": 1, "text": "b"}],
        "edges": [{"src": 0, "dst": 1, "text": "x"}]}), encoding="utf-8")
    assert main(["retrieve", str(path), "--question", "a",
                 "--config", small_cfg]) == 2
    assert "id must be int" in capsys.readouterr().err


def test_eval_rejects_string_answers(tmp_path, capsys, small_cfg, triangle_path):
    (tmp_path / "questions.jsonl").write_text(json.dumps(
        {"idx": 0, "question": "q", "answers": "support",
         "graph": "triangle.json"}) + "\n", encoding="utf-8")
    assert main(["eval", str(tmp_path), "--config", small_cfg,
                 "--mock-llm", "lookup"]) == 2
    assert "answers must be list" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,reported", [
    ("layers", 3, "layers"), ("state_dim", 8, "state_dim"),
    ("proj_dim", 9, "projection_dim"), ("activation", "tanh", "activation"),
    ("aggregation", "mean", "aggregation"),
])
def test_answer_rejects_mismatched_weight_file(tmp_path, capsys, triangle_path,
                                               field, value, reported):
    file_cfg = dict(layers=2, state_dim=16, proj_dim=16, seed=5)
    file_cfg[field] = value
    weights_path = tmp_path / "w.bin"
    ReasoningWeights.initialize(ReasoningConfig(**file_cfg)).save(weights_path)
    cfg_path = tmp_path / "w.cfg"
    save_config(PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                               layers=2, weights_path=str(weights_path)),
                cfg_path)
    assert main(["answer", triangle_path, "--question", "q",
                 "--config", str(cfg_path), "--mock-llm", "echo"]) == 2
    assert f"{reported}={value}" in capsys.readouterr().err


def write_small_cfg(path, **values):
    lines = ["embed_dim = 16", "state_dim = 16", "proj_dim = 16", "layers = 2"]
    lines += [f"{key} = {json.dumps(value)}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["answer", "eval"])
def test_missing_weight_file_is_io_error(tmp_path, capsys, triangle_path,
                                         command):
    cfg = write_small_cfg(tmp_path / "w.cfg", weights_path="/nonexistent/w.bin")
    target = (triangle_path if command == "answer"
              else str(FIXTURES / "explagraphs_mini"))
    extra = ["--question", "q"] if command == "answer" else []
    assert main([command, target, *extra, "--config", cfg,
                 "--mock-llm", "echo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "/nonexistent/w.bin" in err


@pytest.mark.parametrize("key,value", [
    ("activation", "gelu"), ("aggregation", "max"), ("layers", 0),
    ("mock_llm_mode", "bogus"),
])
def test_config_with_unknown_mode_is_rejected_at_load(tmp_path, capsys,
                                                      triangle_path, key,
                                                      value):
    cfg = write_small_cfg(tmp_path / "bad.cfg", **{key: value})
    assert main(["answer", triangle_path, "--question", "q", "--config", cfg,
                 "--artifacts-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("k0", "3"), ("k0", 1.5), ("k0", True), ("layers", 2.5), ("c2", "0.5"),
    ("embed_dim", 16.0), ("preamble", 5), ("policy_seed", "x"),
])
def test_config_value_of_wrong_type_is_rejected_at_load(tmp_path, capsys,
                                                       triangle_path, key,
                                                       value):
    cfg = write_small_cfg(tmp_path / "bad.cfg", **{key: value})
    assert main(["answer", triangle_path, "--question", "q", "--config", cfg,
                 "--mock-llm", "echo"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("activation", "gelu"), ("aggregation", "max"),
])
def test_weight_header_with_unknown_mode_is_validation_error(
        tmp_path, capsys, triangle_path, key, value):
    weights_path = tmp_path / "w.bin"
    ReasoningWeights.initialize(ReasoningConfig(
        layers=2, state_dim=16, proj_dim=16)).save(weights_path)
    header, _, payload = weights_path.read_bytes().partition(b"\n")
    header = json.loads(header)
    header[key] = value
    weights_path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    cfg = write_small_cfg(tmp_path / "w.cfg", weights_path=str(weights_path))
    assert main(["answer", triangle_path, "--question", "q", "--config", cfg,
                 "--mock-llm", "echo"]) == 2
    assert "bad weight file header" in capsys.readouterr().err


def test_answer_rejects_non_finite_weight_file(tmp_path, capsys,
                                              triangle_path):
    weights_path = tmp_path / "w.bin"
    ReasoningWeights.initialize(ReasoningConfig(
        layers=2, state_dim=16, proj_dim=16)).save(weights_path)
    data = bytearray(weights_path.read_bytes())
    data[-4:] = np.float32(np.nan).tobytes()  # the last bias of proj
    weights_path.write_bytes(bytes(data))
    cfg = write_small_cfg(tmp_path / "w.cfg", weights_path=str(weights_path))
    assert main(["answer", triangle_path, "--question", "q", "--config", cfg,
                 "--mock-llm", "echo", "--artifacts-dir",
                 str(tmp_path / "out")]) == 2
    assert "weight proj.b is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "soft_prompt.json").exists()


def test_answer_accepts_weight_file_with_other_seed(tmp_path, capsys,
                                                    triangle_path):
    weights_path = tmp_path / "w.bin"
    ReasoningWeights.initialize(ReasoningConfig(
        layers=2, state_dim=16, proj_dim=16, seed=5)).save(weights_path)
    cfg_path = tmp_path / "w.cfg"
    save_config(PipelineConfig(embed_dim=16, state_dim=16, proj_dim=16,
                               layers=2, weights_path=str(weights_path)),
                cfg_path)
    assert main(["answer", triangle_path, "--question", "which node?",
                 "--config", str(cfg_path), "--mock-llm", "echo"]) == 0
    assert capsys.readouterr().out.strip() == "which node?"


@pytest.mark.parametrize("content,message", [
    ({"other": {}}, "'graphs' object"),
    ({"graphs": {"tri": 5}}, "string path"),
    (None, "manifest"),  # no manifest file at all
], ids=["no-graphs-object", "non-string-path", "missing-file"])
def test_bad_manifest_is_validation_error(tmp_path, capsys, small_cfg,
                                          content, message):
    manifest = tmp_path / "manifest.json"
    if content is not None:
        manifest.write_text(json.dumps(content))
    assert main(["serve", "--manifest", str(manifest), "--config", small_cfg,
                 "--port", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# Every file toporag reads or writes, and each way its path can be unusable:
# missing (for an output: under a missing directory; `questions.jsonl`: a
# missing fixture directory, or absent from an existing one), a directory,
# text that is not UTF-8, a NUL byte in a config path.
FILE_CASES = [
    ("config", "missing"), ("config", "directory"), ("config", "not-utf8"),
    ("graph-json", "missing"), ("graph-json", "directory"),
    ("graph-json", "not-utf8"),
    ("csv-member", "missing"), ("csv-member", "directory"),
    ("csv-member", "not-utf8"),
    ("questions", "missing"), ("questions", "absent"),
    ("questions", "directory"), ("questions", "not-utf8"),
    ("manifest", "missing"), ("manifest", "directory"),
    ("manifest", "not-utf8"),
    ("weights", "missing"), ("weights", "directory"), ("weights", "nul"),
    ("embed-cache", "missing"), ("embed-cache", "directory"),
    ("embed-cache", "nul"),
    ("stats-dump", "missing"), ("stats-dump", "directory"),
    ("stats-dump", "not-utf8"),
    ("out", "missing"), ("out", "directory"),
    ("artifacts-dir", "missing"), ("artifacts-dir", "directory"),
]


@pytest.mark.parametrize("surface,kind", FILE_CASES,
                         ids=[f"{s}-{k}" for s, k in FILE_CASES])
def test_unusable_file_is_io_error_naming_it(tmp_path, capsys, small_cfg,
                                              triangle_path, surface, kind):
    where = tmp_path / "in"
    where.mkdir()
    name = {"csv-member": "nodes.csv", "questions": "questions.jsonl",
            "artifacts-dir": "art"}.get(surface, "file")
    path = where / name
    if surface == "csv-member":
        (where / "edges.csv").write_text("src,dst,edge_attr\n")
    if surface == "questions" and kind == "missing":
        path = where = tmp_path / "no-fixture"
    if surface in ("embed-cache", "out") and kind == "missing":
        path = tmp_path / "nope" / name
    if surface == "artifacts-dir":
        if kind == "missing":  # its parent is a file, so it cannot be made
            (tmp_path / "blocker").write_text("")
            path = tmp_path / "blocker" / name
        else:  # a directory where prompt.txt goes
            (path / "prompt.txt").mkdir(parents=True)
    elif kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe\n")
    elif kind == "nul":
        path = where / "fi\0le"
    answer = ["answer", triangle_path, "--question", "q", "--mock-llm", "echo"]
    cfg = str(tmp_path / "surface.cfg")
    args = {
        "config": ["lift", triangle_path, "--config", str(path)],
        "graph-json": ["lift", str(path), "--format", "json",
                       "--config", small_cfg],
        "csv-member": ["lift", str(where), "--config", small_cfg],
        "questions": ["eval", str(where), "--mock-llm", "lookup",
                      "--config", small_cfg],
        "manifest": ["serve", "--manifest", str(path), "--port", "0",
                     "--config", small_cfg],
        "weights": answer + ["--config", cfg],
        "embed-cache": ["lift", triangle_path, "--config", cfg],
        "stats-dump": ["stats", str(path)],
        "out": ["lift", triangle_path, "--config", small_cfg,
                "--out", str(path)],
        "artifacts-dir": answer + ["--config", small_cfg,
                                   "--artifacts-dir", str(path)],
    }[surface]
    key = {"weights": "weights_path", "embed-cache": "embed_cache"}.get(surface)
    if key:
        write_small_cfg(Path(cfg), **{key: str(path)})
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("row", [np.nan, 0.0], ids=["nan", "zero"])
def test_bad_cached_row_is_cache_corrupt(tmp_path, capsys, row):
    cache = tmp_path / "emb.cache"
    cfg = write_small_cfg(tmp_path / "c.cfg", embed_cache=str(cache))
    scene = str(FIXTURES / "scene_loop")
    assert main(["lift", scene, "--config", cfg]) == 0
    data = bytearray(cache.read_bytes())
    start = data.index(b"\n", data.index(b"\n") + 1) + 1  # the first row
    data[start:start + 16 * 4] = np.full(16, row, dtype="<f4").tobytes()
    cache.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["retrieve", scene, "--question", "what is on the shelf?",
                 "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(cache) in captured.err
