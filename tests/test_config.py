from pathlib import Path

import pytest

from toporag.config import PipelineConfig, load_config, save_config
from toporag.errors import ValidationError


def test_defaults_match_reported_settings():
    cfg = PipelineConfig()
    assert cfg.k0 == 3 and cfg.k1 == 3
    assert cfg.embed_dim == 1024 and cfg.state_dim == 1024
    assert cfg.max_input_tokens == 512
    assert cfg.max_new_tokens == 32
    assert cfg.policy == "dfs"


def test_round_trip(tmp_path):
    cfg = PipelineConfig(k0=5, k2=3, c2=0.75, policy="random", policy_seed=9,
                         embed_dim=32, state_dim=32, proj_dim=8,
                         preamble="custom preamble: answer well")
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nk2 = 1\npolicy = \"bfs\"\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.k2 == 1
    assert cfg.policy == "bfs"


def test_float_field_takes_an_int(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("c2 = 1\nc_edge = 0\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.c2, cfg.c_edge) == (1, 0)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k3 = 4\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(path)


def test_k2_range_enforced():
    with pytest.raises(ValidationError):
        PipelineConfig(k2=4)


@pytest.mark.parametrize("field, value, message", [
    ("k0", -1, "k0 and k1"), ("k1", -1, "k0 and k1"),
    ("c2", -0.5, "c2 and c_edge"), ("c_edge", -1.0, "c2 and c_edge"),
    ("prize_indexing", "eq15", "prize_indexing"),
    ("embed_provider", "openai", "embed_provider"),
    ("llm_provider", "local", "llm_provider"),
    ("embed_dim", 0, "dimensions"), ("embed_dim", -16, "dimensions"),
    ("state_dim", 0, "state_dim"), ("proj_dim", -1, "proj_dim"),
    ("max_input_tokens", 0, "token budgets"),
    ("max_new_tokens", -1, "token budgets"),
])
def test_out_of_range_value_rejected(field, value, message):
    with pytest.raises(ValidationError, match=message):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("line", ["k2 2", "policy: \"bfs\"", "just text"])
def test_line_without_equals_sign_rejected(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"# comment\n{line}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"run.cfg:2: expected 'key = value'"):
        load_config(path)


def test_state_dim_must_match_embed_dim():
    with pytest.raises(ValidationError):
        PipelineConfig(embed_dim=64, state_dim=32)


def test_bad_value_reported_with_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k2 = not-json\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(path)


def test_readme_example_loads_as_the_defaults(tmp_path):
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration")[1]
    path = tmp_path / "readme.cfg"
    path.write_text(section.split("```")[1], encoding="utf-8")
    assert load_config(path) == PipelineConfig()
