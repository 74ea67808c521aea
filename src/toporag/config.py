"""Pipeline configuration and its flat key/value file format.

The config file is TOML-like: one ``key = value`` pair per line with
JSON-encoded values, ``#`` comments allowed. Unknown keys are an
error so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError, file_io, parse_json, read_text, typed
from .generation import (DEFAULT_MAX_INPUT_TOKENS, DEFAULT_MAX_NEW_TOKENS,
                         DEFAULT_PREAMBLE, MockLlmClient)
from .lifting import SpanningTreePolicy
from .reasoning import ReasoningConfig
from .retrieval import MAX_RANKED, PRIZE_INDEXING

VALID_K2 = (0, 1, 2, 3)


@dataclass
class PipelineConfig:
    # retrieval
    k0: int = 3
    k1: int = 3
    k2: int = 2
    c2: float = 0.5
    c_edge: float = 1.0
    prize_indexing: str = "alg3"
    # lifting
    policy: str = "dfs"
    policy_seed: int = 0
    # embeddings
    embed_provider: str = "deterministic"
    embed_dim: int = 1024
    embed_seed: int = 13
    embed_cache: str = ""
    # reasoning
    layers: int = 3
    state_dim: int = 1024
    activation: str = "relu"
    aggregation: str = "sum"
    weights_seed: int = 0
    proj_dim: int = 1024
    weights_path: str = ""
    # generation
    preamble: str = DEFAULT_PREAMBLE
    max_input_tokens: int = DEFAULT_MAX_INPUT_TOKENS
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    llm_provider: str = "mock"
    mock_llm_mode: str = "echo"
    llm_timeout_ms: int = 30000

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            typed(getattr(self, f.name), type(f.default), f.name,
                  ValidationError)
        if self.k0 < 0 or self.k1 < 0:
            raise ValidationError("k0 and k1 must be non-negative")
        if self.k0 + self.k1 > MAX_RANKED:
            raise ValidationError(
                f"k0 + k1 must be at most {MAX_RANKED}: retrieval's exact "
                "search grows as 3^(k0 + k1)")
        if self.k2 not in VALID_K2:
            raise ValidationError(f"k2 must be in {VALID_K2}")
        if self.c2 < 0 or self.c_edge < 0:
            raise ValidationError("c2 and c_edge must be non-negative")
        if self.prize_indexing not in PRIZE_INDEXING:
            raise ValidationError(
                f"prize_indexing must be one of {PRIZE_INDEXING}")
        if self.embed_provider not in ("deterministic", "http"):
            raise ValidationError("embed_provider must be deterministic or http")
        if self.llm_provider not in ("mock", "http"):
            raise ValidationError("llm_provider must be mock or http")
        if self.mock_llm_mode not in MockLlmClient.MODES:
            raise ValidationError(
                f"mock_llm_mode must be one of {MockLlmClient.MODES}")
        try:
            SpanningTreePolicy(self.policy, self.policy_seed)
            self.reasoning_config()
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if self.embed_dim <= 0:
            raise ValidationError("dimensions must be positive")
        if self.state_dim != self.embed_dim:
            raise ValidationError(
                "state_dim must equal embed_dim (states seed from embeddings)")
        if self.max_input_tokens <= 0 or self.max_new_tokens <= 0:
            raise ValidationError("token budgets must be positive")
        if self.llm_timeout_ms <= 0:
            raise ValidationError("llm_timeout_ms must be positive")

    def reasoning_config(self) -> ReasoningConfig:
        return ReasoningConfig(
            layers=self.layers,
            state_dim=self.state_dim,
            activation=self.activation,
            aggregation=self.aggregation,
            seed=self.weights_seed,
            proj_dim=self.proj_dim,
        )


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a flat ``key = value`` config file."""
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    values = {}
    for lineno, line in enumerate(read_text(path, ValidationError).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in fields:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = parse_json(raw.strip(), f"{path}:{lineno}: bad value",
                                 ValidationError)
    return PipelineConfig(**values)


def save_config(config: PipelineConfig, path: str | Path) -> None:
    """Write the config in the flat format ``load_config`` reads."""
    lines = []
    for f in dataclasses.fields(PipelineConfig):
        lines.append(f"{f.name} = {json.dumps(getattr(config, f.name))}")
    with file_io(path, "write"):
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
