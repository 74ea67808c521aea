"""Per-text dense embeddings behind a provider abstraction.

Two providers are shipped: a deterministic offline provider (seeded
token hashing, used in tests and anywhere hermetic behaviour matters)
and a client for the de-facto ``POST /v1/embeddings`` HTTP API. A
binary on-disk cache avoids re-embedding identical texts.

The HTTP client and the chat client in :mod:`toporag.generation` share
one JSON transport, :func:`post_json`, and so one failure table.

Vectors are float32; cosine comparisons accumulate in float64.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

import numpy as np

from .errors import (CacheCorrupt, DimensionMismatch, IoError,
                     ProviderRejected, ProviderUnavailable, ValidationError,
                     ZeroVector, file_io, parse_json, typed)

DEFAULT_DIM = 1024


def _check_vector(vec: np.ndarray, dim: int, what: str = "embedding",
                  error: type = ProviderUnavailable) -> None:
    if vec.shape != (dim,):
        raise DimensionMismatch(f"expected dim {dim}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise error(f"{what} contains non-finite entries")
    if not vec.any():
        raise error(f"{what} is all zeros")


class DeterministicProvider:
    """Offline embedding provider: a pure function of (text, seed, dim).

    Each whitespace token is hashed (64-bit blake2b keyed by the seed)
    into the seed of a fixed PRNG that emits a Gaussian vector; the
    token vectors are summed and normalized. Texts sharing tokens get
    correlated embeddings, which makes top-k retrieval on fixtures
    behave like a crude lexical matcher. Output is bitwise stable
    across processes and platforms.
    """

    def __init__(self, dim: int = DEFAULT_DIM, seed: int = 0):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed
        self.calls = 0  # number of embed() invocations, for cache tests
        self._key = seed.to_bytes(8, "little", signed=seed < 0)

    @property
    def fingerprint(self) -> str:
        return f"deterministic:v1:seed={self.seed}:dim={self.dim}"

    def _token_vector(self, token: str) -> np.ndarray:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                                 key=self._key).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        return rng.standard_normal(self.dim)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        self.calls += 1
        out = []
        for text in texts:
            tokens = text.split() or [""]
            acc = np.zeros(self.dim, dtype=np.float64)
            for token in tokens:
                acc += self._token_vector(token)
            norm = float(np.linalg.norm(acc))
            if norm == 0.0:
                acc[0] = 1.0
                norm = 1.0
            out.append((acc / norm).astype(np.float32))
        return out


def endpoint_from_env(prefix: str, base_url: str | None, api_key: str | None,
                      model: str | None) -> tuple[str, str, str]:
    """Each argument, else ``<prefix>_API_BASE``, ``_API_KEY`` or ``_MODEL``;
    a missing base URL is a :class:`ValidationError`."""
    base_url = (base_url or os.environ.get(f"{prefix}_API_BASE", "")).rstrip("/")
    if not base_url:
        raise ValidationError(f"no endpoint: pass base_url or set {prefix}_API_BASE")
    if api_key is None:
        api_key = os.environ.get(f"{prefix}_API_KEY", "")
    return base_url, api_key, model or os.environ.get(f"{prefix}_MODEL", "")


def post_json(url: str, payload: dict, api_key: str, timeout: float):
    """POST ``payload`` as JSON to ``url`` and return the decoded reply.

    HTTP 4xx raises :class:`ProviderRejected`; any other status but 200,
    a body that is not JSON or nests too deeply to parse, and every
    transport fault (no connection, a timeout, a truncated body, a bad
    URL) raise :class:`ProviderUnavailable`.
    """
    import requests  # only a process that talks HTTP pays for loading it

    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    try:
        resp = requests.post(url, json=payload, headers=headers,
                             timeout=timeout)
        if resp.status_code == 200:
            return resp.json()
    except (requests.RequestException, RecursionError) as exc:
        raise ProviderUnavailable(f"no usable reply from {url}: {exc}") from exc
    error = ProviderRejected if 400 <= resp.status_code < 500 else ProviderUnavailable
    raise error(f"{url} returned HTTP {resp.status_code}: {resp.text[:200]}")


class HttpEmbeddingProvider:
    """Client for an OpenAI-style ``/v1/embeddings`` endpoint (``EMBED_*``)."""

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, dim: int = DEFAULT_DIM,
                 timeout: float = 30.0):
        self.base_url, self.api_key, self.model = endpoint_from_env(
            "EMBED", base_url, api_key, model)
        self.dim = dim
        self.timeout = timeout
        self.calls = 0

    @property
    def fingerprint(self) -> str:
        return f"http:{self.base_url}:model={self.model}:dim={self.dim}"

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        self.calls += 1
        reply = post_json(f"{self.base_url}/v1/embeddings",
                          {"model": self.model, "input": list(texts)},
                          self.api_key, self.timeout)
        try:
            rows = sorted(reply["data"], key=lambda r: r["index"])
            vectors = [np.asarray(r["embedding"], dtype=np.float32) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderUnavailable(f"malformed embeddings response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProviderUnavailable(
                f"expected {len(texts)} embeddings, got {len(vectors)}")
        for vec in vectors:
            if vec.shape != (self.dim,):
                raise DimensionMismatch(
                    f"provider returned dim {vec.shape}, expected ({self.dim},)")
        return vectors


def embed_texts(texts: list[str], provider) -> list[np.ndarray]:
    """Embed ``texts`` in order; one provider call per invocation."""
    vectors = provider.embed(list(texts))
    for vec in vectors:
        _check_vector(vec, provider.dim)
    return vectors


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1], accumulated in float64."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    na = float(np.linalg.norm(a64))
    nb = float(np.linalg.norm(b64))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    return float(np.clip(np.dot(a64, b64) / (na * nb), -1.0, 1.0))


_CACHE_LOCK = threading.Lock()  # single-writer contract for cache files


def _read_cache(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    with file_io(path), path.open("rb") as fh:
        what = f"{path}: bad header"
        header = typed(parse_json(fh.readline(), what, CacheCorrupt),
                       dict, what, CacheCorrupt)
        dim = typed(header.get("dim"), int, f"{what}: dim", CacheCorrupt)
        count = typed(header.get("count"), int, f"{what}: count",
                      CacheCorrupt)
        typed(header.get("fingerprint"), str, f"{what}: fingerprint",
              CacheCorrupt)
        entries: dict[str, np.ndarray] = {}
        row_bytes = dim * 4
        for _ in range(count):
            key_line = fh.readline()
            if not key_line.endswith(b"\n"):
                raise CacheCorrupt(f"{path}: truncated key line")
            text = typed(parse_json(key_line, f"{path}: bad key line",
                                    CacheCorrupt),
                         str, f"{path}: key line", CacheCorrupt)
            payload = fh.read(row_bytes)
            if len(payload) != row_bytes:
                raise CacheCorrupt(f"{path}: truncated vector payload")
            entries[text] = np.frombuffer(payload, dtype="<f4").copy()
            _check_vector(entries[text], dim, f"{path}: row {text!r:.80}",
                          CacheCorrupt)
    return header, entries


def _write_cache(path: Path, dim: int, fingerprint: str,
                 entries: dict[str, np.ndarray]) -> None:
    header = json.dumps(
        {"dim": dim, "fingerprint": fingerprint, "count": len(entries)},
        ensure_ascii=False,
    )
    tmp = path.with_suffix(path.suffix + ".tmp")
    with file_io(path, "write"):
        with tmp.open("wb") as fh:
            fh.write(header.encode("utf-8") + b"\n")
            for text, vec in entries.items():
                fh.write(json.dumps(text, ensure_ascii=False).encode("utf-8") + b"\n")
                fh.write(np.asarray(vec, dtype="<f4").tobytes())
        os.replace(tmp, path)


def cache_get_or_embed(texts: list[str], provider,
                       cache: str | Path) -> list[np.ndarray]:
    """Embed ``texts`` through an on-disk cache keyed by exact text.

    Cache layout: one JSON header line (dim, provider fingerprint,
    entry count), then per entry a JSON-encoded key line followed by
    ``dim`` little-endian float32 values. A fingerprint mismatch
    invalidates the whole file. Hits never touch the provider, and pass
    the provider rows' check: a non-finite or all-zero row is
    :class:`CacheCorrupt`.
    """
    cache = Path(cache)
    with _CACHE_LOCK:
        with file_io(cache):
            stored = cache.exists() and cache.stat().st_size > 0
        entries: dict[str, np.ndarray] = {}
        if stored:
            header, rows = _read_cache(cache)
            if (header.get("fingerprint") == provider.fingerprint
                    and header.get("dim") == provider.dim):
                entries = rows
        missing = [t for t in dict.fromkeys(texts) if t not in entries]
        if missing:
            if not os.access(cache.parent, os.W_OK):
                raise IoError(f"cannot write {cache}: {cache.parent} is not "
                              "a writable directory")
            for text, vec in zip(missing, embed_texts(missing, provider)):
                entries[text] = vec
        if missing or not stored:
            _write_cache(cache, provider.dim, provider.fingerprint, entries)
        return [entries[t].copy() for t in texts]
