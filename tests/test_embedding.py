import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporag.embedding import (DeterministicProvider, HttpEmbeddingProvider,
                               cache_get_or_embed, cosine, embed_texts)
from toporag.errors import (CacheCorrupt, DimensionMismatch, IoError,
                            ProviderUnavailable, ZeroVector)

from helpers import base_url, stub_server


def test_deterministic_same_text_same_vector(provider):
    a, b = embed_texts(["the clock", "the clock"], provider)
    assert np.array_equal(a, b)


def test_deterministic_across_instances():
    p1 = DeterministicProvider(dim=64, seed=3)
    p2 = DeterministicProvider(dim=64, seed=3)
    assert np.array_equal(p1.embed(["hello world"])[0],
                          p2.embed(["hello world"])[0])


def test_seed_changes_vectors():
    p1 = DeterministicProvider(dim=32, seed=1)
    p2 = DeterministicProvider(dim=32, seed=2)
    assert not np.array_equal(p1.embed(["hello"])[0], p2.embed(["hello"])[0])


def test_default_dim_is_1024():
    p = DeterministicProvider()
    vec = p.embed(["x"])[0]
    assert vec.shape == (1024,)
    assert vec.dtype == np.float32


def test_empty_text_is_valid(provider):
    vec = embed_texts([""], provider)[0]
    assert vec.shape == (provider.dim,)
    assert np.isfinite(vec).all()


def test_shared_tokens_raise_similarity(provider):
    q, hit, miss = embed_texts(
        ["where is the golden vase", "golden vase", "oak bookshelf"], provider)
    assert cosine(q, hit) > cosine(q, miss)


def test_cosine_identity(provider):
    v = embed_texts(["self"], provider)[0]
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)


def test_cosine_antipodal(provider):
    v = embed_texts(["self"], provider)[0]
    assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-6)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0], dtype=np.float32),
                  np.array([0.0, 1.0], dtype=np.float32)) == 0.0


def test_cosine_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        cosine(np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32))


def test_cosine_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3, dtype=np.float32), np.ones(4, dtype=np.float32))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=16),
       st.floats(0.01, 100.0))
def test_cosine_scale_invariance(values, alpha):
    v = np.array(values, dtype=np.float32)
    if float(np.linalg.norm(v)) == 0.0:
        return
    w = np.roll(v, 1) + 0.5
    if float(np.linalg.norm(w)) == 0.0:
        return
    assert cosine(alpha * v, w) == pytest.approx(cosine(v, w), abs=1e-6)


def test_cache_hit_skips_provider(tmp_path, provider):
    cache = tmp_path / "emb.cache"
    first = cache_get_or_embed(["a b", "c"], provider, cache)
    calls_after_first = provider.calls
    second = cache_get_or_embed(["a b", "c"], provider, cache)
    assert provider.calls == calls_after_first
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_cache_fingerprint_invalidation(tmp_path):
    cache = tmp_path / "emb.cache"
    p1 = DeterministicProvider(dim=16, seed=1)
    cache_get_or_embed(["t"], p1, cache)
    p2 = DeterministicProvider(dim=16, seed=2)
    vecs = cache_get_or_embed(["t"], p2, cache)
    assert p2.calls == 1  # re-embedded
    assert np.array_equal(vecs[0], p2.embed(["t"])[0])


def test_cache_row_count_10k(tmp_path):
    import json
    provider = DeterministicProvider(dim=8, seed=2)
    cache = tmp_path / "emb.cache"
    texts = [f"text {i}" for i in range(10_000)]
    cache_get_or_embed(texts, provider, cache)
    header = json.loads(cache.open("rb").readline())
    assert header["count"] == 10_000
    assert header["dim"] == provider.dim
    assert header["fingerprint"] == provider.fingerprint


def test_cache_corrupt_detected(tmp_path, provider):
    cache = tmp_path / "emb.cache"
    cache_get_or_embed(["a"], provider, cache)
    data = cache.read_bytes()
    cache.write_bytes(data[: len(data) - 7])  # truncate payload
    with pytest.raises(CacheCorrupt):
        cache_get_or_embed(["a", "b"], provider, cache)


def test_cache_bytes_identical_across_runs(tmp_path):
    texts = ["alpha", "beta gamma", ""]
    c1, c2 = tmp_path / "one.cache", tmp_path / "two.cache"
    cache_get_or_embed(texts, DeterministicProvider(dim=16, seed=5), c1)
    cache_get_or_embed(texts, DeterministicProvider(dim=16, seed=5), c2)
    assert c1.read_bytes() == c2.read_bytes()


def test_http_provider_unreachable():
    provider = HttpEmbeddingProvider(base_url="http://127.0.0.1:1",
                                     model="m", dim=8, timeout=0.2)
    with pytest.raises(ProviderUnavailable):
        provider.embed(["x"])


def embed_from_stub(rows, texts=("a", "b"), dim=2):
    with stub_server(body={"data": rows}) as server:
        provider = HttpEmbeddingProvider(base_url=base_url(server), model="m",
                                         dim=dim, timeout=2.0)
        return embed_texts(list(texts), provider)


def test_http_rows_come_back_in_input_order():
    rows = [{"index": 2, "embedding": [0.0, 3.0]},
            {"index": 0, "embedding": [1.0, 0.0]},
            {"index": 1, "embedding": [0.0, 2.0]}]
    vectors = embed_from_stub(rows, texts=("a", "b", "c"))
    assert [v.tolist() for v in vectors] == [[1.0, 0.0], [0.0, 2.0],
                                             [0.0, 3.0]]
    assert all(v.dtype == np.float32 for v in vectors)


@pytest.mark.parametrize("rows,error", [
    ([{"index": 0, "embedding": [1.0, 0.0]}], ProviderUnavailable),
    ([{"index": 0, "embedding": [1.0, 0.0]},
      {"index": 1, "embedding": [1.0, 0.0, 0.0]}], DimensionMismatch),
    ([{"index": 0, "embedding": [1.0, 0.0]},
      {"index": 1, "embedding": [None, 1.0]}], ProviderUnavailable),
    ([{"index": 0, "embedding": [1.0, 0.0]}, {"embedding": [1.0, 0.0]}],
     ProviderUnavailable),
], ids=["row-count", "width", "null-entry", "no-index"])
def test_http_reply_shape_is_checked(rows, error):
    with pytest.raises(error):
        embed_from_stub(rows)


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unusable_cache_path_is_io_error(tmp_path, provider, where):
    cache = {"missing-dir": tmp_path / "nope" / "emb.cache",
             "directory": tmp_path}[where]
    with pytest.raises(IoError, match=str(cache)):
        cache_get_or_embed(["a"], provider, cache)
