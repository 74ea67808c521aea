"""Golden oracle for subcomplex retrieval.

``golden_subcomplex.json`` holds the retrieved subcomplex of every case
below as canonical JSON: one case per line, keys sorted, floats at 12
significant digits. The test recomputes every case and compares the
text byte for byte, so any change to the cells the solver selects,
their prizes, costs, provenance or certificates shows up. After an
intended change of output, regenerate the file with::

    PYTHONPATH=src:tests python tests/test_golden_subcomplex.py
"""

import json
import random
from pathlib import Path

from toporag import retrieval
from toporag.config import PipelineConfig
from toporag.embedding import DeterministicProvider
from toporag.graph_io import load_qa_fixture
from toporag.lifting import SpanningTreePolicy
from toporag.pipeline import lift_from_config, retrieve_for_question

from helpers import FIXTURES, lift, make_graph

GOLDEN = Path(__file__).resolve().parent / "golden_subcomplex.json"
DIM = 64
POLICIES = (("dfs", 0), ("bfs", 0), ("random", 3))
N_RANDOM = 30


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _fixture_cases():
    """The explagraphs_mini examples x spanning policy x k2."""
    for ex in load_qa_fixture(FIXTURES / "explagraphs_mini"):
        for kind, seed in POLICIES:
            cfg = PipelineConfig(embed_dim=DIM, state_dim=DIM, proj_dim=DIM,
                                 policy=kind, policy_seed=seed)
            cx = lift_from_config(ex.graph, cfg)
            for k2 in (0, 2, 3):
                cfg.k2 = k2
                sub = retrieve_for_question(cx, ex.question, cfg)
                yield f"fixture/{ex.idx}/{kind}/k2={k2}", sub


def _random_graph(rng: random.Random):
    """A multigraph of 1-3 parts, each a random tree plus extra edges.

    A later part is either disjoint or tied to the one before by a
    path of 2-4 fresh vertices, which puts far-apart clusters in one
    component; every other graph carries a self-loop.
    """
    edges, offset = [], 0
    for i in range(rng.choice((1, 2, 3))):
        if i and rng.random() < 0.5:
            tail = rng.randrange(offset)
            for _ in range(rng.randint(2, 4)):
                edges.append((tail, offset))
                tail, offset = offset, offset + 1
            edges.append((tail, offset))
        n = rng.randint(4, 12)
        part = [(rng.randrange(v), v) for v in range(1, n)]
        part += [tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randint(1, n // 2))]
        edges += [(offset + u, offset + v) for u, v in part]
        offset += n
    if rng.random() < 0.5:
        v = rng.randrange(offset)
        edges.append((v, v))
    rng.shuffle(edges)
    return make_graph(offset, edges)


def _random_cases():
    """Seeded random graphs under varied prize constants."""
    for seed in range(N_RANDOM):
        rng = random.Random(seed)
        graph = _random_graph(rng)
        kind, policy_seed = rng.choice(POLICIES)
        cx = lift(graph, dim=DIM, seed=seed,
                  policy=SpanningTreePolicy(kind, policy_seed))
        words = [w for n in graph.nodes for w in n.text.split()[1:]]
        question = " ".join(rng.sample(words, min(3, len(words))))
        z_q = DeterministicProvider(dim=DIM, seed=seed).embed([question])[0]
        sub = retrieval.retrieve_subcomplex(
            cx, z_q, k0=rng.randint(2, 6), k1=rng.randint(2, 6),
            k2=rng.choice((2, 3)), c2=rng.choice((0.05, 0.1, 0.25)),
            c_edge=rng.choice((0.5, 1.0, 2.0, 4.0)))
        yield f"random/{seed}", sub


def golden_cases() -> list[dict]:
    cases = []
    for source in (_fixture_cases(), _random_cases()):
        for name, sub in source:
            cases.append({"case": name,
                          "subcomplex": retrieval.subcomplex_to_dict(sub)})
    return _canonical(cases)


def render(cases: list[dict]) -> str:
    lines = [json.dumps(case, sort_keys=True, separators=(",", ":"))
             for case in cases]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_golden_subcomplex(monkeypatch):
    connector_found = []
    real = retrieval._connector_path

    def counting(*args, **kwargs):
        path = real(*args, **kwargs)
        if path is not None:
            connector_found.append(path)
        return path

    monkeypatch.setattr(retrieval, "_connector_path", counting)
    cases = golden_cases()
    got = render(cases)
    assert got.splitlines() == GOLDEN.read_text(encoding="utf-8").splitlines()
    assert got == GOLDEN.read_text(encoding="utf-8")
    # the corpus exercises a connector path and a multi-component answer
    assert connector_found
    assert any(len(c["subcomplex"]["certificate"]) > 1 for c in cases)


if __name__ == "__main__":
    GOLDEN.write_text(render(golden_cases()), encoding="utf-8")
