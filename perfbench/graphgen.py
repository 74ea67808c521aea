"""Seeded synthetic textual graph and questions for the graph_retrieve workload.

The graph is a uniform random spanning tree (each vertex attaches to an
earlier one) plus random extra edges up to the edge budget, with no
parallel edges or self-loops. Node texts are three distinct words from a
fixed vocabulary; edge texts are relation labels. Questions alternate
between the two endpoints of an edge and the three vertices of a
triangle, walking seeded permutations of all edges and all triangles, so
exactly half of them can only be answered in full by a subcomplex that
reaches a 3-cycle.

Both are pure functions of their seed; the graph's seed is fixed. The
benchmark writes the graph to a JSON file that toporag loads itself, so
the program sees only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The graph comes from this seed whatever the workload seed, which varies
# the questions only: the solver's cost differs so much between random
# graphs of this size that a graph per seed measured the graphs more than
# the program (see README.md).
GRAPH_SEED = 0
N_NODES = 500
N_EDGES = 1500
VOCAB_SIZE = 2000
N_RELATIONS = 50
N_QUESTIONS = 256

VOCAB = tuple(f"w{i:04d}" for i in range(VOCAB_SIZE))
RELATIONS = tuple(f"rel{i:02d}" for i in range(N_RELATIONS))


@dataclass(frozen=True)
class Question:
    text: str
    named: tuple[int, ...]  # node ids whose texts the question names
    kind: str  # "edge" or "triangle"


def make_graph(seed: int = GRAPH_SEED, n_nodes: int = N_NODES,
               n_edges: int = N_EDGES) -> dict:
    """Graph in toporag's JSON graph format (``nodes``/``edges`` lists)."""
    rng = random.Random(f"graph:{seed}")
    texts, seen = [], set()
    while len(texts) < n_nodes:
        text = " ".join(rng.sample(VOCAB, 3))
        if text not in seen:
            seen.add(text)
            texts.append(text)
    pairs = [(rng.randrange(v), v) for v in range(1, n_nodes)]
    present = set(pairs)
    while len(pairs) < n_edges:
        u, v = sorted(rng.sample(range(n_nodes), 2))
        if (u, v) not in present:
            present.add((u, v))
            pairs.append((u, v))
    return {
        "nodes": [{"id": i, "text": t} for i, t in enumerate(texts)],
        "edges": [{"src": u, "dst": v, "text": rng.choice(RELATIONS)}
                  for u, v in pairs],
    }


def triangles(pairs) -> list[tuple[int, int, int]]:
    """Every 3-cycle of an edge list once, as ascending vertex triples."""
    pairs = [(u, v) for u, v in pairs if u != v]
    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return sorted({tuple(sorted((u, v, w)))
                   for u, v in pairs for w in adj[u] & adj[v]})


def make_questions(seed: int, graph: dict,
                   count: int = N_QUESTIONS) -> list[Question]:
    """Alternating edge and triangle questions over ``graph``."""
    rng = random.Random(f"questions:{seed}")
    edges = [(e["src"], e["dst"]) for e in graph["edges"]]
    tris = triangles(edges)
    if not tris:
        raise ValueError("generated graph has no triangle")
    rng.shuffle(edges)
    rng.shuffle(tris)
    text_of = {n["id"]: n["text"] for n in graph["nodes"]}
    out = []
    for i in range(count):
        if i % 2 == 0:
            named, kind = edges[i // 2 % len(edges)], "edge"
        else:
            named, kind = tris[i // 2 % len(tris)], "triangle"
        text = "how are " + " and ".join(text_of[v] for v in named) + " related"
        out.append(Question(text=text, named=named, kind=kind))
    return out
