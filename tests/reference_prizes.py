"""Prize references for tests to compare the package's prize vector
and 2-cell ranking against.

``cycle_cells``/``two_cell_prizes`` are a per-cell Python loop over the
cycles that :mod:`reference_lifting` finds: a 2-cell's prize is the sum of
the ranked prizes of its cycle's vertices and 1-cells minus
``|boundary| * c2``. They read only the complex's graph, policy and
cell-id offsets: the spanning tree and every cycle come from the
reference lift.

``dict_prizes``/``loop_topk_two_cells`` are the earlier dict-and-loop
``assign_prizes`` and ``topk_two_cells``: the same root-path sums, kept
in a ``{cell id: prize}`` dict that holds only ranked cells and 2-cells,
and a sort over every 2-cell.
"""

import numpy as np

import reference_lifting as ref


def cycle_cells(complex):
    """{2-cell id: (the cell ids of its cycle's vertices and 1-cells,
    boundary length)}; 2-cells follow their non-tree edges in edge order."""
    graph, n0 = complex.graph, complex.n0
    tree = ref.spanning_tree(graph, complex.policy)
    closing = [idx for idx, e in enumerate(graph.edges)
               if idx not in tree and e.src != e.dst]
    cycles = {}
    for cid, idx in enumerate(closing, n0 + graph.num_edges):
        vertices, edges = ref.fundamental_cycle(graph, idx, tree)
        cycles[cid] = (vertices[:-1] + [n0 + e for e in edges], len(edges))
    return cycles


def two_cell_prizes(cycles, assignment):
    """{2-cell id: prize} of ``cycle_cells`` under the assignment's ranked
    cells and c2."""
    ranked = {r.cell_id: r.prize
              for r in assignment.ranked0 + assignment.ranked1}
    return {cid: sum(ranked.get(c, 0.0) for c in cells) - length * assignment.c2
            for cid, (cells, length) in cycles.items()}


def dict_prizes(ranked0, ranked1, complex, k, c2, indexing="alg3"):
    """{cell id: prize} for the ranked 0/1-cells and every 2-cell."""
    k0, k1 = (k, k) if isinstance(k, int) else k
    offset = 0 if indexing == "alg3" else 1
    prize = {}
    for ranked, kd in ((ranked0, k0), (ranked1, k1)):
        for rank, (cid, _) in enumerate(ranked):
            prize[cid] = float(kd - rank - offset)
    n0, edge, top = complex.n0, complex.two_edge, complex.two_lca
    dense = np.zeros(n0 + complex.n1 + 1)  # the last 0 is read at a root's -1
    dense[list(prize)] = list(prize.values())
    down = np.zeros(n0 + 1)
    down[:n0] = dense[:n0] + dense[complex.parent_edge]
    for up in complex.ancestors:
        down = down + down[up]
    a, b = complex.edge_src[edge - n0], complex.edge_dst[edge - n0]
    two = down[a] + down[b] - 2 * down[top] + dense[top] + dense[edge]
    two -= complex.cycle_lengths * c2
    prize.update(zip(complex.cell_ids(2), two.tolist()))
    return prize


def loop_topk_two_cells(prize, complex, k2):
    """Top-k2 2-cells of a ``dict_prizes`` dict: positive prizes only,
    descending, ties by ascending id."""
    if k2 <= 0:
        return []
    eligible = [(cid, prize.get(cid, 0.0)) for cid in complex.cell_ids(2)
                if prize.get(cid, 0.0) > 0.0]
    eligible.sort(key=lambda t: (-t[1], t[0]))
    return [cid for cid, _ in eligible[:k2]]
