"""The 2-cell prizes as a per-cell Python loop over the cycles that
:mod:`reference_lifting` finds, for tests to compare the package's path
sums against.

A 2-cell's prize is the sum of the ranked prizes of its cycle's vertices
and 1-cells minus ``|boundary| * c2``. Reads only the complex's graph,
policy and cell-id offsets: the spanning tree and every cycle come from
the reference lift.
"""

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
