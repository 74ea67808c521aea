"""The 2-cell prizes as a per-cell Python loop, for tests to compare the
package's segmented sum against.

Each 1-cell's share is its own ranked prize plus half of each ranked
endpoint's; a 2-cell's prize is the sum of the shares around its
boundary minus ``|boundary| * c2``. Reads only ``neighbors`` and
``boundary`` of the complex.
"""


def two_cell_prizes(complex, assignment):
    """{2-cell id: prize} under the assignment's ranked cells and c2."""
    share = {r.cell_id: r.prize for r in assignment.ranked1}
    for r in assignment.ranked0:
        for ecid, _ in complex.neighbors(r.cell_id):
            share[ecid] = share.get(ecid, 0.0) + r.prize / 2
    prize = {}
    for cid in complex.cell_ids(2):
        boundary = complex.boundary(cid)
        prize[cid] = (sum(share.get(e, 0.0) for e in boundary)
                      - len(boundary) * assignment.c2)
    return prize
