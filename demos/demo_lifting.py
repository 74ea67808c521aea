"""Walk through the cellular lifting of a small scene graph.

Loads the four-object scene (a closed spatial loop), lifts it under
each spanning-tree policy, and shows that the cycle structure is the
same however the tree is grown.

Run from the repository root:  python3 demos/demo_lifting.py
"""

from pathlib import Path

from toporag import (BFS, DFS, DeterministicProvider, SpanningTreePolicy,
                     betti1, embed_texts, lift_graph, load_graph,
                     verify_cycle_basis)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

graph = load_graph(FIXTURES / "scene_loop")
print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
for node in graph.nodes:
    print(f"  node {node.id}: {node.text}")
for edge in graph.edges:
    print(f"  edge: {graph.nodes[edge.src].text} --[{edge.text}]--> "
          f"{graph.nodes[edge.dst].text}")

provider = DeterministicProvider(dim=64, seed=0)
node_vecs = embed_texts([n.text for n in graph.nodes], provider)
edge_vecs = embed_texts([e.text for e in graph.edges], provider)

print(f"\ncyclomatic number: {betti1(graph)} independent cycle(s)")
for policy in (DFS, BFS, SpanningTreePolicy("random", seed=4)):
    complex = lift_graph(graph, node_vecs, edge_vecs, policy=policy)
    report = verify_cycle_basis(complex)
    print(f"\npolicy {policy}: {complex.n0} zero-cells, "
          f"{complex.n1} one-cells, {complex.n2} two-cells")
    print(f"  cycle basis rank over GF(2): {report.rank_gf2} "
          f"(independent={report.independent}, spans={report.spans})")
    for cid in complex.cell_ids(2):
        walk = complex.cycle_vertices(cid)
        names = [graph.nodes[v].text for v in walk + walk[:1]]
        print("  2-cell glued along: " + " -> ".join(names))
