"""Build the extremal family G(m,d) and inspect its structure.

G(m,d) is 2m+1 copies of K_{d+1}, each with an m-edge matching deleted, plus
one circulant cross edge between every pair of the modified cliques.  The
result is d-regular and connected, with exactly one edge between cliques --
the sparsest possible inter-clique wiring, which is what caps the number of
edge-disjoint spanning trees at m.
"""

from extremal_trees import (
    build_extremal_graph,
    clique_partition,
    crossing_edges,
    degrees,
    export,
    is_connected,
)

for m, d in [(1, 4), (2, 6), (3, 8)]:
    g = build_extremal_graph(m, d)
    parts = clique_partition(g)
    print(f"G({m},{d}): {g.n} vertices, {g.edge_count} edges, "
          f"degrees {sorted(set(degrees(g)))}, connected={is_connected(g)}")
    print(f"  cliques: {len(parts)} parts of size {len(parts[0])}, "
          f"cross edges: {crossing_edges(g, parts)} = m(2m+1) = {m * (2 * m + 1)}")

# the deleted matching: slots 2a-2 and 2a-1 are non-adjacent inside a clique
g = build_extremal_graph(2, 6)
print("\nwithin clique 0 of G(2,6): (0,1) adjacent?", g.has_edge(0, 1),
      "| (2,3) adjacent?", g.has_edge(2, 3), "| (4,5) adjacent?", g.has_edge(4, 5))

print("\nedge-list export of G(1,4), first lines:")
print("\n".join(export(build_extremal_graph(1, 4), "edgelist").split("\n")[:5]))
print("...")
print("DOT export is available for drawing: export(g, 'dot')")
