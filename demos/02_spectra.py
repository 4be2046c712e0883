"""Two independent routes to the spectrum of G(m,d).

The vertex order makes the adjacency matrix block circulant, so its spectrum
is the union, over the (2m+1)-th roots of unity zeta_t, of the spectra of the
small Hermitian blocks H_t = sum_k zeta_t^k b_k.  Since b_(2m+1-k) = b_k^T,
H_(2m+1-t) is the conjugate of H_t and has its spectrum, so the block route
solves H_0..H_m only and counts H_1..H_m twice.  The demo compares that
reduction against the dense route, which solves the closed-twin quotient of
the graph (q = (2m+1)^2 classes of equal rows of A + I, whatever d is), and
places lambda_2 inside its proven two-sided window

    d - (2m+1)/(d+1) <= lambda_2 < d - (2m+1)/(d+3).
"""

import numpy as np

from extremal_trees import (
    assemble_block_circulant,
    blocks_of,
    build_extremal_graph,
    eigenvalues_block_circulant,
    eigenvalues_dense,
    lambda2,
    lambda2_window,
)

m, d = 2, 6
g = build_extremal_graph(m, d)

blocks = blocks_of(m, d)
print(f"blocks of G({m},{d}): {len(blocks)} matrices of size {blocks[0].shape[0]}")
print("reassembled block circulant equals the adjacency matrix:",
      np.array_equal(assemble_block_circulant(blocks), g.adjacency_matrix()))

dense = eigenvalues_dense(g)
via_blocks = eigenvalues_block_circulant(m, d)
print(f"dense vs block route, max elementwise gap: "
      f"{np.max(np.abs(dense - via_blocks)):.3e}")
print("largest eigenvalues:", np.round(dense[:4], 6))

print()
for mm, dd in [(1, 4), (2, 6), (3, 8), (4, 12)]:
    lo, hi = lambda2_window(mm, dd)
    val = lambda2(mm, dd)
    print(f"G({mm},{dd}): lambda2 = {val:.9f} in [{lo:.9f}, {hi:.9f})  "
          f"(margin to upper edge {hi - val:.2e})")
