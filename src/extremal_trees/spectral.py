"""Adjacency spectra: dense eigensolve and block-circulant reduction.

Two independent routes to the spectrum of G(m,d), each a float64 array
sorted descending:

* ``eigenvalues_dense`` solves the q x q closed-twin quotient W^(1/2) S W^(1/2)
  of ``graphs.twin_quotient`` (S the 0/1 class adjacency, W the class
  sizes; for a family graph the one classing in its pair's record, which
  the charpoly oracle reads too) and adds the n - q eigenvalues -1 of the
  twins.  G(m,d) has q = (2m+1)^2 classes whatever d is; a graph without
  twins has q = n.  The quotient reads no roots of unity and no circulant
  structure.

* ``eigenvalues_block_circulant`` exploits the block-circulant structure
  (Davis, Circulant Matrices, 1979): the 2m+1 blocks b_i are written once in
  closed form, and the spectrum is the union over the (2m+1)-th roots of
  unity zeta_t of the spectra of the (d+1)-dimensional Hermitian blocks
  H_t = sum_i zeta_t^i b_i.  Since b_(2m+1-i) = b_i^T, H_(2m+1-t) = conj(H_t)
  has the spectrum of H_t, so only H_0..H_m are formed, as one product of
  the table of zeta_t^i with the flattened blocks, and solved in one call;
  the values of H_1..H_m are counted twice.

Every eigensolve is one call of ``symmetric_eigenvalues``, which hands real
symmetric or complex Hermitian input, one matrix or a stack of them, to
LAPACK (``np.linalg.eigvalsh``); LAPACK's convergence test is fixed, so no
route takes a tolerance.  ``family_spectrum`` keeps the dense spectrum, the
one every verdict reads, in the pair's ``graphs.pair_record``; the block
route is called by name where it is compared with it (``verify``'s
``spectra`` check, elementwise) or printed.

Each function that needs numpy imports it in its own body, so importing this
module does not load numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import CheckFailure, SolverConvergenceError
from .graphs import Graph, check_family_params, pair_record, twin_quotient

if TYPE_CHECKING:
    import numpy as np

BOUND_SLACK = 1e-9


def symmetric_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric or complex Hermitian matrix, ascending.

    ``mat`` may be one s x s matrix or a stack (..., s, s); the result then
    has shape (..., s), one ascending row per matrix.  LAPACK
    (``np.linalg.eigvalsh``) solves it.  eigvalsh reads one triangle only, so
    input whose Hermitian defect over the last two axes exceeds 1e-9, or is
    not finite, is rejected instead of solved wrongly; every dtype takes that
    one test, and on integer input the defect is exact.
    """
    import numpy as np

    a = np.asarray(mat)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square")
    # finiteness first, so an inf never computes inf - inf
    herm_defect = (float(np.max(np.abs(a - a.conj().swapaxes(-2, -1)), initial=0.0))
                   if np.isfinite(a).all() else math.nan)
    if not herm_defect <= 1e-9:
        raise ValueError(f"matrix is not finite and Hermitian (defect {herm_defect:.2e})")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverConvergenceError(
            f"LAPACK eigvalsh failed for a matrix of size {a.shape[-1]}: {exc}"
        ) from exc


def eigenvalues_dense(g: Graph) -> np.ndarray:
    """Spectrum of the adjacency matrix, descending, by one dense solve of the
    q x q closed-twin quotient W^(1/2) S W^(1/2), less 1, with n - q further
    eigenvalues -1.  Its entry sqrt(c_i) sqrt(c_j) where S_ij = 1 is symmetric
    to the last bit; an asymmetric A raises ValueError."""
    import numpy as np

    sizes, rows, cols = twin_quotient(g)
    root = np.sqrt(sizes)
    quotient = np.zeros((len(sizes), len(sizes)))
    quotient[rows, cols] = root[rows] * root[cols]
    values = symmetric_eigenvalues(quotient) - 1.0
    return np.sort(np.concatenate([values, np.full(g.n - len(sizes), -1.0)]))[::-1]


def blocks_of(m: int, d: int) -> np.ndarray:
    """The 2m+1 square blocks b_0..b_2m of the block-circulant adjacency matrix,
    as one int64 array of shape (2m+1, d+1, d+1).

    b_0 is the adjacency matrix of one modified clique; for 1 <= i <= m the
    block b_i has a single unit entry (the cross edge at clique offset i) and
    b_(2m+1-i) = b_i^T.
    """
    import numpy as np

    check_family_params(m, d)
    size = d + 1
    blocks = np.zeros((2 * m + 1, size, size), dtype=np.int64)
    blocks[0] = 1 - np.eye(size, dtype=np.int64)
    offsets = np.arange(1, m + 1)
    odd, even = 2 * offsets - 1, 2 * offsets - 2
    blocks[offsets, odd, even] = 1
    blocks[2 * m + 1 - offsets, even, odd] = 1
    blocks[0, odd, even] = blocks[0, even, odd] = 0
    return blocks


def assemble_block_circulant(blocks: np.ndarray) -> np.ndarray:
    """Block matrix whose (r, c) block is blocks[(c - r) mod len(blocks)]."""
    import numpy as np

    k, size = len(blocks), blocks.shape[-1]
    index = (np.arange(k) - np.arange(k)[:, None]) % k  # index[r, c] = (c - r) mod k
    return blocks[index].swapaxes(1, 2).reshape(k * size, k * size)


def hermitian_blocks(m: int, d: int) -> np.ndarray:
    """The blocks H_t = sum_i zeta_t^i b_i for t = 0..m, as one complex
    (m+1, d+1, d+1) array, zeta_t = exp(2*pi*i*t/(2m+1)): the (m+1) x (2m+1)
    table of powers zeta_t^i times the blocks, each flattened to a row.

    Row t holds H_t; row 0 (zeta = 1) is real.  The other m blocks are
    H_(2m+1-t) = conj(H_t), left out: with b_(2m+1-i) = b_i^T they have the
    spectra of rows 1..m.  The Hermitian test of rows 0..m still proves
    b_(2m+1-i) = b_i^T for every i, since the defect of H_(2m+1-t) is the
    complex conjugate of the defect of H_t.
    """
    import numpy as np

    blocks = blocks_of(m, d)
    k = len(blocks)
    zetas = [complex(math.cos(2 * math.pi * t / k), math.sin(2 * math.pi * t / k))
             for t in range(m + 1)]
    powers = np.array([[zeta**i for i in range(k)] for zeta in zetas])
    return (powers @ blocks.reshape(k, -1)).reshape(m + 1, *blocks.shape[1:])


def eigenvalues_block_circulant(m: int, d: int) -> np.ndarray:
    """Spectrum of G(m,d) as the union over roots of unity of the block spectra,
    descending: one solve of H_0..H_m, the values of H_1..H_m counted twice
    (once more for their conjugates H_(2m+1-t))."""
    import numpy as np

    solved = symmetric_eigenvalues(hermitian_blocks(m, d))
    return np.sort(np.concatenate([solved.ravel(), solved[1:].ravel()]))[::-1]


def family_spectrum(m: int, d: int) -> np.ndarray:
    """Spectrum of G(m,d) by the dense route, descending and read-only.

    Kept in the pair's ``graphs.pair_record``, so the checks of one
    ``verify`` pair share one array.  The block route is not kept: call
    ``eigenvalues_block_circulant`` for it.
    """
    record = pair_record(m, d)
    if record.spectrum is None:
        record.spectrum = eigenvalues_dense(record.graph)
        record.spectrum.flags.writeable = False  # every check of the pair reads this one array
    return record.spectrum


def lambda2_window(m: int, d: int) -> tuple[float, float]:
    """The proven enclosure [d - (2m+1)/(d+1), d - (2m+1)/(d+3)) for lambda_2."""
    check_family_params(m, d)
    return d - (2 * m + 1) / (d + 1), d - (2 * m + 1) / (d + 3)


def lambda2(m: int, d: int) -> float:
    """Second-largest adjacency eigenvalue of G(m,d), checked against its window.

    Every verdict reads this value, from ``family_spectrum``.  Raises CheckFailure
    if it escapes the window by more than BOUND_SLACK: that would falsify the
    bound being verified, so it is a failure, not a return value.
    """
    lam1, lam2_ = family_spectrum(m, d)[:2]
    if abs(lam1 - d) > 1e-8:
        raise CheckFailure(f"largest eigenvalue {lam1} != degree {d}")
    lo, hi = lambda2_window(m, d)
    if not (lo - BOUND_SLACK <= lam2_ < hi + BOUND_SLACK):
        raise CheckFailure(
            f"lambda2={lam2_} outside [{lo}, {hi}) for (m,d)=({m},{d})"
        )
    return lam2_
