"""Adjacency spectra: dense eigensolve and block-circulant reduction.

Two independent routes to the spectrum of G(m,d):

* ``eigenvalues_dense`` solves the n x n adjacency matrix.

* ``eigenvalues_block_circulant`` exploits the block-circulant structure:
  for each (2m+1)-th root of unity zeta, the (d+1)-dimensional Hermitian
  block H_zeta = sum_k zeta^k b_k is solved on its own.

Every eigensolve is one call of ``symmetric_eigenvalues``, which hands real
symmetric or complex Hermitian input to LAPACK (``np.linalg.eigvalsh``);
LAPACK's convergence test is fixed, so no route takes a tolerance.  The two
multisets must agree, which the test suite asserts elementwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CheckFailure, ParameterDomainError, SolverConvergenceError
from .graphs import Graph, build_extremal_graph, check_family_params

BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self, m: int | None = None, d: int | None = None, solver: str = "dense") -> str:
        meta = {"m": m, "d": d, "solver": solver, "values": list(self.values)}
        return json.dumps(meta)


@dataclass(frozen=True)
class HermitianBlock:
    """Block H_zeta for zeta = exp(2*pi*i*t/(2m+1)), t in [1, 2m+1]."""

    zeta_index: int
    entries: np.ndarray


def symmetric_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric or complex Hermitian matrix, ascending.

    LAPACK (``np.linalg.eigvalsh``) solves it.  eigvalsh reads one triangle
    only, so a matrix whose Hermitian defect exceeds 1e-9, or is not finite,
    is rejected instead of solved wrongly.
    """
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    herm_defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if not herm_defect <= 1e-9:
        raise ValueError(f"matrix is not finite and Hermitian (defect {herm_defect:.2e})")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverConvergenceError(
            f"LAPACK eigvalsh failed for a matrix of size {a.shape[0]}: {exc}"
        ) from exc


def eigenvalues_dense(g: Graph) -> Spectrum:
    """Spectrum of the adjacency matrix by the dense symmetric solver."""
    vals = symmetric_eigenvalues(g.adjacency_matrix())
    return Spectrum(tuple(vals[::-1]))


def blocks_of(m: int, d: int) -> list[np.ndarray]:
    """The 2m+1 square blocks b_0..b_2m of the block-circulant adjacency matrix.

    b_0 is the adjacency matrix of one modified clique; for 1 <= i <= m the
    block b_i has a single unit entry (the cross edge at clique offset i) and
    b_(2m+1-i) = b_i^T.
    """
    check_family_params(m, d)
    size = d + 1
    blocks = [np.zeros((size, size), dtype=np.int64) for _ in range(2 * m + 1)]
    for offset in range(1, m + 1):
        blocks[offset][2 * offset - 1, 2 * offset - 2] = 1
        blocks[2 * m + 1 - offset][2 * offset - 2, 2 * offset - 1] = 1
    b0 = np.ones((size, size), dtype=np.int64) - np.eye(size, dtype=np.int64)
    for offset in range(1, m + 1):
        b0[2 * offset - 2, 2 * offset - 1] = 0
        b0[2 * offset - 1, 2 * offset - 2] = 0
    blocks[0] = b0
    return blocks


def assemble_block_circulant(blocks: list[np.ndarray]) -> np.ndarray:
    """Block matrix whose (r, c) block is blocks[(c - r) mod len(blocks)]."""
    k = len(blocks)
    size = blocks[0].shape[0]
    out = np.zeros((k * size, k * size), dtype=blocks[0].dtype)
    for r in range(k):
        for c in range(k):
            out[r * size : (r + 1) * size, c * size : (c + 1) * size] = blocks[
                (c - r) % k
            ]
    return out


def hermitian_block(m: int, d: int, t: int) -> HermitianBlock:
    """H_zeta = sum_k zeta^k b_k for zeta = exp(2*pi*i*t/(2m+1))."""
    k = 2 * m + 1
    if not 1 <= t <= k:
        raise ParameterDomainError(f"zeta index t must be in [1, {k}], got {t}")
    blocks = blocks_of(m, d)
    zeta = complex(math.cos(2 * math.pi * t / k), math.sin(2 * math.pi * t / k))
    h = np.zeros((d + 1, d + 1), dtype=complex)
    for i, b in enumerate(blocks):
        h += (zeta**i) * b
    return HermitianBlock(t, h)


def eigenvalues_block_circulant(m: int, d: int) -> Spectrum:
    """Spectrum of G(m,d) as the union over roots of unity of the block spectra."""
    values: list[float] = []
    for t in range(1, 2 * m + 2):
        values.extend(symmetric_eigenvalues(hermitian_block(m, d, t).entries).tolist())
    values.sort(reverse=True)
    return Spectrum(tuple(values))


def family_spectrum(m: int, d: int, method: str = "dense") -> Spectrum:
    """Spectrum of G(m,d) by one route: 'dense' or 'blocks'.

    Remembered per (m, d, method), so the checks of one ``verify`` pair
    share one spectrum per route.  The two routes never share a result.
    """
    if method not in ("dense", "blocks"):
        raise ValueError(f"unknown method {method!r} (use 'dense' or 'blocks')")
    return _remembered_spectrum(m, d, method)


# `verify` runs every check of one (m, d) pair before it moves to the next,
# and a pair has one spectrum per route, so two entries catch every reuse.
@lru_cache(maxsize=2)
def _remembered_spectrum(m: int, d: int, method: str) -> Spectrum:
    if method == "dense":
        return eigenvalues_dense(build_extremal_graph(m, d))
    return eigenvalues_block_circulant(m, d)


def lambda2_window(m: int, d: int) -> tuple[float, float]:
    """The proven enclosure [d - (2m+1)/(d+1), d - (2m+1)/(d+3)) for lambda_2."""
    return d - (2 * m + 1) / (d + 1), d - (2 * m + 1) / (d + 3)


def lambda2(m: int, d: int, method: str = "dense") -> float:
    """Second-largest adjacency eigenvalue of G(m,d), checked against its window.

    Raises CheckFailure if the computed value escapes the two-sided bound by
    more than BOUND_SLACK (that would falsify the bound being verified, so
    it is treated as a failure, not a return value).
    """
    spectrum = family_spectrum(m, d, method)
    lam1, lam2_ = spectrum.values[0], spectrum.values[1]
    if abs(lam1 - d) > 1e-8:
        raise CheckFailure(f"largest eigenvalue {lam1} != degree {d}")
    lo, hi = lambda2_window(m, d)
    if not (lo - BOUND_SLACK <= lam2_ < hi + BOUND_SLACK):
        raise CheckFailure(
            f"lambda2={lam2_!r} outside [{lo}, {hi}) for (m,d)=({m},{d})"
        )
    return lam2_
