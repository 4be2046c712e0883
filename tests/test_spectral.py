import json

import numpy as np
import pytest

from extremal_trees import (
    CheckFailure,
    ParameterDomainError,
    assemble_block_circulant,
    blocks_of,
    bracket_factor,
    build_extremal_graph,
    eigenvalues_block_circulant,
    eigenvalues_dense,
    hermitian_block,
    lambda2,
    lambda2_window,
    spectral,
    symmetric_eigenvalues,
)
from extremal_trees.charpoly import divisors, euler_phi

from conftest import complete_graph


def test_solver_handles_degenerate_spectra():
    # repeated eigenvalues and already-diagonal inputs
    assert np.allclose(symmetric_eigenvalues(np.eye(5)), np.ones(5))
    assert np.allclose(symmetric_eigenvalues(np.zeros((4, 4))), np.zeros(4))
    a = np.diag([3.0, -1.0, 2.0])
    assert np.allclose(symmetric_eigenvalues(a), [-1.0, 2.0, 3.0])


def test_solver_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))


def test_solver_rejects_non_symmetric_real_input():
    # LAPACK reads one triangle only and would return a wrong spectrum
    with pytest.raises(ValueError, match="Hermitian"):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        symmetric_eigenvalues(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_k5_spectrum():
    values = eigenvalues_dense(complete_graph(5)).values
    assert np.allclose(values, [4, -1, -1, -1, -1], atol=1e-10)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_trace_and_energy(m, d):
    g = build_extremal_graph(m, d)
    values = np.array(eigenvalues_dense(g).values)
    assert abs(values.sum()) < g.n * 1e-9
    assert abs((values**2).sum() - 2 * g.edge_count) < g.n * 1e-9


def test_blocks_structure():
    blocks = blocks_of(1, 4)
    assert len(blocks) == 3
    # cross-edge blocks: single unit entry, transposed pair
    assert blocks[1].sum() == 1 and blocks[1][1, 0] == 1
    assert np.array_equal(blocks[2], blocks[1].T)
    # b_0 is one modified clique: J - I minus the matching
    b0 = blocks[0]
    assert b0[0, 1] == 0 and b0[1, 0] == 0
    assert b0.sum() == 5 * 4 - 2
    total = sum(blocks)
    assert np.all(total.sum(axis=1) == 4)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8), (2, 7)])
def test_assembled_blocks_reproduce_adjacency(m, d):
    assembled = assemble_block_circulant(blocks_of(m, d))
    assert np.array_equal(assembled, build_extremal_graph(m, d).adjacency_matrix())


def test_hermitian_blocks():
    m, d = 2, 6
    for t in range(1, 2 * m + 2):
        h = hermitian_block(m, d, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
    h1 = hermitian_block(m, d, 2 * m + 1)
    assert np.max(np.abs(h1.imag)) < 1e-12
    assert np.allclose(h1.real.sum(axis=1), d)


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_block_circulant_matches_dense(m, d):
    dense = np.array(eigenvalues_dense(build_extremal_graph(m, d)).values)
    blocks = np.array(eigenvalues_block_circulant(m, d).values)
    assert len(blocks) == (2 * m + 1) * (d + 1)
    assert np.max(np.abs(dense - blocks)) < 1e-8


def test_block_circulant_matches_dense_full_sweep():
    from conftest import DESK_SWEEP

    for m, d in DESK_SWEEP:
        dense = np.array(eigenvalues_dense(build_extremal_graph(m, d)).values)
        blocks = np.array(eigenvalues_block_circulant(m, d).values)
        assert np.max(np.abs(dense - blocks)) < 1e-8, (m, d)


def test_lambda2_window_beyond_desk_scale():
    # the block reduction keeps large cases cheap; (9,100) has a window only
    # ~4e-3 wide, a much sharper probe than the desk sweep
    for m, d in [(8, 18), (12, 30), (15, 40), (9, 100)]:
        lam2 = eigenvalues_block_circulant(m, d).values[1]
        lo, hi = lambda2_window(m, d)
        assert lo - 1e-9 <= lam2 < hi + 1e-9, (m, d, lam2)


def test_degree_eigenvalue_comes_from_unit_root_block():
    m, d = 2, 6
    vals = symmetric_eigenvalues(hermitian_block(m, d, 2 * m + 1))
    assert abs(vals[-1] - d) < 1e-9


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_lambda2_in_window(m, d):
    lo, hi = lambda2_window(m, d)
    val = lambda2(m, d)
    assert lo - 1e-9 <= val < hi + 1e-9
    assert abs(lambda2(m, d, method="blocks") - val) < 1e-8


def test_lambda1_simple():
    values = np.array(eigenvalues_dense(build_extremal_graph(2, 6)).values)
    assert abs(values[0] - 6) < 1e-9
    assert values[1] < 6 - 0.5  # multiplicity one, with plenty of margin


def test_bulk_eigenvalues_within_interval():
    # every eigenvalue except lambda_1 and the bracket-factor roots lies in [-3, 1]
    for m, d in [(1, 4), (2, 6), (3, 8)]:
        values = sorted(eigenvalues_dense(build_extremal_graph(m, d)).values)
        k = 2 * m + 1
        factor_roots = []
        for n in divisors(k):
            roots = np.roots(bracket_factor(n, m, d).float_coeffs()[::-1])
            assert np.max(np.abs(roots.imag)) < 1e-9
            factor_roots.extend([2 * r - 1 for r in roots.real] * euler_phi(n))
        remaining = list(values)
        for root in factor_roots:
            idx = int(np.argmin([abs(v - root) for v in remaining]))
            assert abs(remaining[idx] - root) < 1e-6
            remaining.pop(idx)
        assert all(-3 - 1e-8 <= v <= 1 + 1e-8 for v in remaining)


def test_spectrum_serialization():
    spectrum = eigenvalues_block_circulant(1, 4)
    data = json.loads(spectrum.to_json(1, 4, solver="blocks"))
    assert set(data) == {"m", "d", "solver", "values"}
    assert data["m"] == 1 and data["d"] == 4 and data["solver"] == "blocks"
    assert len(data["values"]) == 15


def test_lambda2_rejects_bad_method():
    with pytest.raises(ValueError):
        lambda2(1, 4, method="sparse")


def test_window_violation_raises():
    # sanity check of the failure path: an impossible window must raise
    with pytest.raises((CheckFailure, ParameterDomainError)):
        lambda2(1, 3)


def test_window_failure_message_prints_the_plain_number(monkeypatch):
    # the spectrum holds np.float64 values, whose repr is np.float64(...)
    monkeypatch.setattr(spectral, "lambda2_window", lambda m, d: (0.0, 1.0))
    with pytest.raises(CheckFailure) as exc:
        lambda2(2, 6)
    message = str(exc.value)
    assert "np.float64(" not in message
    assert message.startswith("lambda2=5.42141855613")
    assert message.endswith("outside [0.0, 1.0) for (m,d)=(2,6)")
