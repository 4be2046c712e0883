import json
import math

import numpy as np
import pytest

from extremal_trees import (
    CheckFailure,
    Graph,
    ParameterDomainError,
    assemble_block_circulant,
    blocks_of,
    bracket_factor,
    build_extremal_graph,
    eigenvalues_block_circulant,
    eigenvalues_dense,
    hermitian_blocks,
    lambda2,
    lambda2_window,
    spectral,
    symmetric_eigenvalues,
)
from extremal_trees.charpoly import divisors, euler_phi
from extremal_trees.cli import main
from extremal_trees.graphs import closed_twin_quotient

from conftest import DESK_SWEEP, complete_graph
from test_charpoly import planted_twin_graph


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


def test_solver_decides_integer_symmetry_exactly():
    # integer input takes the same defect test as float input, and its
    # defect is an exact integer: 0 when symmetric, 1 here when not
    a = np.array([[0, 1], [1, 0]])
    assert np.array_equal(symmetric_eigenvalues(a), symmetric_eigenvalues(a.astype(float)))
    for bad in (np.array([[0, 1], [0, 0]]), np.array([a, [[0, 2], [1, 0]]])):
        with pytest.raises(ValueError, match=r"^matrix is not finite and Hermitian "
                                             r"\(defect 1\.00e\+00\)$"):
            symmetric_eigenvalues(bad)
    # float input is tested for finiteness before the defect, so a symmetric
    # inf is refused without computing inf - inf
    with pytest.raises(ValueError, match=r"^matrix is not finite and Hermitian \(defect nan\)$"):
        symmetric_eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def full_matrix_spectrum(g: Graph) -> np.ndarray:
    """The n x n route: LAPACK on the whole adjacency matrix, descending."""
    return np.linalg.eigvalsh(g.adjacency_matrix())[::-1]


@pytest.mark.parametrize("g,q", [
    *[pytest.param(build_extremal_graph(m, d), (2 * m + 1) ** 2, id=f"G({m},{d})")
      for m, d in [*DESK_SWEEP, (5, 43)]],
    pytest.param(complete_graph(5), 1, id="K_5"),
    pytest.param(Graph.from_edges(6, []), 6, id="edgeless"),
    pytest.param(Graph.from_edges(0, []), 0, id="empty"),
])
def test_quotient_route_matches_the_full_matrix(g, q):
    assert len(closed_twin_quotient(g)[0]) == q
    values = eigenvalues_dense(g)
    assert values.shape == (g.n,) and values.dtype == np.float64
    assert np.max(np.abs(values - full_matrix_spectrum(g)), initial=0.0) < 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_quotient_route_matches_the_full_matrix_on_planted_twins(seed):
    g, classes = planted_twin_graph(seed)
    # planted classes may merge into larger ones, never split
    assert len(closed_twin_quotient(g)[0]) <= len(classes)
    assert np.max(np.abs(eigenvalues_dense(g) - full_matrix_spectrum(g))) < 1e-10


def test_quotient_route_reads_adjacency_lists_only(monkeypatch):
    def dense(self):
        raise AssertionError("the dense route built the n x n adjacency matrix")

    expected = eigenvalues_dense(build_extremal_graph(2, 7))
    monkeypatch.setattr(Graph, "adjacency_matrix", dense)
    assert np.array_equal(eigenvalues_dense(build_extremal_graph(2, 7)), expected)


def test_quotient_route_refuses_asymmetric_adjacency_lists():
    # a one-way edge, and twins 0 and 1 whose neighbour 2 sees only 0
    for g in (Graph(2, ((1,), ()), 1), Graph(3, ((1, 2), (0, 2), (0,)), 2)):
        with pytest.raises(ValueError, match="^adjacency matrix is not symmetric$"):
            eigenvalues_dense(g)


def test_k5_spectrum():
    values = eigenvalues_dense(complete_graph(5))
    assert np.allclose(values, [4, -1, -1, -1, -1], atol=1e-10)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_trace_and_energy(m, d):
    g = build_extremal_graph(m, d)
    values = eigenvalues_dense(g)
    assert abs(values.sum()) < g.n * 1e-9
    assert abs((values**2).sum() - 2 * g.edge_count) < g.n * 1e-9


def test_blocks_structure():
    blocks = blocks_of(1, 4)
    assert blocks.shape == (3, 5, 5) and blocks.dtype == np.int64
    # cross-edge blocks: single unit entry, transposed pair
    assert blocks[1].sum() == 1 and blocks[1][1, 0] == 1
    assert np.array_equal(blocks[2], blocks[1].T)
    # b_0 is one modified clique: J - I minus the matching
    b0 = blocks[0]
    assert b0[0, 1] == 0 and b0[1, 0] == 0
    assert b0.sum() == 5 * 4 - 2
    total = blocks.sum(axis=0)
    assert np.all(total.sum(axis=1) == 4)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8), (2, 7)])
def test_assembled_blocks_reproduce_adjacency(m, d):
    assembled = assemble_block_circulant(blocks_of(m, d))
    assert np.array_equal(assembled, build_extremal_graph(m, d).adjacency_matrix())


def test_hermitian_blocks():
    m, d = 2, 6
    hs = hermitian_blocks(m, d)
    # H_0..H_m only: H_(2m+1-t) is the conjugate of H_t
    assert hs.shape == (m + 1, d + 1, d + 1) and hs.dtype == complex
    for h in hs:
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
    # row 0 is zeta = 1: the real matrix sum_i b_i
    h1 = hs[0]
    assert np.max(np.abs(h1.imag)) < 1e-12
    assert np.allclose(h1.real.sum(axis=1), d)


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_block_circulant_matches_dense(m, d):
    dense = eigenvalues_dense(build_extremal_graph(m, d))
    blocks = eigenvalues_block_circulant(m, d)
    assert len(blocks) == (2 * m + 1) * (d + 1)
    assert np.max(np.abs(dense - blocks)) < 1e-8


def test_block_circulant_matches_dense_full_sweep():
    for m, d in DESK_SWEEP:
        dense = eigenvalues_dense(build_extremal_graph(m, d))
        blocks = eigenvalues_block_circulant(m, d)
        assert np.max(np.abs(dense - blocks)) < 1e-8, (m, d)


def _root_block(m, d, t):
    """H_t = sum_i zeta_t^i b_i, zeta_t = exp(2*pi*i*t/(2m+1)), accumulated in
    the order i = 0..2m, for any t in 0..2m."""
    k = 2 * m + 1
    zeta = complex(math.cos(2 * math.pi * t / k), math.sin(2 * math.pi * t / k))
    h = np.zeros((d + 1, d + 1), dtype=complex)
    for i, b in enumerate(blocks_of(m, d)):
        h += (zeta**i) * b
    return h


def _per_root_block_spectrum(m, d):
    """The block spectrum route one root at a time: H_t solved on its own for
    t = 0..m, the values of t >= 1 listed twice (once more for H_(2m+1-t));
    the union sorted descending by Python."""
    values = []
    for t in range(m + 1):
        solved = symmetric_eigenvalues(_root_block(m, d, t)).tolist()
        values.extend(solved if t == 0 else 2 * solved)
    values.sort(reverse=True)
    return values


def test_block_spectrum_equals_the_per_root_route_exactly():
    for m, d in [*DESK_SWEEP, (5, 43), (8, 20)]:
        # each row of the stack is the defining sum of its root, to the last bit
        hs = hermitian_blocks(m, d)
        for t in range(m + 1):
            assert np.array_equal(hs[t], _root_block(m, d, t)), (m, d, t)
        assert eigenvalues_block_circulant(m, d).tolist() == _per_root_block_spectrum(m, d), (m, d)


MIRROR_PAIRS = [*DESK_SWEEP, (5, 43), (8, 20), (2, 119)]


def test_mirror_blocks_have_the_counted_spectra():
    # H_(2m+1-t), built from its own root and solved on its own, has the
    # values that the route counts a second time for row t
    for m, d in MIRROR_PAIRS:
        rows = symmetric_eigenvalues(hermitian_blocks(m, d))
        for t in range(1, m + 1):
            mirror = symmetric_eigenvalues(_root_block(m, d, 2 * m + 1 - t))
            assert np.max(np.abs(mirror - rows[t])) < 1e-12, (m, d, t)


def test_block_spectrum_equals_the_all_roots_multiset():
    # every one of the 2m+1 blocks solved on its own, t = 0..2m
    for m, d in MIRROR_PAIRS:
        every_root = np.concatenate([symmetric_eigenvalues(_root_block(m, d, t))
                                     for t in range(2 * m + 1)])
        every_root = np.sort(every_root)[::-1]
        assert np.max(np.abs(eigenvalues_block_circulant(m, d) - every_root)) < 1e-12, (m, d)


def _swap_b3_b4(b):
    b[[3, 4]] = b[[4, 3]]


def _b4_untransposed(b):
    b[4] = b[1]


@pytest.mark.parametrize("move,row0_symmetric", [
    # b_3 = b_1^T and b_4 = b_2^T: sum_i b_i = H_0 is still symmetric, so
    # only the rows t = 1, 2 can see it
    (_swap_b3_b4, True),
    # b_4 = b_1 in place of b_1^T: the cross entry moved across the diagonal
    (_b4_untransposed, False),
], ids=["rows-1-to-m", "row-0"])
def test_block_route_rejects_an_asymmetric_block_set(monkeypatch, move, row0_symmetric):
    # the route solves H_0..H_m only, and still refuses a block set in which
    # some b_(2m+1-i) is not b_i^T
    real_blocks_of = spectral.blocks_of

    def moved_blocks(m, d):
        b = real_blocks_of(m, d)
        move(b)
        return b

    bad = moved_blocks(2, 7)
    assert [np.array_equal(bad[5 - i], bad[i].T) for i in (1, 2)] != [True, True]
    assert np.array_equal(bad.sum(axis=0), bad.sum(axis=0).T) == row0_symmetric
    monkeypatch.setattr(spectral, "blocks_of", moved_blocks)
    with pytest.raises(ValueError, match="^matrix is not finite and Hermitian"):
        eigenvalues_block_circulant(2, 7)


def test_block_route_sums_blocks_that_share_an_entry(monkeypatch):
    # b_1 and b_2 share the unit entry (1, 0), and b_3 = b_2^T, b_4 = b_1^T
    # keep the assembled matrix symmetric: each H_t must add both weights at
    # that entry, as the assembled matrix's own spectrum shows
    real_blocks_of = spectral.blocks_of

    def shared_blocks(m, d):
        b = real_blocks_of(m, d)
        b[2, 1, 0] = 1
        b[3], b[4] = b[2].T, b[1].T
        return b

    blocks = shared_blocks(2, 6)
    assert blocks[1, 1, 0] == blocks[2, 1, 0] == 1
    assembled = assemble_block_circulant(blocks)
    assert np.array_equal(assembled, assembled.T)
    expected = np.linalg.eigvalsh(assembled)[::-1]
    monkeypatch.setattr(spectral, "blocks_of", shared_blocks)
    assert np.max(np.abs(eigenvalues_block_circulant(2, 6) - expected)) < 1e-12


def test_lambda2_window_beyond_desk_scale():
    # the block reduction keeps large cases cheap; (9,100) has a window only
    # ~4e-3 wide, a much sharper probe than the desk sweep
    for m, d in [(8, 18), (12, 30), (15, 40), (9, 100)]:
        lam2 = eigenvalues_block_circulant(m, d)[1]
        lo, hi = lambda2_window(m, d)
        assert lo - 1e-9 <= lam2 < hi + 1e-9, (m, d, lam2)


def test_degree_eigenvalue_comes_from_unit_root_block():
    m, d = 2, 6
    vals = symmetric_eigenvalues(hermitian_blocks(m, d)[0])
    assert abs(vals[-1] - d) < 1e-9


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_lambda2_in_window(m, d):
    lo, hi = lambda2_window(m, d)
    val = lambda2(m, d)
    assert lo - 1e-9 <= val < hi + 1e-9
    assert abs(eigenvalues_block_circulant(m, d)[1] - val) < 1e-8


def test_lambda1_simple():
    values = eigenvalues_dense(build_extremal_graph(2, 6))
    assert abs(values[0] - 6) < 1e-9
    assert values[1] < 6 - 0.5  # multiplicity one, with plenty of margin


def test_bulk_eigenvalues_within_interval():
    # every eigenvalue except lambda_1 and the bracket-factor roots lies in [-3, 1]
    for m, d in [(1, 4), (2, 6), (3, 8)]:
        values = sorted(eigenvalues_dense(build_extremal_graph(m, d)))
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


@pytest.mark.parametrize("method,route,flags", [
    ("dense", spectral.family_spectrum, ()),
    ("blocks", eigenvalues_block_circulant, ("--method", "blocks")),
], ids=["dense", "blocks"])
def test_spectrum_serialization(capsys, method, route, flags):
    # dense is the default method
    assert main(["spectrum", "2", "6", *flags]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["m", "d", "solver", "values"]
    assert data["m"] == 2 and data["d"] == 6 and data["solver"] == method
    values = np.array(data["values"])
    assert values.tolist() == route(2, 6).tolist()
    assert len(values) == 35 and np.all(np.diff(values) <= 0)
    assert np.max(np.abs(values - full_matrix_spectrum(build_extremal_graph(2, 6)))) < 1e-10


def test_solver_takes_a_stack_of_matrices():
    stack = np.array([np.diag([3.0, -1.0, 2.0]), np.eye(3)])
    assert np.array_equal(symmetric_eigenvalues(stack), [[-1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        symmetric_eigenvalues(np.zeros((2, 3, 4)))
    # one matrix of the stack that is not Hermitian rejects the whole stack
    bad = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="Hermitian"):
        symmetric_eigenvalues(bad)


def test_block_spectrum_is_one_solve_of_one_stack(monkeypatch):
    shapes, built = [], []
    solve, blocks = spectral.symmetric_eigenvalues, spectral.blocks_of

    def counted_solve(mat):
        shapes.append(mat.shape)
        return solve(mat)

    def counted_blocks(m, d):
        built.append((m, d))
        return blocks(m, d)

    monkeypatch.setattr(spectral, "symmetric_eigenvalues", counted_solve)
    monkeypatch.setattr(spectral, "blocks_of", counted_blocks)
    values = eigenvalues_block_circulant(2, 7)
    # H_0..H_2 of the 2m+1 = 5 blocks
    assert shapes == [(3, 8, 8)]
    assert built == [(2, 7)]
    assert values.shape == (40,) and values.dtype == np.float64
    assert np.all(np.diff(values) <= 0)


def test_remembered_spectrum_is_read_only():
    values = spectral.family_spectrum(1, 4)
    with pytest.raises(ValueError):
        values[0] = 0.0
    assert spectral.family_spectrum(1, 4) is values


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
