"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to watch them).
Criteria:

1. construction invariants over the full desk sweep, < 1 s per case
2. two-sided lambda_2 window over the sweep, < 30 s total
3. dense vs block-circulant spectra within 1e-8 on five cases
4. closed-form characteristic polynomial == multi-modular Hessenberg oracle, < 60 s
5. root-bound pipeline: coefficient match, monotonicity, exact quartic
   inequality over 2 <= m <= 50, 2m+2 <= d <= 200 in < 10 s
6. fourth-power bound soundness on 500 seeded real-rooted polynomials
7. constructive sigma = m with verified packings and witnesses, < 120 s
8. rigidity certificates and mu_2 windows for r in {1,2,3}
9. Chebyshev identities decided exactly modulo a prime for 1 <= m <= 12,
   determinant identities decided exactly in integers for 2 <= n <= 6
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from extremal_trees import (
    ForestPacking,
    PartitionCertificate,
    Poly,
    bracket_factor,
    build_extremal_graph,
    char_poly_exact,
    char_poly_oracle,
    check_root_bound_inequality,
    check_spectral_rigidity_hypotheses,
    chebyshev_T,
    chebyshev_U,
    clique_certificate,
    crossing_edges,
    degrees,
    eigenvalues_block_circulant,
    eigenvalues_dense,
    factor_leading_coeffs,
    graeffe_bound,
    graeffe_radicand,
    is_connected,
    largest_root_bound,
    leading_coeffs_of,
    pack_spanning_trees,
    rigidity_certificate,
    verify_determinant_identities,
    verify_root_of_unity_identities,
)
from extremal_trees.charpoly import divisors
from extremal_trees.spectral import lambda2_window

from conftest import CROSS_CHECK_CASES, DESK_SWEEP


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_construction():
    with criterion(1, "construction invariants"):
        for m, d in DESK_SWEEP:
            t0 = time.perf_counter()
            g = build_extremal_graph(m, d)
            k = 2 * m + 1
            degs = degrees(g)
            assert min(degs) == max(degs) == d
            assert is_connected(g)
            assert g.n == k * (d + 1)
            assert g.edge_count == k * (d + 1) * d // 2
            between = {}
            for u, v in g.edges():
                cu, cv = u // (d + 1), v // (d + 1)
                if cu != cv:
                    between[(cu, cv)] = between.get((cu, cv), 0) + 1
            assert len(between) == k * (k - 1) // 2
            assert set(between.values()) == {1}
            assert time.perf_counter() - t0 < 1.0


def test_criterion_2_lambda2_window():
    with criterion(2, "lambda2 two-sided window"):
        t0 = time.perf_counter()
        for m, d in DESK_SWEEP:
            values = eigenvalues_dense(build_extremal_graph(m, d))
            lam2 = values[1]
            lo, hi = lambda2_window(m, d)
            assert lo - 1e-9 <= lam2, (m, d, lam2)
            assert lam2 < hi + 1e-9, (m, d, lam2)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_spectra_cross_check():
    with criterion(3, "dense vs block-circulant spectra"):
        for m, d in CROSS_CHECK_CASES:
            dense = eigenvalues_dense(build_extremal_graph(m, d))
            blocks = eigenvalues_block_circulant(m, d)
            assert dense.shape == blocks.shape
            assert np.max(np.abs(dense - blocks)) <= 1e-8, (m, d)


def test_criterion_4_charpoly_oracle_equality():
    with criterion(4, "exact characteristic polynomial"):
        t0 = time.perf_counter()
        for m, d in CROSS_CHECK_CASES:
            exact = char_poly_exact(m, d)
            oracle = char_poly_oracle(build_extremal_graph(m, d))
            assert exact == oracle, (m, d)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_root_bound_pipeline():
    with criterion(5, "root-bound pipeline"):
        # coefficient formulas match the exact bracket expansion on the sweep
        for m, d in DESK_SWEEP:
            for n in [n for n in divisors(2 * m + 1) if n != 1]:
                b = bracket_factor(n, m, d)
                c = factor_leading_coeffs(n, m, d)
                scale = 2**n
                assert Fraction(b[n - 1], scale) == c.a1
                assert Fraction(b[n - 2], scale) == c.a2
                assert Fraction(b[n - 3], scale) == c.a3
                assert (Fraction(b[n - 4], scale) if n >= 4 else Fraction(0)) == c.a4

        # bound monotone in n wherever 2m+1 is composite
        for m in (4, 7, 10, 12, 13):
            d = 2 * m + 4
            ns = [n for n in divisors(2 * m + 1) if n != 1]
            bounds = [largest_root_bound(n, m, d) for n in ns]
            assert bounds == sorted(bounds)

        # exact quartic inequality over the full domain, and the bound image
        # stays under the window edge (the two are algebraically equivalent;
        # both forms are checked)
        t0 = time.perf_counter()
        cases = 0
        for m in range(2, 51):
            for d in range(2 * m + 2, 201):
                assert check_root_bound_inequality(m, d), (m, d)
                z0 = largest_root_bound(2 * m + 1, m, d)
                assert 2 * z0 - 1 < d - (2 * m + 1) / (d + 3), (m, d)
                cases += 1
        elapsed = time.perf_counter() - t0
        assert cases == sum(199 - 2 * m for m in range(2, 51))
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_6_graeffe_soundness():
    with criterion(6, "fourth-power bound soundness"):
        rng = np.random.RandomState(0)
        violations = 0
        for _ in range(500):
            deg = int(rng.randint(4, 11))
            roots = [Fraction(float(x)) for x in rng.uniform(-5.0, 5.0, size=deg)]
            c = leading_coeffs_of(Poly.from_roots(roots))
            top = max(roots)
            if graeffe_radicand(c) < top**4:  # exact rational comparison
                violations += 1
            if graeffe_bound(c) < float(top) - 1e-12:
                violations += 1
        assert violations == 0


def test_criterion_7_tree_packing():
    with criterion(7, "constructive sigma = m"):
        t0 = time.perf_counter()
        for m, d in [(1, 4), (2, 6), (3, 8)]:
            g = build_extremal_graph(m, d)
            packed = pack_spanning_trees(g, m)
            assert isinstance(packed, ForestPacking), (m, d)
            used = set()
            for tree in packed.trees:
                assert len(tree) == g.n - 1
                assert not (tree & used)
                used |= tree
                reached = {next(iter(tree))[0]}
                frontier = True
                while frontier:
                    frontier = False
                    for u, v in tree:
                        if (u in reached) != (v in reached):
                            reached.update((u, v))
                            frontier = True
                assert len(reached) == g.n

            witness = pack_spanning_trees(g, m + 1)
            assert isinstance(witness, PartitionCertificate), (m, d)
            assert crossing_edges(g, witness.partition) == witness.crossing
            assert witness.crossing < (m + 1) * (len(witness.partition) - 1)

            cert = clique_certificate(m, d)
            assert cert.deficit == m
            assert cert.crossing == m * (2 * m + 1)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_8_rigidity():
    with criterion(8, "rigidity certificates and mu2 window"):
        for r in (1, 2, 3):
            for d in (6 * r, 6 * r + 2):
                cert = rigidity_certificate(r, d)
                assert cert.deficit == 3 * r - 1
                hyp = check_spectral_rigidity_hypotheses(r, d)
                lo, hi = (6 * r - 1) / (d + 3), (6 * r - 1) / (d + 1)
                assert lo - 1e-9 < hyp.mu2 <= hi + 1e-9, (r, d)


def test_criterion_9_identity_suite():
    with criterion(9, "Chebyshev and determinant identities"):
        two_z = Poly((0, 2))
        for n in range(1, 26):
            assert chebyshev_T(n + 1) == two_z * chebyshev_T(n) - chebyshev_T(n - 1)
            assert chebyshev_U(n + 1) == two_z * chebyshev_U(n) - chebyshev_U(n - 1)
            assert chebyshev_T(n).derivative() == n * chebyshev_U(n - 1)
        for m in range(1, 13):
            verify_root_of_unity_identities(m)  # raises CheckFailure on a mismatch
        verify_determinant_identities()  # raises CheckFailure on a mismatch
