import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremal_trees import (
    CheckFailure,
    ConsistencyError,
    Graph,
    ParameterDomainError,
    Poly,
    SizeGuardError,
    bracket_factor,
    build_extremal_graph,
    char_poly_exact,
    char_poly_oracle,
    chebyshev_T,
    chebyshev_U,
    eigenvalues_dense,
    verify_determinant_identities,
    verify_root_of_unity_identities,
)
from extremal_trees import charpoly, cli, graphs
from extremal_trees.charpoly import (
    ORACLE_SIZE_GUARD,
    _char_poly_mod,
    _a_i_plus_b_j,
    _coefficient_bound,
    _determinant_cases,
    _is_prime,
    _oracle_primes,
    _poly_mul_mod,
    _primes_for,
    _root_of_unity,
    _taylor_shift_1,
    char_poly_exact_blocks,
    char_poly_oracle_factored,
    char_poly_oracle_residues,
    divisors,
    euler_phi,
)

from conftest import DESK_SWEEP, complete_graph, path_graph


def test_divisor_helpers():
    assert divisors(9) == (1, 3, 9)
    assert divisors(7) == (1, 7)
    assert euler_phi(9) == 6
    assert euler_phi(1) == 1


def test_divisors_match_trial_division():
    for k in range(1, 2001):
        assert divisors(k) == tuple(d for d in range(1, k + 1) if k % d == 0), k
        assert divisors(k) is divisors(k), k


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-(2**200), max_value=2**200), max_size=40))
@example([])
@example([7])
def test_taylor_shift_matches_binomial_sum(coeffs):
    # f(x+1) = sum_i a_i (x+1)^i, so its x^j coefficient is sum_i a_i C(i, j)
    n = len(coeffs)
    expected = [sum(coeffs[i] * math.comb(i, j) for i in range(j, n)) for j in range(n)]
    assert _taylor_shift_1(coeffs) == expected


@settings(deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=300),
       st.lists(st.integers(min_value=-(2**300), max_value=2**300), min_size=1, max_size=40))
def test_taylor_shift_after_a_run_of_zeros(zeros, tail):
    # the closed form shifts y^e q(y): hundreds of zeros, then the coefficients
    # of q; f(x+1) = sum_i tail_i (x+1)^(zeros+i)
    coeffs = [0] * zeros + tail
    expected = [sum(c * math.comb(zeros + i, j) for i, c in enumerate(tail))
                for j in range(len(coeffs))]
    assert _taylor_shift_1(coeffs) == expected
    assert coeffs == [0] * zeros + tail


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 9)])
def test_bracket_n1_linear(m, d):
    # the n=1 factor must collapse to 2z - (d+1), i.e. x - d under z=(x+1)/2
    assert bracket_factor(1, m, d) == Poly((-(d + 1), 2))


def test_bracket_314_hand_expansion():
    # (-1)*T_3 + (2-4)*T_3/z + 3*(z-1)*U_2 with T_3 = 4z^3-3z, U_2 = 4z^2-1
    assert bracket_factor(3, 1, 4) == Poly((9, 0, -20, 8))


@pytest.mark.parametrize("m", range(1, 6))
def test_bracket_leading_coefficient(m):
    d = 2 * m + 3
    for n in divisors(2 * m + 1):
        b = bracket_factor(n, m, d)
        assert b.degree == n
        assert b.leading == 2**n


def test_bracket_rejects_even_n():
    with pytest.raises(ParameterDomainError):
        bracket_factor(2, 1, 4)
    with pytest.raises(ParameterDomainError):
        bracket_factor(5, 1, 4)  # 5 does not divide 3


@pytest.mark.parametrize("m,d", [(1, 4), (1, 5), (2, 6), (3, 8)])
def test_char_poly_shape(m, d):
    p = char_poly_exact(m, d)
    n = (2 * m + 1) * (d + 1)
    assert p.degree == n
    assert p.leading == 1
    assert p[n - 1] == 0  # zero trace


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6)])
def test_char_poly_equals_oracle(m, d):
    assert char_poly_exact(m, d) == char_poly_oracle(build_extremal_graph(m, d))


def test_oracle_known_spectra():
    # K_5: (x-4)(x+1)^4; path on 2 vertices: x^2 - 1
    expected = Poly((-4, 1)) * Poly((1, 1)) ** 4
    assert char_poly_oracle(complete_graph(5)) == expected
    assert char_poly_oracle(path_graph(2)) == Poly((-1, 0, 1))


def test_oracle_size_guard():
    # the guard counts twin classes: q = 19^2 = 361 for G(9,20), and the path
    # P_301 has no twins, so q = n = 301; G(1,100), n = 303, has q = 9
    for g in (build_extremal_graph(9, 20), path_graph(301)):
        with pytest.raises(SizeGuardError, match=f"^oracle limited to 300 twin classes "
                                                 f"\\(got {301 if g.params is None else 361}\\)$"):
            char_poly_oracle(g)
    assert char_poly_oracle(build_extremal_graph(1, 100)) == char_poly_exact(1, 100)


def _bareiss_det(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def reference_char_poly(g: Graph) -> Poly:
    return reference_char_poly_of_matrix(g.adjacency_matrix().tolist())


def reference_char_poly_of_matrix(a) -> Poly:
    """det(xI - A) at x = 0..n, interpolated in the binomial basis C(x, k)."""
    n = len(a)
    values = [
        _bareiss_det([[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)])
        for x in range(n + 1)
    ]
    p = Poly()
    falling = Poly((1,))  # x (x-1) ... (x-k+1)
    for k in range(n + 1):
        p = p + falling * Fraction(values[0], math.factorial(k))
        values = [b - a for a, b in zip(values, values[1:])]
        falling = falling * Poly((-k, 1))
    return p.to_int()


def random_graph(seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    density = rng.uniform(0.05, 0.9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return Graph.from_edges(n, edges)


# Vertex 1 is not adjacent to vertex 0 but vertex 2 is, so the first
# Hessenberg step must swap rows and columns 1 and 2; vertex 3 is isolated,
# so its column is all zero; the triangle 4-5-6 is a second component.
SWAP_GRAPH = Graph.from_edges(7, [(0, 2), (1, 2), (4, 5), (5, 6), (4, 6)])
SPECIAL_GRAPHS = {
    "n=1": Graph.from_edges(1, []),
    "edgeless": Graph.from_edges(6, []),
    "two triangles": Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "pivot swap and zero column": SWAP_GRAPH,
    "K_24": complete_graph(24),
}


def test_reference_char_poly_known_spectra():
    assert reference_char_poly(complete_graph(5)) == Poly((-4, 1)) * Poly((1, 1)) ** 4
    assert reference_char_poly(path_graph(3)) == Poly((0, -2, 0, 1))


@pytest.mark.parametrize("seed", range(16))
def test_oracle_matches_reference_on_random_graphs(seed):
    g = random_graph(seed)
    assert char_poly_oracle(g) == reference_char_poly(g)


@pytest.mark.parametrize("name", SPECIAL_GRAPHS)
def test_oracle_matches_reference_on_special_graphs(name):
    g = SPECIAL_GRAPHS[name]
    assert char_poly_oracle(g) == reference_char_poly(g)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("seed", range(6))
def test_char_poly_mod_small_primes(seed, p):
    # small primes make many pivots vanish mid-reduction, forcing swaps and
    # skipped all-zero columns
    g = random_graph(seed)
    expected = [c % p for c in reference_char_poly(g).coeffs]
    assert _char_poly_mod(g.adjacency_matrix()[None], np.array([p]))[0].tolist() == expected


def test_char_poly_mod_mixed_batch():
    # One batch of 7 x 7 matrices, each modulo its own prime.  At the first
    # column the swap graph needs a row and column swap, K_7 has its pivot in
    # place and the edgeless graph has an all-zero column; the signed random
    # matrices are not symmetric, like the blocks H_t of the oracle at k > 1.
    rng = np.random.default_rng(11)
    signed = [rng.integers(-3, 4, (7, 7)) for _ in range(4)]
    mats = [SWAP_GRAPH.adjacency_matrix(), complete_graph(7).adjacency_matrix(),
            Graph.from_edges(7, []).adjacency_matrix(), *signed]
    batch = [(a, p) for a in mats for p in (2, 3, 5, 7, 11)]
    got = _char_poly_mod(np.stack([a for a, _ in batch]),
                         np.array([p for _, p in batch]))
    for (a, p), row in zip(batch, got.tolist()):
        assert row == [c % p for c in reference_char_poly_of_matrix(a.tolist()).coeffs]


# The literal prime table of the one-block oracle before the primes were
# generated: the sixteen primes just below 2^31, descending.
OLD_ORACLE_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249,
)


def _trial_division_prime(p: int) -> bool:
    odd = np.arange(3, math.isqrt(p) + 1, 2, dtype=np.int64)
    return p == 2 or (p > 2 and p % 2 == 1 and bool(np.all(p % odd != 0)))


def test_oracle_primes_are_prime():
    primes = _oracle_primes(1, 16)
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert 2**30 < p < 2**31
        assert _trial_division_prime(p), p


def test_oracle_primes_for_k1_are_the_old_table():
    assert tuple(_oracle_primes(1, 16)) == OLD_ORACLE_PRIMES


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 15])
def test_oracle_primes_one_mod_k(k):
    primes = _oracle_primes(k, 12)
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 12
    for p in primes:
        assert 2**30 < p < 2**31 and (p - 1) % k == 0
        assert _trial_division_prime(p), (k, p)
    # searched downward from 2^31: no prime = 1 (mod k) is skipped
    for c in range(primes[-1], 2**31, k):
        assert (c in primes) == _trial_division_prime(c), (k, c)


def test_miller_rabin_against_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == [
        n for n in range(3000) if _trial_division_prime(n)]
    # Carmichael numbers and strong pseudoprimes to base 2 (2047, 3277) and
    # to bases 2, 3 and 5 (25326001)
    for n in (561, 1105, 41041, 825265, 2047, 3277, 25326001):
        assert not _is_prime(n), n


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 15])
def test_root_of_unity_has_exact_order_k(k):
    for p in _oracle_primes(k, 4):
        zeta = _root_of_unity(k, p)
        powers = [pow(zeta, j, p) for j in range(1, k + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1], (k, p)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_prime_count_covers_bound(seed):
    # tr(A^2) of an adjacency matrix is twice its edge count
    g = random_graph(seed)
    bound = _coefficient_bound(g.n, 2 * g.edge_count)
    assert all(abs(c) <= bound for c in reference_char_poly(g).coeffs)
    primes = _primes_for(2 * bound)
    assert math.prod(primes) > 2 * bound
    assert math.prod(primes[:-1]) <= 2 * bound  # no prime more than needed


def test_oracle_prime_table_covers_size_guard():
    # the complete graph has the largest bound at any n, where the trace
    # bound is Hadamard's, tr(A^2)/n = n - 1: K_128 needs fifteen primes, and
    # with the check prime they are the old sixteen-entry table, sized for
    # the old guard of 128 vertices
    n = 128
    bound = _coefficient_bound(n, n * (n - 1))
    primes = _primes_for(2 * bound)
    assert math.prod(primes) > 2 * bound
    assert tuple(_oracle_primes(1, len(primes) + 1)) == OLD_ORACLE_PRIMES


def _one_prime_lift(monkeypatch):
    """Lift on one prime from here on; returns the lift lengths the bound asked for."""
    needed = []
    real = charpoly._primes_for

    def one_prime(bound, k=1):
        needed.append(len(real(bound, k)))
        return _oracle_primes(k, 1)

    monkeypatch.setattr(charpoly, "_primes_for", one_prime)
    return needed


# The twin quotient of G(3,8) has coefficients of 49 bits, so one prime near
# 2^31 cannot hold them; its bound asks for four.
def test_oracle_check_prime_catches_short_lift(monkeypatch):
    needed = _one_prime_lift(monkeypatch)
    with pytest.raises(ConsistencyError):
        char_poly_oracle(build_extremal_graph(3, 8))
    assert needed == [4]


def test_block_oracle_check_prime_catches_short_lift(monkeypatch):
    needed = _one_prime_lift(monkeypatch)
    with pytest.raises(ConsistencyError):
        char_poly_oracle(build_extremal_graph(3, 8), 7)
    assert needed == [4]


# The 18 pairs of the default verify sweep with n <= 84.
DEFAULT_SWEEP_PAIRS = [(m, d) for m in range(1, 4) for d in range(2 * m + 2, 2 * m + 9)
                       if (2 * m + 1) * (d + 1) <= 84]
# For m = 1..4, the smallest d and the largest d with n <= 128, the guard
# of the one-block oracle before it shared the block oracle's guard.
GENERIC_ORACLE_EDGE_PAIRS = [
    (m, d) for m in range(1, 5)
    for d in (2 * m + 2, 128 // (2 * m + 1) - 1)
]


@pytest.mark.parametrize("m,d", DEFAULT_SWEEP_PAIRS + GENERIC_ORACLE_EDGE_PAIRS)
def test_block_oracle_equals_generic_oracle(m, d):
    g = build_extremal_graph(m, d)
    assert char_poly_oracle(g, 2 * m + 1) == char_poly_oracle(g)


@pytest.mark.parametrize("m,d", [(1, 99), (2, 59), (7, 19)])
def test_block_oracle_equals_closed_form_at_its_guard(m, d):
    g = build_extremal_graph(m, d)
    assert g.n == ORACLE_SIZE_GUARD
    assert char_poly_oracle(g, 2 * m + 1) == char_poly_exact(m, d)


def test_block_oracle_on_other_block_circulant_graphs():
    # the cycle C_12 in 3 or 4 blocks, K_12 in 6 blocks, and any graph as one block
    cycle = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
    for g, k in [(cycle, 3), (cycle, 4), (complete_graph(12), 6), (SWAP_GRAPH, 1)]:
        assert char_poly_oracle(g, k) == reference_char_poly(g)


@settings(deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=24), st.sets(st.integers(min_value=1, max_value=12)))
def test_oracle_on_circulant_graphs_in_every_block_count(n, jumps):
    # the Cayley graph of Z_n on the connection set {+-j mod n}: its adjacency
    # matrix is circulant, so it is block circulant with k blocks for every
    # divisor k of n
    g = Graph.from_edges(n, {(i, (i + j) % n) for i in range(n) for j in jumps if j % n})
    expected = reference_char_poly(g)
    for k in divisors(n):
        assert char_poly_oracle(g, k) == expected, k


def test_block_oracle_refuses_non_block_circulant():
    g = build_extremal_graph(1, 4)
    # move one cross edge: 0-5 for 1-5 breaks the circulant pattern
    edges = [e for e in g.edges() if e != (1, 5)] + [(0, 5)]
    with pytest.raises(ValueError, match="not block circulant"):
        char_poly_oracle(Graph.from_edges(g.n, edges), 3)
    with pytest.raises(ValueError, match="equal blocks"):
        char_poly_oracle(g, 4)  # 15 vertices
    # twins 0 and 1 make one class in block 0, block 1 has two: q = 3, k = 2
    with pytest.raises(ValueError, match="^adjacency matrix is not block circulant with 2 blocks$"):
        char_poly_oracle(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 2)
    # classes {0,1}, {2} | {3}, {4,5}: S is block circulant, W is not
    twins_moved = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3),
                                       (3, 4), (3, 5), (4, 5)])
    with pytest.raises(ValueError, match="^adjacency matrix is not block circulant with 2 blocks$"):
        char_poly_oracle(twins_moved, 2)
    with pytest.raises(SizeGuardError):
        char_poly_oracle(build_extremal_graph(9, 20), 19)  # 361 twin classes


def test_oracle_imports_nothing_from_the_float_module():
    # the exact oracle is a route of its own: charpoly.py must not import
    # spectral, relatively or absolutely, whatever it binds
    tree = ast.parse(Path(charpoly.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert ".graphs" in imported  # the walk does see the package's imports
    assert not [name for name in imported if "spectral" in name.split(".")]


def test_block_oracle_refuses_a_one_way_row():
    # H_(k-t) = H_t^T only for a symmetric matrix: the directed 3-cycle is
    # circulant in 3 blocks, and C_4 with the one-way entry 0 -> 2 is one block
    cycle3 = Graph(3, ((1,), (2,), (0,)), 3)
    one_way = Graph(4, ((1, 2, 3), (0, 2), (1, 3), (0, 2)), 4)
    # the twins 0 and 1 both see 2, which sees 0 only: the class adjacency
    # is symmetric, but the row of 2 holds half a class
    half_class = Graph(3, ((1, 2), (0, 2), (0,)), 2)
    for g, k in [(cycle3, 3), (cycle3, 1), (one_way, 1), (half_class, 1)]:
        with pytest.raises(ValueError, match="^adjacency matrix is not symmetric$"):
            char_poly_oracle(g, k)


# (k, primes with the check prime, blocks k//2 + 1, block size q/k): the
# twin quotient of G(2,6) has q = 25 classes, C_12 has no twins, K_12 in 6
# blocks has one class of 2 per block, and G(1,4) as one block has q = 9.
@pytest.mark.parametrize("g,k,primes,blocks,size", [
    pytest.param(build_extremal_graph(2, 6), 5, 3, 3, 5, id="G(2,6)"),
    pytest.param(Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)]), 4, 2, 3, 3,
                 id="C_12"),
    pytest.param(complete_graph(12), 6, 2, 4, 1, id="K_12"),
    pytest.param(build_extremal_graph(1, 4), 1, 2, 1, 9, id="G(1,4)"),
])
def test_block_oracle_reduces_half_the_blocks(monkeypatch, g, k, primes, blocks, size):
    # t and k - t give transposed blocks, so each prime reduces t = 0..k//2
    # of the quotient's blocks
    shapes = []
    real = charpoly._char_poly_mod

    def recorded(h, p):
        shapes.append((h.shape, p.shape))
        return real(h, p)

    monkeypatch.setattr(charpoly, "_char_poly_mod", recorded)
    assert char_poly_oracle(g, k) == reference_char_poly(g)
    batch = primes * blocks
    assert shapes == [((batch, size, size), (batch,))]


def planted_twin_graph(seed: int) -> tuple[Graph, list[list[int]]]:
    """A random graph on r <= 6 vertices, each blown up into a clique of 1..4
    closed twins joined to every twin of its neighbours, labels shuffled;
    returns the graph and its planted classes."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 7))
    sizes = rng.integers(1, 5, r)
    labels = rng.permutation(int(sizes.sum())).tolist()
    bounds = np.cumsum(sizes).tolist()
    classes = [labels[end - c:end] for c, end in zip(sizes.tolist(), bounds)]
    base = [(i, j) for i in range(r) for j in range(i + 1, r) if rng.random() < 0.5]
    edges = [(u, v) for members in classes for u in members for v in members if u < v]
    edges += [(u, v) for i, j in base for u in classes[i] for v in classes[j]]
    return Graph.from_edges(len(labels), edges), classes


@pytest.mark.parametrize("seed", range(12))
def test_oracle_divides_out_planted_twins(seed):
    g, classes = planted_twin_graph(seed)
    e, reduced = char_poly_oracle_factored(g)
    # planted classes may merge into larger ones, never split
    assert e >= g.n - len(classes)
    assert reduced * Poly((1, 1)) ** e == char_poly_oracle(g) == reference_char_poly(g)


# seed 11 plants a single vertex, every other seed a class of 2 or more
@pytest.mark.parametrize("seed", range(11))
def test_oracle_splits_a_class_that_loses_an_edge(seed):
    # u and v of a planted class stop being twins without their edge, so the
    # quotient has more classes and still gives the reference polynomial
    g, classes = planted_twin_graph(seed)
    members = max(classes, key=len)
    assert len(members) >= 2
    cut = tuple(sorted(members[:2]))
    split = Graph.from_edges(g.n, [edge for edge in g.edges() if edge != cut])
    assert char_poly_oracle_factored(split)[0] < char_poly_oracle_factored(g)[0]
    assert char_poly_oracle(split) == reference_char_poly(split)


def test_oracle_reads_adjacency_lists_only(monkeypatch):
    def dense(self):
        raise AssertionError("the oracle built the dense adjacency matrix")

    monkeypatch.setattr(Graph, "adjacency_matrix", dense)
    for m, d in [(1, 4), (2, 9)]:
        g = build_extremal_graph(m, d)
        for k in (1, 2 * m + 1):
            assert char_poly_oracle_factored(g, k)[0] == char_poly_exact_blocks(m, d)[0]
            assert char_poly_oracle(g, k) == char_poly_exact(m, d)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


@pytest.mark.parametrize("g,k", [
    pytest.param(Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)]), 4, id="C_12"),
    pytest.param(petersen_graph(), 1, id="Petersen"),
    pytest.param(path_graph(7), 1, id="P_7"),
    pytest.param(Graph.from_edges(7, [(0, 2), (1, 2), (4, 5), (5, 6)]), 1, id="P_3+P_3+K_1"),
])
def test_bound_without_twins_is_the_degree_bound(monkeypatch, g, k):
    # without twins B = A, and the trace bound reads tr(A^2), the degree sum
    assert len({tuple(sorted((v, *row))) for v, row in enumerate(g.adjacency)}) == g.n
    calls = []
    real = charpoly._coefficient_bound

    def recorded(q, trace):
        calls.append((q, trace))
        return real(q, trace)

    monkeypatch.setattr(charpoly, "_coefficient_bound", recorded)
    assert char_poly_oracle(g, k) == reference_char_poly(g)
    assert calls == [(g.n, sum(map(len, g.adjacency)))]


@settings(deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=10**6))
def test_trace_bound_is_the_largest_term(q, trace):
    # the terms C(q,j)^2 (trace/q)^j rise to one peak and fall, so the loop
    # that stops at the peak finds the largest of them all
    terms = [math.isqrt(math.comb(q, j) ** 2 * trace**j // q**j) + 1 for j in range(q + 1)]
    assert _coefficient_bound(q, trace) == max(terms)


def _bound_covers_the_quotient(g, k=1):
    e, reduced = char_poly_oracle_factored(g, k)
    found, bound, _, _ = char_poly_oracle_residues(g, k)
    assert (found, bound) == (e, _coefficient_bound(reduced.degree, _quotient_trace(g, k)))
    assert max(map(abs, reduced.coeffs)) <= bound


def _quotient_trace(g, k):
    # tr(B^2) from the dense quotient B = S W - I, independently of the oracle
    sizes, rows, cols = graphs.closed_twin_quotient(g, k)
    s = np.zeros((len(sizes), len(sizes)), dtype=np.int64)
    s[rows, cols] = 1
    b = s * sizes - np.eye(len(sizes), dtype=np.int64)
    return int(np.trace(b @ b))


@pytest.mark.parametrize("m,d", DESK_SWEEP + [(8, 40)])
def test_trace_bound_covers_the_family_quotient(m, d):
    _bound_covers_the_quotient(build_extremal_graph(m, d), 2 * m + 1)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
       st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))))
def test_trace_bound_covers_planted_twins(sizes, pairs):
    # vertex i blown up into a clique of sizes[i] closed twins, joined to
    # every twin of its neighbours
    starts = np.cumsum([0, *sizes]).tolist()
    classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = [(u, v) for members in classes for u in members for v in members if u < v]
    edges += [(u, v) for i, j in pairs if i < j < len(sizes)
              for u in classes[i] for v in classes[j]]
    _bound_covers_the_quotient(Graph.from_edges(starts[-1], edges))


@pytest.mark.parametrize("m,d", [(1, 4), (2, 13), (3, 20), (5, 12)])
def test_factored_closed_form_expands_to_the_closed_form(m, d):
    # (x+1)^e times F_n for each of the phi(n) blocks t with n = k/gcd(t, k)
    k = 2 * m + 1
    e, factors = char_poly_exact_blocks(m, d)
    assert e == (d - 2 * m) * k and sorted(factors) == list(divisors(k))
    assert all(f.degree == k and f.leading == 1 for f in factors.values())
    product = Poly((1, 1)) ** e
    for t in range(k):
        product = product * factors[k // math.gcd(t, k)]
    assert product == char_poly_exact(m, d)


@pytest.mark.parametrize("shift", [-1, 1])
def test_verify_fails_on_a_moved_prefactor_exponent(monkeypatch, capsys, shift):
    # the oracle counts e = n - q on the graph, so a closed form whose
    # prefactor is off by one fails the check with the same block factors
    real = cli.char_poly_exact_blocks

    def moved(m, d):
        e, factors = real(m, d)
        return e + shift, factors

    monkeypatch.setattr(cli, "char_poly_exact_blocks", moved)
    code = cli.main(["verify", "--m", "2", "--d", "7", "--checks", "charpoly"])
    rows = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert [(r["ok"], r["detail"]) for r in rows] == [
        (False, f"prefactor (x+1)^15 on the graph, (x+1)^{15 + shift} in the closed form")]


def _perturbed_blocks(monkeypatch, target, by):
    """Add `by` to the constant of F_n(x) for n = target in verify's closed form."""
    real = cli.char_poly_exact_blocks

    def perturbed(m, d):
        e, factors = real(m, d)
        factors[target] = factors[target] + by
        return e, factors

    monkeypatch.setattr(cli, "char_poly_exact_blocks", perturbed)


# a factor off by 1 differs modulo the first prime at the first block t with
# that n; off by that prime, it agrees there and differs modulo the second
@pytest.mark.parametrize("m,d,target,offset,t", [
    (3, 10, 7, 0, 1), (3, 10, 1, 0, 0), (3, 10, 7, 1, 1), (8, 20, 17, 0, 1), (4, 11, 3, 0, 3),
])
def test_verify_fails_on_a_perturbed_block_factor(monkeypatch, capsys, m, d, target, offset, t):
    k = 2 * m + 1
    primes = _oracle_primes(k, 2)
    _perturbed_blocks(monkeypatch, target, 1 if offset == 0 else primes[0])
    code = cli.main(["verify", "--m", str(m), "--d", str(d), "--checks", "charpoly"])
    rows = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert [(r["ok"], r["detail"]) for r in rows] == [
        (False, f"chi(H_t) differs from F_n at t={t}, n={target}, p={primes[offset]}")]


def test_verify_refuses_too_few_primes(monkeypatch, capsys):
    # one prime cannot exceed the coefficient bounds of G(3,8): congruence
    # would not prove equality, so the row is an internal error, not a pass
    monkeypatch.setattr(charpoly, "_primes_for", lambda limit, k=1: _oracle_primes(k, 1))
    code = cli.main(["verify", "--m", "3", "--d", "8", "--checks", "charpoly"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "internal error: the product of the primes does not exceed the bounds\n"


@pytest.mark.parametrize("m,d", DESK_SWEEP + [(m, d) for m in range(4, 9)
                                              for d in range(2 * m + 2, 2 * m + 5)])
def test_block_verdict_equals_the_lift_verdict(m, d):
    # verify's block-by-block comparison and the lifted oracle against the
    # expanded closed form agree on every pair
    lifted = char_poly_oracle(build_extremal_graph(m, d), 2 * m + 1) == char_poly_exact(m, d)
    assert cli._check_charpoly(m, d) == [dict(ok=lifted, detail="coefficientwise equal")]


def test_block_verdict_equals_the_lift_verdict_on_a_perturbed_factor(monkeypatch):
    # F_5 + 1 in z is F_5 + 1 in x, so both routes read the same wrong closed form
    real = charpoly._block_factor
    monkeypatch.setattr(charpoly, "_block_factor",
                        lambda n, m, d: real(n, m, d) + (n == 5))
    assert char_poly_oracle(build_extremal_graph(2, 7), 5) != char_poly_exact(2, 7)
    with pytest.raises(CheckFailure, match="^chi\\(H_t\\) differs from F_n at t=1, n=5, p="):
        cli._check_charpoly(2, 7)


def test_poly_mul_mod_matches_schoolbook_at_the_largest_residues():
    # every residue p - 1, so each coefficient product is as large as it gets
    primes = _oracle_primes(1, 3)
    moduli = np.array(primes)
    for a in range(1, 13):
        for b in range(1, 13):
            f = (moduli - 1)[:, None].repeat(a, axis=1)
            g = (moduli - 1)[:, None].repeat(b, axis=1)
            expected = [[sum((p - 1) ** 2 for i in range(a) if 0 <= j - i < b) % p
                         for j in range(a + b - 1)] for p in primes]
            assert _poly_mul_mod(f, g, moduli).tolist() == expected, (a, b)
            assert _poly_mul_mod(g, f, moduli).tolist() == expected, (b, a)


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6)])
def test_degree_d_eigenvalue_simple(m, d):
    p = char_poly_exact(m, d)
    assert p(d) == 0
    assert p.derivative()(d) != 0
    # all other eigenvalues stay strictly below d
    values = eigenvalues_dense(build_extremal_graph(m, d))
    assert values[1] < d - 1e-3


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_char_poly_vanishes_at_dense_eigenvalues(m, d):
    # evaluate exactly in rationals: float Horner on these coefficient sizes
    # is pure cancellation noise
    p = char_poly_exact(m, d)
    dp = p.derivative()
    n = p.degree
    for lam in eigenvalues_dense(build_extremal_graph(m, d)):
        x = Fraction(lam)
        residual = abs(p(x))
        assert residual <= Fraction(n) * Fraction(1, 10**10) * max(1, abs(dp(x)))


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (4, 10)])
def test_factor_grouping_equivalence(m, d):
    # re-assemble the product indexed by j = 1..2m+1 instead of by divisors
    k = 2 * m + 1
    q = Poly((1,))
    for j in range(1, k + 1):
        g = math.gcd(k, j)
        n = k // g
        q = q * (2 * chebyshev_T(n)) ** (g - 1) * bracket_factor(n, m, d)
    half = Poly((Fraction(1, 2), Fraction(1, 2)))
    p = (q.compose(half) * Poly((1, 1)) ** ((d - 2 * m) * k)).to_int()
    assert p == char_poly_exact(m, d)


# a float64 check of the sum identity drifted past 1e-10 for m = 8..14
@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 10, 11, 12])
def test_root_of_unity_identities(m):
    # decided modulo the oracle's first prime for k = 2m+1
    assert verify_root_of_unity_identities(m) == _oracle_primes(2 * m + 1, 1)[0]


def test_root_of_unity_identities_fail_loudly(monkeypatch):
    # T_n + 1 breaks (2 T_n)^g = (x+1) prod D_j
    monkeypatch.setattr(charpoly, "chebyshev_T", lambda n: chebyshev_T(n) + 1)
    with pytest.raises(CheckFailure, match="product identity"):
        verify_root_of_unity_identities(2)


def test_patched_u_breaks_only_the_sum_identity(monkeypatch):
    # U_{n-1} enters only the sum identity, so every product check before
    # the first sum check passes
    monkeypatch.setattr(charpoly, "chebyshev_U", lambda n: chebyshev_U(n) + Poly.x())
    with pytest.raises(CheckFailure, match="root-of-unity sum identity fails"):
        verify_root_of_unity_identities(3)


@pytest.mark.parametrize("m,order", [(1, 1), (4, 1), (4, 3), (7, 3), (7, 5)])
def test_root_of_unity_of_wrong_order_fails(monkeypatch, m, order):
    real_root = charpoly._root_of_unity
    monkeypatch.setattr(charpoly, "_root_of_unity",
                        lambda k, p: pow(real_root(k, p), k // order, p))
    with pytest.raises(CheckFailure, match="identity fails modulo"):
        verify_root_of_unity_identities(m)


def test_root_of_unity_identities_domain():
    with pytest.raises(ParameterDomainError):
        verify_root_of_unity_identities(0)


def test_determinant_identities():
    # decided modulo the oracle's first prime for k = 1
    assert verify_determinant_identities() == _oracle_primes(1, 1)[0] == 2**31 - 1
    # frozen spot value: det(2I + J) = 2^3 + 3*2 = 20 for n = 3
    assert _bareiss_det(_a_i_plus_b_j(np.array([2]), np.array([1]), 3)[0].tolist()) == 20


@pytest.mark.parametrize("n", range(2, 7))
def test_determinant_cases_stay_below_half_the_prime(n):
    a_mat, u, v, a, b = _determinant_cases(n)
    assert 5 <= len(a) <= 20
    for array in (a_mat, u, v, a, b):
        assert array.dtype == np.int64 and np.abs(array).max() <= 3
    dets = [_bareiss_det(x.tolist()) for x in a_mat]
    assert 0 in dets and any(dets)  # singular and non-singular A
    half = (2**31 - 1) // 2
    for x, y in zip(a_mat, u[:, :, None] * v[:, None, :]):
        assert abs(_bareiss_det((x + y).tolist())) < half


def _perturb_kernel_det(monkeypatch, index):
    """Add 1 to c_0 of the kernel's batch entry ``index`` modulo its prime."""
    real = charpoly._char_poly_mod

    def perturbed(h, p):
        polys = real(h, p)
        polys[index, 0] = (polys[index, 0] + 1) % p[index]
        return polys

    monkeypatch.setattr(charpoly, "_char_poly_mod", perturbed)


def test_determinant_lemma_fails_loudly(monkeypatch):
    # batch entry 1 is A + u v^T of the first case
    _perturb_kernel_det(monkeypatch, 1)
    with pytest.raises(CheckFailure, match=r"^matrix determinant lemma fails at n=2, case 0$"):
        verify_determinant_identities()


def test_a_i_plus_b_j_determinant_fails_loudly(monkeypatch):
    # at n = 2 a case holds n + 3 = 5 matrices, the last of them aI + bJ
    _perturb_kernel_det(monkeypatch, 4)
    with pytest.raises(CheckFailure, match=r"^det\(aI\+bJ\) fails at n=2, case 0$"):
        verify_determinant_identities()


def test_a_i_plus_b_j_inverse_fails_loudly(monkeypatch):
    # M -> M U with U unimodular keeps every determinant, so only the
    # product (aI + bJ)((a+nb)I - bJ) = a(a+nb) I breaks
    real = charpoly._a_i_plus_b_j

    def sheared(a, b, n):
        shear = np.eye(n, dtype=np.int64)
        shear[0, -1] = 1
        return real(a, b, n) @ shear

    monkeypatch.setattr(charpoly, "_a_i_plus_b_j", sheared)
    with pytest.raises(CheckFailure, match=r"^inverse of aI\+bJ fails at n=2, case "):
        verify_determinant_identities()


@settings(deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n),
    st.integers(0, n - 1), st.integers(0, n - 1))))
def test_kernel_determinant_matches_bareiss(case):
    # det M = (-1)^n c_0; copying row i over row j (i != j) makes M singular
    rows, i, j = case
    if i != j:
        rows[j] = list(rows[i])
    n, p = len(rows), _oracle_primes(1, 1)[0]
    c0 = _char_poly_mod(np.array([rows], dtype=np.int64), np.array([p]))[0, 0]
    assert (-1) ** n * int(c0) % p == _bareiss_det(rows) % p


def test_u_t_relation_inside_brackets():
    # T_n - (z-1) U_{n-1} appearing in the identities stays consistent with
    # the bracket: B_n = (1-2m) T_n + (2m-d) T_n/z + (2m+1)(z-1)U_{n-1}
    m, d, n = 2, 7, 5
    t, u = chebyshev_T(n), chebyshev_U(n - 1)
    lhs = bracket_factor(n, m, d)
    rhs = (1 - 2 * m) * t + (2 * m - d) * t.shift_down() + (2 * m + 1) * (
        Poly((-1, 1)) * u
    )
    assert lhs == rhs
