"""Exact characteristic polynomial of G(m,d) and its supporting identities.

The closed form is assembled from Chebyshev polynomials: with z = (x+1)/2 and
n ranging over the divisors of 2m+1 (g = (2m+1)/n, each divisor occurring
with multiplicity phi(n)),

    p(x) = (x+1)^((d-2m)(2m+1)) * prod_n [ (2 T_n(z))^(g-1) * B_n(z) ]^phi(n),

where B_n is the degree-n bracket factor produced by ``bracket_factor``.  The
assembly is done in exact integer arithmetic (with q the product over n and
e the exponent of the (x+1) prefactor, one Taylor shift y -> x+1 of the
integer polynomial y^e 2^deg q(y/2), then an exact division by 2^deg) and
must come out integral and monic; anything else is an implementation bug
and raises ConsistencyError.  The shift's n passes are each one prefix sum
(``itertools.accumulate``) over the reversed coefficient list, which pops the
coefficient that pass finished.
``char_poly_exact_blocks`` returns e and each factor F_n = (2 T_n)^(g-1) B_n
shifted into x on its own: the characteristic polynomial of the quotient's
blocks H_t with gcd(t, 2m+1) = g below.

The multi-modular oracle provides the independent cross-check; it reads
neither the Chebyshev algebra nor the float spectral module.  It divides out
the closed twins (equal rows of A + I, within one of the k blocks; any graph
is one block, G(m,d) splits into k = 2m+1) that ``graphs.twin_quotient``
classes from the adjacency lists, once per pair in ``graphs.pair_record``
for a family graph, whose dense spectrum reads it too: chi(A) = (x+1)^(n-q)
chi(B) for the quotient B on the q classes, which for G(m,d) has q =
(2m+1)^2 whatever d is.  The classing checks that A is symmetric; the oracle
checks that B is block circulant, unchanged by a shift of one block along
its diagonal, and modulo each prime p = 1 (mod k) below 2^31 reduces by
Hessenberg reduction the blocks H_t of size q/k into which B splits over F_p
(one batched kernel for all blocks and primes); symmetry pairs H_(k-t) with
H_t, so only t = 0..k//2 are reduced (q <= ORACLE_SIZE_GUARD).
``char_poly_oracle_residues`` returns these residues and the trace bound
C(q,j) (tr(B^2)/q)^(j/2) on chi(B)'s coefficients, valid as B's eigenvalues
are real; ``verify`` compares them block by block with the F_n.
``char_poly_oracle(g, k=1)`` lifts their product by the Chinese remainder
theorem past twice that bound and checks the lift modulo one further prime.

``verify_root_of_unity_identities`` decides the Chebyshev identities behind
the closed form exactly, modulo the oracle's first prime for k = 2m+1;
``verify_determinant_identities`` decides the determinant identities in
integers on fixed cases, its determinants from the oracle's kernel.

The parameter rules have one owner each: ``graphs.check_family_params`` the
family domain, ``check_bracket_params`` the bracket factors' n | 2m+1.

Only the oracle and the two identity suites use numpy, each function
importing it in its own body, so the closed form runs without loading it.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from typing import TYPE_CHECKING

from .chebyshev import chebyshev_T, chebyshev_U
from .errors import (
    CheckFailure,
    ConsistencyError,
    ParameterDomainError,
    SizeGuardError,
)
from .graphs import Graph, check_family_params, twin_quotient
from .polynomials import Poly

if TYPE_CHECKING:
    import numpy as np

ORACLE_SIZE_GUARD = 300

# The oracle primes p = 1 (mod k) below 2^31, descending, listed per k as far
# as some call has needed them.  k = 1 gives the primes just below 2^31.
_ORACLE_PRIMES: dict[int, list[int]] = {}


@cache
def divisors(k: int) -> tuple[int, ...]:
    """The positive divisors of k, ascending, computed once per k."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return (*small, *(k // d for d in reversed(small) if d * d != k))


def euler_phi(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def check_bracket_params(n: int, m: int, d: int) -> None:
    """Raise ParameterDomainError outside the family's domain or unless n divides 2m+1."""
    check_family_params(m, d)
    if n < 1 or (2 * m + 1) % n != 0:
        raise ParameterDomainError(f"n={n} must be a positive divisor of 2m+1={2 * m + 1}")


def bracket_factor(n: int, m: int, d: int) -> Poly:
    """The degree-n factor B_n(z) = (-2m+1)T_n + (2m-d)T_n/z + (2m+1)(z-1)U_{n-1}.

    Defined for n dividing 2m+1 (such n is odd, T_n is odd, so T_n/z is a
    polynomial).  Leading coefficient is 2^n.
    """
    check_bracket_params(n, m, d)
    t_n = chebyshev_T(n)
    u_prev = chebyshev_U(n - 1)
    z = Poly.x()
    return (
        (-2 * m + 1) * t_n
        + (2 * m - d) * t_n.shift_down()
        + (2 * m + 1) * ((z - 1) * u_prev)
    )


def char_poly_exact(m: int, d: int) -> Poly:
    """Closed-form characteristic polynomial of G(m,d), exact and monic in x."""
    return _closed_form(m, d)


def char_poly_exact_blocks(m: int, d: int) -> tuple[int, dict[int, Poly]]:
    """(e, f) with char_poly_exact(m, d) = (x+1)^e prod_t f[k/gcd(t, k)] over
    t = 0..k-1, k = 2m+1 and e = (d-2m)k: f[n] is F_n(x), the factor of each
    divisor n of k shifted into x on its own, the characteristic polynomial
    of the quotient's circulant block H_t wherever gcd(t, k) = k/n."""
    check_family_params(m, d)
    k = 2 * m + 1
    return (d - 2 * m) * k, {n: _monic_in_x(_block_factor(n, m, d), 0, k) for n in divisors(k)}


def _block_factor(n: int, m: int, d: int) -> Poly:
    """F_n(z) = (2 T_n(z))^(g-1) B_n(z), g = (2m+1)/n: degree 2m+1, leading 2^(2m+1)."""
    return (2 * chebyshev_T(n)) ** ((2 * m + 1) // n - 1) * bracket_factor(n, m, d)


def _closed_form(m: int, d: int) -> Poly:
    """(x+1)^e times the product over the divisors n of 2m+1, exact and monic."""
    check_family_params(m, d)
    k = 2 * m + 1
    q = Poly((1,))
    for n in divisors(k):
        q = q * _block_factor(n, m, d) ** euler_phi(n)
    return _monic_in_x(q, (d - 2 * m) * k, k * k)


def _monic_in_x(q: Poly, e: int, degree: int) -> Poly:
    """(x+1)^e q((x+1)/2) for q in z of the given degree, leading 2^degree,
    which must come out integral and monic of degree e + degree."""
    # substitute z = (x+1)/2 in integers: y^e 2^deg q(y/2) has the integer
    # coefficients q_j 2^(deg-j) shifted up by e, and its Taylor shift
    # y = x+1 is 2^deg (x+1)^e q((x+1)/2), which must divide exactly by 2^deg
    deg = q.degree
    scaled = [0] * e + [c << (deg - j) for j, c in enumerate(q.coeffs)]
    shifted = _taylor_shift_1(scaled)
    if any(c & ((1 << deg) - 1) for c in shifted):
        raise ConsistencyError("characteristic polynomial has a non-integer coefficient")
    p = Poly([c >> deg for c in shifted])
    if p.degree != degree + e or p.leading != 1:
        raise ConsistencyError(
            f"expected monic of degree {degree + e}, got degree {p.degree}, "
            f"leading {p.leading}"
        )
    return p


def _taylor_shift_1(coeffs: list[int]) -> list[int]:
    """Ascending coefficients of f(x+1) from those of f, in integer additions:
    pass i of the classical scheme puts the sum of a[j:] into each a[j], j >= i,
    which on the reversed list is one ``accumulate`` over its first len - i.
    Its last entry is then final, the x^i coefficient, and is popped off, so
    the next pass runs over the rest without a slice copy."""
    r = coeffs[::-1]
    shifted = []
    while r:
        r = list(accumulate(r))
        shifted.append(r.pop())
    return shifted


def char_poly_oracle(g: Graph, k: int = 1) -> Poly:
    """Characteristic polynomial of a graph, exact, multi-modularly: the
    (x+1)^e r of ``char_poly_oracle_factored`` expanded."""
    e, reduced = char_poly_oracle_factored(g, k)
    return reduced * Poly((1, 1)) ** e


def char_poly_oracle_residues(g: Graph, k: int = 1, other: int | None = None
                              ) -> tuple[int, int, list[int], np.ndarray]:
    """(e, bound, primes, residues) with chi(A) = (x+1)^e chi(B) for the
    adjacency matrix A, residues[j, t] = chi(H_t) modulo primes[j] for
    t = 0..k//2 and bound >= |c| for each coefficient c of chi(B).

    ``graphs.twin_quotient(g, k)`` classes the closed twins (equal rows of
    A + I) by their row and their block v // (n/k), and refuses an
    asymmetric A.  A class of c twins carries c - 1 eigenvalues -1, and on
    the class-constant vectors A acts as B = S W - I, S the 0/1 class
    adjacency (S_ii = 1) and W the diagonal of class sizes: e = n - q for q
    classes; without twins B = A.  B must be block circulant, S and W
    unchanged by a shift of one block (q/k classes, k | q) along the
    diagonal, s_i the (0, i) block of S; anything else raises ValueError.
    q above ORACLE_SIZE_GUARD is refused before S is allocated.

    Modulo a prime p = 1 (mod k) with zeta of order k, B is similar to the
    block-diagonal matrix of the H_t = (sum_i zeta^(ti) s_i) W_0 - I (Davis,
    Circulant Matrices, 1979).  s_(k-i) = s_i^T makes H_(k-t) similar to the
    transpose of H_t, so only t = 0..k//2 are reduced.  B is similar to the
    symmetric W^(1/2) S W^(1/2) - I, whose trace bound (``_coefficient_bound``)
    is bound.  The primes = 1 (mod k) are the fewest whose product exceeds
    bound + other, other bounding the coefficients compared with; without
    other, twice the bound, for a symmetric lift, and one prime to check it.
    """
    import numpy as np

    sizes, rows, cols = twin_quotient(g, k)
    q = len(sizes)
    if q > ORACLE_SIZE_GUARD:
        raise SizeGuardError(f"oracle limited to {ORACLE_SIZE_GUARD} twin classes (got {q})")
    adjacent = np.zeros((q, q), dtype=np.int64)
    adjacent[rows, cols] = 1
    size = q // k
    if not (q == k * size
            and np.array_equal(adjacent, np.roll(adjacent, size, axis=(0, 1)))
            and np.array_equal(sizes, np.roll(sizes, size))):
        raise ValueError(f"adjacency matrix is not block circulant with {k} blocks")
    # flat[i] is s_i, the (0, i) block of S, read row by row
    flat = adjacent[:size].reshape(size, k, size).swapaxes(0, 1).reshape(k, size * size)
    # tr(B^2) = sum over the unit entries of S of c_i c_j, less 2 c_i and
    # plus 1 for each diagonal one; without twins, twice the edge count
    bound = _coefficient_bound(q, int((sizes[rows] * sizes[cols]).sum()) - 2 * g.n + q)
    if other is None:
        primes = _oracle_primes(k, len(_primes_for(2 * bound, k)) + 1)
    else:
        primes = _primes_for(bound + other, k)
    # twiddle[j, t, i] = zeta_j^(t*i) modulo primes[j] for t = 0..k//2;
    # entries of s_i are 0 or 1, so each sum over i stays below k * 2^31
    half = k // 2
    exponents = np.outer(np.arange(half + 1), np.arange(k)) % k
    zetas = [_root_of_unity(k, p) for p in primes]
    twiddle = np.array([[pow(zeta, e, p) for e in range(k)]
                        for zeta, p in zip(zetas, primes)], dtype=np.int64)[:, exponents]
    block_primes = np.repeat(primes, half + 1)
    # the columns of each Sigma_t scaled by W_0, then minus I
    h = (twiddle @ flat).reshape(len(block_primes), size, size)
    h = h % block_primes[:, None, None] * sizes[:size]
    h[:, np.arange(size), np.arange(size)] -= 1
    residues = _char_poly_mod(h, block_primes).reshape(len(primes), half + 1, size + 1)
    return g.n - q, bound, primes, residues


def char_poly_oracle_factored(g: Graph, k: int = 1) -> tuple[int, Poly]:
    """(e, r) with chi(A) = (x+1)^e r, exact: the residues of
    ``char_poly_oracle_residues`` multiplied per prime, chi(H_0) chi(H_t)^2
    over 0 < t < k/2 (times chi(H_(k/2)) for even k), lifted by the
    symmetric Chinese remainder theorem and checked modulo the last prime."""
    import numpy as np

    e, _, primes, polys = char_poly_oracle_residues(g, k)
    moduli = np.array(primes)
    product = polys[:, 0]
    if k > 2:
        paired = polys[:, 1]
        for t in range(2, (k + 1) // 2):
            paired = _poly_mul_mod(paired, polys[:, t], moduli)
        product = _poly_mul_mod(product, _poly_mul_mod(paired, paired, moduli), moduli)
    if k % 2 == 0:
        product = _poly_mul_mod(product, polys[:, k // 2], moduli)
    *rows, check = product.tolist()

    lift = primes[:-1]
    modulus = math.prod(lift)
    # basis[i] is 1 modulo lift[i] and 0 modulo the others
    basis = [(modulus // p) * pow(modulus // p, -1, p) for p in lift]
    coeffs = []
    for column in zip(*rows):
        c = sum(r * b for r, b in zip(column, basis)) % modulus
        coeffs.append(c - modulus if c > modulus // 2 else c)
    if [c % primes[-1] for c in coeffs] != check:
        raise ConsistencyError(
            f"lifted characteristic polynomial disagrees with its residue "
            f"modulo the check prime {primes[-1]}"
        )
    return e, Poly(coeffs)


def _coefficient_bound(q: int, trace: int) -> int:
    """Integer T >= |c| for every coefficient c of the characteristic
    polynomial of a q x q matrix with real eigenvalues whose squares sum to
    trace, tr(B^2) (twice the edge count for an adjacency matrix).

    The coefficient of x^(q-j) is +-e_j of the eigenvalues, at most e_j of
    their absolute values, which by Maclaurin's and the power-mean
    inequality is at most C(q,j) (trace/q)^(j/2).  Its square's ratio from j
    to j+1, ((q-j)/(j+1))^2 trace/q, falls as j rises, so the largest is the
    first j at which that ratio is at most 1, or j = q.
    """
    j = 0
    while j < q and (q - j) ** 2 * trace > (j + 1) ** 2 * q:
        j += 1
    return math.isqrt(math.comb(q, j) ** 2 * trace**j // q**j) + 1


def _primes_for(limit: int, k: int = 1) -> list[int]:
    """The fewest oracle primes = 1 (mod k) whose product exceeds limit."""
    primes: list[int] = []
    while math.prod(primes) <= limit:
        primes = _oracle_primes(k, len(primes) + 1)
    return primes


def _oracle_primes(k: int, count: int) -> list[int]:
    """The first count primes p = 1 (mod k) below 2^31, searched downward."""
    primes = _ORACLE_PRIMES.setdefault(k, [])
    candidate = primes[-1] - k if primes else (2**31 - 2) // k * k + 1
    while len(primes) < count:
        if _is_prime(candidate):
            primes.append(candidate)
        candidate -= k
    return primes[:count]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, bases 2, 3, 5, 7: exact below 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _root_of_unity(k: int, p: int) -> int:
    """The first g^((p-1)/k) of exact multiplicative order k modulo the prime p."""
    factors = [q for q in divisors(k) if _is_prime(q)]
    for g in range(1, p):
        zeta = pow(g, (p - 1) // k, p)
        if all(pow(zeta, k // q, p) != 1 for q in factors):
            return zeta
    raise ValueError(f"no element of order {k} modulo {p}")


def _char_poly_mod(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a batch of integer matrices, each mod its prime.

    h has shape (B, s, s) and p shape (B,); row b of the (B, s+1) result is
    the ascending characteristic polynomial of h[b] modulo p[b].  Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.2.9: reduce to
    upper Hessenberg form by similarity over F_p, then expand along the
    columns, one column for the whole batch at a time.  Every product of two
    residues is reduced modulo p before it enters a sum, so int64 never
    overflows for p < 2^31.
    """
    import numpy as np

    batch, s = h.shape[0], h.shape[-1]
    p = np.asarray(p, dtype=np.int64)
    p1, p2 = p[:, None], p[:, None, None]
    h = h % p2
    for j in range(s - 2):
        nonzero = h[:, j + 1:, j] != 0
        if not nonzero.any():
            continue  # column j is already in Hessenberg form in every matrix
        first = nonzero.argmax(axis=1)
        # a matrix whose column j is already in Hessenberg form gets pivot 0,
        # inverse 0 and so a zero update
        swap = np.flatnonzero(first)
        if swap.size:
            i = j + 1 + first[swap]
            h[swap, j + 1], h[swap, i] = h[swap, i], h[swap, j + 1]
            h[swap, :, j + 1], h[swap, :, i] = h[swap, :, i], h[swap, :, j + 1]
        inverse = np.array([pow(x, -1, q) if x else 0
                            for x, q in zip(h[:, j + 1, j].tolist(), p.tolist())],
                           dtype=np.int64)
        u = h[:, j + 2:, j] * inverse[:, None] % p1
        # rows j+2.. minus u times row j+1, then column j+1 plus the columns
        # j+2.. weighted by u: a similarity L^-1 h L that clears column j
        h[:, j + 2:, j:] = (h[:, j + 2:, j:]
                            - u[:, :, None] * h[:, None, j + 1, j:] % p2) % p2
        h[:, :, j + 1] = (h[:, :, j + 1]
                          + (h[:, :, j + 2:] * u[:, None, :] % p2).sum(axis=2)) % p1

    # polys[:, k] holds the characteristic polynomial of the leading k x k
    # block; sub[:, i] is the product of the subdiagonal entries
    # h[i+1,i] .. h[k-1,k-2], which is 0 in every matrix for i < start
    polys = np.zeros((batch, s + 1, s + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    sub = np.zeros((batch, 0), dtype=np.int64)
    start = 0
    for k in range(1, s + 1):
        col = k - 1
        if k > 1:
            if not h[:, col, col - 1].any():
                start = col
            sub = np.append(sub, np.ones((batch, 1), dtype=np.int64), axis=1)
            sub = sub * h[:, col, col - 1, None] % p1
        prev = polys[:, k - 1, :k]
        nxt = polys[:, k]
        nxt[:, 1:k + 1] = prev
        nxt[:, :k] -= h[:, col, col, None] * prev % p1
        weights = h[:, start:col, col] * sub[:, start:] % p1
        nxt[:, :col] -= (weights[:, :, None] * polys[:, start:col, :col] % p2).sum(axis=1)
        nxt %= p1
    return polys[:, s]


def _poly_mul_mod(f: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise products of ascending polynomials f[b] * g[b] modulo p[b].

    The table of reduced coefficient products, shorter factor (length b) down
    the rows, padded to rows of a+b and read back in rows of a+b-1, has row j
    shifted right by j, so its column sums are the product: P*b*(a+b) memory.
    """
    import numpy as np

    if g.shape[1] > f.shape[1]:
        f, g = g, f
    batch, a, b = f.shape[0], f.shape[1], g.shape[1]
    table = np.zeros((batch, b, a + b), dtype=np.int64)
    table[:, :, :a] = g[:, :, None] * f[:, None, :] % p[:, None, None]
    skew = table.reshape(batch, -1)[:, :b * (a + b - 1)].reshape(batch, b, a + b - 1)
    return skew.sum(axis=1) % p[:, None]


def verify_root_of_unity_identities(m: int) -> int:
    """Decide the Chebyshev product and sum identities at the roots of unity exactly.

    For every (2m+1)-th root of unity zeta^t with g = gcd(2m+1, t),
    n = (2m+1)/g, c_j = zeta^(tj) + zeta^(-tj), D_j = x^2+2x-1+c_j and
    z = (x+1)/2:

      (x+1) prod_{j<=m} D_j = (2 T_n(z))^g
      sum_{j<=m} (2x+c_j)/D_j = -1/(2z) + (2m+1)(T_n(z)-(z-1)U_{n-1}(z)) / (2 T_n(z))

    At t = 1, D_j = 4(z^2 - sin^2(pi j/(2m+1))), so the first is the
    odd-index product form T_{2m+1}(z)/z = 4^m prod (z^2 - sin^2(pi j/(2m+1))).
    With P = prod D_j and S/P the sum on the left, the second multiplied out
    is 2 T_n (x+1) S = (2m+1)(x+1) P (T_n - (z-1)U_{n-1}) - 2 T_n P.  Both
    are polynomial identities of degree at most 4m+2 in x, so they hold in
    F_p[x] once they hold at the 4m+3 points x = 0..4m+2; t and 2m+1-t give
    the same c_j, so t runs over 1..m and 2m+1.  p is the oracle's first prime
    = 1 (mod 2m+1) and zeta an element of order 2m+1 modulo p.  Sending a
    primitive root of unity to zeta (and 1/2 to its inverse) is a ring
    homomorphism into F_p, so identities that hold over the complex numbers
    hold modulo p: one prime cannot report a false failure.  Returns p;
    raises CheckFailure naming the identity, t and x that fail.
    """
    import numpy as np

    if m < 1:
        raise ParameterDomainError(f"need m >= 1, got m={m}")
    k = 2 * m + 1
    p = _oracle_primes(k, 1)[0]
    zeta = _root_of_unity(k, p)
    powers = np.array([pow(zeta, e, p) for e in range(k)], dtype=np.int64)
    x = np.arange(4 * m + 3, dtype=np.int64)
    z = (x + 1) * ((p + 1) // 2) % p
    quadratic = x * x + 2 * x - 1
    for n in divisors(k):
        g = k // n
        ts = [t for t in (*range(1, m + 1), k) if math.gcd(t, k) == g]
        # c[i, j-1] = zeta^(t_i j) + zeta^(-t_i j); every product of two
        # residues is reduced modulo p before it enters a sum
        exponents = np.outer(ts, np.arange(1, m + 1)) % k
        c = (powers[exponents] + powers[-exponents % k]) % p
        prod = np.ones((len(ts), x.size), dtype=np.int64)
        s = np.zeros_like(prod)
        for j in range(m):
            cj = c[:, j, None]
            den = (quadratic + cj) % p
            s = (s * den % p + (2 * x + cj) % p * prod % p) % p
            prod = prod * den % p
        t_n = _evaluate_mod(chebyshev_T(n), z, p)
        u = _evaluate_mod(chebyshev_U(n - 1), z, p)
        two_t = 2 * t_n % p
        sides = {
            "product": ((x + 1) * prod % p,
                        np.array([pow(v, g, p) for v in two_t.tolist()])),
            "sum": (two_t * ((x + 1) * s % p) % p,
                    (k * (x + 1) % p * prod % p * ((t_n - (z - 1) * u) % p)
                     - two_t * prod % p) % p),
        }
        for name, (lhs, rhs) in sides.items():
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                i, point = bad[0]
                raise CheckFailure(f"root-of-unity {name} identity fails modulo {p} "
                                   f"at t={ts[i]}, x={point}")
    return p


def _evaluate_mod(f: Poly, z: np.ndarray, p: int) -> np.ndarray:
    """f(z) modulo p at each entry of z (entries in [0, p)), by Horner's rule."""
    import numpy as np

    out = np.zeros_like(z)
    for c in reversed(f.coeffs):
        out = (out * z + c % p) % p
    return out


def verify_determinant_identities() -> int:
    """Decide the determinant identities behind the closed form exactly, in integers.

    For n = 2..6, on the fixed cases of ``_determinant_cases`` (A singular in
    half of them), with A_i the matrix A whose column i is replaced by u and
    J the all-ones matrix, checks the division-free forms, which hold for
    singular A and aI + bJ too:

      det(A + u v^T) = det A + sum_i v_i det A_i        (the lemma, by Cramer's rule)
      det(aI + bJ) = a^n + n a^(n-1) b
      (aI + bJ)((a+nb)I - bJ) = a(a+nb) I               (the inverse of aI + bJ)

    Every determinant is (-1)^n c_0 of the characteristic polynomial from
    the oracle kernel ``_char_poly_mod`` modulo the oracle's first prime
    p = 2^31 - 1, one batched call per n.  The entries of A, u, v, a and b
    lie in [-3, 3], so no matrix entry exceeds 12 in absolute value.  By
    Hadamard's inequality every determinant is below (12 sqrt 6)^6 < 6.5e8
    and the lemma's right side below 19 (3 sqrt 6)^6 < 3e6 in absolute
    value, so both sides of each identity are below p/2 and agree in Z once
    they agree modulo p; the inverse is compared in int64.
    Returns p; raises CheckFailure naming the identity, n and case that fail.
    """
    import numpy as np

    p = _oracle_primes(1, 1)[0]
    for n in range(2, 7):
        a_mat, u, v, a, b = _determinant_cases(n)
        # replaced[c, i] is A_i of case c
        replaced = np.where(np.eye(n, dtype=bool)[:, None], u[:, None, :, None], a_mat[:, None])
        updated = a_mat + u[:, :, None] * v[:, None, :]
        # per case: A, A + u v^T, A_0 .. A_(n-1), aI + bJ
        batch = np.concatenate([a_mat[:, None], updated[:, None], replaced,
                                _a_i_plus_b_j(a, b, n)[:, None]], axis=1)
        flat = batch.reshape(-1, n, n)
        c0 = _char_poly_mod(flat, np.full(len(flat), p))[:, 0]
        dets = c0.reshape(-1, n + 3) * (-1) ** n % p
        sides = {
            "matrix determinant lemma":
                (dets[:, 1], (dets[:, 0] + (v % p * dets[:, 2:-1] % p).sum(axis=1)) % p),
            "det(aI+bJ)": (dets[:, -1], (a**n + n * a ** (n - 1) * b) % p),
            "inverse of aI+bJ": (_a_i_plus_b_j(a, b, n) @ _a_i_plus_b_j(a + n * b, -b, n),
                                 (a * (a + n * b))[:, None, None] * np.eye(n, dtype=np.int64)),
        }
        for name, (lhs, rhs) in sides.items():
            bad = np.flatnonzero((lhs != rhs).reshape(len(a), -1).any(axis=1))
            if bad.size:
                raise CheckFailure(f"{name} fails at n={n}, case {bad[0]}")
    return p


def _determinant_cases(n: int) -> tuple[np.ndarray, ...]:
    """Eight fixed cases of size n: A, u, v, a and b, integers in [-3, 3].

    The entries run through k^2 mod 101 mod 7 - 3 over consecutive k; in the
    even cases the last row of A repeats its first, so that A is singular.
    """
    import numpy as np

    width = n * n + 2 * n + 2
    k = np.arange(8 * width, dtype=np.int64).reshape(8, width) + 11 * n
    entries = k * k % 101 % 7 - 3
    a_mat = entries[:, :n * n].reshape(8, n, n)
    a_mat[::2, -1] = a_mat[::2, 0]
    u, v = entries[:, n * n:n * n + n], entries[:, n * n + n:-2]
    return a_mat, u, v, entries[:, -2], entries[:, -1]


def _a_i_plus_b_j(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The batch of n x n matrices a[c] I + b[c] J."""
    import numpy as np

    return a[:, None, None] * np.eye(n, dtype=np.int64) + b[:, None, None]
