"""Chebyshev polynomials of the first and second kind, exact over the integers.

Computed by the three-term recurrence P_{k+1} = 2z P_k - P_{k-1}; the test
suite cross-checks against the explicit binomial sums and the trigonometric
defining identities.
"""

from __future__ import annotations

from .errors import ParameterDomainError
from .polynomials import Poly

_T_CACHE: list[Poly] = [Poly((1,)), Poly((0, 1))]
_U_CACHE: list[Poly] = [Poly((1,)), Poly((0, 2))]


def _extend(cache: list[Poly], n: int) -> Poly:
    if n < 0:
        raise ParameterDomainError(f"Chebyshev index must be >= 0, got {n}")
    two_z = Poly((0, 2))
    while len(cache) <= n:
        cache.append(two_z * cache[-1] - cache[-2])
    return cache[n]


def chebyshev_T(n: int) -> Poly:
    """T_n with integer coefficients; leading coefficient 2^(n-1) for n >= 1."""
    return _extend(_T_CACHE, n)


def chebyshev_U(n: int) -> Poly:
    """U_n with integer coefficients; leading coefficient 2^n."""
    return _extend(_U_CACHE, n)
