"""Fourth-power root bounds for the bracket factors of the characteristic polynomial.

One Graeffe step to fourth powers bounds the largest root z_0 of a monic,
real-rooted polynomial by (sum of fourth powers of the roots)^(1/4), and that
power sum is a polynomial in the five leading coefficients:

    z_0^4 <= -4a_{n-4} + 4a_{n-3}a_{n-1} + 2a_{n-2}^2 - 4a_{n-2}a_{n-1}^2 + a_{n-1}^4.

For the bracket factor B_n(z)/2^n of G(m,d) the five leading coefficients
have the closed form in ``factor_leading_coeffs``, giving the explicit bound
``largest_root_bound``.  The quartic inequality in ``check_root_bound_inequality``
(decided exactly by integer cross-multiplication) then places every bracket
root, and hence lambda_2 = 2 z_0 - 1, strictly below d - (2m+1)/(d+3).

Each parameter rule has one owner: ``graphs.check_family_params`` owns the
family domain, ``charpoly.check_bracket_params`` n | 2m+1 and ``quartic_guard``
m >= 2.  Graeffe adds only n != 1, as the bound needs degree at least 3.
``root_bound_radicands`` gives the integer radicands Q_n of a pair's every
factor n != 1, ascending in n, after one family check; their order and
``root_bound_inequality_holds`` on the last decide both root-bound facts in
integers, in the pipeline and in ``verify``'s rootbound row alike.

A float check raises CheckFailure at the comparison that fails, so a returned
report holds only measured values, never a verdict flag.

Only ``leading_coeffs_of`` and ``factor_leading_coeffs`` build Fractions.
No command calls either, so each imports ``fractions`` in its own body and
the CLI starts without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .charpoly import bracket_factor, check_bracket_params, divisors
from .errors import CheckFailure, ParameterDomainError
from .graphs import check_family_params
from .polynomials import Poly
from .spectral import BOUND_SLACK, lambda2, lambda2_window

if TYPE_CHECKING:
    from fractions import Fraction

REAL_ROOT_TOL = 1e-9


class LeadingCoeffs(NamedTuple):
    """Coefficients a_{n-1}..a_{n-4} of a monic degree-n polynomial, exact.

    ``a4`` (the z^(n-4) coefficient) is 0 by convention when n == 3.
    """

    n: int
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction


def leading_coeffs_of(p: Poly) -> LeadingCoeffs:
    """Extract the five leading coefficients of a monic polynomial of degree >= 3."""
    from fractions import Fraction

    n = p.degree
    if n < 3:
        raise ParameterDomainError(f"need degree >= 3, got {n}")
    if p.leading != 1:
        raise ParameterDomainError("polynomial must be monic")
    get = lambda k: Fraction(p[k]) if k >= 0 else Fraction(0)
    return LeadingCoeffs(n, get(n - 1), get(n - 2), get(n - 3), get(n - 4))


def graeffe_radicand(c: LeadingCoeffs) -> Fraction:
    """The fourth-power sum expression; equals sum of roots^4 for real-rooted input."""
    return (
        -4 * c.a4
        + 4 * c.a3 * c.a1
        + 2 * c.a2 * c.a2
        - 4 * c.a2 * c.a1 * c.a1
        + c.a1**4
    )


def graeffe_bound(c: LeadingCoeffs) -> float:
    """Upper bound for the largest root of any monic real-rooted polynomial
    whose five leading coefficients match c."""
    radicand = graeffe_radicand(c)
    if radicand < 0:
        raise ParameterDomainError(
            f"negative radicand {radicand}: input is not real-rooted"
        )
    return float(radicand) ** 0.25


def _check_factor_params(n: int, m: int, d: int) -> None:
    check_bracket_params(n, m, d)
    if n == 1:
        raise ParameterDomainError("the Graeffe bound needs degree n >= 3, got n=1")


def factor_leading_coeffs(n: int, m: int, d: int) -> LeadingCoeffs:
    """Closed-form five leading coefficients of the monic bracket factor B_n/2^n."""
    from fractions import Fraction

    _check_factor_params(n, m, d)
    return LeadingCoeffs(
        n,
        Fraction(-(d + 1), 2),
        Fraction(2 * m + 1 - n, 4),
        Fraction(d * n + n - 4 * m - 2, 8),
        Fraction((n - 4 * m - 2) * (n - 3), 32),
    )


def _radicand(n: int, m: int, d: int) -> int:
    # d^4 + 4d^3 - (8m-2)d^2 + 4d + 8m^2 - 8m + 6n - 5, by Horner's rule in d
    return (((d + 4) * d - (8 * m - 2)) * d + 4) * d + 8 * m * m - 8 * m + 6 * n - 5


def root_bound_radicands(m: int, d: int) -> list[int]:
    """The radicands Q_n of every divisor n != 1 of 2m+1, ascending in n.

    One family check covers the whole pair: every such n is a divisor of
    2m+1 other than 1, which is all ``largest_root_bound`` adds to it.
    """
    check_family_params(m, d)
    return [_radicand(n, m, d) for n in divisors(2 * m + 1)[1:]]


def largest_root_bound(n: int, m: int, d: int) -> float:
    """Explicit Graeffe bound for the largest root of the bracket factor B_n.

    Increasing in n, so n = 2m+1 dominates the whole divisor family.
    """
    _check_factor_params(n, m, d)
    return 0.5 * _radicand(n, m, d) ** 0.25


def quartic_guard(m: int, d: int) -> str | None:
    """Why the quartic inequality does not apply to a family pair, or None:
    at m = 1 the bound fails by a hair, and a separate argument is used."""
    check_family_params(m, d)
    return "quartic inequality applies for m >= 2" if m < 2 else None


def check_root_bound_inequality(m: int, d: int) -> bool:
    """Exact test of Q^(1/4) < d - (2m+1)/(d+3) + 1 with Q the n=2m+1 radicand.

    Compared as Q (d+3)^4 < ((d+1)(d+3) - (2m+1))^4, which is Q < RHS^4 with
    the positive denominator (d+3)^4 cleared, in integers, so the verdict
    carries no floating-point uncertainty.  Defined where ``quartic_guard``
    returns None: d >= 2m+2 >= 6.
    """
    if (reason := quartic_guard(m, d)) is not None:
        raise ParameterDomainError(reason)
    return root_bound_inequality_holds(_radicand(2 * m + 1, m, d), m, d)


def root_bound_inequality_holds(q: int, m: int, d: int) -> bool:
    """The verdict of ``check_root_bound_inequality`` from the n = 2m+1
    radicand q of a pair that the caller has already checked."""
    return q * (d + 3) ** 4 < ((d + 1) * (d + 3) - (2 * m + 1)) ** 4


def fn_max_root(n: int, m: int, d: int) -> float:
    """Largest root of the bracket factor B_n via its balanced companion matrix.

    All roots must come out real (residual imaginary parts below REAL_ROOT_TOL);
    anything else is reported as a check failure since B_n divides the
    characteristic polynomial of a symmetric matrix.
    """
    import numpy as np

    _check_factor_params(n, m, d)
    coeffs = bracket_factor(n, m, d).float_coeffs()[::-1]
    roots = np.roots(coeffs)
    max_imag = float(np.max(np.abs(roots.imag) / np.maximum(1.0, np.abs(roots))))
    if max_imag > REAL_ROOT_TOL:
        raise CheckFailure(
            f"bracket factor n={n}, (m,d)=({m},{d}) produced a complex root "
            f"(relative imaginary part {max_imag:.3e})"
        )
    return float(np.max(roots.real))


class FactorRow(NamedTuple):
    n: int
    max_root: float
    root_bound: float


class PipelineReport(NamedTuple):
    """Per-factor root bounds plus the global second-eigenvalue measurements."""

    m: int
    d: int
    lam2: float
    window: tuple[float, float]
    rows: tuple[FactorRow, ...]
    quartic_exact_ok: bool | None
    consistency_gap: float


def verify_upper_bound_pipeline(m: int, d: int) -> PipelineReport:
    """Run the whole root-bound pipeline for G(m,d) and cross-check lambda_2.

    The radicands Q_n, read once, decide in integers what ``verify``'s
    rootbound row decides: they ascend in n (equal neighbours allowed), and
    unless ``quartic_guard`` objects the quartic inequality holds at the last.
    Each largest bracket root must respect its bound Q_n^(1/4) / 2 and map
    below the upper window edge under x = 2z - 1, and lambda_2 from the dense
    spectrum must equal the largest root image.  Raises CheckFailure at the
    first violation.
    """
    where = f"root-bound pipeline failed for (m,d)=({m},{d})"
    lam2_val = lambda2(m, d)  # raises if the window itself fails
    window = lambda2_window(m, d)
    radicands = root_bound_radicands(m, d)
    if radicands != sorted(radicands):
        raise CheckFailure(f"{where}: radicands {radicands} fall as n rises")
    rows: list[FactorRow] = []
    for n, q in zip(divisors(2 * m + 1)[1:], radicands):
        z0 = fn_max_root(n, m, d)
        bound = 0.5 * q**0.25
        if not z0 <= bound + BOUND_SLACK:
            raise CheckFailure(f"{where}: n={n} root {z0} above its bound {bound}")
        if not 2 * z0 - 1 < window[1] + BOUND_SLACK:
            raise CheckFailure(f"{where}: n={n} image {2 * z0 - 1} not below {window[1]}")
        rows.append(FactorRow(n, z0, bound))
    quartic_ok = None if quartic_guard(m, d) else root_bound_inequality_holds(radicands[-1], m, d)
    if quartic_ok is False:
        raise CheckFailure(f"{where}: the exact quartic inequality fails")
    gap = abs(lam2_val - max(2 * row.max_root - 1 for row in rows))
    if not gap < 1e-6:
        raise CheckFailure(f"{where}: lambda2 {lam2_val} is {gap} from the top root image")
    return PipelineReport(m, d, lam2_val, window, tuple(rows), quartic_ok, gap)
