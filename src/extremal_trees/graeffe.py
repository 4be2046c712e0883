"""Fourth-power root bounds for the bracket factors of the characteristic polynomial.

One Graeffe step to fourth powers bounds the largest root z_0 of a monic,
real-rooted polynomial by (sum of fourth powers of the roots)^(1/4), and that
power sum is a polynomial in the five leading coefficients:

    z_0^4 <= -4a_{n-4} + 4a_{n-3}a_{n-1} + 2a_{n-2}^2 - 4a_{n-2}a_{n-1}^2 + a_{n-1}^4.

For the bracket factor B_n(z)/2^n of G(m,d) the five leading coefficients
have the closed form in ``factor_leading_coeffs``, giving the explicit bound
``largest_root_bound``.  The quartic inequality in ``check_root_bound_inequality``
(verified exactly in rational arithmetic) then places every bracket root, and
hence lambda_2 = 2 z_0 - 1, strictly below d - (2m+1)/(d+3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charpoly import bracket_factor, divisors
from .errors import CheckFailure, ParameterDomainError
from .graphs import check_family_params
from .polynomials import Poly
from .spectral import BOUND_SLACK, lambda2, lambda2_window

REAL_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class LeadingCoeffs:
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
    check_family_params(m, d)
    if n % 2 == 0 or not 3 <= n <= 2 * m + 1 or (2 * m + 1) % n != 0:
        raise ParameterDomainError(
            f"n must be an odd divisor of 2m+1={2 * m + 1} with n >= 3, got n={n}"
        )


def factor_leading_coeffs(n: int, m: int, d: int) -> LeadingCoeffs:
    """Closed-form five leading coefficients of the monic bracket factor B_n/2^n."""
    _check_factor_params(n, m, d)
    return LeadingCoeffs(
        n,
        Fraction(-(d + 1), 2),
        Fraction(2 * m + 1 - n, 4),
        Fraction(d * n + n - 4 * m - 2, 8),
        Fraction((n - 4 * m - 2) * (n - 3), 32),
    )


def root_bound_radicand(n: int, m: int, d: int) -> int:
    """Integer Q with largest_root_bound = Q^(1/4) / 2."""
    _check_factor_params(n, m, d)
    return (
        d**4
        + 4 * d**3
        - (8 * m - 2) * d**2
        + 4 * d
        + 8 * m * m
        - 8 * m
        + 6 * n
        - 5
    )


def largest_root_bound(n: int, m: int, d: int) -> float:
    """Explicit Graeffe bound for the largest root of the bracket factor B_n.

    Increasing in n, so n = 2m+1 dominates the whole divisor family.
    """
    return 0.5 * root_bound_radicand(n, m, d) ** 0.25


def check_root_bound_inequality(m: int, d: int) -> bool:
    """Exact test of Q^(1/4) < d - (2m+1)/(d+3) + 1 with Q the n=2m+1 radicand.

    Compared as Q < RHS^4 in rational arithmetic, so the verdict carries no
    floating-point uncertainty.  Defined for d >= 2m+2 >= 6 (m = 1 has the
    bound fail by a hair and is handled by a separate argument, so it is
    outside this inequality's domain).
    """
    if m < 2 or d < 2 * m + 2:
        raise ParameterDomainError(
            f"inequality domain is d >= 2m+2 >= 6; got m={m}, d={d}"
        )
    q = root_bound_radicand(2 * m + 1, m, d)
    rhs = Fraction(d) + 1 - Fraction(2 * m + 1, d + 3)
    return Fraction(q) < rhs**4


def fn_max_root(n: int, m: int, d: int) -> float:
    """Largest root of the bracket factor B_n via its balanced companion matrix.

    All roots must come out real (residual imaginary parts below REAL_ROOT_TOL);
    anything else is reported as a check failure since B_n divides the
    characteristic polynomial of a symmetric matrix.
    """
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


@dataclass
class FactorRow:
    n: int
    max_root: float
    root_bound: float
    bound_ok: bool
    window_ok: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class PipelineReport:
    """Per-factor root bounds plus the global second-eigenvalue checks."""

    m: int
    d: int
    lam2: float
    window: tuple[float, float]
    rows: list[FactorRow] = field(default_factory=list)
    bounds_monotone: bool = True
    quartic_exact_ok: bool | None = None
    consistency_gap: float = 0.0
    passed: bool = True

    def to_dict(self) -> dict:
        out = self.__dict__.copy()
        out["rows"] = [r.to_dict() for r in self.rows]
        out["window"] = list(self.window)
        return out


def verify_upper_bound_pipeline(m: int, d: int) -> PipelineReport:
    """Run the whole root-bound pipeline for G(m,d) and cross-check lambda_2.

    For every divisor n != 1 of 2m+1: the largest bracket root must respect
    its Graeffe bound and map below the upper window edge under x = 2z - 1;
    the bounds must be monotone in n; for m >= 2 the exact quartic inequality
    must hold; and lambda_2 from the dense spectrum must equal the largest
    root image.  Raises CheckFailure on any violation.
    """
    k = 2 * m + 1
    lam2_val = lambda2(m, d)  # raises if the window itself fails
    window = lambda2_window(m, d)
    report = PipelineReport(m, d, lam2_val, window)

    upper = window[1]
    prev_bound = None
    best_image = -np.inf
    for n in [n for n in divisors(k) if n != 1]:
        z0 = fn_max_root(n, m, d)
        bound = largest_root_bound(n, m, d)
        bound_ok = z0 <= bound + BOUND_SLACK
        window_ok = 2 * z0 - 1 < upper + BOUND_SLACK
        report.rows.append(FactorRow(n, z0, bound, bound_ok, window_ok))
        if prev_bound is not None and bound < prev_bound - BOUND_SLACK:
            report.bounds_monotone = False
        prev_bound = bound
        best_image = max(best_image, 2 * z0 - 1)

    if m >= 2:
        report.quartic_exact_ok = check_root_bound_inequality(m, d)

    report.consistency_gap = abs(lam2_val - best_image)
    report.passed = (
        all(r.bound_ok and r.window_ok for r in report.rows)
        and report.bounds_monotone
        and report.quartic_exact_ok is not False
        and report.consistency_gap < 1e-6
    )
    if not report.passed:
        raise CheckFailure(f"root-bound pipeline failed for (m,d)=({m},{d}): "
                           f"{report.to_dict()}")
    return report
