import math
from fractions import Fraction

import numpy as np
import pytest

from extremal_trees import (
    CheckFailure,
    ParameterDomainError,
    Poly,
    bracket_factor,
    check_root_bound_inequality,
    factor_leading_coeffs,
    fn_max_root,
    graeffe_bound,
    graeffe_radicand,
    largest_root_bound,
    leading_coeffs_of,
    verify_upper_bound_pipeline,
)
from extremal_trees import graeffe
from extremal_trees.charpoly import divisors
from extremal_trees.graeffe import (
    LeadingCoeffs,
    root_bound_inequality_holds,
    root_bound_radicands,
)
from extremal_trees.spectral import lambda2_window


def test_zero_polynomial_bound():
    c = LeadingCoeffs(6, Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    assert graeffe_bound(c) == 0.0


def test_known_quartic():
    # (z-2)(z-1)z(z+1): power sum computed by brute force from the roots
    roots = [2, 1, 0, -1]
    power_sum = sum(r**4 for r in roots)
    assert power_sum == 18
    c = leading_coeffs_of(Poly.from_roots(roots))
    assert graeffe_radicand(c) == power_sum
    assert graeffe_bound(c) == pytest.approx(18**0.25)
    assert graeffe_bound(c) >= max(roots)


def test_radicand_is_fourth_power_sum_for_quartics():
    rng = np.random.RandomState(11)
    for _ in range(50):
        roots = [Fraction(int(x), 8) for x in rng.randint(-40, 40, size=4)]
        c = leading_coeffs_of(Poly.from_roots(roots))
        assert graeffe_radicand(c) == sum(r**4 for r in roots)


def test_negative_radicand_rejected():
    # z^4 + 1 has all-complex roots with power sum -4
    c = leading_coeffs_of(Poly((1, 0, 0, 0, 1)))
    assert graeffe_radicand(c) == -4
    with pytest.raises(ParameterDomainError):
        graeffe_bound(c)


def test_soundness_on_random_real_rooted():
    rng = np.random.RandomState(0)
    for _ in range(200):
        deg = rng.randint(4, 11)
        roots = [Fraction(float(x)) for x in rng.uniform(-5, 5, size=deg)]
        c = leading_coeffs_of(Poly.from_roots(roots))
        # exact comparison: the power sum dominates the largest fourth power
        assert graeffe_radicand(c) >= max(roots) ** 4
        assert graeffe_bound(c) >= float(max(roots)) - 1e-12


def test_leading_coeffs_requires_monic():
    with pytest.raises(ParameterDomainError):
        leading_coeffs_of(Poly((0, 0, 0, 2)))
    with pytest.raises(ParameterDomainError):
        leading_coeffs_of(Poly((1, 1)))


def test_factor_coeffs_closed_form_values():
    c = factor_leading_coeffs(5, 2, 6)
    assert (c.a1, c.a2, c.a3, c.a4) == (
        Fraction(-7, 2),
        Fraction(0),
        Fraction(25, 8),
        Fraction(-5, 16),
    )
    assert factor_leading_coeffs(3, 1, 4).a4 == 0  # killed by the (n-3) factor


@pytest.mark.parametrize("m", range(1, 6))
def test_factor_coeffs_match_exact_expansion(m):
    for d in range(2 * m + 2, 2 * m + 9):
        for n in [n for n in divisors(2 * m + 1) if n != 1]:
            b = bracket_factor(n, m, d)
            c = factor_leading_coeffs(n, m, d)
            scale = Fraction(2**n)
            assert Fraction(b[n]) / scale == 1
            assert Fraction(b[n - 1]) / scale == c.a1
            assert Fraction(b[n - 2]) / scale == c.a2
            assert Fraction(b[n - 3]) / scale == c.a3
            assert (Fraction(b[n - 4]) / scale if n >= 4 else Fraction(0)) == c.a4


def test_root_bound_equals_graeffe_of_factor_coeffs():
    for n, m, d in [(3, 1, 4), (5, 2, 6), (7, 3, 8), (9, 4, 12), (3, 4, 12)]:
        direct = largest_root_bound(n, m, d)
        via_coeffs = graeffe_bound(factor_leading_coeffs(n, m, d))
        assert abs(direct - via_coeffs) < 1e-12


def test_root_bound_monotone_in_n():
    for m, d in [(4, 10), (7, 16), (10, 22), (12, 26)]:
        ns = [n for n in divisors(2 * m + 1) if n != 1]
        bounds = [largest_root_bound(n, m, d) for n in ns]
        assert bounds == sorted(bounds)


def test_top_divisor_radicand_closed_form():
    # at n = 2m+1 the radicand collapses to the 8m^2+4m+1 tail
    for m, d in [(2, 6), (3, 8), (5, 12)]:
        expected = (
            d**4 + 4 * d**3 - (8 * m - 2) * d**2 + 4 * d + 8 * m**2 + 4 * m + 1
        )
        assert root_bound_radicands(m, d)[-1] == expected
        assert largest_root_bound(2 * m + 1, m, d) == pytest.approx(
            0.5 * expected**0.25, abs=1e-12
        )


def test_pair_radicands_are_the_factor_radicands():
    for m in range(1, 61):
        ns = divisors(2 * m + 1)[1:]
        for d in (2 * m + 2, 2 * m + 3, 200, 10**9):
            radicands = root_bound_radicands(m, d)
            # Q_n / 16 is the fourth-power sum of B_n's closed-form coefficients
            assert radicands == [16 * graeffe_radicand(factor_leading_coeffs(n, m, d))
                                 for n in ns], (m, d)
            # and each factor's bound is its own radicand's fourth root
            assert [largest_root_bound(n, m, d) for n in ns] == [
                0.5 * q**0.25 for q in radicands], (m, d)


def test_quartic_inequality_values():
    assert check_root_bound_inequality(2, 6)
    assert check_root_bound_inequality(2, 7)
    # (2,6) is the tightest small case: 1721^(1/4) ~ 6.4407 vs 6.4444
    assert 1721**0.25 < 6 - 5 / 9 + 1
    with pytest.raises(ParameterDomainError):
        check_root_bound_inequality(1, 4)
    with pytest.raises(ParameterDomainError):
        check_root_bound_inequality(2, 5)


def _rational_rhs4(m, d):
    return (Fraction(d) + 1 - Fraction(2 * m + 1, d + 3)) ** 4


def test_quartic_inequality_matches_rational_reference():
    # the integer form clears the positive denominator (d+3)^4 of Q < RHS^4
    pairs = [(m, d) for m in range(2, 51) for d in range(2 * m + 2, 201)]
    pairs += [(m, d) for m in range(2, 51) for d in (10**4, 10**6, 10**9)]
    for m, d in pairs:
        q = root_bound_radicands(m, d)[-1]
        assert check_root_bound_inequality(m, d) == (q < _rational_rhs4(m, d)), (m, d)


@pytest.mark.parametrize("m,d", [(2, 6), (7, 40), (50, 10**9)])
def test_quartic_inequality_flips_at_the_rational_threshold(m, d):
    # every family pair passes with room to spare, so move Q across RHS^4;
    # the checked verdict is the unchecked one at the pair's own radicand
    rhs4 = _rational_rhs4(m, d)
    for q in (math.floor(rhs4) - 1, math.floor(rhs4), math.ceil(rhs4), math.ceil(rhs4) + 1):
        assert root_bound_inequality_holds(q, m, d) == (q < rhs4), q
    q = root_bound_radicands(m, d)[-1]
    assert check_root_bound_inequality(m, d) == root_bound_inequality_holds(q, m, d) is True


def test_fn_max_root_is_a_root():
    for n, m, d in [(3, 1, 4), (5, 2, 6), (7, 3, 8), (9, 4, 10)]:
        z0 = fn_max_root(n, m, d)
        b = bracket_factor(n, m, d)
        scale = max(abs(c) for c in b.float_coeffs())
        assert abs(b(z0)) < 1e-6 * scale
        assert z0 <= largest_root_bound(n, m, d) + 1e-9


@pytest.mark.parametrize("m,d", [(1, 4), (2, 6), (3, 8)])
def test_pipeline(m, d):
    report = verify_upper_bound_pipeline(m, d)
    assert [row.n for row in report.rows] == [n for n in divisors(2 * m + 1) if n != 1]
    assert report.consistency_gap < 1e-6
    lo, hi = lambda2_window(m, d)
    assert lo - 1e-9 <= report.lam2 < hi + 1e-9
    for row in report.rows:
        assert row.max_root <= row.root_bound + 1e-9
        assert 2 * row.max_root - 1 < hi + 1e-9


def test_factor_params_validated():
    with pytest.raises(ParameterDomainError):
        factor_leading_coeffs(4, 2, 6)  # even n
    with pytest.raises(ParameterDomainError):
        factor_leading_coeffs(1, 2, 6)  # n must be >= 3 here
    with pytest.raises(ParameterDomainError):
        largest_root_bound(7, 2, 6)  # 7 does not divide 5


# The pipeline's accept set, one comparison at a time: each float test moves
# one measured value across its slack S = BOUND_SLACK and leaves the rest
# real; the order of the bounds and the quartic inequality are decided in
# integers, from the pair's radicands, with no slack.
S = 1e-9
FAILED_2_6 = r"root-bound pipeline failed for \(m,d\)=\(2,6\)"


def test_pipeline_rejects_a_root_above_its_bound(monkeypatch):
    over = lambda n, m, d: largest_root_bound(n, m, d) + 2 * S
    monkeypatch.setattr(graeffe, "fn_max_root", over)
    with pytest.raises(CheckFailure, match=FAILED_2_6):
        verify_upper_bound_pipeline(2, 6)


@pytest.mark.parametrize("above,accepted", [(S / 2, True), (2 * S, False)])
def test_pipeline_root_bound_slack(monkeypatch, above, accepted):
    # a root just above its bound, with a lambda_2 that agrees with it
    z0 = largest_root_bound(5, 2, 6) + above
    monkeypatch.setattr(graeffe, "fn_max_root", lambda n, m, d: z0)
    monkeypatch.setattr(graeffe, "lambda2", lambda m, d: 2 * z0 - 1)
    if accepted:
        verify_upper_bound_pipeline(2, 6)
    else:
        with pytest.raises(CheckFailure, match=FAILED_2_6):
            verify_upper_bound_pipeline(2, 6)


@pytest.mark.parametrize("over,accepted", [(S / 2, True), (2 * S, False)])
def test_pipeline_image_edge_slack(monkeypatch, over, accepted):
    # a root whose image x = 2z - 1 sits just past the upper window edge,
    # with a bound of 10 above it and a lambda_2 that agrees with it; the
    # quartic inequality would put that bound's image below the edge too,
    # so it is held true here
    image = lambda2_window(2, 6)[1] + over
    monkeypatch.setattr(graeffe, "fn_max_root", lambda n, m, d: (image + 1) / 2)
    monkeypatch.setattr(graeffe, "root_bound_radicands", lambda m, d: [20**4])
    monkeypatch.setattr(graeffe, "root_bound_inequality_holds", lambda q, m, d: True)
    monkeypatch.setattr(graeffe, "lambda2", lambda m, d: image)
    if accepted:
        verify_upper_bound_pipeline(2, 6)
    else:
        with pytest.raises(CheckFailure, match=FAILED_2_6):
            verify_upper_bound_pipeline(2, 6)


@pytest.mark.parametrize("drop,accepted", [(0, True), (1, False)])
def test_pipeline_bounds_order_is_exact(monkeypatch, drop, accepted):
    # G(2,6) has the one factor n = 5, so the order of the bounds needs a
    # pair with two: 2m+1 = 9 has the factors n = 3, 9; equal radicands pass,
    # and a radicand of n = 9 one below that of n = 3 fails, with no slack
    q = root_bound_radicands(4, 10)[-1]
    monkeypatch.setattr(graeffe, "root_bound_radicands", lambda m, d: [q, q - drop])
    if accepted:
        verify_upper_bound_pipeline(4, 10)
    else:
        with pytest.raises(CheckFailure,
                           match=r"root-bound pipeline failed for \(m,d\)=\(4,10\)"):
            verify_upper_bound_pipeline(4, 10)


def test_pipeline_rejects_a_failed_quartic_inequality(monkeypatch):
    monkeypatch.setattr(graeffe, "root_bound_inequality_holds", lambda q, m, d: False)
    with pytest.raises(CheckFailure, match=FAILED_2_6):
        verify_upper_bound_pipeline(2, 6)


def test_pipeline_reads_the_radicands_once(monkeypatch):
    # one root_bound_radicands call decides order and quartic, and neither
    # per-factor route runs: the bounds come from the radicands in hand
    calls = []
    real = graeffe.root_bound_radicands
    monkeypatch.setattr(graeffe, "root_bound_radicands",
                        lambda m, d: calls.append((m, d)) or real(m, d))
    for name in ("largest_root_bound", "check_root_bound_inequality"):
        monkeypatch.setattr(graeffe, name, lambda *args, name=name: pytest.fail(name))
    report = verify_upper_bound_pipeline(4, 10)
    assert calls == [(4, 10)]
    assert [row.root_bound for row in report.rows] == [
        largest_root_bound(n, 4, 10) for n in (3, 9)]


@pytest.mark.parametrize("off,accepted", [(5e-7, True), (2e-6, False)])
def test_pipeline_consistency_gap(monkeypatch, off, accepted):
    real = graeffe.lambda2
    monkeypatch.setattr(graeffe, "lambda2", lambda m, d: real(m, d) + off)
    if accepted:
        verify_upper_bound_pipeline(2, 6)
    else:
        with pytest.raises(CheckFailure, match=FAILED_2_6):
            verify_upper_bound_pipeline(2, 6)
