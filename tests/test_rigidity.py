import pytest

from extremal_trees import (
    CheckFailure,
    ParameterDomainError,
    PartitionCertificate,
    build_extremal_graph,
    check_spectral_rigidity_hypotheses,
    clique_partition,
    crossing_edges,
    rigidity_certificate,
)
from extremal_trees import rigidity, spectral

from conftest import complete_graph


@pytest.mark.parametrize(
    "r,crossing,required,deficit",
    [(1, 10, 12, 2), (2, 55, 60, 5), (3, 136, 144, 8)],
)
def test_certificate_values(r, crossing, required, deficit):
    cert = rigidity_certificate(r, 6 * r)
    assert cert.crossing == crossing
    assert cert.required == required
    assert cert.deficit == deficit
    assert cert.trivial_count == 0 and cert.k == 0
    assert cert.refutes


@pytest.mark.parametrize("r", range(1, 6))
def test_deficit_closed_form(r):
    for d in (6 * r, 6 * r + 2):
        cert = rigidity_certificate(r, d)
        assert cert.crossing == (3 * r - 1) * (6 * r - 1)
        assert cert.required == 3 * r * (6 * r - 2)
        assert cert.deficit == 3 * r - 1


def test_certificate_ties_to_constructed_graph():
    r = 2
    g = build_extremal_graph(3 * r - 1, 6 * r)
    assert crossing_edges(g, clique_partition(g)) == (3 * r - 1) * (6 * r - 1)


def test_domain_guard():
    with pytest.raises(ParameterDomainError):
        rigidity_certificate(1, 5)
    with pytest.raises(ParameterDomainError):
        check_spectral_rigidity_hypotheses(2, 11)


def test_generic_partition_check():
    # the only fixed case of the -r*s term: six singletons against one rigid subgraph
    g = complete_graph(6)
    singletons = tuple(frozenset({v}) for v in range(6))
    cert = PartitionCertificate(singletons, crossing_edges(g, singletons), k=0, r=1)
    assert cert.trivial_count == 6
    assert cert.required == 3 * 5 - 6
    assert cert.crossing == 15
    assert not cert.refutes

    one_part = (frozenset(range(6)),)
    cert = PartitionCertificate(one_part, crossing_edges(g, one_part), k=1, r=2)
    assert cert.required == 0 and cert.crossing == 0


@pytest.mark.parametrize("r,d", [(1, 6), (1, 8), (2, 12)])
def test_mu2_window(r, d):
    report = check_spectral_rigidity_hypotheses(r, d)
    lo, hi = (6 * r - 1) / (d + 3), (6 * r - 1) / (d + 1)
    assert (report.relaxed_threshold, report.threshold) == (lo, hi)
    assert lo - 1e-9 < report.mu2 <= hi + 1e-9


@pytest.mark.parametrize("r,d", [(1, 6), (2, 12)])
def test_mu2_lambda2_sum_to_degree(r, d):
    # mu_2 comes from the dense route; the block route must agree with it
    lam2 = spectral.eigenvalues_block_circulant(3 * r - 1, d)[1]
    assert abs(check_spectral_rigidity_hypotheses(r, d).mu2 + lam2 - d) < 1e-10


def test_hypotheses_tightness_pattern():
    report = check_spectral_rigidity_hypotheses(1, 6)
    assert report.mu2 <= report.threshold  # condition (1) fails
    assert report.mu2 > report.relaxed_threshold  # but its d+3 relaxation holds
    assert report.to_dict()["condition1_holds"] is False
    assert report.certificate.deficit == 2


def test_window_failure_raises():
    # d < 6r is outside the family, so it is refused before any eigensolve
    with pytest.raises(ParameterDomainError):
        check_spectral_rigidity_hypotheses(1, 5)


# The accept set of mu_2 is (relaxed + S, threshold + S] with S = BOUND_SLACK:
# below it the d+3 relaxation fails, above it condition (1) would hold.
S = 1e-9
RELAXED, THRESHOLD = 5 / 9, 5 / 7  # (6r-1)/(d+3) and (6r-1)/(d+1) at (r,d) = (1,6)


@pytest.mark.parametrize(
    "mu2,accepted",
    [
        (RELAXED + S / 2, False),
        (RELAXED + 3 * S, True),
        (THRESHOLD, True),
        (THRESHOLD + 3 * S, False),
    ],
)
def test_mu2_accept_set(monkeypatch, mu2, accepted):
    monkeypatch.setattr(rigidity, "lambda2", lambda m, d: d - mu2)
    if accepted:
        assert check_spectral_rigidity_hypotheses(1, 6).mu2 == pytest.approx(mu2, abs=1e-14)
    else:
        with pytest.raises(CheckFailure):
            check_spectral_rigidity_hypotheses(1, 6)
