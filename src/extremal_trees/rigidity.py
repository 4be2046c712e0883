"""The partition certificate against spanning rigid subgraph packings, and the
algebraic-connectivity window that makes the spectral sufficient condition tight.

A graph containing r spanning rigid subgraphs and ell spanning trees, all
mutually edge-disjoint, must satisfy, for every vertex partition pi into t
parts of which s are singletons,

    e(pi) >= (3r + ell)(t - 1) - r s,

which a ``packing.PartitionCertificate`` with k = ell evaluates.  The domain
r >= 1, d >= 6r is the family domain of G(3r-1, d), d >= 2m+2 >= 4.  For
G(3r-1, d) the modified-clique partition (no singletons, ell = 0) has
(3r-1)(6r-1) crossing edges against a requirement of 3r(6r-2): a deficit of
3r-1, so fewer than r edge-disjoint spanning rigid subgraphs exist.  At the
same time mu_2 = d - lambda_2 sits in ((6r-1)/(d+3), (6r-1)/(d+1)], i.e. just
below the threshold mu_2 > (6r-1)/(d+1) that would guarantee r such
subgraphs: the threshold cannot be lowered to (6r-1)/(d+3) or beyond.

mu_2 = d - ``spectral.lambda2``, the dense-route lambda_2 that every verdict
reads, so no block spectrum is built here.

A float check raises CheckFailure at the comparison that fails, so a returned
report holds only measured values, never a verdict flag.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CheckFailure, ConsistencyError
from .graphs import build_extremal_graph, check_family_params, clique_crossings, clique_partition
from .packing import PartitionCertificate
from .spectral import BOUND_SLACK, lambda2


def rigidity_certificate(r: int, d: int) -> PartitionCertificate:
    """Clique-partition certificate for G(3r-1, d) against r rigid subgraphs:
    deficit exactly 3r-1 > 0."""
    m = 3 * r - 1  # build_extremal_graph refuses a pair outside the domain
    cert = PartitionCertificate(clique_partition(build_extremal_graph(m, d)),
                                clique_crossings(m, d), 0, r)
    if cert.deficit != m:
        raise ConsistencyError("certificate deficit left its closed form")
    return cert


class HypothesesReport(NamedTuple):
    """Condition (1) of the spectral rigidity criterion evaluated on G(3r-1,d).

    The point of the family: condition (1) fails (mu_2 is at most the
    threshold) while the relaxed threshold with d+3 in place of d+1 would
    pass, yet the partition certificate rules out r rigid subgraphs.
    """

    r: int
    d: int
    mu2: float
    threshold: float
    relaxed_threshold: float
    certificate: PartitionCertificate

    def to_dict(self) -> dict:
        """The ``rigidity`` command's JSON: mu2, its (relaxed, threshold]
        window and the certificate, with its tree count k as ell.  A report
        is returned only when condition (1) fails, so ``condition1_holds`` is
        always False."""
        cert = self.certificate
        return {
            "r": self.r,
            "d": self.d,
            "mu2": self.mu2,
            "window": [self.relaxed_threshold, self.threshold],
            "certificate": {
                "r": cert.r,
                "ell": cert.k,
                "parts": [sorted(p) for p in cert.partition],
                "trivial_parts": cert.trivial_count,
                "crossing": cert.crossing,
                "required": cert.required,
                "deficit": cert.deficit,
            },
            "condition1_holds": False,
        }


def check_spectral_rigidity_hypotheses(r: int, d: int) -> HypothesesReport:
    """Report how G(3r-1,d) sits against the spectral rigidity criterion.

    Checks (6r-1)/(d+3) < mu_2 <= (6r-1)/(d+1) within slack, i.e. condition
    (1) fails while its d+3 relaxation holds, and attaches the refuting
    partition certificate.
    """
    check_family_params(3 * r - 1, d)
    mu2 = d - lambda2(3 * r - 1, d)  # raises outside the lambda_2 window
    relaxed, threshold = (6 * r - 1) / (d + 3), (6 * r - 1) / (d + 1)
    if not relaxed + BOUND_SLACK < mu2 <= threshold + BOUND_SLACK:
        raise CheckFailure(
            f"tightness pattern broken for (r,d)=({r},{d}): mu2={mu2} "
            f"outside ({relaxed}, {threshold}]"
        )
    return HypothesesReport(
        r, d, mu2, threshold, relaxed, certificate=rigidity_certificate(r, d)
    )
