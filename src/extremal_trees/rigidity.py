"""Partition certificates against spanning rigid subgraph packings, and the
algebraic-connectivity window that makes the spectral sufficient condition tight.

A graph containing r spanning rigid subgraphs and ell spanning trees, all
mutually edge-disjoint, must satisfy, for every vertex partition pi with t
singleton parts,

    e(pi) >= (3r + ell)(|pi| - 1) - r t.

For G(3r-1, d) the modified-clique partition (no singletons, ell = 0) has
(3r-1)(6r-1) crossing edges against a requirement of 3r(6r-2): a deficit of
3r-1, so fewer than r edge-disjoint spanning rigid subgraphs exist.  At the
same time mu_2 = d - lambda_2 sits in ((6r-1)/(d+3), (6r-1)/(d+1)], i.e. just
below the threshold mu_2 > (6r-1)/(d+1) that would guarantee r such
subgraphs: the threshold cannot be lowered to (6r-1)/(d+3) or beyond.

The block-circulant spectral route is used for mu_2 (it agrees with the dense
route to 1e-8; the test suite asserts that equivalence separately).

A float check raises CheckFailure at the comparison that fails, so a returned
report holds only measured values, never a verdict flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailure, ConsistencyError, ParameterDomainError
from .graphs import (
    Graph,
    Partition,
    build_extremal_graph,
    clique_crossings,
    clique_partition,
    crossing_edges,
)
from .spectral import BOUND_SLACK, lambda2


@dataclass(frozen=True)
class RigidityCertificate:
    """Partition evidence: deficit > 0 rules out r rigid subgraphs + ell trees."""

    r: int
    ell: int
    partition: Partition
    trivial_count: int
    crossing: int
    required: int
    deficit: int

    @property
    def refutes(self) -> bool:
        return self.deficit > 0

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "ell": self.ell,
            "parts": [sorted(p) for p in self.partition.parts],
            "trivial_parts": self.trivial_count,
            "crossing": self.crossing,
            "required": self.required,
            "deficit": self.deficit,
        }


def partition_rigidity_check(g: Graph, p: Partition, r: int, ell: int) -> RigidityCertificate:
    """Evaluate e(pi) >= (3r+ell)(|pi|-1) - rt for an arbitrary partition."""
    return _rigidity_certificate(p, crossing_edges(g, p), r, ell)


def _rigidity_certificate(p: Partition, crossing: int, r: int, ell: int) -> RigidityCertificate:
    trivial = sum(1 for part in p.parts if len(part) == 1)
    required = (3 * r + ell) * (len(p) - 1) - r * trivial
    return RigidityCertificate(r, ell, p, trivial, crossing, required, required - crossing)


def check_rigidity_params(r: int, d: int) -> None:
    if r < 1 or d < 6 * r:
        raise ParameterDomainError(
            f"rigidity family needs minimum degree d >= 6r; got r={r}, d={d}"
        )


def rigidity_certificate(r: int, d: int) -> RigidityCertificate:
    """Clique-partition certificate for G(3r-1, d): deficit exactly 3r-1 > 0."""
    check_rigidity_params(r, d)
    m = 3 * r - 1
    cert = _rigidity_certificate(clique_partition(build_extremal_graph(m, d)),
                                 clique_crossings(m, d), r, 0)
    if cert.deficit != m:
        raise ConsistencyError("certificate deficit left its closed form")
    return cert


@dataclass(frozen=True)
class HypothesesReport:
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
    certificate: RigidityCertificate

    def to_dict(self) -> dict:
        """The ``rigidity`` command's JSON: mu2, its (relaxed, threshold]
        window and the certificate.  A report is returned only when
        condition (1) fails, so ``condition1_holds`` is always False."""
        return {
            "r": self.r,
            "d": self.d,
            "mu2": self.mu2,
            "window": [self.relaxed_threshold, self.threshold],
            "certificate": self.certificate.to_dict(),
            "condition1_holds": False,
        }


def check_spectral_rigidity_hypotheses(r: int, d: int) -> HypothesesReport:
    """Report how G(3r-1,d) sits against the spectral rigidity criterion.

    Checks (6r-1)/(d+3) < mu_2 <= (6r-1)/(d+1) within slack, i.e. condition
    (1) fails while its d+3 relaxation holds, and attaches the refuting
    partition certificate.
    """
    check_rigidity_params(r, d)
    mu2 = d - lambda2(3 * r - 1, d, method="blocks")  # raises outside the lambda_2 window
    relaxed, threshold = (6 * r - 1) / (d + 3), (6 * r - 1) / (d + 1)
    if not relaxed + BOUND_SLACK < mu2 <= threshold + BOUND_SLACK:
        raise CheckFailure(
            f"tightness pattern broken for (r,d)=({r},{d}): mu2={mu2} "
            f"outside ({relaxed}, {threshold}]"
        )
    return HypothesesReport(
        r, d, mu2, threshold, relaxed, certificate=rigidity_certificate(r, d)
    )
