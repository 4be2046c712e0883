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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CheckFailure, ConsistencyError, ParameterDomainError
from .graphs import (
    Graph,
    Partition,
    build_extremal_graph,
    clique_partition,
    crossing_edges,
    degrees,
    validate_partition,
)
from .spectral import BOUND_SLACK, lambda2, symmetric_eigenvalues
import numpy as np


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
    validate_partition(g, p)
    trivial = sum(1 for part in p.parts if len(part) == 1)
    crossing = crossing_edges(g, p)
    required = (3 * r + ell) * (len(p) - 1) - r * trivial
    return RigidityCertificate(r, ell, p, trivial, crossing, required, required - crossing)


def _check_rigidity_params(r: int, d: int) -> None:
    if r < 1 or d < 6 * r:
        raise ParameterDomainError(
            f"rigidity family needs minimum degree d >= 6r; got r={r}, d={d}"
        )


def rigidity_certificate(r: int, d: int) -> RigidityCertificate:
    """Clique-partition certificate for G(3r-1, d): deficit exactly 3r-1 > 0."""
    _check_rigidity_params(r, d)
    g = build_extremal_graph(3 * r - 1, d)
    cert = partition_rigidity_check(g, clique_partition(g), r, 0)
    if cert.deficit != 3 * r - 1:
        raise ConsistencyError("certificate deficit left its closed form")
    return cert


@dataclass
class Mu2Report:
    r: int
    d: int
    mu2: float
    window: tuple[float, float]
    within: bool

    def to_dict(self) -> dict:
        out = self.__dict__.copy()
        out["window"] = list(self.window)
        return out


def mu2_window(r: int, d: int) -> Mu2Report:
    """Check (6r-1)/(d+3) < mu_2(G(3r-1,d)) <= (6r-1)/(d+1) within slack."""
    _check_rigidity_params(r, d)
    m = 3 * r - 1
    mu2 = d - lambda2(m, d, method="blocks")
    lo, hi = (6 * r - 1) / (d + 3), (6 * r - 1) / (d + 1)
    within = lo - BOUND_SLACK < mu2 <= hi + BOUND_SLACK
    if not within:
        raise CheckFailure(
            f"mu2={mu2!r} outside ({lo}, {hi}] for (r,d)=({r},{d})"
        )
    return Mu2Report(r, d, mu2, (lo, hi), within)


@dataclass
class HypothesesReport:
    """Condition (1) of the spectral rigidity criterion evaluated on G(3r-1,d).

    The point of the family: condition (1) fails (mu_2 is at most the
    threshold) while the relaxed threshold with d+3 in place of d+1 would
    pass, yet the partition certificate rules out r rigid subgraphs.  The
    vertex-deleted conditions (2) and (3) are informational only.
    """

    r: int
    d: int
    mu2: float
    threshold: float
    condition1_holds: bool
    relaxed_threshold: float
    relaxed_would_hold: bool
    certificate: RigidityCertificate | None = None
    vertex_deleted: list[dict] = field(default_factory=list)
    pair_deleted: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "r": self.r,
            "d": self.d,
            "mu2": self.mu2,
            "threshold": self.threshold,
            "condition1_holds": self.condition1_holds,
            "relaxed_threshold": self.relaxed_threshold,
            "relaxed_would_hold": self.relaxed_would_hold,
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }
        if self.vertex_deleted:
            out["vertex_deleted"] = self.vertex_deleted
        if self.pair_deleted:
            out["pair_deleted"] = self.pair_deleted
        return out


def _induced_subgraph(g: Graph, removed: set[int]) -> Graph:
    keep = [v for v in range(g.n) if v not in removed]
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u not in removed and v not in removed
    ]
    return Graph.from_edges(len(keep), edges)


def _laplacian_mu2(g: Graph) -> float:
    a = g.adjacency_matrix().astype(float)
    lap = np.diag(a.sum(axis=1)) - a
    return float(symmetric_eigenvalues(lap)[1])


def check_spectral_rigidity_hypotheses(
    r: int,
    d: int,
    include_vertex_deleted: bool = False,
    include_pair_deleted: bool = False,
) -> HypothesesReport:
    """Report how G(3r-1,d) sits against the spectral rigidity criterion.

    Asserts that condition (1) fails while its d+3 relaxation holds, and
    attaches the refuting partition certificate.  The subgraph conditions
    (2)-(3) are computed on demand (they cost one Laplacian eigensolve per
    deleted vertex or pair) and reported without judgement.
    """
    _check_rigidity_params(r, d)
    report_mu2 = mu2_window(r, d)
    mu2 = report_mu2.mu2
    threshold = (6 * r - 1) / (d + 1)
    relaxed = (6 * r - 1) / (d + 3)
    cond1 = mu2 > threshold + BOUND_SLACK
    relaxed_holds = mu2 > relaxed + BOUND_SLACK
    if cond1 or not relaxed_holds:
        raise CheckFailure(
            f"tightness pattern broken for (r,d)=({r},{d}): mu2={mu2!r}, "
            f"threshold={threshold}, relaxed={relaxed}"
        )
    report = HypothesesReport(
        r, d, mu2, threshold, cond1, relaxed, relaxed_holds,
        certificate=rigidity_certificate(r, d),
    )
    if include_vertex_deleted or include_pair_deleted:
        g = build_extremal_graph(3 * r - 1, d)
        if include_vertex_deleted:
            for u in range(g.n):
                sub = _induced_subgraph(g, {u})
                delta = min(degrees(sub))
                bound = (4 * r - 1) / (delta + 1)
                val = _laplacian_mu2(sub)
                report.vertex_deleted.append(
                    {"u": u, "mu2": val, "bound": bound, "holds": val > bound}
                )
        if include_pair_deleted:
            for v in range(g.n):
                for w in range(v + 1, g.n):
                    sub = _induced_subgraph(g, {v, w})
                    delta = min(degrees(sub))
                    bound = (2 * r - 1) / (delta + 1)
                    val = _laplacian_mu2(sub)
                    report.pair_deleted.append(
                        {"v": v, "w": w, "mu2": val, "bound": bound, "holds": val > bound}
                    )
    return report
