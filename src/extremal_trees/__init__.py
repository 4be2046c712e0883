"""Extremal regular graphs for spanning-tree packing.

Builds the family G(m,d) -- 2m+1 cliques K_{d+1}, each minus an m-edge
matching, joined by circulant cross edges -- and verifies its quantitative
properties end to end: exact characteristic polynomial, two-sided second-
eigenvalue bounds, fourth-power root bounds, spanning-tree packing number,
and rigidity certificates, each against an independent oracle.
"""

from .charpoly import (
    bracket_factor,
    char_poly_exact,
    char_poly_oracle,
    verify_determinant_identities,
    verify_root_of_unity_identities,
)
from .chebyshev import chebyshev_T, chebyshev_U
from .errors import (
    CheckFailure,
    ConsistencyError,
    InvalidPartitionError,
    ParameterDomainError,
    SizeGuardError,
    SolverConvergenceError,
)
from .graeffe import (
    LeadingCoeffs,
    check_root_bound_inequality,
    factor_leading_coeffs,
    fn_max_root,
    graeffe_bound,
    graeffe_radicand,
    largest_root_bound,
    leading_coeffs_of,
    verify_upper_bound_pipeline,
)
from .graphs import (
    Graph,
    build_extremal_graph,
    clique_partition,
    crossing_edges,
    degrees,
    export,
    is_connected,
)
from .packing import (
    ForestPacking,
    PartitionCertificate,
    clique_certificate,
    pack_spanning_trees,
    sigma,
    verify_nash_williams,
    walecki_packing,
)
from .polynomials import Poly
from .rigidity import check_spectral_rigidity_hypotheses, rigidity_certificate
from .spectral import (
    assemble_block_circulant,
    blocks_of,
    eigenvalues_block_circulant,
    eigenvalues_dense,
    hermitian_blocks,
    lambda2,
    lambda2_window,
    symmetric_eigenvalues,
)

__version__ = "0.1.0"
