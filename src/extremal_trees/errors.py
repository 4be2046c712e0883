"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """Parameters outside the domain a construction or formula is defined on."""


class InvalidPartitionError(ValueError):
    """Vertex sets that are not disjoint or do not cover the vertex set."""


class SolverConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver did not converge."""


class ConsistencyError(RuntimeError):
    """An exact internal cross-check failed; signals an implementation bug."""


class CheckFailure(RuntimeError):
    """A verified mathematical claim failed its numerical or exact check."""


class SizeGuardError(ValueError):
    """Input exceeds the desk-scale guard of an exact-arithmetic routine."""
