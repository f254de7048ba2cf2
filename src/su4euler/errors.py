"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. a quantity that must be real
    carries a large imaginary residue). Indicates a bug, not bad user
    input."""


class ValidationError(ValueError):
    """User-supplied data violates a required invariant (e.g. a matrix
    offered as a density matrix is not unit trace). The message names the
    violated invariant."""
