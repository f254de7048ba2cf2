"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. the structure-constant table,
    built once at import, carries an imaginary residue above 1e-12).
    Indicates a bug, not bad user input."""


class ValidationError(ValueError):
    """User-supplied data violates a required invariant (e.g. a matrix
    offered as a density matrix is not unit trace). The message names the
    violated invariant."""
