"""Exception types shared across the package."""


class NotHermitianError(ValueError):
    """Matrix fails the Hermiticity tolerance required by the operation."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue too negative to be treated as positive semidefinite."""


class NotNormalizedError(ValueError):
    """Vector or parameter set is not normalized to the required tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes, qubit counts, or non power-of-two dims."""


class InvalidPermutationError(ValueError):
    """Sequence is not a permutation of the expected qubit indices."""

