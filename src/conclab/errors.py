"""Exception types shared across the package, and the JSON reader that
reports every malformed input as a ValueError."""

import json


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


def loads_json(text, what):
    """Parse JSON text; input nested too deeply for the parser is a
    ValueError that names `what`, like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None
