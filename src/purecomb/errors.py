"""Package exception types."""


class VerificationError(ValueError):
    """A structural precondition failed numerically: the input does not
    belong to the class the requested construction assumes, or a split it
    computed is inconsistent (dimensions that do not tile, overlapping
    parts, off-block weight, a block that fails its own check)."""
