"""Exception vocabulary shared by all modules, and the integer check."""

import numbers


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input (non-finite point, bad geometry, ...)."""


class NeedsLargerTableError(InvalidInputError):
    """A prime table does not cover all prime factors of the requested integer."""


class OutOfRangeError(InvalidInputError):
    """A reconstructed index p^alpha exceeds the supported degree range."""


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds the configured sampling budget."""


class IllConditionedError(RuntimeError):
    """A linear system is rank deficient beyond what regularization absorbs."""

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class InvalidAnchorError(InvalidInputError):
    """A pole anchor does not lie strictly inside its complementary component."""


class PoleError(ZeroDivisionError):
    """Evaluation requested exactly at a pole anchor."""


class NumericalFailureError(RuntimeError):
    """An iterative procedure failed to reach its target (non-convergence)."""


def integral(raw, what: str) -> int:
    """int(raw) for an integral real number; a boolean, a string or 1.7 is
    invalid input, where int() would accept True and truncate 1.7 to 1."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real) or not (
        isinstance(raw, numbers.Integral) or float(raw).is_integer()
    ):
        raise InvalidInputError(f"{what} must be an integer, got {raw!r}")
    return int(raw)
