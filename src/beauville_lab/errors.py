"""Shared engine errors."""


class OutsideModelError(ValueError):
    """Raised when a requested operation leaves the finite cycle model."""


class EvalError(ValueError):
    """Raised when an eval expression has no value in its context."""
