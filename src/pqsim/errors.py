"""Error types shared across the package, and the ``_make`` of the records that check their fields."""

__all__ = ["PqsimError", "ScenarioError", "ValidationError"]


class PqsimError(Exception):
    """Base class for errors raised by this package."""


class ScenarioError(PqsimError, ValueError):
    """A scenario file could not be parsed (bad JSON, missing or ill-typed fields)."""


class ValidationError(PqsimError, ValueError):
    """A scenario violates a model admissibility bound (step size, relaxation time)."""


def checked_make(cls, values):
    """``cls(*values)``: set as ``_make = classmethod(checked_make)``, it makes ``_make`` and ``_replace`` check."""
    return cls(*values)
