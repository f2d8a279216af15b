"""Exception types raised by corrlab validators and constructors.

Validation happens at one boundary, where data enters from outside: the
public ``make_*`` constructors (``make_star_hom``, ``make_correspondence``,
``make_iso``, ``make_simplex``), the ``CorrIso`` constructor, and every
JSON load.  They raise one of these on failure.  What the
library builds from valid inputs (identities, composites, Gamma, tensor
products, Morita inverses, subdivision connecting homs, the generators'
homs and the canonical intertwiners) is certified by construction and not
re-checked; README's "Trust boundary" gives each construction's argument.
``subdivision_functor`` checks functoriality on its prefix homs' Bratteli
data (``FunctorialityViolated``), and JSON parse bounds every
``blocks`` and ``mult`` list before building anything (``DimensionTooLarge``).
Validation errors carry the offending residual where one exists, so
callers can report how badly an invariant failed; ``corrlab validate``
reports each check a load makes as a line, with its residual.
"""
from __future__ import annotations

__all__ = [
    "CorrLabError",
    "ValidationError",
    "InvalidAlgebra",
    "ShapeMismatch",
    "NotMultiplicative",
    "NotStarPreserving",
    "NotProjection",
    "BaseMismatch",
    "EndpointMismatch",
    "NotUnitary",
    "NotRightLinear",
    "NotIntertwining",
    "PentagonViolated",
    "NotMonotone",
    "Unfillable",
    "IncompatibleFaces",
    "NotAnEquivalence",
    "DimensionTooLarge",
    "IndexOutOfRange",
    "ShapeViolation",
    "NotNested",
    "FunctorialityViolated",
    "OracleFillFailed",
    "CompatibilityViolated",
    "BoundaryMismatch",
    "ParseError",
    "SchemaError",
]


class CorrLabError(Exception):
    """Base class for all corrlab errors."""


class ValidationError(CorrLabError):
    """An invariant check failed.  ``residual`` is the worst offending norm."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class InvalidAlgebra(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NotMultiplicative(ValidationError):
    pass


class NotStarPreserving(ValidationError):
    pass


class NotProjection(ValidationError):
    """A trace of phi(e_00) no rank in its block (``_traced_mult``)."""


class BaseMismatch(ValidationError):
    pass


class EndpointMismatch(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


class NotRightLinear(ValidationError):
    pass


class NotIntertwining(ValidationError):
    pass


class PentagonViolated(ValidationError):
    def __init__(self, i: int, j: int, k: int, l: int, residual: float):
        super().__init__(f"pentagon fails at (i, j, k, l) = ({i}, {j}, {k}, {l})", residual)
        self.indices = (i, j, k, l)


class NotMonotone(ValidationError):
    pass


class Unfillable(ValidationError):
    pass


class IncompatibleFaces(ValidationError):
    pass


class NotAnEquivalence(ValidationError):
    pass


class DimensionTooLarge(CorrLabError):
    pass


class IndexOutOfRange(CorrLabError):
    pass


class ShapeViolation(ValidationError):
    pass


class NotNested(ValidationError):
    pass


class FunctorialityViolated(ValidationError):
    """``residual`` bounds the largest entry of the dense difference."""

    def __init__(self, s, t, u, residual: float):
        super().__init__(f"f_TU . f_ST != f_SU at S={set(s)}, T={set(t)}, U={set(u)}", residual)
        self.chain = (s, t, u)


class OracleFillFailed(ValidationError):
    pass


class CompatibilityViolated(ValidationError):
    pass


class BoundaryMismatch(ValidationError):
    pass


class ParseError(CorrLabError):
    pass


class SchemaError(CorrLabError):
    pass
