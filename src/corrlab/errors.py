"""Exception types raised by corrlab validators and constructors.

Validation happens at one boundary, where data enters from outside: the
public ``make_*`` constructors (``make_star_hom``, ``make_correspondence``,
``make_iso``, ``make_simplex``), the ``CorrIso`` constructor, and JSON parse
with ``validate=True``.  They raise one of these on failure.  Canonical
constructions from valid inputs are certified by construction and not
re-checked: the ``StarHom`` built by ``identity_hom``, ``compose_homs``,
``gamma_of_hom``, ``u_of_corr``, ``equivalence_inverse``,
``direct_sum_corrs``, tensor products, subdivision connecting homs and
the generators ``embedding_hom`` and ``twist_edge`` (from Bratteli data
through ``_bratteli_hom``, which keeps the data on the hom and builds its
dense view on first read, or by a block map over an existing action), each
passing the multiplicities it knows from its inputs, and the canonical
intertwiners: ``identity_iso``, ``left_unitor``, ``right_unitor``,
``associator``, ``gamma_multiplicativity``, the ``u_of_corr``
factorization iso, the ``equivalence_inverse`` counits, ``tensor_iso``,
``twist_edge``'s cells, and the adjoints and composites of valid
intertwiners.  ``make_iso`` stays checking.  A
simplex's identity edges and unit cells are not data at all:
``NCorrSimplex`` derives them from the unitors and refuses them as input,
so normality needs no check.  JSON parse bounds every ``blocks`` and
``mult`` list before building anything (``DimensionTooLarge``).
``subdivision_functor`` checks the functoriality of its connecting homs on
their Bratteli data, not on their dense matrices, which are views built
from that data on first read (``FunctorialityViolated``).
Validation errors carry the offending residual where one exists, so
callers (and the CLI ``validate`` command) can report how badly an
invariant failed.
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
    "NotStableOnDiagram",
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


class NotStableOnDiagram(ValidationError):
    pass


class BoundaryMismatch(ValidationError):
    pass


class ParseError(CorrLabError):
    pass


class SchemaError(CorrLabError):
    pass
