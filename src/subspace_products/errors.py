"""Exception types shared across the package.

Every error raised by the library derives from :class:`SubspaceProductsError`
so callers (and the CLI) can distinguish library failures from bugs.
"""


class SubspaceProductsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SubspaceProductsError):
    """A JSON input file is malformed; the message carries a field path."""


class EmptyInput(SubspaceProductsError):
    """An operation received an empty collection where data is required."""


class SizeMismatch(SubspaceProductsError):
    """Operands have incompatible shapes."""


class MixedSizes(SizeMismatch):
    """Input matrices differ in side from each other or from their subspace."""


class FieldMismatch(SubspaceProductsError):
    """Operands live over different scalar fields."""


class RealFieldViolation(SubspaceProductsError):
    """A real-field object received entries with nonzero imaginary part."""


class NonFiniteInput(SubspaceProductsError):
    """NaN or Inf entries are not admitted into any operation."""


class ZeroSubspace(SubspaceProductsError):
    """The operation requires a subspace of dimension at least one."""


class SingularTransform(SubspaceProductsError):
    """An equivalence transform matrix is numerically singular."""


class NotMember(SubspaceProductsError):
    """A matrix expected inside a subspace fails the membership test."""


class WrongDimension(SubspaceProductsError):
    """The operation is defined only for subspaces of a specific dimension."""


class NoInvertibleElementFound(SubspaceProductsError):
    """Sampling found no invertible element within the trial budget.

    This is a sampling failure, not a proof that the subspace is singular.
    """


class NotSymmetric(SubspaceProductsError):
    """A real symmetric matrix was required."""


class ZeroScalar(SubspaceProductsError):
    """A nonzero scalar parameter was required."""


class ChainConditionViolated(SubspaceProductsError):
    """Some ordered pair of chain blocks has a nonzero product."""


class UnsupportedDegree(SubspaceProductsError):
    """The degree bound formula is stated only for degrees >= 2."""


class BadParameters(SubspaceProductsError):
    """A parameter is out of range or not an integer where one is required:
    a seed, a count, a catalog constructor's parameter, or a tolerance."""


class NoFactorization(SubspaceProductsError):
    """No factorization exists within the requested subspace pair."""


class SingularWitness(SubspaceProductsError):
    """Every candidate factor found was numerically singular."""
