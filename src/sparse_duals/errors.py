"""Exception types shared across the package."""


class SparseDualsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGenerators(SparseDualsError):
    """Semigroup construction needs at least one generator."""


class GcdNotOne(SparseDualsError):
    """Generators with gcd > 1 would leave an infinite complement."""


class NotAnIdeal(SparseDualsError):
    """Candidate complement is not division-closed in its semigroup."""


class NotProper(SparseDualsError):
    """Operation requires a proper ideal (non-empty complement)."""


class NotALeader(SparseDualsError):
    """Element has a two-gap decomposition, so it leads no maximum sparse ideal."""


class DifferentParents(SparseDualsError):
    """Ideals live in different ambient semigroups."""


class NotMaximumSparse(SparseDualsError):
    """Operation is defined for maximum sparse ideals only."""


class NotPrime(SparseDualsError):
    """Field characteristic must be prime."""


class DivisionByZero(SparseDualsError, ZeroDivisionError):
    """Inversion of the zero field element."""


class FieldTooLarge(SparseDualsError):
    """Requested field exceeds the supported size (order > 256)."""


class DuplicatePoints(SparseDualsError):
    """Evaluation points must be pairwise distinct."""


class PointNotOnCurve(SparseDualsError):
    """Point does not satisfy the curve equation."""


class TooManySubsets(SparseDualsError):
    """Exhaustive subset enumeration refused; use the sampling mode."""


class PreconditionViolated(SparseDualsError):
    """Stated precondition of the operation does not hold."""
