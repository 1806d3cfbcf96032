"""Exception hierarchy shared by all valdef modules."""


class ValdefError(Exception):
    """Base class for every error raised by this package."""


class NotAUnit(ValdefError):
    """Inversion of a series whose constant term is zero."""


class ZeroDivisor(ValdefError):
    """Division by a series that is zero at its cap."""


class NotDivisible(ValdefError):
    """Division a/b with valuation(a) < valuation(b)."""


class PrecisionExhausted(ValdefError):
    """An operation would leave too few known coefficients to continue."""


class NotInMaximalIdeal(ValdefError):
    """A series or vector expected in m has a nonzero constant term."""


class ZeroVector(ValdefError):
    """Decomposition of a vector that is zero at its cap."""


class DimensionMismatch(ValdefError):
    """Vector or cochain dimensions incompatible with the algebra."""


class UnsupportedDegree(ValdefError):
    """Cohomology requested outside the implemented degree range."""


class InvalidDeformation(ValdefError):
    """Operation requiring a valid deformation got a nonzero residual."""


class NotLie(ValdefError):
    """Lie-algebra operation on a lie-kind table that fails the Jacobi identity."""


class NotAdapted(ValdefError):
    """Root extraction on a basis where ad X is not diagonal."""


class NotRankOne(ValdefError):
    """Root extraction with a torus of dimension other than one."""


class InvalidPoisson(ValdefError):
    """Tensor/opposite construction on a structure failing the axioms."""


class TooLarge(ValdefError):
    """A computation above a documented size bound, refused before it starts."""


class FormatError(ValdefError):
    """Malformed input file or literal."""
