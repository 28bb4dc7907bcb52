"""Exception types raised by the library, and the relative tolerances of
the numerical guards that raise them."""

# a pivot at or below this multiple of the mean diagonal is numerically zero
PIVOT_REL_TOL = 1e-12
# inverse diagonals within this relative distance of the minimum tie for
# ordering; ties go to the lowest index
TIE_REL_TOL = 1e-9
# a quadratic form that must come out real may carry at most this multiple
# of its real part as an imaginary residue
IMAG_REL_TOL = 1e-9


class GstbcError(Exception):
    """Base class for all library errors."""


class InvalidDimensions(GstbcError, ValueError):
    """Array shapes are inconsistent or outside the supported range, or
    array entries are not finite."""


class NonPositiveAlpha(GstbcError, ValueError):
    """The MMSE regularizer alpha = sigma_n^2 / sigma_s^2 must be real,
    > 0 and finite."""


class OddBitCount(GstbcError, ValueError):
    """QPSK maps bit pairs; the bit vector length must be even."""


class StructureViolation(GstbcError, ValueError):
    """A dense matrix does not carry the required 2x2 block structure."""


class SingularPivot(GstbcError, ArithmeticError):
    """A recursion pivot is non-positive, non-real, or numerically zero."""


class ParseError(GstbcError, ValueError):
    """Malformed text input; carries 1-based line and token positions."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", token {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ConfigInvalid(GstbcError, ValueError):
    """A simulation configuration fails validation."""
