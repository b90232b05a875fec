"""Exception hierarchy.

Everything raised on purpose by this package derives from :class:`CycalcError`,
so callers (in particular the CLI) can map domain failures to a single exit
code without enumerating causes.
"""


class CycalcError(Exception):
    """Base class for all errors raised by cycalc."""


class UnknownBase(CycalcError):
    """Requested base id is not a builtin family and not in the user catalog."""


class InvalidParams(CycalcError):
    """Family parameters violate the family's validity constraints."""


class DegreeOutOfRange(CycalcError):
    """Construction degree d is outside 1 <= d <= m."""


class HypothesisViolation(CycalcError):
    """A standing hypothesis fails (canonical bundle not L^-m, or the
    decomposition is not stable under the order-2 character)."""


class UnresolvedGenerator(CycalcError):
    """A word contains a symbolic generator with no substitution entry."""


class NotPureShiftable(CycalcError):
    """A normal form with a nonzero line-twist exponent cannot witness the
    fractional Calabi-Yau property (no power of it is a pure shift)."""


class InvalidWeights(CycalcError):
    """Weight system does not admit a Fermat-type member of the given degree."""


class NegativeDimension(CycalcError):
    """A dimension count went below zero; the inputs are inconsistent."""


class HodgeUnsupported(CycalcError):
    """Hodge/Hochschild data is only computed for hypersurfaces in (weighted)
    projective spaces and double covers of projective spaces."""


class SizeLimitExceeded(CycalcError):
    """A base's numbers, a Hodge/Hochschild request or a sweep window would
    exceed its size ceiling; it is refused before any series, table or case
    is computed."""


class ParseError(CycalcError):
    """Catalog file is not valid JSON of the expected shape."""


class ValidationError(CycalcError):
    """Catalog entry violates the schema; the message names the field."""
