"""Exception types shared across the package."""


class InfgonError(Exception):
    """Base class for every error raised by this library."""


class DegeneratePair(InfgonError):
    """Both endpoints of a would-be arc coincide."""


class NonAdmissible(InfgonError):
    """An arc fails the admissibility test for the given modulus."""


class InvalidDegree(InfgonError):
    """Extension degree outside the supported range (i >= 1)."""


class NoExtension(InfgonError):
    """Requested an extension triangle where Ext^1 vanishes."""


class UnsupportedFamilies(InfgonError):
    """Operation restricted to finite arc sets was given symbolic families."""


class WindowTooSmall(InfgonError):
    """The integer window does not cover the data plus the required margin."""


class IncompatibleArc(InfgonError):
    """Arc violates a rotation precondition (in the divider set, or crossing it)."""


class NonAdmissibleImage(InfgonError):
    """Internal: a rotation produced a non-admissible or divider-crossing arc.

    Rotation provably preserves admissibility and divider compatibility, so
    this error always indicates a bug in the rotation rules, never bad input.
    """


class NonAffinePiece(InfgonError):
    """Internal: a far stretch's sample rows of one residue differ in run count."""


class DNotInFrame(InfgonError):
    """Divider arcs must belong to the rotated set and cross nothing in it."""


class DNotInCore(InfgonError):
    """Divider arcs must lie in the core of the pair being mutated."""


class PairCheckFailed(InfgonError):
    """Mutation requested on a pair whose verification report is negative."""


class UnsupportedFamilyGeometry(InfgonError):
    """A symbolic family could not be rotated by the closed-form rules."""


class TriangleMismatch(InfgonError):
    """The extension-triangle route disagreed with the rotation route."""


class ParseError(InfgonError):
    """Malformed input document."""


class ValidationError(InfgonError):
    """Well-formed input document with invalid content."""
