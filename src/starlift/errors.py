"""Typed error hierarchy.

Every exception carries a stable machine-readable ``code``, set to its
class name when the class is defined (the base's is "Error"), which CLI
error reports print as their ``type``, and an optional context dict with
exact data about what failed (indices, classes, defects).
"""
from __future__ import annotations


class StarliftError(Exception):
    code = "Error"

    def __init_subclass__(cls):
        cls.code = cls.__name__

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.context = context


class ParseError(StarliftError):
    pass


class BadDegree(StarliftError):
    """A --degree or --maxdeg value outside what the command accepts."""


class AntisymmetryViolation(StarliftError):
    pass


class JacobiViolation(StarliftError):
    """Jacobi identity fails; context carries the offending basis triple."""


class SlotMismatch(StarliftError):
    pass


class TruncationMismatch(StarliftError):
    pass


class BlockOverlap(StarliftError):
    pass


class IndexOutOfRange(StarliftError):
    pass


class NotAntisymmetric(StarliftError):
    pass


class NotInMSquared(StarliftError):
    pass


class NotInMTensor(StarliftError):
    pass


class NotHomogeneous(StarliftError):
    pass


class NotACocycle(StarliftError):
    pass


class Obstruction(StarliftError):
    """A cocycle with no primitive; context carries the nonzero class."""


class RankCertificate(StarliftError):
    """Internal-consistency failure: a solve that theory says must succeed
    did not. Treated as a bug in this package, never as user error."""


class ObstructionAt4(StarliftError):
    pass


class NotInvariant(StarliftError):
    pass


class NotInWedge3(StarliftError):
    pass


class CompatibilityViolation(StarliftError):
    pass


class AlgebraMismatch(StarliftError):
    pass


class UnsortedMonomial(StarliftError):
    pass


class TruncationTooLow(StarliftError):
    pass


class NotATrace(StarliftError):
    pass


class SingularPairing(StarliftError):
    pass


class CYBViolation(StarliftError):
    pass


class TNotInvariant(StarliftError):
    pass


class NotCentral(StarliftError):
    pass


class Degenerate(StarliftError):
    pass
