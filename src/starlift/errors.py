"""Typed error hierarchy.

Every exception carries a stable machine-readable ``code``, equal to its
class name, which CLI error reports print as their ``type``, and an
optional context dict with exact data about what failed (indices,
classes, defects).
"""
from __future__ import annotations


class StarliftError(Exception):
    code = "Error"

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.context = context


class ParseError(StarliftError):
    code = "ParseError"


class BadDegree(StarliftError):
    """A --degree or --maxdeg value outside what the command accepts."""

    code = "BadDegree"


class AntisymmetryViolation(StarliftError):
    code = "AntisymmetryViolation"


class JacobiViolation(StarliftError):
    """Jacobi identity fails; context carries the offending basis triple."""

    code = "JacobiViolation"


class SlotMismatch(StarliftError):
    code = "SlotMismatch"


class TruncationMismatch(StarliftError):
    code = "TruncationMismatch"


class BlockOverlap(StarliftError):
    code = "BlockOverlap"


class IndexOutOfRange(StarliftError):
    code = "IndexOutOfRange"


class NotAntisymmetric(StarliftError):
    code = "NotAntisymmetric"


class NotInMSquared(StarliftError):
    code = "NotInMSquared"


class NotInMTensor(StarliftError):
    code = "NotInMTensor"


class NotHomogeneous(StarliftError):
    code = "NotHomogeneous"


class NotACocycle(StarliftError):
    code = "NotACocycle"


class Obstruction(StarliftError):
    """A cocycle with no primitive; context carries the nonzero class."""

    code = "Obstruction"


class RankCertificate(StarliftError):
    """Internal-consistency failure: a solve that theory says must succeed
    did not. Treated as a bug in this package, never as user error."""

    code = "RankCertificate"


class ObstructionAt4(StarliftError):
    code = "ObstructionAt4"


class NotInvariant(StarliftError):
    code = "NotInvariant"


class NotInWedge3(StarliftError):
    code = "NotInWedge3"


class CompatibilityViolation(StarliftError):
    code = "CompatibilityViolation"


class AlgebraMismatch(StarliftError):
    code = "AlgebraMismatch"


class UnsortedMonomial(StarliftError):
    code = "UnsortedMonomial"


class TruncationTooLow(StarliftError):
    code = "TruncationTooLow"


class NotATrace(StarliftError):
    code = "NotATrace"


class SingularPairing(StarliftError):
    code = "SingularPairing"


class CYBViolation(StarliftError):
    code = "CYBViolation"


class TNotInvariant(StarliftError):
    code = "TNotInvariant"


class NotCentral(StarliftError):
    code = "NotCentral"


class Degenerate(StarliftError):
    code = "Degenerate"
