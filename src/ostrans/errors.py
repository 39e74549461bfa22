"""Exception types shared across the library."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class UnknownSort(AlgebraError):
    pass


class CycleDetected(AlgebraError):
    pass


class InvalidSignature(AlgebraError):
    pass


class IllFormedTerm(AlgebraError):
    pass


class AmbiguousSort(AlgebraError):
    pass


class UnboundVariable(AlgebraError):
    pass


class SortViolation(AlgebraError):
    pass


class InconsistentAnnotation(AlgebraError):
    pass


class NotStrictlySensible(AlgebraError):
    pass


class RenameCollision(AlgebraError):
    pass


class NoPath(AlgebraError):
    pass


class UntranslatableSort(AlgebraError):
    pass


class BudgetExceeded(AlgebraError):
    pass


class SpecError(AlgebraError):
    """Parse or elaboration error carrying a 1-based source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class SpecSyntaxError(SpecError):
    pass


class DuplicateDeclaration(SpecError):
    pass


class CastNameReserved(SpecError):
    pass


class SpecUnknownSort(SpecError, UnknownSort):
    """Unknown sort in a spec file, with a source location."""
