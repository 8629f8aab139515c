"""Exception hierarchy shared across the package."""
from __future__ import annotations


class CkrError(Exception):
    """Base class for all package errors."""


class ParseError(CkrError):
    """Syntax error in TriG input, with position information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EncodingError(CkrError):
    """Malformed RDF encoding of a normal-form axiom."""


class AssemblyError(CkrError):
    """A dataset does not assemble into a well-formed repository."""


class TranslationError(CkrError):
    """An axiom was handed to the wrong translation."""


class InstanceQueryError(CkrError):
    """Output translation is defined for assertions only."""


class UnknownContextError(CkrError):
    """Entailment was queried against a context the repository lacks."""


class BudgetExceeded(CkrError):
    """Closure computation ran past its time budget."""


class GeneratorError(CkrError):
    """Synthetic generation could not satisfy the requested parameters, or a
    parameter file is malformed."""


class UsageError(CkrError):
    """A command-line argument is malformed."""
