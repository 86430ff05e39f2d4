"""Exception types shared across the toolkit.

Every error raised on bad input data derives from DataError so callers
(and the command line front end) can map them to a single exit path.
open_text opens a text input so that bytes that are not UTF-8 raise one too.
"""

from contextlib import contextmanager


class MolmaskError(Exception):
    """Base class for all toolkit errors."""


class DataError(MolmaskError):
    """Input data violates a documented precondition."""


class ParseError(DataError):
    """A SMILES string could not be turned into a molecular graph."""

    def __init__(self, message: str, smiles: str = "", position: int = -1):
        self.smiles = smiles
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position} in {smiles!r})"
        super().__init__(message)


class UnknownToken(ParseError):
    """Unrecognized character or malformed token in a SMILES string."""


class UnclosedRing(ParseError):
    """A ring-closure digit was opened but never closed."""


class UnbalancedParen(ParseError):
    """Branch parentheses do not balance."""


class MultiFragment(ParseError):
    """The SMILES encodes more than one connected fragment."""


class DisconnectedMotif(DataError):
    """An atom set handed to the signature routine induces a disconnected subgraph."""


class ShapeMismatch(DataError):
    """An array or file does not have the expected shape."""


class NonFiniteScore(DataError):
    """Externally supplied node scores contain NaN or infinity."""


class OutOfRangeIndex(DataError):
    """Per-atom input does not cover the target graph's atoms."""


class DimMismatch(DataError):
    """Embedding dimensionality does not match the codebook."""


class EmptyCounts(DataError):
    """An information-theoretic quantity was requested from zero observations."""


class MissingColumn(DataError):
    """A dataset file lacks a required column."""


@contextmanager
def open_text(path, newline=None):
    """Open a text input for reading as UTF-8, with or without a
    byte-order mark; bytes that do not decode raise DataError naming
    the file."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
