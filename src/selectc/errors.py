"""Exception hierarchy shared across the toolkit.

Everything raised on bad input derives from SelectcError so the command
line layer can map domain failures to a single exit code.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager


def format_count(n: int) -> str:
    """n in decimal, or "~d.dddddde<exp>" where CPython refuses the exact
    digits (its int-to-str conversion limit, 4,300 digits by default)."""
    try:
        return str(n)
    except ValueError:
        exp = math.floor(math.log10(n))
        mantissa = round(10 ** (math.log10(n) - exp), 6)
        if mantissa >= 10:
            mantissa, exp = mantissa / 10, exp + 1
        return f"~{mantissa:.6f}e{exp}"


class SelectcError(Exception):
    """Base class for all domain errors."""

    path: str | None = None  # the file the error came from, once in_file names it


@contextmanager
def in_file(path: str) -> Iterator[None]:
    """Name path after the message of a SelectcError raised inside, and
    turn a UnicodeDecodeError into a FormatError that names it.

    The innermost in_file names the file, so an error in a file that
    another file names (a table a config names) names the file it came
    from.
    """
    try:
        yield
    except SelectcError as exc:
        if exc.path is None:
            exc.path = path
            exc.args = (f"{exc}, in {path}",)
        raise
    except UnicodeDecodeError:
        error = FormatError(f"not UTF-8 text, in {path}")
        error.path = path
        raise error from None


class ParseError(SelectcError):
    """Source text violates the surface grammar."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class FormatError(SelectcError):
    """A serialized program, key, table, or config file is malformed."""


class LowerError(SelectcError):
    """Surface construct cannot be lowered to three-address statements."""


class UnboundVariableError(SelectcError):
    """Evaluation reached a variable with no binding."""


class ForeignCiphertextError(SelectcError):
    """A ciphertext handle was presented to a key that did not mint it."""


class KeyMismatchError(SelectcError):
    """Selector key does not line up with the combining statements."""


class PoolExhaustedError(SelectcError):
    """The misleading-statement generator ran out of distinct candidates."""


class EnumerationCapError(SelectcError):
    """Program class is too large to enumerate under the configured cap."""

    def __init__(self, class_size: int, cap: int):
        super().__init__(
            f"program class has {format_count(class_size)} members, "
            f"enumeration cap is {format_count(cap)}"
        )
        self.class_size = class_size
        self.cap = cap


class ConfigError(SelectcError):
    """Obfuscation or attack configuration is invalid."""
