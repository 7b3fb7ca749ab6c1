"""Exception types raised across the package.

Everything derives from ComdbError, which the CLI prints as
``error: <message>`` with exit code 1. A failure has a class of its own
only where a caller tells it apart by class:

* the package catches it by type: ComdbError, ConfigError, WriteAttempt,
  TransportError and Timeout;
* callers read its fields: ParseError (line, col, expected) and ApiError
  (status, body);
* it is a way one repetition fails on the model's answer (NoMappingFound,
  NoSqlFound) or on the transport (TransportError, Timeout, ApiError).

Every other failure, from a bad name in a schema to a file that is not an
SQLite database, is a ConfigError, and its message says which it is.
"""

from __future__ import annotations


class ComdbError(Exception):
    pass


class ConfigError(ComdbError):
    pass


class ParseError(ComdbError):
    """Syntax error in one of the textual input formats."""

    def __init__(self, message: str, line: int, col: int | None = None,
                 expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{loc}: {message}")


class WriteAttempt(ComdbError):
    def __init__(self, statement_kind: str):
        self.statement_kind = statement_kind
        super().__init__(f"refusing non-read-only statement ({statement_kind})")


# --- chat-completion client ---

class TransportError(ComdbError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"transport failure: {detail}")


class Timeout(ComdbError):
    def __init__(self, seconds: float):
        self.seconds = seconds
        super().__init__(f"request timed out after {seconds}s")


class ApiError(ComdbError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"API returned HTTP {status}: {body[:200]}")


# --- response parsing ---

class NoMappingFound(ComdbError):
    def __init__(self):
        super().__init__("response contains no parseable header mapping")


class NoSqlFound(ComdbError):
    def __init__(self):
        super().__init__("response contains no SQL statement")
