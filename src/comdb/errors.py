"""Exception types raised across the package.

Everything derives from ComdbError so callers (notably the CLI) can catch
one base class and map it to a nonzero exit code.
"""

from __future__ import annotations


class ComdbError(Exception):
    pass


# --- schema validation ---

class SchemaError(ComdbError):
    pass


class EmptySchema(SchemaError):
    def __init__(self):
        super().__init__("schema contains no tables")


class EmptyTable(SchemaError):
    def __init__(self, table: str):
        self.table = table
        super().__init__(f"table {table!r} has no headers")


class DuplicateTable(SchemaError):
    def __init__(self, table: str):
        self.table = table
        super().__init__(f"duplicate table name {table!r}")


class DuplicateHeader(SchemaError):
    def __init__(self, table: str, header: str):
        self.table = table
        self.header = header
        super().__init__(f"duplicate header {header!r} in table {table!r}")


class InvalidName(SchemaError):
    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(f"invalid {kind} name {name!r}")


# --- annotation validation ---

class AnnotationError(ComdbError):
    pass


class UnknownTable(AnnotationError):
    def __init__(self, table: str, referrer: str = "annotation"):
        self.table = table
        super().__init__(f"{referrer} references unknown table {table!r}")


class UnknownHeader(AnnotationError):
    def __init__(self, table: str, header: str):
        self.table = table
        self.header = header
        super().__init__(f"table {table!r} has no header {header!r}")


class SelfContext(AnnotationError):
    def __init__(self, table: str):
        self.table = table
        super().__init__(f"table {table!r} appears on both sides of one relation")


class EmptySide(AnnotationError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"relation {index} has an empty subject or object list")


class InvalidGroup(AnnotationError):
    def __init__(self, table: str, reason: str):
        self.table = table
        self.reason = reason
        super().__init__(f"bad header group on table {table!r}: {reason}")


# --- parsing ---

class ParseError(ComdbError):
    """Syntax error in one of the textual input formats."""

    def __init__(self, message: str, line: int, col: int | None = None,
                 expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{loc}: {message}")


class MixedScope(ParseError):
    def __init__(self, line: int, message: str = "line mixes table-level and header-level scope"):
        super().__init__(message, line)


class UnreadableFile(ComdbError):
    def __init__(self, path, reason: str):
        self.path = path
        super().__init__(f"{path}: {reason}")


class EmptyInput(ComdbError):
    def __init__(self, what: str = "input"):
        super().__init__(f"{what} is empty")


# --- database introspection / execution ---

class UnsupportedFormat(ComdbError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"{path}: not an SQLite database file")


class NoTables(ComdbError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"{path}: database contains no user tables")


class BuildFailed(ComdbError):
    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: cannot build database: {detail}")


class WriteAttempt(ComdbError):
    def __init__(self, statement_kind: str):
        self.statement_kind = statement_kind
        super().__init__(f"refusing non-read-only statement ({statement_kind})")


# --- chat-completion client ---

class ClientError(ComdbError):
    pass


class MissingCredentials(ClientError):
    def __init__(self, env_var: str):
        self.env_var = env_var
        super().__init__(f"environment variable {env_var} is not set")


class TransportError(ClientError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"transport failure: {detail}")


class Timeout(ClientError):
    def __init__(self, seconds: float):
        self.seconds = seconds
        super().__init__(f"request timed out after {seconds}s")


class ApiError(ClientError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"API returned HTTP {status}: {body[:200]}")


# --- prompt building and response parsing ---

class MissingAnnotations(ComdbError):
    def __init__(self):
        super().__init__("with-context prompt requested but no annotations given")


class NoMappingFound(ComdbError):
    def __init__(self):
        super().__init__("response contains no parseable header mapping")


class NoSqlFound(ComdbError):
    def __init__(self):
        super().__init__("response contains no SQL statement")


# --- scoring and experiments ---

class TableMismatch(ComdbError):
    def __init__(self, predicted: tuple, gold: tuple):
        self.predicted = predicted
        self.gold = gold
        super().__init__(f"mappings cover different table pairs: {predicted} vs {gold}")


class ConfigError(ComdbError):
    pass


class FixtureMissing(ComdbError):
    def __init__(self, what: str):
        super().__init__(f"required fixture missing: {what}")
