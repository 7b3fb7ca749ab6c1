"""Load schemas and annotations from external sources.

Supported sources:

* restricted DDL text: ``CREATE TABLE name (col TYPE ..., ...);`` statements,
  ``--`` comments; column types and constraints are parsed and discarded
* fixture files (.schema): one ``table: h1, h2, ...`` per line
* SQLite database files, introspected read-only (schema only, never rows)
* annotation files (.ctx): ``a, b => x, y`` table relations and
  ``t.h1, t.h2 => concept: phrase`` header groups

Header and table names may contain spaces; commas delimit lists, so a comma
is the one character a name cannot contain (plus newlines, and ``:`` in
fixture table names). ``#`` starts a comment line in .schema/.ctx files.

The DDL tokenizer keeps only each token's text. When a ParseError is raised,
the text is matched again up to the failing token to find its offset, and
the line and column it reports come from that.
"""

from __future__ import annotations

import os
import re
import sqlite3
import string
from contextlib import closing, suppress
from itertools import islice
from pathlib import Path
from urllib.parse import quote

from .errors import (
    BuildFailed,
    EmptyInput,
    MixedScope,
    NoTables,
    ParseError,
    UnreadableFile,
    UnsupportedFormat,
)
from .schema import (
    ContextRelation,
    DatabaseSchema,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    validate_schema,
)

_SQLITE_MAGIC = b"SQLite format 3\x00"


def read_text(path) -> str:
    """The UTF-8 text of the file at path. A directory or a file that is
    not UTF-8 is an UnreadableFile; a missing file stays FileNotFoundError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError:
        raise UnreadableFile(path, "is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise UnreadableFile(path, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# --- DDL ---

# One match is one token: leading whitespace and ``--`` comments are
# skipped inside the same match, and the one group is the token's text. Its
# first character tells its kind: a letter or ``_`` starts a word, ``"``,
# ``[`` or a backtick a quoted name, ``(),;`` is punctuation. The last
# alternative takes a quote or ``[`` that is never closed, so such a
# one-character token marks an unexpected character. The match at the end
# of the text has no token, so the list of texts always ends with "".
_TOKEN_RE = re.compile(
    r"""(?:\s+|--[^\n]*)*
      ( [A-Za-z_][A-Za-z0-9_]*
      | "(?:[^"]|"")*"
      | `[^`]*`
      | \[[^\]]*\]
      | '(?:[^']|'')*'
      | \d+(?:\.\d+)?
      | [(),;]
      | [^\s(),;'"`\[]+
      | \S
      )?
    """,
    re.VERBOSE,
)

_UNCLOSED = ('"', "'", "`", "[")
_NAME_START = frozenset(string.ascii_letters + '_"`[')
# Only a word upper-cases to a keyword (these, CREATE or TABLE), so the
# parser compares texts and checks no token kind.
_TABLE_CONSTRAINT_KEYWORDS = {"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"}


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset pos; only called on error."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_start(text: str, i: int) -> int:
    """Offset of token i, found by matching again; only called on error."""
    return next(islice(_TOKEN_RE.finditer(text), i, None)).start(1)


def _tokenize_ddl(text: str) -> list[str]:
    """Split DDL into token texts that end with "" for the end of input.
    The first unclosed quote or bracket is a ParseError."""
    toks = _TOKEN_RE.findall(text)
    bad = [toks.index(c) for c in _UNCLOSED if c in toks]
    if bad:
        pos = _token_start(text, min(bad))
        raise ParseError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
    return toks


def _parse_error(text: str, toks: list[str], i: int, message: str,
                 expected: str | None = None) -> ParseError:
    if toks[i]:
        return ParseError(f"{message}, found {toks[i]!r}",
                          *_line_col(text, _token_start(text, i)), expected=expected)
    # End of input is reported one column past the last token's start
    # plus its length, even when that token spans lines.
    line, col = _line_col(text, _token_start(text, i - 1))
    return ParseError(f"{message}, found end of input", line, col + len(toks[i - 1]),
                      expected=expected)


def _unquote(tok: str) -> str:
    if tok[0] == '"':
        return tok[1:-1].replace('""', '"')
    if tok[0] in "`[":
        return tok[1:-1]
    return tok


def parse_ddl(text: str, name: str = "database") -> DatabaseSchema:
    """Parse the restricted CREATE TABLE subset; tables keep statement order."""
    if not text.strip():
        raise EmptyInput("DDL text")
    toks = _tokenize_ddl(text)
    if not toks[0]:
        raise EmptyInput("DDL text")
    tables = []
    i = 0
    while toks[i]:
        if toks[i].upper() != "CREATE":
            raise _parse_error(text, toks, i, "expected CREATE", "CREATE")
        if toks[i + 1].upper() != "TABLE":
            raise _parse_error(text, toks, i + 1, "expected TABLE", "TABLE")
        if toks[i + 2][:1] not in _NAME_START:
            raise _parse_error(text, toks, i + 2, "expected table name")
        table = _unquote(toks[i + 2])
        if toks[i + 3] != "(":
            raise _parse_error(text, toks, i + 3, "expected '('", "(")
        i += 4
        headers = []
        while True:
            tok = toks[i]
            if not tok:
                raise _parse_error(text, toks, i, "expected column definition")
            if tok.upper() not in _TABLE_CONSTRAINT_KEYWORDS:
                if tok[0] not in _NAME_START:
                    raise _parse_error(text, toks, i, "expected column name")
                headers.append(_unquote(tok))
                i += 1
            # Skip type and constraint tokens, balancing nested parens like
            # NUMERIC(10,2), up to the ',' or ')' that ends the definition.
            depth = 0
            while True:
                tok = toks[i]
                if tok == ",":
                    if not depth:
                        break
                elif tok == ")":
                    if not depth:
                        break
                    depth -= 1
                elif tok == "(":
                    depth += 1
                elif tok == ";" or not tok:
                    raise _parse_error(text, toks, i, "expected ',' or ')'")
                i += 1
            i += 1
            if tok == ")":
                break
        if not headers:
            raise _parse_error(text, toks, i, f"table {table!r} defines no columns")
        tables.append(TableSchema(table, tuple(headers)))
        if toks[i]:
            if toks[i] != ";":
                raise _parse_error(text, toks, i, "expected ';'", ";")
            i += 1
            # a doubled ';' is tolerated
            if toks[i] == ";":
                i += 1
    return DatabaseSchema(name, tuple(tables))


# --- fixture format ---

def parse_fixture(text: str, name: str = "database") -> DatabaseSchema:
    """One ``table: h1, h2, ...`` per line; validation errors propagate."""
    tables = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'table: header, header, ...'", lineno)
        table_part, header_part = line.split(":", 1)
        table = table_part.strip()
        if not table:
            raise ParseError("empty table name", lineno)
        if not header_part.strip():
            raise ParseError(f"table {table!r} lists no headers", lineno)
        headers = [h.strip() for h in header_part.split(",")]
        if any(not h for h in headers):
            raise ParseError("empty header name", lineno)
        tables.append(TableSchema(table, tuple(headers)))
    if not tables:
        raise EmptyInput("fixture text")
    schema = DatabaseSchema(name, tuple(tables))
    validate_schema(schema)
    return schema


def render_fixture(schema: DatabaseSchema) -> str:
    """Inverse of parse_fixture."""
    lines = [f"{t.name}: {', '.join(t.headers)}" for t in schema.tables]
    return "\n".join(lines) + "\n"


# --- annotation format ---

def parse_annotations(text: str) -> OntologyAnnotations:
    relations = []
    groups = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=>" not in line:
            raise ParseError("expected '=>'", lineno)
        left, right = (part.strip() for part in line.split("=>", 1))
        if not left:
            raise ParseError("empty subject side", lineno)
        if not right:
            raise ParseError("empty object side", lineno)
        if right.startswith("concept:"):
            concept = right[len("concept:"):].strip()
            if not concept:
                raise ParseError("empty concept phrase", lineno)
            table = None
            headers = []
            for ref in (p.strip() for p in left.split(",")):
                if "." not in ref:
                    raise MixedScope(lineno,
                                     f"header group needs table.header references, got {ref!r}")
                t, h = (s.strip() for s in ref.split(".", 1))
                if not t or not h:
                    raise ParseError(f"bad header reference {ref!r}", lineno)
                if table is None:
                    table = t
                elif t != table:
                    raise MixedScope(lineno,
                                     f"header group spans tables {table!r} and {t!r}")
                headers.append(h)
            groups.append(HeaderContextGroup(table, tuple(headers), concept))
        else:
            subjects = [p.strip() for p in left.split(",")]
            objects = [p.strip() for p in right.split(",")]
            if any(not n for n in subjects + objects):
                raise ParseError("empty table name in relation", lineno)
            if any("." in n for n in subjects + objects):
                raise MixedScope(lineno,
                                 "table relation mixes in a table.header reference")
            relations.append(ContextRelation(tuple(subjects), tuple(objects)))
    return OntologyAnnotations(tuple(relations), tuple(groups))


def render_annotations(ann: OntologyAnnotations) -> str:
    """Inverse of parse_annotations."""
    lines = []
    for rel in ann.table_relations:
        lines.append(f"{', '.join(rel.subjects)} => {', '.join(rel.objects)}")
    for group in ann.header_groups:
        refs = ", ".join(f"{group.table}.{h}" for h in group.headers)
        lines.append(f"{refs} => concept: {group.concept}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# --- SQLite ---

def open_readonly(location, *, check_same_thread: bool = True) -> sqlite3.Connection:
    """Connect to an existing SQLite file in read-only (``mode=ro``) mode.
    A missing file raises FileNotFoundError before SQLite is asked.
    check_same_thread is passed to sqlite3.connect."""
    path = os.fspath(location)
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return sqlite3.connect("file:" + quote(os.path.abspath(path)) + "?mode=ro", uri=True,
                           check_same_thread=check_same_thread)


def introspect_database(location) -> DatabaseSchema:
    """Read table and column names from an SQLite file. Opens read-only and
    touches only sqlite_master and table_info, never row data."""
    path = os.fspath(location)
    con = open_readonly(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_SQLITE_MAGIC))
        if magic and magic != _SQLITE_MAGIC:
            raise UnsupportedFormat(path)
        rows = con.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name NOT LIKE 'sqlite_%'").fetchall()
        tables = []
        for (table_name,) in rows:
            cols = con.execute(
                f"PRAGMA table_info({_quote_ident(table_name)})").fetchall()
            tables.append(TableSchema(table_name, tuple(c[1] for c in cols)))
    except sqlite3.DatabaseError as exc:
        raise UnsupportedFormat(path) from exc
    finally:
        con.close()
    if not tables:
        raise NoTables(path)
    return DatabaseSchema(Path(path).stem, tuple(tables))


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def build_database(schema: DatabaseSchema, location) -> None:
    """Create an empty SQLite database with one TEXT column per header.

    All tables are created in one transaction. If SQLite rejects any of
    them, the file is removed and BuildFailed is raised.
    """
    path = os.fspath(location)
    if os.path.exists(path):
        raise FileExistsError(path)
    try:
        with closing(sqlite3.connect(path, isolation_level=None)) as con:
            con.execute("BEGIN")
            for table in schema.tables:
                cols = ", ".join(f"{_quote_ident(h)} TEXT" for h in table.headers)
                con.execute(f"CREATE TABLE {_quote_ident(table.name)} ({cols})")
            con.execute("COMMIT")
    except sqlite3.Error as exc:
        with suppress(FileNotFoundError):
            os.remove(path)
        raise BuildFailed(path, str(exc)) from exc
