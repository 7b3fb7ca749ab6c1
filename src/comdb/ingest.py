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

The DDL tokenizer keeps only each token's offset; the line and column a
ParseError reports are computed from it when the error is raised.
"""

from __future__ import annotations

import os
import re
import sqlite3
from contextlib import closing, suppress
from pathlib import Path
from urllib.parse import quote

from .errors import BuildFailed, EmptyInput, MixedScope, NoTables, ParseError, UnsupportedFormat
from .schema import (
    ContextRelation,
    DatabaseSchema,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    validate_schema,
)

_SQLITE_MAGIC = b"SQLite format 3\x00"


# --- DDL ---

# One match is one token: leading whitespace and ``--`` comments are
# skipped inside the same match. A match that ends without a token group is
# either the end of the text or an unexpected character at its end.
_TOKEN_RE = re.compile(
    r"""(?:\s+|--[^\n]*)*
      (?: (?P<word>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<dquote>"(?:[^"]|"")*")
        | (?P<backtick>`[^`]*`)
        | (?P<bracket>\[[^\]]*\])
        | (?P<string>'(?:[^']|'')*')
        | (?P<number>\d+(?:\.\d+)?)
        | (?P<punct>[(),;])
        | (?P<other>[^\s(),;'"`\[]+)
      )?
    """,
    re.VERBOSE,
)

_TABLE_CONSTRAINT_KEYWORDS = {"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"}


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset pos; only called on error."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize_ddl(text: str) -> list[tuple[str, str, int]]:
    """Split DDL into ``(kind, text, offset)`` tuples."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            pos = m.end()
            if pos < len(text):
                raise ParseError(f"unexpected character {text[pos]!r}",
                                 *_line_col(text, pos))
            break
        toks.append((kind, m.group(kind), m.start(kind)))
    return toks


def _unquote(kind: str, text: str) -> str:
    if kind == "dquote":
        return text[1:-1].replace('""', '"')
    if kind in ("backtick", "bracket"):
        return text[1:-1]
    return text


class _DdlParser:
    def __init__(self, text: str, toks: list[tuple[str, str, int]]):
        self.text = text
        self.toks = toks
        self.pos = 0

    def _err(self, message, expected=None):
        if self.pos < len(self.toks):
            _, found, offset = self.toks[self.pos]
            raise ParseError(f"{message}, found {found!r}", *_line_col(self.text, offset),
                             expected=expected)
        # End of input is reported one column past the last token's start
        # plus its length, even when that token spans lines.
        _, last, offset = self.toks[-1]
        line, col = _line_col(self.text, offset)
        raise ParseError(f"{message}, found end of input", line, col + len(last),
                         expected=expected)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            self._err("unexpected end of input")
        self.pos += 1
        return tok

    def expect_keyword(self, word: str):
        tok = self.peek()
        if tok is None or tok[0] != "word" or tok[1].upper() != word:
            self._err(f"expected {word}", expected=word)
        self.pos += 1

    def expect_punct(self, ch: str):
        tok = self.peek()
        if tok is None or tok[0] != "punct" or tok[1] != ch:
            self._err(f"expected {ch!r}", expected=ch)
        self.pos += 1

    def identifier(self, what: str) -> str:
        tok = self.peek()
        if tok is None or tok[0] not in ("word", "dquote", "backtick", "bracket"):
            self._err(f"expected {what}")
        self.pos += 1
        return _unquote(tok[0], tok[1])

    def skip_to_comma_or_close(self):
        # Consume type/constraint tokens, balancing nested parens like NUMERIC(10,2).
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                self._err("expected ',' or ')'")
            kind, text, _ = tok
            if kind == "punct":
                if text == "(":
                    depth += 1
                elif text == ")":
                    if depth == 0:
                        return
                    depth -= 1
                elif text == "," and depth == 0:
                    return
                elif text == ";":
                    self._err("expected ',' or ')'")
            self.pos += 1

    def parse_create_table(self) -> TableSchema:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        name = self.identifier("table name")
        self.expect_punct("(")
        headers = []
        while True:
            tok = self.peek()
            if tok is None:
                self._err("expected column definition")
            if tok[0] == "word" and tok[1].upper() in _TABLE_CONSTRAINT_KEYWORDS:
                self.skip_to_comma_or_close()
            else:
                headers.append(self.identifier("column name"))
                self.skip_to_comma_or_close()
            if self.take()[1] == ")":
                break
        if not headers:
            self._err(f"table {name!r} defines no columns")
        if self.peek() is not None:
            self.expect_punct(";")
        return TableSchema(name, tuple(headers))


def parse_ddl(text: str, name: str = "database") -> DatabaseSchema:
    """Parse the restricted CREATE TABLE subset; tables keep statement order."""
    if not text.strip():
        raise EmptyInput("DDL text")
    toks = _tokenize_ddl(text)
    if not toks:
        raise EmptyInput("DDL text")
    parser = _DdlParser(text, toks)
    tables = []
    while parser.peek() is not None:
        tables.append(parser.parse_create_table())
        # tolerate a trailing semicolon after the last statement
        tok = parser.peek()
        if tok is not None and tok[:2] == ("punct", ";"):
            parser.pos += 1
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
