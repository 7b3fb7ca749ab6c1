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
"""

from __future__ import annotations

import os
import re
import sqlite3
from contextlib import closing, suppress
from dataclasses import dataclass
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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>--[^\n]*)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<dquote>"(?:[^"]|"")*")
      | (?P<backtick>`[^`]*`)
      | (?P<bracket>\[[^\]]*\])
      | (?P<string>'(?:[^']|'')*')
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<punct>[(),;])
      | (?P<other>[^\s(),;'"`\[]+)
    """,
    re.VERBOSE,
)

_TABLE_CONSTRAINT_KEYWORDS = {"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize_ddl(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return toks


def _unquote(tok: _Tok) -> str:
    if tok.kind == "dquote":
        return tok.text[1:-1].replace('""', '"')
    if tok.kind in ("backtick", "bracket"):
        return tok.text[1:-1]
    return tok.text


class _DdlParser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def _err(self, message, expected=None):
        if self.pos < len(self.toks):
            tok = self.toks[self.pos]
            raise ParseError(f"{message}, found {tok.text!r}", tok.line, tok.col,
                             expected=expected)
        last = self.toks[-1]
        raise ParseError(f"{message}, found end of input", last.line,
                         last.col + len(last.text), expected=expected)

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
        if tok is None or tok.kind != "word" or tok.text.upper() != word:
            self._err(f"expected {word}", expected=word)
        self.pos += 1

    def expect_punct(self, ch: str):
        tok = self.peek()
        if tok is None or tok.kind != "punct" or tok.text != ch:
            self._err(f"expected {ch!r}", expected=ch)
        self.pos += 1

    def identifier(self, what: str) -> str:
        tok = self.peek()
        if tok is None or tok.kind not in ("word", "dquote", "backtick", "bracket"):
            self._err(f"expected {what}")
        self.pos += 1
        return _unquote(tok)

    def skip_to_comma_or_close(self):
        # Consume type/constraint tokens, balancing nested parens like NUMERIC(10,2).
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                self._err("expected ',' or ')'")
            if tok.kind == "punct":
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.text == "," and depth == 0:
                    return
                elif tok.text == ";":
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
            if tok.kind == "word" and tok.text.upper() in _TABLE_CONSTRAINT_KEYWORDS:
                self.skip_to_comma_or_close()
            else:
                headers.append(self.identifier("column name"))
                self.skip_to_comma_or_close()
            tok = self.take()
            if tok.text == ")":
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
    parser = _DdlParser(toks)
    tables = []
    while parser.peek() is not None:
        tables.append(parser.parse_create_table())
        # tolerate a trailing semicolon after the last statement
        tok = parser.peek()
        if tok is not None and tok.kind == "punct" and tok.text == ";":
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

def open_readonly(location) -> sqlite3.Connection:
    """Connect to an existing SQLite file in read-only (``mode=ro``) mode.
    A missing file raises FileNotFoundError before SQLite is asked."""
    path = os.fspath(location)
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return sqlite3.connect("file:" + quote(os.path.abspath(path)) + "?mode=ro", uri=True)


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
