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

DDL is read in one pass. A plain statement (bare names, a column list with
no parentheses, quotes, ``-`` or ``;``, whitespace and ``--`` comments
between statements) takes one regular-expression match, and its later
column names one findall. From the first statement that is not plain, the
token parser reads the rest of the text; it returns the same tables for
plain statements too and is the only source of DDL errors. On a ParseError
the text is matched again, from where the token parser started up to the
failing token, and the line and column come from that token's offset.

build_database writes only the file header and an empty root page per
table; SQLite, with writable_schema on, inserts the schema rows and lays
out their pages. That takes time linear in the size of the schema, where
one CREATE TABLE per table takes time quadratic in the number of tables.
SQLite then reads the file back once, parsing every statement, so that it
still refuses what a CREATE TABLE would have refused.
"""

from __future__ import annotations

import os
import re
import sqlite3
import string
import struct
import sys
from contextlib import closing, suppress
from itertools import islice
from urllib.parse import quote

from .errors import ConfigError, ParseError
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
    """The UTF-8 text of the file at path, or of the bytes on standard
    input when path is None, less a leading byte-order mark, newlines
    translated in a file. A directory, or bytes that are not UTF-8, is a
    ConfigError; a missing file stays FileNotFoundError."""
    try:
        if path is None:
            return sys.stdin.buffer.read().decode("utf-8").removeprefix("\ufeff")
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a file") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path or 'standard input'}: "
                          f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


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


def _token_start(text: str, start: int, i: int) -> int:
    """Offset of token i of text[start:], found by matching again; on error only."""
    return next(islice(_TOKEN_RE.finditer(text, start), i, None)).start(1)


def _tokenize_ddl(text: str, start: int) -> list[str]:
    """Split text[start:] into token texts that end with "" for the end of
    input. The first unclosed quote or bracket is a ParseError."""
    toks = _TOKEN_RE.findall(text, start)
    bad = [toks.index(c) for c in _UNCLOSED if c in toks]
    if bad:
        pos = _token_start(text, start, min(bad))
        raise ParseError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
    return toks


def _parse_error(text: str, start: int, toks: list[str], i: int, message: str,
                 expected: str | None = None) -> ParseError:
    if toks[i]:
        return ParseError(f"{message}, found {toks[i]!r}",
                          *_line_col(text, _token_start(text, start, i)), expected=expected)
    # End of input is reported one column past the last token's start
    # plus its length, even when that token spans lines.
    line, col = _line_col(text, _token_start(text, start, i - 1))
    return ParseError(f"{message}, found end of input", line, col + len(toks[i - 1]),
                      expected=expected)


def _unquote(tok: str) -> str:
    if tok[0] == '"':
        return tok[1:-1].replace('""', '"')
    if tok[0] in "`[":
        return tok[1:-1]
    return tok


# The statement-level fast path. One match of _PLAIN_STATEMENT_RE is one
# statement: CREATE TABLE, a bare table name and a column list with no
# character that could open a nested token, a comment or a new statement, so
# its commas split the column definitions exactly as the token parser splits
# them. Whitespace and ``--`` comments (_SKIP) may come before the statement,
# before its ';' and after it, elsewhere only whitespace. A _SKIP comment
# must run to the end of its line, so no backtracking can end it early and
# start a statement inside it. A column name (_BARE_COLUMN) is a bare name
# that is no table-constraint keyword and ends where its definition's first
# run of non-space, non-comma characters ends. Its keyword lookahead opens
# with a first-letter guard, so most names leave it after one character.
# Group 2 is the first definition's name, group 3 the rest of the list.
# _COLUMN_NAME_RE finds the name after each comma; with fewer names than
# commas, the statement is not plain.
_SKIP = r"\s*(?:--[^\n]*(?![^\n])\s*)*"
_KEYWORD_INITIALS = "".join(sorted({k[0] for k in _TABLE_CONSTRAINT_KEYWORDS}))
_BARE_COLUMN = (rf"(?!(?=[{_KEYWORD_INITIALS}{_KEYWORD_INITIALS.lower()}])"
                rf"(?ai:{'|'.join(sorted(_TABLE_CONSTRAINT_KEYWORDS))})(?![A-Za-z0-9_]))"
                r"[A-Za-z_][A-Za-z0-9_]*(?![^\s,)])")
_PLAIN_STATEMENT_RE = re.compile(
    rf"{_SKIP}(?ai:create)\s+(?ai:table)\s+([A-Za-z_][A-Za-z0-9_]*)\s*"
    rf"\(\s*({_BARE_COLUMN})([^()'\"`\[;-]*)\){_SKIP};{_SKIP}")
_COLUMN_NAME_RE = re.compile(rf",\s*({_BARE_COLUMN})")


def parse_ddl(text: str, name: str = "database") -> DatabaseSchema:
    """Parse the restricted CREATE TABLE subset; tables keep statement order.
    Plain statements are matched one at a time. From the first statement
    that is not plain, the token parser reads the rest and raises any error."""
    tables = []
    pos = 0
    # match() at each statement's offset, not finditer(): a search would
    # retry at every later offset after the first statement that is not plain.
    while m := _PLAIN_STATEMENT_RE.match(text, pos):
        names = _COLUMN_NAME_RE.findall(m[3])
        if len(names) < m[3].count(","):
            break
        tables.append(TableSchema(m[1], (m[2], *names)))
        pos = m.end()
    if pos < len(text) or not tables:
        tables += _parse_ddl_tokens(text, pos)
    return DatabaseSchema(name, tuple(tables))


def _parse_ddl_tokens(text: str, start: int) -> list[TableSchema]:
    """The token parser for text[start:]: every DDL the subset allows, every error."""
    toks = _tokenize_ddl(text, start)
    if not toks[0]:
        raise ConfigError("DDL text is empty")
    tables = []
    # start is 0 or just after a ';', so the doubled ';' tolerated below may lead.
    i = 1 if start and toks[0] == ";" else 0
    while toks[i]:
        if toks[i].upper() != "CREATE":
            raise _parse_error(text, start, toks, i, "expected CREATE", "CREATE")
        if toks[i + 1].upper() != "TABLE":
            raise _parse_error(text, start, toks, i + 1, "expected TABLE", "TABLE")
        if toks[i + 2][:1] not in _NAME_START:
            raise _parse_error(text, start, toks, i + 2, "expected table name")
        table = _unquote(toks[i + 2])
        if toks[i + 3] != "(":
            raise _parse_error(text, start, toks, i + 3, "expected '('", "(")
        i += 4
        headers = []
        while True:
            tok = toks[i]
            if not tok:
                raise _parse_error(text, start, toks, i, "expected column definition")
            if tok.upper() not in _TABLE_CONSTRAINT_KEYWORDS:
                if tok[0] not in _NAME_START:
                    raise _parse_error(text, start, toks, i, "expected column name")
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
                    raise _parse_error(text, start, toks, i, "expected ',' or ')'")
                i += 1
            i += 1
            if tok == ")":
                break
        if not headers:
            raise _parse_error(text, start, toks, i, f"table {table!r} defines no columns")
        tables.append(TableSchema(table, tuple(headers)))
        if toks[i]:
            if toks[i] != ";":
                raise _parse_error(text, start, toks, i, "expected ';'", ";")
            i += 1
            # a doubled ';' is tolerated
            if toks[i] == ";":
                i += 1
    return tables


# --- fixture format ---

def parse_fixture(text: str, name: str = "database") -> DatabaseSchema:
    """One ``table: h1, h2, ...`` per line; validation errors propagate."""
    tables = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        raise ConfigError("fixture text is empty")
    schema = DatabaseSchema(name, tuple(tables))
    validate_schema(schema)
    return schema


def render_fixture(schema: DatabaseSchema) -> str:
    """Inverse of parse_fixture. Raises ConfigError for a name that
    parse_fixture would read back as another: a table name holding ':' or
    opening with '#', or any name with surrounding whitespace."""
    for table in schema.tables:
        for kind, name in (("table", table.name), *(("header", h) for h in table.headers)):
            if (name != name.strip()
                    or kind == "table" and (":" in name or name.startswith("#"))):
                raise ConfigError(f"invalid {kind} name {name!r}")
    lines = [f"{t.name}: {', '.join(t.headers)}" for t in schema.tables]
    return "\n".join(lines) + "\n"


# --- annotation format ---

def parse_annotations(text: str) -> OntologyAnnotations:
    relations = []
    groups = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, arrow, right = map(str.strip, line.partition("=>"))
        if not arrow:
            raise ParseError("expected '=>'", lineno)
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
                    raise ParseError(
                        f"header group needs table.header references, got {ref!r}", lineno)
                t, h = (s.strip() for s in ref.split(".", 1))
                if not t or not h:
                    raise ParseError(f"bad header reference {ref!r}", lineno)
                if table is None:
                    table = t
                elif t != table:
                    raise ParseError(f"header group spans tables {table!r} and {t!r}", lineno)
                headers.append(h)
            groups.append(HeaderContextGroup(table, tuple(headers), concept))
        else:
            subjects = [p.strip() for p in left.split(",")]
            objects = [p.strip() for p in right.split(",")]
            if "" in subjects or "" in objects:
                raise ParseError("empty table name in relation", lineno)
            if "." in left or "." in right:
                raise ParseError("table relation mixes in a table.header reference", lineno)
            relations.append(ContextRelation(subjects, objects))
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

def check_sqlite_file(location) -> None:
    """Raise unless location names a file SQLite can open: FileNotFoundError
    if it is missing, ConfigError if it is a directory or is neither empty
    nor starts with the SQLite header."""
    path = os.fspath(location)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_SQLITE_MAGIC))
    except FileNotFoundError:
        raise FileNotFoundError(path) from None
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a file") from None
    if magic and magic != _SQLITE_MAGIC:
        raise ConfigError(f"{path}: not an SQLite database file")


# Bound on the bytes of any one string or blob a statement makes
# (SQLITE_LIMIT_LENGTH), so that it cannot take memory at will.
SQL_LENGTH_LIMIT = 16 * 1024 * 1024
# Bound on SQLite's heap (hard_heap_limit), which also holds a statement's
# temporary b-trees once temp_store is MEMORY, so that they cannot fill the
# disk. SQLite keeps one such bound per process, and a pragma only lowers it.
SQL_HEAP_LIMIT = 64 * 1024 * 1024


def open_readonly(location) -> sqlite3.Connection:
    """Connect read-only (``mode=ro``) to an existing SQLite file, bounded by
    restrict. check_sqlite_file's errors come before SQLite is asked."""
    path = os.fspath(location)
    check_sqlite_file(path)
    return restrict(sqlite3.connect("file:" + quote(os.path.abspath(path)) + "?mode=ro", uri=True))


_BOUND_PRAGMAS = ("query_only", "temp_store", "hard_heap_limit")


def _keep_bounds(action, arg1, arg2, *_):
    """restrict's authorizer: refuse a statement that sets one of
    _BOUND_PRAGMAS. SQLite applies such a pragma as it prepares it, so even
    under EXPLAIN it would lift the bound for every later statement."""
    if action == sqlite3.SQLITE_PRAGMA and arg2 is not None and arg1.lower() in _BOUND_PRAGMAS:
        return sqlite3.SQLITE_DENY
    return sqlite3.SQLITE_OK


def restrict(con: sqlite3.Connection) -> sqlite3.Connection:
    """Bound con for untrusted SQL and return it: SQL_LENGTH_LIMIT on Python
    3.11+, and, where SQLite has hard_heap_limit, SQL_HEAP_LIMIT set for the
    whole process and temporary b-trees kept in memory under it. PRAGMA
    query_only is set last, once, so evaluate.execute_sql need not set it
    per statement. Then an authorizer refuses any statement that sets one
    of these three pragmas again; reading them, and any other pragma, stays
    allowed."""
    if hasattr(con, "setlimit"):
        con.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, SQL_LENGTH_LIMIT)
    if con.execute(f"PRAGMA hard_heap_limit = {SQL_HEAP_LIMIT}").fetchone():
        con.execute("PRAGMA temp_store = MEMORY")
    con.execute("PRAGMA query_only = 1")
    con.set_authorizer(_keep_bounds)
    return con


def introspect_database(location) -> DatabaseSchema:
    """Read table and column names from an SQLite file. Opens read-only and
    touches only sqlite_master and table_info, never row data."""
    path = os.fspath(location)
    con = open_readonly(path)
    try:
        rows = con.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\'").fetchall()
        tables = []
        for (table_name,) in rows:
            cols = con.execute(
                f"PRAGMA table_info({_quote_ident(table_name)})").fetchall()
            tables.append(TableSchema(table_name, tuple(c[1] for c in cols)))
    except sqlite3.DatabaseError as exc:
        raise ConfigError(f"{path}: not an SQLite database file") from exc
    finally:
        con.close()
    if not tables:
        raise ConfigError(f"{path}: database contains no user tables")
    return DatabaseSchema(os.path.splitext(os.path.basename(path))[0], tuple(tables))


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


# The schema-only database starts as the part of the SQLite file format
# (https://www.sqlite.org/fileformat2.html) that needs no layout: the file
# header and n+1 empty table-leaf pages of 4096 bytes. Page 1 holds the
# 100-byte header and the empty root of the sqlite_schema table; pages 2 to
# n+1 are the roots of the n tables. SQLite lays out the rest itself.

_PAGE = 4096
# A table b-tree leaf page with no cells, its content area at the page end.
_EMPTY_LEAF = struct.pack(">BHHHB", 0x0D, 0, 0, _PAGE, 0).ljust(_PAGE, b"\0")


def reserved_name(name: str) -> bool:
    """Whether SQLite refuses to create a table of this name: one that
    starts with the prefix it reserves, sqlite_, in any ASCII case."""
    return name[:7].isascii() and name[:7].lower() == "sqlite_"


def create_table_sql(table: TableSchema) -> str:
    """CREATE TABLE "t" ("h" TEXT, ...) for table, as SQLite stores it."""
    cols = '" TEXT, "'.join([h.replace('"', '""') for h in table.headers])
    return f'CREATE TABLE {_quote_ident(table.name)} ("{cols}" TEXT)'


def build_database(schema: DatabaseSchema, location) -> None:
    """Create an empty SQLite database with one TEXT column per header.

    One CREATE TABLE per table takes time quadratic in the number of
    tables: SQLite reads its whole schema table again after each one. So
    the file is created exclusively and started with the file header and
    one empty root page per table. Then one connection with writable_schema
    on inserts, in one transaction, the sqlite_schema rows the CREATE TABLE
    loop would have stored, each naming its table's root page, and SQLite
    lays out the schema table's pages itself. The file is neither journaled
    nor synced. On Python 3.12+ the connection's defensive mode, which
    would make SQLite refuse those inserts, is turned off.

    Then SQLite opens the file read-only and loads the whole schema once,
    parsing every statement as a CREATE TABLE would have. So what it
    refuses to create (more columns than its limit, two tables or two
    headers of one table equal under its ASCII case rule, a NUL) is still
    refused here. That failure, a name with no UTF-8 encoding, or a table
    name starting with the prefix SQLite reserves (sqlite_, in any ASCII
    case) raises ConfigError and leaves no file.
    """
    path = os.fspath(location)
    if os.path.exists(path):
        raise FileExistsError(path)
    failed = f"{path}: cannot build database: "
    for table in schema.tables:
        if reserved_name(table.name):
            raise ConfigError(f"{failed}object name reserved for internal use: {table.name}")
    rows = []
    try:
        for root, table in enumerate(schema.tables, 2):
            sql = create_table_sql(table)
            sql.encode()  # a lone surrogate fails here, at its position in sql
            rows.append((table.name, table.name, root, sql))
    except UnicodeEncodeError as exc:
        raise ConfigError(failed + str(exc)) from None
    version = sqlite3.sqlite_version_info
    # Change counter 1, the size in pages, no freelist, schema cookie 1,
    # schema format 4, no cache size or vacuum settings, UTF-8, user version
    # and application id 0, version-valid-for 1, the SQLite version number.
    header = struct.pack(">16sHBBBBBB12I20xII", _SQLITE_MAGIC, _PAGE, 1, 1, 0, 64, 32, 32,
                         1, len(rows) + 1, 0, 0, 1, 4, 0, 0, 1, 0, 0, 0,
                         1, version[0] * 1_000_000 + version[1] * 1000 + version[2])
    try:
        with open(path, "xb") as fh:
            fh.write(header + _EMPTY_LEAF[:-100])
            fh.writelines([_EMPTY_LEAF] * len(rows))
        with closing(sqlite3.connect(path)) as con:
            if hasattr(con, "setconfig"):
                con.setconfig(sqlite3.SQLITE_DBCONFIG_DEFENSIVE, False)
            con.executescript("PRAGMA journal_mode = OFF; PRAGMA synchronous = OFF;"
                              " PRAGMA writable_schema = ON")
            with con:
                con.executemany("INSERT INTO sqlite_master VALUES ('table', ?, ?, ?, ?)", rows)
        with closing(open_readonly(path)) as con:
            con.execute("SELECT count(*) FROM sqlite_schema").fetchone()
    except FileExistsError:  # made since the check above: not ours to remove
        raise
    except (OSError, sqlite3.Error) as exc:
        with suppress(FileNotFoundError):
            os.remove(path)
        raise ConfigError(failed + str(exc)) from exc
