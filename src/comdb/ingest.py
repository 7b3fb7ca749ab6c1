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

DDL is read in one pass. Plain statements (bare names, a column list with
no parentheses, quotes, ``-`` or ``;``, whitespace and ``--`` comments
between statements) take one regular-expression match each. From the first
statement that is not plain, the token parser reads the rest of the text;
it returns the same tables for plain statements too and is the only source
of DDL errors. The tokenizer keeps only each token's text. On a ParseError
the text is matched again, from where the token parser started up to the
failing token, and the line and column come from that token's offset.

build_database writes the schema-only database in the SQLite file format
itself, in time linear in the size of the schema; one CREATE TABLE per
table costs time quadratic in the number of tables. SQLite then reads the
file back once, parsing every statement, so that it still refuses what a
CREATE TABLE would have refused.
"""

from __future__ import annotations

import os
import re
import sqlite3
import string
import struct
from contextlib import closing, suppress
from itertools import accumulate, islice
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
# run of non-space, non-comma characters ends. Group 2 is the first
# definition's name, group 3 the rest of the list. _COLUMN_NAME_RE finds one
# name after each comma, or "" where the definition does not start with one.
_SKIP = r"\s*(?:--[^\n]*(?![^\n])\s*)*"
_BARE_COLUMN = (rf"(?!(?ai:{'|'.join(sorted(_TABLE_CONSTRAINT_KEYWORDS))})(?![A-Za-z0-9_]))"
                r"[A-Za-z_][A-Za-z0-9_]*(?![^\s,)])")
_PLAIN_STATEMENT_RE = re.compile(
    rf"{_SKIP}(?ai:create)\s+(?ai:table)\s+([A-Za-z_][A-Za-z0-9_]*)\s*"
    rf"\(\s*({_BARE_COLUMN})([^()'\"`\[;-]*)\){_SKIP};{_SKIP}")
_COLUMN_NAME_RE = re.compile(rf",\s*({_BARE_COLUMN})?")


def parse_ddl(text: str, name: str = "database") -> DatabaseSchema:
    """Parse the restricted CREATE TABLE subset; tables keep statement order.
    Plain statements are matched one at a time. From the first statement
    that is not plain, the token parser reads the rest and raises any error."""
    tables = []
    pos = 0
    # match() at each statement's offset, not finditer(): a search would
    # retry at every later offset after the first statement that is not plain.
    while m := _PLAIN_STATEMENT_RE.match(text, pos):
        headers = (m[2], *_COLUMN_NAME_RE.findall(m[3]))
        if "" in headers:
            break
        tables.append(TableSchema(m[1], headers))
        pos = m.end()
    if pos < len(text) or not tables:
        tables += _parse_ddl_tokens(text, pos)
    return DatabaseSchema(name, tuple(tables))


def _parse_ddl_tokens(text: str, start: int) -> list[TableSchema]:
    """The token parser for text[start:]: every DDL the subset allows, every error."""
    toks = _tokenize_ddl(text, start)
    if not toks[0]:
        raise EmptyInput("DDL text")
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

def check_sqlite_file(location) -> None:
    """Raise unless location names a file SQLite can open: FileNotFoundError
    if it is missing, UnreadableFile if it is a directory, UnsupportedFormat
    if it is neither empty nor starts with the SQLite header."""
    path = os.fspath(location)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_SQLITE_MAGIC))
    except FileNotFoundError:
        raise FileNotFoundError(path) from None
    except IsADirectoryError:
        raise UnreadableFile(path, "is a directory, not a file") from None
    if magic and magic != _SQLITE_MAGIC:
        raise UnsupportedFormat(path)


# Bound on the bytes of any one string or blob a statement makes
# (SQLITE_LIMIT_LENGTH), so that it cannot take memory at will.
SQL_LENGTH_LIMIT = 16 * 1024 * 1024


def open_readonly(location, *, check_same_thread: bool = True) -> sqlite3.Connection:
    """Connect read-only (``mode=ro``) to an existing SQLite file, with
    SQL_LENGTH_LIMIT set on Python 3.11+. check_sqlite_file's errors come
    before SQLite is asked. check_same_thread goes to sqlite3.connect."""
    path = os.fspath(location)
    check_sqlite_file(path)
    con = sqlite3.connect("file:" + quote(os.path.abspath(path)) + "?mode=ro", uri=True,
                          check_same_thread=check_same_thread)
    if hasattr(con, "setlimit"):
        con.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, SQL_LENGTH_LIMIT)
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
        raise UnsupportedFormat(path) from exc
    finally:
        con.close()
    if not tables:
        raise NoTables(path)
    return DatabaseSchema(Path(path).stem, tuple(tables))


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


# The schema-only database is written in the SQLite file format
# (https://www.sqlite.org/fileformat2.html), with 4096-byte pages. Page 1
# holds the 100-byte file header and the root of the sqlite_schema table
# b-tree. Pages 2 to n+1 are the roots of the n tables, each an empty leaf,
# so the table of schema rowid r has root page r+1 before any other page is
# laid out. After them come overflow pages, for statements too long for one
# cell, then the schema's leaf pages and interior levels, filled in rowid
# order. Each cell's content is placed at the end of its page, in key order.

_PAGE = 4096
_MAX_LOCAL = _PAGE - 35                     # the largest payload a table leaf cell keeps whole
_MIN_LOCAL = (_PAGE - 12) * 32 // 255 - 23  # the least it keeps of a payload that overflows


def _varint(n: int) -> bytes:
    """SQLite's varint of 0 <= n < 2**56: 7-bit groups, most significant
    first, the high bit set on every byte but the last."""
    out = [n & 0x7F]
    while n := n >> 7:
        out.append(n & 0x7F | 0x80)
    return bytes(reversed(out))


def _btree_page(cells: list[bytes], right: int = 0, start: int = 0) -> bytes:
    """A table b-tree page of cells in key order: a leaf, or an interior page
    when right names its right-most child. On page 1, start is 100 and the
    file header's bytes are left zero."""
    content = b"".join(cells)
    top = _PAGE - len(content)
    head = struct.pack(">BHHHB", 0x05 if right else 0x0D, 0, len(cells), top, 0)
    if right:
        head += struct.pack(">I", right)
    offsets = list(accumulate(map(len, cells), initial=top))[:-1]
    head += struct.pack(f">{len(cells)}H", *offsets)
    return bytes(start) + head + bytes(top - start - len(head)) + content


_EMPTY_LEAF = _btree_page([])


def _interior_page(children: list[tuple[int, int]], start: int = 0) -> bytes:
    """The interior page over children, as (page number, largest rowid below)."""
    cells = [page.to_bytes(4, "big") + _varint(key) for page, key in children[:-1]]
    return _btree_page(cells, children[-1][0], start)


def _schema_cell(rowid: int, name: bytes, sql: bytes, pages: list[bytes]) -> bytes:
    """The leaf cell of the sqlite_schema row ('table', name, name, rowid + 1,
    sql). The part of a payload that does not fit in the cell goes on a chain
    of overflow pages, appended to pages."""
    root = rowid + 1
    size = root.bit_length() // 8 + 1  # serial types 1-4 are 1- to 4-byte integers
    types = b"\x17" + _varint(2 * len(name) + 13) * 2 + bytes((size,)) + _varint(
        2 * len(sql) + 13)
    payload = b"".join((bytes((len(types) + 1,)), types, b"table", name, name,
                        root.to_bytes(size, "big"), sql))
    cell = _varint(len(payload)) + _varint(rowid)
    if len(payload) <= _MAX_LOCAL:
        return cell + payload
    local = _MIN_LOCAL + (len(payload) - _MIN_LOCAL) % (_PAGE - 4)
    if local > _MAX_LOCAL:
        local = _MIN_LOCAL
    first = len(pages) + 1
    rest = range(local, len(payload), _PAGE - 4)
    for i, at in enumerate(rest, first + 1):
        link = i if at + _PAGE - 4 < len(payload) else 0
        pages.append(link.to_bytes(4, "big") + payload[at:at + _PAGE - 4].ljust(_PAGE - 4, b"\0"))
    return cell + payload[:local] + first.to_bytes(4, "big")


def _database_pages(schema: DatabaseSchema) -> list[bytes]:
    """Every page of the database file for schema, in file order."""
    pages = [b""] + [_EMPTY_LEAF] * len(schema.tables)
    cells = []
    for rowid, table in enumerate(schema.tables, 1):
        # The text of CREATE TABLE "t" ("h" TEXT, ...), as SQLite stores it.
        cols = '" TEXT, "'.join([h.replace('"', '""') for h in table.headers])
        sql = f'CREATE TABLE {_quote_ident(table.name)} ("{cols}" TEXT)'.encode()
        cells.append(_schema_cell(rowid, table.name.encode(), sql, pages))
    if sum(map(len, cells)) + 2 * len(cells) <= _PAGE - 100 - 8:
        root = _btree_page(cells, start=100)
    else:
        # Leaves filled in turn, then interior levels until page 1 holds
        # every child. An interior cell and its pointer take at most
        # cell_size bytes; each level splits its children evenly, into two
        # pages at least, so that no interior page but page 1 has a single
        # child. Page 1 has one when a single leaf holds every row, as
        # SQLite itself leaves it.
        level = []
        first = used = 0
        for i, cell in enumerate(cells):
            if used + len(cell) + 2 > _PAGE - 8:
                pages.append(_btree_page(cells[first:i]))
                level.append((len(pages), i))
                first, used = i, 0
            used += len(cell) + 2
        pages.append(_btree_page(cells[first:]))
        level.append((len(pages), len(cells)))
        cell_size = 6 + len(_varint(len(cells))) + 2
        while len(level) - 1 > (_PAGE - 100 - 12) // cell_size:
            count = max(2, -(-len(level) // ((_PAGE - 12) // cell_size + 1)))
            parts = [level[k * len(level) // count:(k + 1) * len(level) // count]
                     for k in range(count)]
            level = []
            for part in parts:
                pages.append(_interior_page(part))
                level.append((len(pages), part[-1][1]))
        root = _interior_page(level, start=100)
    version = sqlite3.sqlite_version_info
    # Change counter 1, the size in pages, no freelist, schema cookie 1,
    # schema format 4, no cache size or vacuum settings, UTF-8, user version
    # and application id 0, version-valid-for 1, the SQLite version number.
    header = struct.pack(">16sHBBBBBB12I20xII", _SQLITE_MAGIC, _PAGE, 1, 1, 0, 64, 32, 32,
                         1, len(pages), 0, 0, 1, 4, 0, 0, 1, 0, 0, 0,
                         1, version[0] * 1_000_000 + version[1] * 1000 + version[2])
    pages[0] = header + root[100:]
    return pages


def build_database(schema: DatabaseSchema, location) -> None:
    """Create an empty SQLite database with one TEXT column per header.

    The file is written directly in the SQLite file format, in one pass
    over the tables, instead of one CREATE TABLE per table: SQLite reads
    its whole schema table again after each one, so that loop takes time
    quadratic in the number of tables. Each table's row in sqlite_schema
    holds byte for byte the CREATE TABLE text SQLite would store. Every
    page is built in memory before the file is created, exclusively.

    Then SQLite opens the file read-only and loads the whole schema once,
    parsing every statement as a CREATE TABLE would have. So what it
    refuses to create (more columns than its limit, two tables or two
    headers of one table equal under its ASCII case rule, a NUL) is still
    refused here. That failure, a name with no UTF-8 encoding, or a table
    name starting with the prefix SQLite reserves (sqlite_, in any ASCII
    case) raises BuildFailed and leaves no file.
    """
    path = os.fspath(location)
    if os.path.exists(path):
        raise FileExistsError(path)
    for table in schema.tables:
        if table.name[:7].isascii() and table.name[:7].lower() == "sqlite_":
            raise BuildFailed(path, f"object name reserved for internal use: {table.name}")
    try:
        pages = _database_pages(schema)
    except UnicodeEncodeError as exc:
        raise BuildFailed(path, str(exc)) from None
    try:
        with open(path, "xb") as fh:
            fh.writelines(pages)
        with closing(open_readonly(path)) as con:
            con.execute("SELECT count(*) FROM sqlite_schema").fetchone()
    except FileExistsError:  # made since the check above: not ours to remove
        raise
    except (OSError, sqlite3.Error) as exc:
        with suppress(FileNotFoundError):
            os.remove(path)
        raise BuildFailed(path, str(exc)) from exc
