import importlib.util
import random
import re
import sqlite3
import tempfile
from contextlib import closing
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from comdb.errors import ConfigError, ParseError
from comdb.ingest import (
    _TABLE_CONSTRAINT_KEYWORDS,
    _parse_ddl_tokens,
    _tokenize_ddl,
    build_database,
    introspect_database,
    parse_annotations,
    parse_ddl,
    parse_fixture,
    read_text,
    render_annotations,
    render_fixture,
)
from comdb.mapping import parse_map_text
from comdb.schema import (
    ContextRelation,
    DatabaseSchema,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    validate_annotations,
    validate_schema,
)
from comdb import fixtures as bundled

from conftest import NOT_LINE_BREAKS, raises_exactly, rand_annotations, rand_schema

PROVIDERS_DDL = ("CREATE TABLE providers (Id TEXT, ORGANIZATION TEXT, NAME TEXT, "
                 "GENDER TEXT, SPECIALITY TEXT, ADDRESS TEXT, CITY TEXT, "
                 "STATE TEXT, ZIP TEXT);")


def test_parse_ddl_providers(synthea_schema):
    schema = parse_ddl(PROVIDERS_DDL)
    assert len(schema.tables) == 1
    providers = schema.tables[0]
    assert providers.name == "providers"
    assert len(providers.headers) == 9
    # derived from the fixture listing for the same table
    assert providers.headers == synthea_schema.table("providers").headers


def test_parse_ddl_two_statements_in_order():
    schema = parse_ddl("CREATE TABLE b (x INT);\nCREATE TABLE a (y INT);")
    assert [t.name for t in schema.tables] == ["b", "a"]


def test_parse_ddl_bad_keyword_position():
    with pytest.raises(ParseError) as excinfo:
        parse_ddl("CREATE TABEL x (a INT);")
    err = excinfo.value
    assert "TABEL" in str(err)
    assert err.expected == "TABLE"
    assert err.line == 1
    assert err.col == 8


# (DDL, line, col, expected, message): positions pinned across tokenizer
# rewrites. End of input is reported one past the last token's start column
# plus its length, even when that token spans lines.
MALFORMED_DDL = [
    ("-- one\n-- two\nCREATE TABEL x (a INT);", 3, 8, "TABLE",
     "line 3, col 8: expected TABLE, found 'TABEL'"),
    ("CREATE TABLE a (x INT);\nCREATE TABLE b (y INT,\n  ;", 3, 3, None,
     "line 3, col 3: expected column name, found ';'"),
    ("CREATE TABLE t (a INT", 1, 22, None,
     "line 1, col 22: expected ',' or ')', found end of input"),
    ("CREATE TABLE t (a INT,", 1, 23, None,
     "line 1, col 23: expected column definition, found end of input"),
    ("CREATE TABLE", 1, 13, None,
     "line 1, col 13: expected table name, found end of input"),
    ("CREATE TABLE t (a INT  \n -- c\n", 1, 22, None,
     "line 1, col 22: expected ',' or ')', found end of input"),
    ('CREATE TABLE "multi\nline\nname" (a INT) x', 3, 15, ";",
     "line 3, col 15: expected ';', found 'x'"),
    ('CREATE TABLE "multi\nline" (a', 2, 9, None,
     "line 2, col 9: expected ',' or ')', found end of input"),
    ('CREATE TABLE "multi\nline"', 1, 26, "(",
     "line 1, col 26: expected '(', found end of input"),
    ('CREATE TABLE t (a INT, "x\nyz"', 1, 30, None,
     "line 1, col 30: expected ',' or ')', found end of input"),
    ('CREATE TABLE t (a INT);\n   \t "unterminated', 2, 6, None,
     "line 2, col 6: unexpected character '\"'"),
    ("CREATE TABLE t (a INT);  'open", 1, 26, None,
     "line 1, col 26: unexpected character \"'\""),
    ("CREATE TABLE t (a INT)\n  [oops", 2, 3, None,
     "line 2, col 3: unexpected character '['"),
    ("CREATE TABLE t (a INT); -- trailing\nDROP", 2, 1, "CREATE",
     "line 2, col 1: expected CREATE, found 'DROP'"),
    ("CREATE TABLE t (a INT) -- no semicolon\n\n  CREATE", 3, 3, ";",
     "line 3, col 3: expected ';', found 'CREATE'"),
    ("  \n  ,", 2, 3, "CREATE", "line 2, col 3: expected CREATE, found ','"),
    ("CREATE TABLE t (a NUMERIC(10, 2);", 1, 33, None,
     "line 1, col 33: expected ',' or ')', found ';'"),
    ("CREATE\n-- c\nTABLE t (\n-- c2\n `x` INT\n) extra", 6, 3, ";",
     "line 6, col 3: expected ';', found 'extra'"),
]


@pytest.mark.parametrize("text, line, col, expected, message", MALFORMED_DDL)
def test_parse_ddl_error_positions(text, line, col, expected, message):
    with pytest.raises(ParseError) as excinfo:
        parse_ddl(text)
    err = excinfo.value
    assert (err.line, err.col, err.expected, str(err)) == (line, col, expected, message)


def test_parse_ddl_ignores_types_and_constraints():
    a = parse_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(10) NOT NULL, "
                  "c DECIMAL(10,2));")
    b = parse_ddl("CREATE TABLE t (a TEXT, b BLOB, c REAL);")
    assert a == b


def test_parse_ddl_skips_table_constraints():
    schema = parse_ddl("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b), "
                       "FOREIGN KEY (b) REFERENCES other(x));")
    assert schema.tables[0].headers == ("a", "b")


def test_parse_ddl_comments_and_quoting():
    schema = parse_ddl('-- leading comment\n'
                       'CREATE TABLE "my table" (\n'
                       '  "Date of Birth" TEXT, -- trailing comment\n'
                       '  plain INT\n'
                       ');')
    assert schema.tables[0].name == "my table"
    assert schema.tables[0].headers == ("Date of Birth", "plain")


def test_parse_ddl_empty_input():
    with raises_exactly(ConfigError, "DDL text is empty"):
        parse_ddl("   \n  ")


def test_parse_ddl_no_columns():
    with pytest.raises(ParseError):
        parse_ddl("CREATE TABLE t ();")


# --- DDL rendered from random schemas, for round-trip and totality ---

_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_CONSTRAINT_WORDS = {"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"}
_COLUMN_TAILS = ["", "TEXT", "int", "NUMERIC(10,2)", "DECIMAL ( 10 , 2 ) NOT NULL",
                 "VARCHAR(255) DEFAULT 'a, b'", "INTEGER PRIMARY KEY",
                 "REAL CHECK (x > 0.5 AND (y < 2))", "TEXT REFERENCES other(Id)"]
_TABLE_CONSTRAINTS = ["PRIMARY KEY (a, b)", "unique (x)", "CHECK (length(x) > 0)",
                      "FOREIGN KEY (b) REFERENCES other(x, y)",
                      "CONSTRAINT pk PRIMARY KEY (a)"]
_SEPARATORS = [" ", "  ", "\n", "\t", "\r\n", " -- note, with ( and ;\n", "\n-- c\n  "]


def _quote_ddl_name(rng, name):
    styles = ['"', "`", "["]
    if _BARE_NAME.match(name) and name.upper() not in _CONSTRAINT_WORDS:
        styles.append("")
    style = rng.choice(styles)
    if style == '"':
        return '"' + name.replace('"', '""') + '"'
    if style == "`":
        return f"`{name}`"
    if style == "[":
        return f"[{name}]"
    return name


def _render_ddl(rng, schema):
    def sep():
        return rng.choice(_SEPARATORS)

    parts = [rng.choice(["", "-- generated\n", "\n  "])]
    for table in schema.tables:
        defs = [_quote_ddl_name(rng, h) + sep() + rng.choice(_COLUMN_TAILS)
                for h in table.headers]
        for _ in range(rng.randint(0, 2)):
            defs.insert(rng.randint(0, len(defs)), rng.choice(_TABLE_CONSTRAINTS))
        parts.append(rng.choice(["CREATE", "create", "Create"]) + sep()
                     + rng.choice(["TABLE", "table"]) + sep()
                     + _quote_ddl_name(rng, table.name) + sep() + "(" + sep()
                     + ("," + sep()).join(defs) + sep() + ")"
                     + rng.choice([";", sep() + ";", ";;"]) + sep())
    if rng.random() < 0.5:
        parts[-1] = parts[-1].rstrip().rstrip(";")
    return "".join(parts)


def _with_quotes(rng, schema):
    """Put a double quote into some names, so "" escapes are exercised."""
    def maybe(name):
        if rng.random() < 0.2:
            cut = rng.randrange(len(name) + 1)
            return name[:cut] + '"' + name[cut:]
        return name

    return DatabaseSchema(schema.name, tuple(
        TableSchema(maybe(t.name), tuple(maybe(h) for h in t.headers))
        for t in schema.tables))


@given(seed=st.integers(0, 2**32 - 1))
def test_ddl_round_trip(seed):
    rng = random.Random(seed)
    schema = _with_quotes(rng, rand_schema(rng))
    text = _render_ddl(rng, schema)
    assert parse_ddl(text, name=schema.name) == schema


_DDL_PIECES = ["CREATE", "TABLE", "table", "t", "a_1", '"q ""x"""', '"a\nb"', "`b t`",
               "[b r]", "'s''t'", "42", "1.5", "(", ")", ",", ";", "INT", "NUMERIC(10,2)",
               "PRIMARY KEY (a)", "-- c\n", "--", " ", "\n", "\t", "$x", "é", '"', "'",
               "`", "[", "]", "-"]


@given(st.one_of(st.text(), st.lists(st.sampled_from(_DDL_PIECES)).map("".join)))
def test_parse_ddl_total(text):
    try:
        schema = parse_ddl(text)
    except ConfigError as err:
        assert str(err) == "DDL text is empty"
        return
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        if str(err).endswith("found end of input"):
            assert 1 <= err.col <= len(text) + 1
        else:
            assert 1 <= err.col <= len(lines[err.line - 1])
        return
    assert schema.tables and all(t.headers for t in schema.tables)


# Plain statements, some with a near miss the fast path must decline: a
# keyword or a word it cannot split as a column name, a '-' or quote in a
# column list, or a comment that holds a statement.
_NEAR_MISSES = st.sampled_from(["", " ", "\n", "\xa0", "-- c\n", "-- create table z (q);\n",
                                "-", ";", "'", "$x"])
_COLUMN_DEFS = st.lists(st.builds(
    "{}{}".format,
    st.sampled_from(["a_1", "Id", "PRIMARY", "check", "Unique", "$x", "é", "1", ""]),
    st.sampled_from(["", " INT", "\tTEXT NOT NULL", " INT -- c, x\n", " -1", " NUMERIC(10,2)",
                     ".b TEXT", "+b"])),
    max_size=4).map(", ".join)
_PLAIN_STATEMENTS = st.builds(
    "{}{}".format, _NEAR_MISSES,
    st.lists(st.builds("CREATE TABLE {} ({}){};{}".format, st.sampled_from(["t", "b_2", "primary"]),
                       _COLUMN_DEFS, _NEAR_MISSES, _NEAR_MISSES),
             min_size=1, max_size=3).map("".join))
_PIECE_MIXES = st.lists(st.sampled_from(_DDL_PIECES)).map("".join)
# Plain statements the pattern takes, followed by anything at all.
_PLAIN_PREFIXES = st.lists(st.builds(
    "CREATE TABLE {} ({});{}".format, st.sampled_from(["t", "b_2"]),
    st.sampled_from(["a INT", "Id TEXT, b_1 INT"]), st.sampled_from(["", "\n", " -- c\n"])),
    min_size=1, max_size=3).map("".join)
_PLAIN_THEN_ANY = st.builds("{}{}".format, _PLAIN_PREFIXES,
                            st.one_of(st.text(), _PIECE_MIXES, _PLAIN_STATEMENTS))


def _outcome(parse, text):
    """The tables parse returns for text, or its error's type, message,
    line, column and expected token."""
    try:
        return list(parse(text))
    except (ConfigError, ParseError) as err:
        return (type(err), str(err), getattr(err, "line", None), getattr(err, "col", None),
                getattr(err, "expected", None))


# Each kind of later column definition the fast path must decline, pinned
# so that every run meets it: a constraint keyword in any case, a name
# followed by a character that is neither a space nor a comma, an empty
# definition and a trailing comma; alone, and after a plain statement.
@example("CREATE TABLE t (a INT, primary TEXT);")
@example("CREATE TABLE t (a INT, Unique);")
@example("CREATE TABLE t (a INT, cHeCk (a > 0), b INT);")
@example("CREATE TABLE t (a INT, a.b TEXT);")
@example("CREATE TABLE t (a INT, a+b);")
@example("CREATE TABLE t (a INT, , b INT);")
@example("CREATE TABLE t (a INT,\t,b);")
@example("CREATE TABLE t (a INT, b INT,);")
@example("CREATE TABLE t (a INT, b INT, );")
@example("CREATE TABLE s (x INT);\nCREATE TABLE t (a, Foreign KEY);")
@example("CREATE TABLE s (x INT);\nCREATE TABLE t (a, b.c, d);")
@example("CREATE TABLE s (x INT);\nCREATE TABLE t (a, , d);")
@example("CREATE TABLE s (x INT);\nCREATE TABLE t (a, b,);\nCREATE TABLE u (y INT);")
@given(st.one_of(st.text(), _PIECE_MIXES, _PLAIN_STATEMENTS, _PLAIN_THEN_ANY))
def test_ddl_fast_path_declines_or_agrees_with_the_token_parser(text):
    # Whatever the pattern takes before it declines, the outcome is the
    # token parser's on the whole text, error positions included.
    assert (_outcome(lambda t: parse_ddl(t).tables, text)
            == _outcome(lambda t: _parse_ddl_tokens(t, 0), text))


def _spy_token_parser():
    return mock.patch("comdb.ingest._parse_ddl_tokens", wraps=_parse_ddl_tokens)


@pytest.mark.parametrize("text, headers", [
    ("CREATE TABLE t (a INT, PRIMARY KEY, b INT);", ("a", "b")),
    ("CREATE TABLE t (a INT, Check, b INT);", ("a", "b")),
    ("CREATE TABLE t (a INT -- c, x\n, b INT);", ("a", "b")),
    ("CREATE TABLE t (a INT DEFAULT 'x, y ', b INT);", ("a", "b")),
    ("CREATE TABLE t (a$b INT, c INT);", ("a", "c")),
    ("CREATE TABLE t (a INT, b INT)", ("a", "b")),
])
def test_ddl_fast_path_declines_near_misses(text, headers):
    with _spy_token_parser() as spy:
        assert parse_ddl(text).tables == (TableSchema("t", headers),)
    spy.assert_called_once_with(text, 0)


def _alternating_case(word):
    return "".join(c.lower() if i % 2 else c for i, c in enumerate(word))


# Each constraint keyword in four casings, keyword prefixes, and names that
# open with a keyword's first letter but are no keyword.
_KEYWORD_LIKE_NAMES = [
    *(f(k) for k in sorted(_TABLE_CONSTRAINT_KEYWORDS)
      for f in (str.upper, str.lower, str.capitalize, _alternating_case)),
    "checks", "unique_id", "Primary1", "CONSTRAINTS", "foreign_", "PRIMAR", "chec",
    "Fheck", "cnique", "ux", "C", "p", "Uniqu", "forEIGN2", "Id", "bcheck",
]


@pytest.mark.parametrize("template", ["CREATE TABLE t ({} INT, b INT);",
                                      "CREATE TABLE t (a INT, {} TEXT, b INT);"])
@pytest.mark.parametrize("name", _KEYWORD_LIKE_NAMES)
def test_ddl_fast_path_takes_every_keyword_like_name_but_the_keywords(name, template):
    text = template.format(name)
    expected = _outcome(lambda t: _parse_ddl_tokens(t, 0), text)
    with _spy_token_parser() as spy:
        assert _outcome(lambda t: parse_ddl(t).tables, text) == expected
    assert spy.called == (name.upper() in _TABLE_CONSTRAINT_KEYWORDS)


def test_ddl_doubled_semicolon_resumes_at_the_second_one():
    text = "CREATE TABLE t (a INT, b INT);;"
    with _spy_token_parser() as spy:
        assert parse_ddl(text).tables == (TableSchema("t", ("a", "b")),)
    spy.assert_called_once_with(text, len(text) - 1)


def test_ddl_fast_path_takes_no_statement_from_a_comment():
    text = "-- CREATE TABLE t (a INT);"
    with _spy_token_parser() as spy, raises_exactly(ConfigError, "DDL text is empty"):
        parse_ddl(text)
    spy.assert_called_once_with(text, 0)
    with _spy_token_parser() as spy:
        assert parse_ddl("CREATE TABLE a (x INT);\n" + text).tables == (
            TableSchema("a", ("x",)),)
    spy.assert_not_called()


def test_late_non_plain_statement_starts_the_token_parser_there():
    text = ("CREATE TABLE a (x INT);\n-- c\nCREATE TABLE b (y INT);  \n"
            "CREATE TABLE c (z INT, PRIMARY KEY (z));\nCREATE TABLE d (w INT);")
    with _spy_token_parser() as spy:
        tables = parse_ddl(text).tables
    assert [t.name for t in tables] == ["a", "b", "c", "d"]
    spy.assert_called_once_with(text, text.index("CREATE TABLE c"))


def _scale_ddl(seed):
    """The DDL of perfbench's seeded 1000-table x 30-header scale schema."""
    path = Path(__file__).parents[1] / "perfbench" / "scale_gen.py"
    spec = importlib.util.spec_from_file_location("scale_gen", path)
    scale_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale_gen)
    return scale_gen.generate(seed)["sql"]


def test_only_the_late_non_plain_statement_is_tokenized():
    text = _scale_ddl(5).rstrip().removesuffix(");") + ", PRIMARY KEY (Id));\n"
    last = text.rindex("CREATE TABLE")
    with mock.patch("comdb.ingest._tokenize_ddl", wraps=_tokenize_ddl) as spy:
        tables = parse_ddl(text).tables
    spy.assert_called_once_with(text, last)
    assert len(tables) == 1000 and len(tables[-1].headers) == 30
    assert list(tables) == _parse_ddl_tokens(text, 0)
    assert tables[-1] == _parse_ddl_tokens(text, last)[0]


def _render_plain_ddl(rng, schema):
    """schema as DDL the fast path must take: bare names, simple types,
    mixed whitespace, and ``--`` comments before each statement and ';'."""
    def space():
        return rng.choice([" ", "\t", "\n", "\r\n", "  \n\t"])

    def skip():
        return rng.choice(["", space(), "\n-- note, with ( and ;\n", "-- c\n\n-- d\n"])

    parts = []
    for table in schema.tables:
        defs = [h.replace(" ", "_") + space() + rng.choice(["TEXT", "INT NOT NULL", "text"])
                for h in table.headers]
        parts.append(skip() + rng.choice(["CREATE", "create"]) + space()
                     + rng.choice(["TABLE", "table"]) + space() + table.name
                     + rng.choice(["", space()]) + "(" + rng.choice(["", space()])
                     + ("," + rng.choice(["", space()])).join(defs)
                     + rng.choice(["", space()]) + ")" + skip() + ";")
    return "".join(parts) + rng.choice(["", space(), "\n-- end"])


def _without_token_parser():
    return mock.patch("comdb.ingest._parse_ddl_tokens",
                      side_effect=AssertionError("the token parser ran"))


@given(seed=st.integers(0, 2**32 - 1))
def test_plain_ddl_takes_the_fast_path(seed):
    rng = random.Random(seed)
    schema = rand_schema(rng)
    text = _render_plain_ddl(rng, schema)
    with _without_token_parser():
        parsed = parse_ddl(text, name=schema.name)
    assert parsed == DatabaseSchema(schema.name, tuple(
        TableSchema(t.name, tuple(h.replace(" ", "_") for h in t.headers))
        for t in schema.tables))


def test_bundled_ddl_takes_the_fast_path(synthea_schema):
    with _without_token_parser():
        parsed = parse_ddl(bundled.fixture_text(bundled.SYNTHEA_DDL))
    assert parsed.tables == synthea_schema.tables


def test_parse_fixture_patients():
    schema = parse_fixture(
        "patients: Id, BIRTHDATE, DEATHDATE, SSN, PREFIX, FIRST, LAST, SUFFIX, "
        "MAIDEN, MARITAL, RACE, ETHNICITY, GENDER, BIRTHPLACE, ADDRESS, CITY, "
        "STATE, COUNTY")
    assert len(schema.tables[0].headers) == 18


def test_parse_fixture_multiword_headers():
    schema = parse_fixture(
        "patients_A: Id_patients, Name, Surname, Date of Birth, Place of Birth, "
        "Address, Gender, Blood Type, Job")
    headers = schema.tables[0].headers
    assert len(headers) == 9
    assert "Date of Birth" in headers
    assert "Blood Type" in headers


@pytest.mark.parametrize("text, error, message", [
    ("t:", ParseError, "line 1: table 't' lists no headers"),
    ("t a, b", ParseError, "line 1: expected 'table: header, header, ...'"),
    ("t: a\n : b", ParseError, "line 2: empty table name"),
    ("t: a, , b", ParseError, "line 1: empty header name"),
    ("# comment only\n\n", ConfigError, "fixture text is empty"),
], ids=["no-headers", "no-colon", "empty-table", "empty-header", "no-tables"])
def test_parse_fixture_empty_headers(text, error, message):
    with pytest.raises(error) as excinfo:
        parse_fixture(text)
    assert str(excinfo.value) == message


def test_parse_fixture_duplicate_table_propagates():
    with raises_exactly(ConfigError, "duplicate table name 't'"):
        parse_fixture("t: a\nt: b")


def test_parse_fixture_comments_and_blanks():
    schema = parse_fixture("# comment\n\nt: a, b\n")
    assert schema.tables[0].headers == ("a", "b")


@given(seed=st.integers(0, 2**32 - 1))
def test_fixture_round_trip(seed):
    schema = rand_schema(random.Random(seed))
    assert parse_fixture(render_fixture(schema), name=schema.name) == schema


@pytest.mark.parametrize("data", [
    b"t: a, b\r\nu: c\r\n", b"t: a\ru: b", b"\xef\xbb\xbft: a\n", b"\xef\xbb\xbf",
    "t: café, über, 数\n".encode(), b"",
], ids=["crlf", "lone-cr", "bom", "bom-only", "non-ascii", "empty"])
def test_read_text_reads_as_path_read_text(tmp_path, data):
    path = tmp_path / "in.schema"
    path.write_bytes(data)
    assert read_text(str(path)) == path.read_text(encoding="utf-8").removeprefix("\ufeff")


@pytest.mark.parametrize("data", [b"t: a\n\xff", b"\xef\xbb\xbft: caf\xc3", b"\xe9t"])
def test_read_text_names_the_byte_path_read_text_names(tmp_path, data):
    path = tmp_path / "in.ctx"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as expected:
        path.read_text(encoding="utf-8")
    exc = expected.value
    with raises_exactly(ConfigError, f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"):
        read_text(str(path))


def test_read_text_of_a_directory_is_an_error(tmp_path):
    with raises_exactly(ConfigError, f"{tmp_path}: is a directory, not a file"):
        read_text(str(tmp_path))


def test_introspect_matches_fixture(tmp_path, synthea_schema):
    ddl_schema = parse_ddl(bundled.fixture_text(bundled.SYNTHEA_DDL))
    path = tmp_path / "hospital.db"
    build_database(ddl_schema, path)
    introspected = introspect_database(path)
    assert [t.name for t in introspected.tables] == \
        [t.name for t in synthea_schema.tables]
    for got, want in zip(introspected.tables, synthea_schema.tables):
        assert got.headers == want.headers


def test_introspect_no_tables(tmp_path):
    path = tmp_path / "empty.db"
    sqlite3.connect(path).close()
    with raises_exactly(ConfigError, f"{path}: database contains no user tables"):
        introspect_database(path)


def test_introspect_rejects_text_file(tmp_path):
    path = tmp_path / "fake.db"
    path.write_text("this is not a database at all, just plain text")
    with raises_exactly(ConfigError, f"{path}: not an SQLite database file"):
        introspect_database(path)
    # The SQLite header alone does not make a database: SQLite's own error
    # on the first read gets the same message.
    path = tmp_path / "corrupt.db"
    path.write_bytes(b"SQLite format 3\x00" + b"\xff" * 84 + bytes(412))
    with raises_exactly(ConfigError, f"{path}: not an SQLite database file"):
        introspect_database(path)


def test_introspect_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        introspect_database(tmp_path / "nope.db")


def test_introspect_ignores_rows(tmp_path):
    schema = parse_fixture("t: a, b\nu: c")
    empty = tmp_path / "empty.db"
    full = tmp_path / "full.db"
    build_database(schema, empty)
    build_database(schema, full)
    con = sqlite3.connect(full)
    con.execute("INSERT INTO t VALUES ('secret', 'row')")
    con.execute("INSERT INTO u VALUES ('data')")
    con.commit()
    con.close()
    assert introspect_database(empty).tables == introspect_database(full).tables


def test_introspect_skips_only_the_sqlite_underscore_prefix(tmp_path):
    # In LIKE, "_" matches any one character; a user table named
    # sqliteXdata or sqlite1 is kept, SQLite's own sqlite_sequence is not.
    path = tmp_path / "x.db"
    build_database(parse_fixture("sqliteXdata: a\nother: b\nsqlite1: c"), path)
    con = sqlite3.connect(path)
    con.execute("CREATE TABLE seq (id INTEGER PRIMARY KEY AUTOINCREMENT)")
    con.close()
    assert introspect_database(path).table_names() == ("sqliteXdata", "other", "sqlite1",
                                                       "seq")


@pytest.mark.parametrize("tables, message", [
    ([("t", ("a",)), ("SQLITE_T", ("b",))], "object name reserved for internal use: SQLITE_T"),
    ([("t", tuple(f"h{i}" for i in range(2001)))], "too many columns on t"),
    ([("a\0b", ("x",))], None),
    ([("t", ("x\0y",))], None),
    ([("t", ("a",)), ("T", ("b",))], "already exists"),
    ([("t", ("a", "A"))], "duplicate column name: A"),
    ([("a\udc80", ("x",))], "surrogates not allowed"),
], ids=["sqlite-prefix", "2001-headers", "nul-in-table", "nul-in-header", "tables-t-and-T",
        "headers-a-and-A", "lone-surrogate"])
def test_build_database_failure_leaves_no_file(tmp_path, tables, message):
    """Whatever SQLite would refuse to create, and a name with no UTF-8
    encoding, is a ConfigError that leaves nothing behind."""
    path = tmp_path / "x.db"
    prefix = re.escape(f"{path}: cannot build database: ")
    with pytest.raises(ConfigError, match=rf"\A{prefix}.*{message or ''}"):
        build_database(_schema(tables), path)
    assert list(tmp_path.iterdir()) == []
    build_database(parse_fixture("t: a"), path)
    assert introspect_database(path).table_names() == ("t",)


def test_build_database_refuses_overwrite(tmp_path):
    schema = parse_fixture("t: a")
    path = tmp_path / "x.db"
    build_database(schema, path)
    with pytest.raises(FileExistsError):
        build_database(schema, path)


def test_build_database_leaves_no_journal(tmp_path):
    build_database(parse_fixture("t: a"), tmp_path / "x.db")
    path = tmp_path / "y.db"
    with pytest.raises(ConfigError, match=rf"\A{re.escape(f'{path}: cannot build database: ')}"):
        build_database(_schema([("t", ("a", "A"))]), path)
    assert [p.name for p in tmp_path.iterdir()] == ["x.db"]


@pytest.mark.skipif(not hasattr(sqlite3.Connection, "setconfig"),
                    reason="Connection.setconfig needs Python 3.12+")
def test_build_database_turns_defensive_mode_off(tmp_path, monkeypatch):
    """Some SQLite builds start every connection in defensive mode, which
    makes SQLite ignore writable_schema."""
    connect = sqlite3.connect

    def defensive_connect(*args, **kwargs):
        con = connect(*args, **kwargs)
        con.setconfig(sqlite3.SQLITE_DBCONFIG_DEFENSIVE, True)
        return con

    monkeypatch.setattr("comdb.ingest.sqlite3.connect", defensive_connect)
    build_database(parse_fixture("t: a, b\nu: c"), tmp_path / "x.db")
    assert introspect_database(tmp_path / "x.db").table_names() == ("t", "u")


# --- the database writer against SQLite's own CREATE TABLE ---

def _reference_build(schema: DatabaseSchema, path) -> None:
    """The database as SQLite builds it: one CREATE TABLE per table, in one
    transaction. build_database must produce a database that reads the same."""
    with closing(sqlite3.connect(path, isolation_level=None)) as con:
        con.execute("BEGIN")
        for table in schema.tables:
            cols = ", ".join(f"{_quote(h)} TEXT" for h in table.headers)
            con.execute(f"CREATE TABLE {_quote(table.name)} ({cols})")
        con.execute("COMMIT")


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _observed(path) -> tuple:
    """The sqlite_schema rows, each table's columns and the integrity check;
    then one row inserted into the first table and one into the last (whose
    root is the last page written by hand), each read back, and the check again."""
    with closing(sqlite3.connect(path)) as con:
        rows = con.execute(
            "SELECT type, name, tbl_name, sql FROM sqlite_schema ORDER BY rowid").fetchall()
        columns = [con.execute(f"PRAGMA table_info({_quote(row[1])})").fetchall()
                   for row in rows]
        check = con.execute("PRAGMA integrity_check").fetchall()
        inserted = []
        for i in (0, -1):
            table, width = _quote(rows[i][1]), len(columns[i])
            with con:
                con.execute(f"INSERT INTO {table} VALUES ({', '.join('?' * width)})",
                            [f"v{j}" for j in range(width)])
            inserted.append(con.execute(f"SELECT * FROM {table}").fetchall())
        return rows, columns, check, inserted, con.execute("PRAGMA integrity_check").fetchall()


def _assert_builds_as_sqlite_does(schema: DatabaseSchema, directory: Path) -> None:
    built, reference = directory / "built.db", directory / "reference.db"
    build_database(schema, built)
    _reference_build(schema, reference)
    observed = _observed(built)
    assert observed[2] == observed[4] == [("ok",)]
    assert observed == _observed(reference)


def _schema(tables) -> DatabaseSchema:
    return DatabaseSchema("d", tuple(TableSchema(name, headers) for name, headers in tables))


# Names from an alphabet with a quote, a space and non-ASCII letters: short
# ones, and in some tables a few long enough to carry the statement onto
# overflow pages.
_SHORT_NAMES = st.text(st.sampled_from('aB"é Ω_1'), min_size=1, max_size=8)
_LONG_NAMES = st.builds(lambda name, size: (name * size)[:size],
                        _SHORT_NAMES, st.integers(1500, 5000))
_BUILD_TABLES = st.lists(
    st.tuples(_SHORT_NAMES | _LONG_NAMES,
              st.lists(_SHORT_NAMES, min_size=1, max_size=40, unique_by=str.lower),
              st.lists(_LONG_NAMES, max_size=2, unique_by=str.lower)),
    min_size=1, max_size=60, unique_by=lambda table: table[0].lower())


@given(tables=_BUILD_TABLES)
def test_build_database_reads_as_sqlite_builds_it(tables):
    schema = _schema((name, short + long) for name, short, long in tables)
    with tempfile.TemporaryDirectory() as directory:
        _assert_builds_as_sqlite_does(schema, Path(directory))


def _page_types(path) -> list[int]:
    """The b-tree page types from page 1 down the left-most children."""
    data = Path(path).read_bytes()
    types, at = [], 100
    while True:
        types.append(data[at])
        if data[at] != 0x05:
            return types
        # An interior page's header holds its cell count at offset 3 and its
        # right-most child at 8; the first cell pointer follows at 12, and
        # the cell starts with the child's page number.
        child = at + 8
        if int.from_bytes(data[at + 3:at + 5], "big"):
            child = (at // 4096) * 4096 + int.from_bytes(data[at + 12:at + 14], "big")
        at = (int.from_bytes(data[child:child + 4], "big") - 1) * 4096


def test_build_database_one_table_of_2000_headers(tmp_path):
    """The statement is ~25 KB: its cell continues on a chain of overflow pages."""
    _assert_builds_as_sqlite_does(_schema([("wide", tuple(f"h{i}" for i in range(2000)))]),
                                  tmp_path)
    assert _page_types(tmp_path / "built.db") == [0x0D]


def test_build_database_one_leaf_under_page_1(tmp_path):
    """~4000 bytes of rows fit on one leaf but not beside page 1's file
    header: page 1 becomes an interior page whose one child is that leaf."""
    _assert_builds_as_sqlite_does(_schema([("t", ("h" * 3960,))]), tmp_path)
    assert _page_types(tmp_path / "built.db") == [0x05, 0x0D]


def test_build_database_3000_tables_take_two_interior_levels(tmp_path):
    headers = tuple(f"header_{i:03}_name" for i in range(30))
    schema = _schema([(f"table_{i:04}", headers) for i in range(3000)])
    _assert_builds_as_sqlite_does(schema, tmp_path)
    assert _page_types(tmp_path / "built.db") == [0x05, 0x05, 0x0D]


def test_build_database_quotes_spaces_and_non_ascii_names(tmp_path):
    _assert_builds_as_sqlite_does(_schema([
        ('my "quoted" table', ('a "b"', "c d", '"', "名前")),
        ("Ünïcödé tåble", ("Ωmega", "straße", "  padded  ")),
        ('"', ("x",)),
    ]), tmp_path)


def test_parse_annotations_relation():
    ann = parse_annotations("encounters => patients, organizations, providers, payers")
    rel = ann.table_relations[0]
    assert rel.subjects == ("encounters",)
    assert rel.objects == ("patients", "organizations", "providers", "payers")


def test_parse_annotations_header_group():
    ann = parse_annotations(
        "patients_A.Name, patients_A.Surname => concept: patients' name")
    group = ann.header_groups[0]
    assert group.table == "patients_A"
    assert group.headers == ("Name", "Surname")
    assert group.concept == "patients' name"


@pytest.mark.parametrize("text, message", [
    ("=> patients", "line 1: empty subject side"),
    ("patients, encounters", "line 1: expected '=>'"),
    ("# comment\npatients =>", "line 2: empty object side"),
    ("a.x, a.y => concept:", "line 1: empty concept phrase"),
    ("a.x, a. => concept: c", "line 1: bad header reference 'a.'"),
    ("a, , b => c", "line 1: empty table name in relation"),
], ids=["no-subject", "no-arrow", "no-object", "no-concept", "bad-reference",
        "empty-table"])
def test_parse_annotations_empty_subject(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_annotations(text)
    assert str(excinfo.value) == message


def test_parse_annotations_mixed_scope():
    with raises_exactly(ParseError,
                        "line 1: header group spans tables 'patients_A' and 'patients_B'"):
        parse_annotations("patients_A.Name, patients_B.LAST => concept: names")
    with raises_exactly(ParseError, "line 1: table relation mixes in a table.header reference"):
        parse_annotations("patients, encounters.Id => patients")
    with raises_exactly(ParseError,
                        "line 1: header group needs table.header references, got 'patients'"):
        parse_annotations("patients, encounters => concept: visits")


# Relation lines: each either parses to the given (subjects, objects) or
# fails with the given class and message, which carries the line number.
# An empty name is found before a dotted one, and only the first "=>" of a
# line splits it.
@pytest.mark.parametrize("text, want", [
    ("a, , b => c", (ParseError, "line 1: empty table name in relation")),
    ("a => b,", (ParseError, "line 1: empty table name in relation")),
    ("x => y\na => ,", (ParseError, "line 2: empty table name in relation")),
    ("a.x, , b => c", (ParseError, "line 1: empty table name in relation")),
    ("a => b, c.", (ParseError, "line 1: table relation mixes in a table.header reference")),
    ("# c\na.x, b => c", (ParseError, "line 2: table relation mixes in a table.header reference")),
    ("a => b, c.y", (ParseError, "line 1: table relation mixes in a table.header reference")),
    (".a => b", (ParseError, "line 1: table relation mixes in a table.header reference")),
    ("a => b => c", (("a",), ("b => c",))),
    ("a, b => => c", (("a", "b"), ("=> c",))),
    ("a.x => b => concept: c",
     (ParseError, "line 1: table relation mixes in a table.header reference")),
    ("=>", (ParseError, "line 1: empty subject side")),
    ("# c\n\n \t=>\t ", (ParseError, "line 3: empty subject side")),
    ("\ta ,\tb  =>  c\t", (("a", "b"), ("c",))),
    ("a\t=>\t\tb , c \t", (("a",), ("b", "c"))),
    ("a,b=>c,d", (("a", "b"), ("c", "d"))),
    ("\u3000a\u3000, \x1fb\x1f => c\xa0", (("a", "b"), ("c",))),
], ids=["empty-inner", "trailing-comma", "empty-objects-line-2", "empty-before-dotted",
        "dot-at-end", "dotted-subject-line-2", "dotted-object", "dot-first",
        "arrow-twice", "arrow-twice-adjacent", "arrow-twice-then-concept", "only-arrow",
        "only-arrow-line-3", "tabs-and-spaces", "tabs-around-objects", "no-spaces",
        "unicode-spaces"])
def test_parse_annotations_relation_lines(text, want):
    if isinstance(want[0], tuple):
        assert parse_annotations(text).table_relations == (ContextRelation(*want),)
        return
    with pytest.raises(want[0]) as excinfo:
        parse_annotations(text)
    assert type(excinfo.value) is want[0]
    assert str(excinfo.value) == want[1]
    assert excinfo.value.line == int(want[1].split(":")[0].removeprefix("line "))


@given(seed=st.integers(0, 2**32 - 1))
def test_annotations_round_trip(seed):
    rng = random.Random(seed)
    schema = rand_schema(rng)
    ann = rand_annotations(rng, schema)
    rendered = render_annotations(ann)
    if not rendered:
        return
    assert parse_annotations(rendered) == ann


# --- line breaks ---

# Each text's second line holds the error; only LF ends a line.
@pytest.mark.parametrize("parse, text, message", [
    (parse_annotations, "a => b\x0c\nc =>", "line 2: empty object side"),
    (parse_map_text, "A -> B\x85\nC ->", "line 2: empty header name"),
    (parse_fixture, "t: a\x0cb, c\nu:", "line 2: table 'u' lists no headers"),
], ids=["annotations", "map", "fixture"])
def test_a_line_ends_at_lf_alone(parse, text, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_names_holding_a_unicode_line_break_round_trip(char):
    a, b = f"t{char}a", f"u{char}b"
    schema = DatabaseSchema("db", (TableSchema(a, (f"h{char}1", f"h{char}2")),
                                   TableSchema(b, (f"x{char}y",))))
    ann = OntologyAnnotations(
        (ContextRelation((a,), (b,)),),
        (HeaderContextGroup(a, (f"h{char}1", f"h{char}2"), f"c{char}d"),))
    validate_annotations(ann, validate_schema(schema))
    assert parse_fixture(render_fixture(schema), name="db") == schema
    assert parse_annotations(render_annotations(ann)) == ann


# Path.read_text turns CRLF into LF, but a string handed to a reader may
# still hold it.
@pytest.mark.parametrize("parse, name", [
    (parse_fixture, bundled.SYNTHEA_SCHEMA),
    (parse_annotations, bundled.SYNTHEA_CONTEXT),
    (parse_map_text, bundled.PATIENTS_GOLD_MAP),
], ids=["fixture", "annotations", "map"])
def test_crlf_text_parses_as_lf_text(parse, name):
    text = bundled.fixture_text(name)
    assert "\r" not in text
    assert parse(text.replace("\n", "\r\n")) == parse(text)
