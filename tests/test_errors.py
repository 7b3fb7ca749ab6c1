"""The text of each ComdbError, pinned at its raise site.

Each case reaches one raise site and gives the exact message. A case that
a comdb command reaches is given as that command's argv: its handler must
raise the message, and main must print ``error: <message>`` and return 1.
Any other case is a direct call.
"""

import functools
import sqlite3
from contextlib import closing

import pytest

from comdb import fixtures as bundled
from comdb.cli import build_parser, main
from comdb.errors import ComdbError
from comdb.evaluate import run_experiment, score_mapping
from comdb.ingest import build_database
from comdb.llm import (
    TASK_INTEGRATION,
    TASK_JOINING,
    WITH_CONTEXT,
    ClientConfig,
    HttpChatClient,
    PromptBundle,
    build_integration_prompt,
)
from comdb.mapping import HeaderMapping, MappingEntry
from comdb.schema import (
    ContextRelation,
    DatabaseSchema,
    OntologyAnnotations,
    TableSchema,
    validate_annotations,
    validate_schema,
)

# The credential variable of the missing-credentials case; the test unsets it.
_UNSET_KEY = "COMDB_TEST_UNSET_API_KEY"

_AB = "a: x, y\nb: z, w\n"
_AB_SCHEMA = validate_schema(DatabaseSchema("ab", (TableSchema("a", ("x", "y")),
                                                   TableSchema("b", ("z", "w")))))

_CASES = {}


def case(fn):
    """Register fn(tmp) -> (argv or zero-argument call, message) under its name."""
    _CASES[fn.__name__.replace("_", "-")] = fn
    return fn


def _write(tmp, name, content):
    path = tmp / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _emit(tmp, ctx):
    return ["emit", _write(tmp, "ab.schema", _AB), _write(tmp, "c.ctx", ctx)]


# --- schema validation ---

@case
def empty_schema(tmp):
    return lambda: validate_schema(DatabaseSchema("x", ())), "schema contains no tables"


@case
def empty_table(tmp):
    return (lambda: validate_schema(DatabaseSchema("x", (TableSchema("t", ()),))),
            "table 't' has no headers")


@case
def duplicate_table(tmp):
    return ["emit", _write(tmp, "t.schema", "t: a\nt: b\n")], "duplicate table name 't'"


@case
def duplicate_header(tmp):
    return ["emit", _write(tmp, "t.schema", "t: a, A\n")], "duplicate header 'A' in table 't'"


@case
def invalid_name(tmp):
    return (["emit", _write(tmp, "x.sql", 'CREATE TABLE "a,b" (x TEXT);')],
            "invalid table name 'a,b'")


@case
def invalid_name_in_a_fixture(tmp):
    return (["ingest", _write(tmp, "x.sql", 'CREATE TABLE a ("h " TEXT);')],
            "invalid header name 'h '")


# --- annotation validation ---

@case
def unknown_table(tmp):
    return _emit(tmp, "a => q\n"), "annotation references unknown table 'q'"


@case
def unknown_table_flag(tmp):
    return (["prompt", "--task", "integration", "--schema", _write(tmp, "ab.schema", _AB),
             "--ctx", _write(tmp, "c.ctx", ""), "--table-b", "q"],
            "--table-b references unknown table 'q'")


@case
def unknown_header(tmp):
    return _emit(tmp, "a.x, a.w => concept: c\n"), "table 'a' has no header 'w'"


@case
def self_context(tmp):
    return _emit(tmp, "a, b => a\n"), "table 'a' appears on both sides of one relation"


@case
def empty_side(tmp):
    ann = OntologyAnnotations((ContextRelation(("a",), ("b",)), ContextRelation((), ("a",))))
    return (lambda: validate_annotations(ann, _AB_SCHEMA),
            "relation 1 has an empty subject or object list")


@case
def repeated_table_in_relation(tmp):
    return (_emit(tmp, "a, a => b\n"),
            "table 'a' repeated within relation 0")


@case
def short_header_group(tmp):
    return (_emit(tmp, "a.x => concept: c\n"),
            "bad header group on table 'a': a header group needs at least two headers")


# --- parsing ---

@case
def mixed_scope_relation(tmp):
    return (_emit(tmp, "# c\na, b.x => a\n"),
            "line 2: table relation mixes in a table.header reference")


@case
def mixed_scope_group_reference(tmp):
    return (_emit(tmp, "a.x, y => concept: c\n"),
            "line 1: header group needs table.header references, got 'y'")


@case
def mixed_scope_group_tables(tmp):
    return (_emit(tmp, "a.x, b.z => concept: c\n"),
            "line 1: header group spans tables 'a' and 'b'")


@case
def unreadable_directory(tmp):
    path = tmp / "dir.schema"
    path.mkdir()
    return ["emit", str(path)], f"{path}: is a directory, not a file"


@case
def unreadable_bytes(tmp):
    path = _write(tmp, "bad.schema", b"t: a, \xff\n")
    return ["emit", path], f"{path}: not UTF-8 text (invalid start byte at byte 6)"


@case
def unreadable_output(tmp):
    return (["emit", _write(tmp, "ab.schema", _AB), "--out", str(tmp)],
            f"{tmp}: is a directory, not a file")


@case
def unreadable_database(tmp):
    path = tmp / "dir.db"
    path.mkdir()
    return ["emit", str(path)], f"{path}: is a directory, not a file"


@case
def empty_fixture(tmp):
    return ["emit", _write(tmp, "e.schema", "# only a comment\n")], "fixture text is empty"


@case
def empty_ddl(tmp):
    return ["emit", _write(tmp, "e.sql", "-- only a comment\n")], "DDL text is empty"


# --- database introspection ---

@case
def unsupported_format(tmp):
    path = _write(tmp, "fake.db", "not a database")
    return ["emit", path], f"{path}: not an SQLite database file"


@case
def unsupported_format_past_the_header(tmp):
    path = _write(tmp, "corrupt.db", b"SQLite format 3\x00" + b"\xff" * 84 + bytes(412))
    return ["emit", path], f"{path}: not an SQLite database file"


@case
def no_tables(tmp):
    path = tmp / "empty.db"
    with closing(sqlite3.connect(path)):
        pass
    return ["emit", str(path)], f"{path}: database contains no user tables"


@case
def build_reserved_name(tmp):
    out = tmp / "out.db"
    return (["ingest", _write(tmp, "r.sql", "CREATE TABLE sqlite_t (a TEXT);"),
             "--to", "db", "--out", str(out)],
            f"{out}: cannot build database: object name reserved for internal use: sqlite_t")


@case
def build_unencodable_name(tmp):
    out = tmp / "out.db"
    schema = DatabaseSchema("x", (TableSchema("a\udc80", ("x",)),))
    return (lambda: build_database(schema, out),
            f"{out}: cannot build database: 'utf-8' codec can't encode character '\\udc80'"
            " in position 15: surrogates not allowed")


# --- prompts, the client and experiments ---

@case
def no_annotations(tmp):
    table_a, table_b = _AB_SCHEMA.tables
    return (lambda: build_integration_prompt(table_a, table_b, None, WITH_CONTEXT),
            "with-context prompt requested but no annotations given")


@case
def no_header_group(tmp):
    return (["prompt", "--task", "integration", "--arm", "with", "--schema",
             _write(tmp, "ab.schema", _AB), "--ctx", _write(tmp, "c.ctx", "a => b\n")],
            "the annotations hold no header group of table 'a' or 'b'")


@case
def no_context_sentence(tmp):
    return (["prompt", "--task", "joining", "--arm", "with", "--schema",
             _write(tmp, "ab.schema", _AB), "--ctx", _write(tmp, "c.ctx", "")],
            "the annotations hold no context sentence")


@case
def missing_credentials(tmp):
    client = HttpChatClient(ClientConfig("http://llm.example", "m", api_key_source=_UNSET_KEY),
                            transport=lambda *args: pytest.fail("a request was sent"))
    return (lambda: client.complete(PromptBundle(TASK_JOINING, WITH_CONTEXT, "q")),
            f"environment variable {_UNSET_KEY} is not set")


@case
def table_mismatch(tmp):
    entries = (MappingEntry(("x",), ("z",)),)
    return (lambda: score_mapping(HeaderMapping(entries, "a", "b"),
                                  HeaderMapping(entries, "b", "a")),
            "mappings cover different table pairs: ('a', 'b') vs ('b', 'a')")


@case
def fixture_missing_tables(tmp):
    return (lambda: run_experiment(TASK_INTEGRATION, repetitions=1, client_factory=None),
            "required fixture missing: both tables for semantic integration")


@case
def fixture_missing_database(tmp):
    gone = tmp / "gone.db"
    mock = bundled.fixture_path(bundled.JOINING_MOCK)
    return (["run", "--task", "joining", "--mock", str(mock), "--db", str(gone), "--n", "1"],
            f"required fixture missing: database file {gone}")


@pytest.mark.parametrize("name", list(_CASES))
def test_each_raise_site_keeps_its_message(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(_UNSET_KEY, raising=False)
    target, message = _CASES[name](tmp_path)
    if callable(target):
        call, argv = target, None
    else:
        args = build_parser().parse_args(target)
        call, argv = functools.partial(args.func, args), target  # no main() catch
    with pytest.raises(ComdbError) as excinfo:
        call()
    assert str(excinfo.value) == message
    if argv is not None:
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
