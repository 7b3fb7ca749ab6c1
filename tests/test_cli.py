import argparse
import errno
import hashlib
import io
import json
import os
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

from comdb import fixtures as bundled
from comdb.cli import build_parser, main
from comdb.ingest import introspect_database

from conftest import data_text, src_env


def fx(name):
    return str(bundled.fixture_path(name))


def feed_stdin(monkeypatch, data):
    """Make data (bytes, or text as UTF-8) standard input, as a text stream
    over a byte buffer that decodes like a UTF-8 locale's."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))


def test_emit_golden(capsys):
    rc = main(["emit", fx(bundled.SYNTHEA_SCHEMA), fx(bundled.SYNTHEA_CONTEXT),
               "--order", "alphabetical"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (data_text("synthea_base_schema.txt") + "\n"
                   + data_text("synthea_contextual_schema.txt"))


def test_emit_base_only(capsys):
    rc = main(["emit", fx(bundled.SYNTHEA_SCHEMA)])
    assert rc == 0
    assert capsys.readouterr().out == data_text("synthea_base_schema.txt")


def test_emit_missing_file(capsys):
    rc = main(["emit", "missing.schema"])
    assert rc == 1
    assert "file not found" in capsys.readouterr().err


# A comma separates the names of a sentence's list, so no name may hold one:
# "Given a table 't' with headers: a,b, c." would read back as three headers.
@pytest.mark.parametrize("suffix", [".sql", ".db"])
def test_emit_rejects_a_comma_in_a_name(tmp_path, capsys, suffix):
    ddl = 'CREATE TABLE t ("a,b" TEXT, c TEXT);'
    source = tmp_path / f"x{suffix}"
    if suffix == ".sql":
        source.write_text(ddl)
    else:
        with closing(sqlite3.connect(source)) as conn:
            conn.execute(ddl)
    assert main(["emit", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid header name 'a,b'\n"


# A .ctx reference splits table from header at its first ".", so no table
# name may hold one: "a.b.x" would name header "b.x" of table "a".
@pytest.mark.parametrize("ctx", [None, "a.b => c\n", "a.b.x, a.b.y => concept: pair\n"],
                         ids=["no-ctx", "relation", "group"])
def test_emit_rejects_a_dot_in_a_table_name(tmp_path, capsys, ctx):
    source = tmp_path / "dot.sql"
    source.write_text('CREATE TABLE "a.b" (x TEXT, y TEXT); CREATE TABLE c (z TEXT);')
    argv = ["emit", str(source)]
    if ctx is not None:
        (tmp_path / "dot.ctx").write_text(ctx)
        argv.append(str(tmp_path / "dot.ctx"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid table name 'a.b'\n"


def test_emit_to_file(tmp_path):
    out = tmp_path / "doc.txt"
    rc = main(["emit", fx(bundled.SYNTHEA_SCHEMA), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == data_text("synthea_base_schema.txt")


def test_ingest_fixture_output(tmp_path, capsys):
    # The same 14 tables read from each source format: DDL, fixture, SQLite.
    db = tmp_path / "hospital.db"
    assert main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)]) == 0
    expected = bundled.fixture_text(bundled.SYNTHEA_SCHEMA).split("\n", 1)[1]
    for source in (fx(bundled.SYNTHEA_DDL), fx(bundled.SYNTHEA_SCHEMA), str(db)):
        assert main(["ingest", source]) == 0
        assert capsys.readouterr().out == expected, source


def test_ingest_to_db(tmp_path, capsys):
    db = tmp_path / "hospital.db"
    rc = main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    assert rc == 0
    assert len(introspect_database(db).tables) == 14
    capsys.readouterr()
    rc = main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: refusing to overwrite existing file: {db}\n"


@pytest.mark.parametrize("ddl, clash", [
    ("CREATE TABLE t (Id TEXT, ID TEXT);", "duplicate header 'ID'"),
    ("CREATE TABLE a (x TEXT); CREATE TABLE A (y TEXT);", "duplicate table name 'A'"),
], ids=["header", "table"])
def test_ingest_rejects_names_equal_ignoring_case(tmp_path, capsys, ddl, clash):
    source = tmp_path / "clash.sql"
    source.write_text(ddl)
    db = tmp_path / "clash.db"
    rc = main(["ingest", str(source), "--to", "db", "--out", str(db)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {clash}")
    assert not db.exists()


# parse_fixture would read these names back as others: "a:b" as table "a",
# "#c" as a comment, and a name with surrounding whitespace stripped.
@pytest.mark.parametrize("ddl, name", [
    ('CREATE TABLE "a:b" (h TEXT, g TEXT); CREATE TABLE c (x TEXT);', "table name 'a:b'"),
    ('CREATE TABLE a (h TEXT); CREATE TABLE "#c" (x TEXT);', "table name '#c'"),
    ('CREATE TABLE " a" (h TEXT);', "table name ' a'"),
    ('CREATE TABLE a ("h " TEXT, g TEXT);', "header name 'h '"),
], ids=["colon", "hash", "table-space", "header-space"])
def test_ingest_refuses_a_fixture_that_reads_back_as_another_schema(tmp_path, capsys,
                                                                    ddl, name):
    source = tmp_path / "names.sql"
    source.write_text(ddl)
    out = tmp_path / "names.schema"
    assert main(["ingest", str(source), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid {name}\n"
    assert not out.exists()
    assert main(["ingest", str(source), "--to", "db", "--out", str(tmp_path / "n.db")]) == 0


def test_ingest_db_requires_out():
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db"])
    assert excinfo.value.code == 2


def test_ingest_db_requires_out_before_reading_the_input(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest", "missing.sql", "--to", "db"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("error: --to db requires --out\n")


def test_prompt_with_and_without_context(capsys):
    rc = main(["prompt", "--task", "integration", "--arm", "with"])
    assert rc == 0
    withc = capsys.readouterr().out
    assert "are in the context of patients' name." in withc

    rc = main(["prompt", "--task", "integration", "--arm", "without"])
    assert rc == 0
    without = capsys.readouterr().out
    assert "context of" not in without
    assert "combined or split" in without


def test_prompt_joining_uses_bundled_fixtures(capsys):
    rc = main(["prompt", "--task", "joining", "--arm", "with"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("Given a table 'allergies'")
    assert "providers are in the context of organizations." in out


# Annotations were given in both cases; the error names what they lack.
@pytest.mark.parametrize("argv, message", [
    (["--task", "integration", "--table-a", "patients", "--table-b", "providers"],
     "the annotations hold no header group of table 'patients' or 'providers'"),
    (["--task", "joining"], "the annotations hold no context sentence"),
], ids=["integration", "joining"])
def test_prompt_with_context_names_what_the_annotations_lack(tmp_path, capsys, argv,
                                                             message):
    ctx = fx(bundled.SYNTHEA_CONTEXT)
    if argv[1] == "joining":
        ctx = tmp_path / "comment.ctx"
        ctx.write_text("# no relations and no groups\n")
    rc = main(["prompt", *argv, "--schema", fx(bundled.SYNTHEA_SCHEMA), "--ctx", str(ctx),
               "--arm", "with"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_integration(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--task", "integration", "--arm", "both", "--n", "10",
               "--mock", fx(bundled.INTEGRATION_MOCK),
               "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    arms = {e["arm"]: e["aggregate"] for e in payload["experiments"]}
    assert arms["with-context"]["meanRecall"] == 1.0
    assert arms["without-context"]["meanRecall"] == 0.5


def test_run_means_do_not_depend_on_the_interpreter(tmp_path):
    # Ten F1 values of 0.6 sum to 5.999999999999999 with plain left-to-right
    # addition (Python 3.10 and 3.11), but to exactly 6.0 when compensated.
    out = tmp_path / "report.json"
    assert main(["run", "--task", "integration", "--arm", "without", "--n", "10",
                 "--mock", fx(bundled.INTEGRATION_MOCK),
                 "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--out", str(out)]) == 0
    [experiment] = json.loads(out.read_text())["experiments"]
    assert experiment["aggregate"]["meanF1"] == 0.6
    assert '"meanF1": 0.6\n' in out.read_text()


def test_run_joining(tmp_path):
    db = tmp_path / "hospital.db"
    main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    out = tmp_path / "report.json"
    rc = main(["run", "--task", "joining", "--arm", "both", "--n", "10",
               "--mock", fx(bundled.JOINING_MOCK), "--db", str(db),
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    arms = {e["arm"]: e["aggregate"] for e in payload["experiments"]}
    assert arms["with-context"]["successRate"] == 1.0
    assert arms["without-context"]["successRate"] == 0.0


@pytest.mark.parametrize("task", ["integration", "joining"])
@pytest.mark.parametrize("arm", ["with", "without"])
def test_prompt_is_the_prompt_run_sends(tmp_path, capsys, task, arm):
    db = tmp_path / "hospital.db"
    main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    assert main(["prompt", "--task", task, "--arm", arm]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("\n")
    out = tmp_path / "report.json"
    mock = bundled.INTEGRATION_MOCK if task == "integration" else bundled.JOINING_MOCK
    assert main(["run", "--task", task, "--arm", arm, "--n", "1", "--mock", fx(mock),
                 "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--db", str(db),
                 "--out", str(out)]) == 0
    [experiment] = json.loads(out.read_text())["experiments"]
    digest = hashlib.sha256(printed[:-1].encode("utf-8")).hexdigest()
    assert experiment["runs"][0]["promptSha256"] == digest


def test_run_joining_requires_db():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "joining", "--mock", fx(bundled.JOINING_MOCK)])
    assert excinfo.value.code == 2


def test_run_integration_requires_gold():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration",
              "--mock", fx(bundled.INTEGRATION_MOCK)])
    assert excinfo.value.code == 2


def test_run_requires_client():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration",
              "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("endpoint", ["http://127.0.0.1:9", ""])
def test_run_mock_and_endpoint_together_is_usage_error(capsys, endpoint):
    # A scripted run must never pass for a live one.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--mock", fx(bundled.INTEGRATION_MOCK),
              "--endpoint", endpoint, "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --endpoint: not allowed with argument --mock\n")


def test_run_empty_mock_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--mock", "",
              "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("error: --mock names no mock script\n")


def test_run_bad_flag_usage():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "sorting"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag", ["--table-a", "--table-b"])
def test_run_unknown_table_is_an_error(capsys, flag):
    rc = main(["run", "--task", "integration", flag, "nope",
               "--mock", fx(bundled.INTEGRATION_MOCK),
               "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag} references unknown table 'nope'\n"


@pytest.mark.parametrize("command", ["prompt", "run"])
@pytest.mark.parametrize("one_table_schema", [False, True],
                         ids=["same-flags", "one-table-schema"])
def test_same_table_twice_is_an_error(tmp_path, capsys, command, one_table_schema):
    if one_table_schema:
        # With no --table-a/--table-b, both default to the only table.
        (tmp_path / "one.schema").write_text("patients_A: Name, Gender\n")
        (tmp_path / "one.ctx").write_text("")
        tables = ["--schema", str(tmp_path / "one.schema"),
                  "--ctx", str(tmp_path / "one.ctx")]
    else:
        tables = ["--table-a", "patients_A", "--table-b", "patients_A"]
    argv = {"prompt": ["prompt", "--task", "integration"],
            "run": ["run", "--task", "integration", "--mock", fx(bundled.INTEGRATION_MOCK),
                    "--gold", fx(bundled.PATIENTS_GOLD_MAP)]}[command]
    rc = main(argv + tables)
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --table-a and --table-b both name 'patients_A'; "
        "integration needs two different tables\n")


# An unset side takes the first table the other side does not name.
@pytest.mark.parametrize("flag, name, tables", [
    ("--table-a", "patients_B", ("patients_B", "patients_A")),
    ("--table-b", "patients_A", ("patients_B", "patients_A")),
], ids=["table-a", "table-b"])
def test_prompt_one_table_flag_takes_the_other_table(capsys, flag, name, tables):
    rc = main(["prompt", "--task", "integration", flag, name])
    assert rc == 0
    alone = capsys.readouterr().out
    main(["prompt", "--task", "integration", "--table-a", tables[0], "--table-b", tables[1]])
    assert alone == capsys.readouterr().out
    assert f"from table '{tables[0]}' and table '{tables[1]}'" in alone


@pytest.mark.parametrize("tables, gold, message", [
    (["--table-a", "patients_B", "--table-b", "patients_A"], None,
     "left-side header 'Name' is not a header of --table-a table 'patients_B'"),
    ([], "Name -> FIRST\nGender -> SEX\n",
     "right-side header 'SEX' is not a header of --table-b table 'patients_B'"),
], ids=["tables-swapped", "unknown-right-header"])
def test_run_gold_header_outside_its_table_is_an_error(tmp_path, capsys, tables, gold,
                                                       message):
    gold_path = fx(bundled.PATIENTS_GOLD_MAP)
    if gold is not None:
        gold_path = str(tmp_path / "gold.map")
        Path(gold_path).write_text(gold)
    rc = main(["run", "--task", "integration", "--mock", fx(bundled.INTEGRATION_MOCK),
               "--gold", gold_path, *tables])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gold mapping {gold_path}: {message}\n"


def test_run_zero_workers_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--workers", "0",
              "--mock", fx(bundled.INTEGRATION_MOCK),
              "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--max-retries", "-1", "max_retries must be >= 0"),
    ("--timeout", "0", "timeout must be positive"),
    ("--temperature", "-1", "temperature must be >= 0"),
    ("--timeout", "nan", "timeout must be finite"),
    ("--timeout", "inf", "timeout must be finite"),
    ("--temperature", "nan", "temperature must be finite"),
    ("--temperature", "inf", "temperature must be finite"),
    ("--timeout", "2147484", "timeout must be at most 2147483 s"),
    ("--timeout", "1e10", "timeout must be at most 2147483 s"),
], ids=["max-retries", "timeout", "temperature", "timeout-nan", "timeout-inf",
        "temperature-nan", "temperature-inf", "timeout-2147484", "timeout-1e10"])
def test_run_bad_client_setting_is_usage_error(capsys, flag, value, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--endpoint", "http://127.0.0.1:9",
              "--gold", fx(bundled.PATIENTS_GOLD_MAP), flag, value])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("endpoint", ["localhost:8000", "ftp://llm.example/v1"])
def test_run_endpoint_that_is_not_an_http_url_is_usage_error(capsys, monkeypatch, endpoint):
    def no_backoff(seconds):
        raise AssertionError("a request was retried")

    monkeypatch.setattr("comdb.llm.time.sleep", no_backoff)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--n", "1", "--arm", "with",
              "--endpoint", endpoint, "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert excinfo.value.code == 2
    assert "error: endpoint_url must be an http:// or https:// URL" in capsys.readouterr().err


def test_run_endpoint_with_userinfo_is_usage_error(capsys, monkeypatch):
    def no_request(*args):
        raise AssertionError("a request was sent")

    monkeypatch.setattr("comdb.llm.HttpChatClient.complete", no_request)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--n", "1", "--arm", "with",
              "--endpoint", "http://user:pw@127.0.0.1:9/v1", "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: endpoint_url must not carry user:password@" in err
    assert "pw" not in err


def test_run_with_an_unset_api_key_variable_fails_before_the_first_repetition(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("COMDB_TEST_UNSET_KEY", raising=False)
    monkeypatch.setattr("comdb.evaluate._repetition",
                        lambda *args: pytest.fail("a repetition ran"))
    out = tmp_path / "r.json"
    assert main(["run", "--task", "integration", "--n", "2",
                 "--endpoint", "http://127.0.0.1:9/v1", "--api-key-env", "COMDB_TEST_UNSET_KEY",
                 "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: environment variable COMDB_TEST_UNSET_KEY is not set\n"
    assert not out.exists()


@pytest.mark.parametrize("key, fault", [
    ("sk-secret\nx", "CR or LF"), ("sk-secret\rx", "CR or LF"), ("sk-secret\r\n", "CR or LF"),
    ("sk-secret\u2026", "a character outside Latin-1"),
    ("sk-\u201csecret\u201d", "a character outside Latin-1"),
], ids=["LF", "CR", "CRLF", "ellipsis", "curly-quotes"])
def test_run_with_an_unsendable_api_key_fails_before_the_first_repetition(
        tmp_path, capsys, monkeypatch, key, fault):
    monkeypatch.setenv("COMDB_TEST_BAD_KEY", key)
    monkeypatch.setattr("comdb.evaluate._repetition",
                        lambda *args: pytest.fail("a repetition ran"))
    out = tmp_path / "r.json"
    assert main(["run", "--task", "integration", "--n", "2",
                 "--endpoint", "http://127.0.0.1:9/v1", "--api-key-env", "COMDB_TEST_BAD_KEY",
                 "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: environment variable COMDB_TEST_BAD_KEY contains {fault}\n"
    assert not out.exists()


# pathlib would drop a trailing separator and read the file; open() does not.
@pytest.mark.parametrize("name", [bundled.SYNTHEA_DDL, bundled.SYNTHEA_SCHEMA, "synthea.db"])
def test_schema_path_with_a_trailing_separator_is_not_a_directory(tmp_path, capsys, name):
    path = tmp_path / name
    if name.endswith(".db"):
        assert main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(path)]) == 0
    else:
        path.write_bytes(Path(fx(name)).read_bytes())
    capsys.readouterr()
    schema = str(path) + os.sep
    assert main(["emit", schema]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOTDIR}] Not a directory: {schema!r}\n"


@pytest.mark.parametrize("task", ["integration", "joining"])
def test_run_report_bytes_do_not_depend_on_workers(tmp_path, task):
    db = tmp_path / "synthea.db"
    assert main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)]) == 0
    mock = bundled.INTEGRATION_MOCK if task == "integration" else bundled.JOINING_MOCK
    reports = []
    for workers in ("1", "2", "8"):
        out = tmp_path / f"report-{workers}.json"
        assert main(["run", "--task", task, "--n", "10", "--workers", workers,
                     "--mock", fx(mock), "--gold", fx(bundled.PATIENTS_GOLD_MAP),
                     "--db", str(db), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_run_mock_not_json_is_an_error(tmp_path, capsys):
    mock = tmp_path / "bad.mockjson"
    mock.write_text("[{bad")
    rc = main(["run", "--task", "integration", "--mock", str(mock),
               "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: mock script is not valid JSON: ")
    mock.write_text('{"task": "semantic-integration"}')
    rc = main(["run", "--task", "integration", "--mock", str(mock),
               "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert rc == 1
    assert capsys.readouterr().err == "error: mock script must be a JSON array of records\n"


@pytest.mark.parametrize("command, what", [("report", "report"), ("run", "mock script")],
                         ids=["report", "run-mock"])
def test_json_nested_past_the_recursion_limit_is_an_error(tmp_path, capsys, command, what):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    argv = (["report", str(deep)] if command == "report" else
            ["run", "--task", "integration", "--mock", str(deep),
             "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} nests too deeply to read\n"


@pytest.mark.parametrize("kind", ["not-utf8", "not-utf8-after-bom", "directory"])
@pytest.mark.parametrize("command", [
    lambda path: ["ingest", path],
    lambda path: ["emit", fx(bundled.SYNTHEA_SCHEMA), path],
    lambda path: ["score", "--predicted", path, "--gold", fx(bundled.PATIENTS_GOLD_MAP)],
    lambda path: ["run", "--task", "integration", "--mock", path,
                  "--gold", fx(bundled.PATIENTS_GOLD_MAP)],
], ids=["ingest", "emit-annotations", "score", "run-mock"])
def test_unreadable_input_is_an_error(tmp_path, capsys, kind, command):
    if kind == "directory":
        path = tmp_path
        reason = "is a directory, not a file"
    else:
        # The offset counts from the file's start, byte-order mark included.
        bom = b"\xef\xbb\xbf" if kind == "not-utf8-after-bom" else b""
        path = tmp_path / "binary"
        path.write_bytes(bom + b"table: a\n\xd0\x00\xff\n")
        reason = f"not UTF-8 text (invalid continuation byte at byte {9 + len(bom)})"
    assert main(command(str(path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"


# A leading UTF-8 byte-order mark is not part of the text, in any format,
# in a file or, for a command given no path, on standard input.
@pytest.mark.parametrize("name, text, command", [
    (bundled.SYNTHEA_SCHEMA, None, lambda path, db: ["emit", path]),
    (bundled.SYNTHEA_CONTEXT, None, lambda path, db: ["emit", fx(bundled.SYNTHEA_SCHEMA), path]),
    (bundled.PATIENTS_GOLD_MAP, None,
     lambda path, db: ["score", "--predicted", path, "--gold", fx(bundled.PATIENTS_GOLD_MAP)]),
    (bundled.SYNTHEA_DDL, None, lambda path, db: ["ingest", path]),
    (bundled.INTEGRATION_MOCK, None,
     lambda path, db: ["run", "--task", "integration", "--n", "1", "--mock", path,
                       "--gold", fx(bundled.PATIENTS_GOLD_MAP)]),
    ("query.sql", "SELECT Id, NAME FROM providers;\n",
     lambda path, db: ["validate-sql", "--db", db]),
    ("report.json", data_text("mock_report_n3.json"), lambda path, db: ["report"]),
], ids=["schema", "ctx", "map", "sql", "mockjson", "stdin-sql", "stdin-report"])
def test_inputs_accept_a_utf8_byte_order_mark(tmp_path, capsys, monkeypatch, fixture_db,
                                              name, text, command):
    text = text or bundled.fixture_text(name)
    outputs = []
    for mark in ("", "\ufeff"):
        path = tmp_path / f"mark{len(mark)}" / name
        path.parent.mkdir()
        path.write_text(mark + text, encoding="utf-8")
        feed_stdin(monkeypatch, mark + text)
        assert main(command(str(path), str(fixture_db))) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


# Bytes on standard input that are not UTF-8 are refused as they are in a
# file, whatever the locale's stream would make of them. The offset counts
# from the first byte, byte-order mark included.
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "after-bom"])
@pytest.mark.parametrize("data, reason, offset, command", [
    (b"SELECT 1;\xff", "invalid start byte", 9, lambda db: ["validate-sql", "--db", db]),
    (b"SELECT 'a\xc3(';", "invalid continuation byte", 9,
     lambda db: ["validate-sql", "--db", db]),
    (b'{"experiments": ["\xed\xa0\x80"]}', "invalid continuation byte", 18,
     lambda db: ["report"]),
], ids=["sql-invalid-start", "sql-invalid-continuation", "report-surrogate"])
def test_stdin_that_is_not_utf8_is_an_error(capsys, monkeypatch, fixture_db,
                                            data, reason, offset, command, bom):
    feed_stdin(monkeypatch, bom + data)
    assert main(command(str(fixture_db))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: standard input: not UTF-8 text "
                            f"({reason} at byte {offset + len(bom)})\n")


def test_stdin_is_decoded_from_bytes_in_a_fresh_process(fixture_db):
    # A real process, its standard input a pipe, under a UTF-8 locale.
    env = {name: value for name, value in src_env().items() if name != "PYTHONIOENCODING"}
    env.update(LC_ALL="C.UTF-8")
    proc = subprocess.run([sys.executable, "-m", "comdb", "validate-sql", "--db", str(fixture_db)],
                          input=b"\xef\xbb\xbfSELECT 1;\xff", env=env, capture_output=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"error: standard input: not UTF-8 text (invalid start byte at byte 12)\n")


@pytest.mark.parametrize("command", [
    ["emit", fx(bundled.SYNTHEA_SCHEMA)],
    ["ingest", fx(bundled.SYNTHEA_DDL), "--to", "fixture"],
    ["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db"],
    ["run", "--task", "integration", "--n", "1", "--mock", fx(bundled.INTEGRATION_MOCK),
     "--gold", fx(bundled.PATIENTS_GOLD_MAP)],
], ids=["emit", "ingest", "ingest-db", "run"])
def test_out_naming_a_directory_is_an_error(tmp_path, capsys, command):
    assert main(command + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path}: is a directory, not a file\n"


@pytest.mark.parametrize("kind", ["directory", "missing parent"])
@pytest.mark.parametrize("command", [
    ["emit", fx(bundled.SYNTHEA_SCHEMA)],
    ["run", "--task", "integration", "--mock", fx(bundled.INTEGRATION_MOCK),
     "--gold", fx(bundled.PATIENTS_GOLD_MAP)],
], ids=["emit", "run"])
def test_unwritable_out_fails_before_the_first_repetition(tmp_path, capsys, monkeypatch,
                                                          kind, command):
    if kind == "directory":
        out = str(tmp_path)
        message = f"{out}: is a directory, not a file"
    else:
        out = str(tmp_path / "missing" / "report.json")
        message = f"file not found: [Errno 2] No such file or directory: {out!r}"
    monkeypatch.setattr("comdb.evaluate._repetition",
                        lambda *args: pytest.fail("a repetition ran"))
    assert main(command + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "missing").exists()


def _joining_on(db):
    return ["run", "--task", "joining", "--mock", fx(bundled.JOINING_MOCK), "--db", db]


@pytest.mark.parametrize("kind, reason", [
    ("directory", "is a directory, not a file"),
    ("ddl", "not an SQLite database file"),
])
@pytest.mark.parametrize("command", [
    lambda db: ["validate-sql", "--db", db],
    lambda db: ["ingest", db],
    _joining_on,
], ids=["validate-sql", "ingest", "run"])
def test_sqlite_path_that_is_no_sqlite_file_is_an_error(tmp_path, capsys, monkeypatch,
                                                         kind, reason, command):
    # A .db suffix is what makes ingest read the path as SQLite.
    db = tmp_path / ("x.db" if kind == "directory" else "ddl.db")
    if kind == "directory":
        db.mkdir()
    else:
        db.write_bytes(Path(fx(bundled.SYNTHEA_DDL)).read_bytes())
    db = str(db)
    feed_stdin(monkeypatch, "SELECT 1;")
    monkeypatch.setattr("comdb.evaluate._repetition",
                        lambda *args: pytest.fail("a repetition ran"))
    assert main(command(db)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {db}: {reason}\n"


def test_run_joining_accepts_an_empty_database_file(tmp_path, capsys):
    empty = tmp_path / "empty.db"
    empty.touch()
    assert main(_joining_on(str(empty)) + ["--n", "1"]) == 0
    experiments = json.loads(capsys.readouterr().out)["experiments"]
    assert [e["runs"][0]["error"] for e in experiments] == ["no such table: careplans"] * 2


def test_validate_sql_flawed(tmp_path, capsys):
    db = tmp_path / "hospital.db"
    main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    sql = tmp_path / "flawed.sql"
    sql.write_text("SELECT careplans.Id FROM careplans "
                   "JOIN providers ON careplans.PROVIDER = providers.Id;")
    rc = main(["validate-sql", "--db", str(db), str(sql)])
    assert rc == 1
    assert "no such column: careplans.PROVIDER" in capsys.readouterr().out


def test_validate_sql_correct(tmp_path, capsys):
    db = tmp_path / "hospital.db"
    main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    sql = tmp_path / "good.sql"
    sql.write_text(
        "SELECT careplans.Id, patients.FIRST, patients.LAST, providers.NAME "
        "FROM careplans "
        "JOIN encounters ON careplans.ENCOUNTER = encounters.Id "
        "JOIN patients ON encounters.PATIENT = patients.Id "
        "JOIN providers ON encounters.PROVIDER = providers.Id;")
    rc = main(["validate-sql", "--db", str(db), str(sql)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_validate_sql_empty_stdin(tmp_path, capsys, monkeypatch):
    db = tmp_path / "hospital.db"
    main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    feed_stdin(monkeypatch, "")
    rc = main(["validate-sql", "--db", str(db)])
    assert rc == 1
    assert "empty statement" in capsys.readouterr().out


def test_score_command(tmp_path, capsys):
    predicted = tmp_path / "predicted.map"
    predicted.write_text("Date of Birth -> BIRTHDATE\n"
                         "Place of Birth -> BIRTHPLACE\n"
                         "Gender -> GENDER\n"
                         "Address -> ADDRESS\n")
    rc = main(["score", "--predicted", str(predicted),
               "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert rc == 0
    out = capsys.readouterr().out
    score = json.loads(out)
    assert score == {"matched": 3, "goldSize": 6, "predictedSize": 4,
                     "precision": 0.75, "recall": 0.5, "f1": 0.6}
    assert out == json.dumps(score, indent=2) + "\n"


def test_report_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["run", "--task", "integration", "--arm", "with", "--n", "2",
          "--mock", fx(bundled.INTEGRATION_MOCK),
          "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--out", str(out)])
    rc = main(["report", str(out)])
    assert rc == 0
    assert "semantic-integration / with-context:" in capsys.readouterr().out


def test_report_not_json_is_an_error(capsys, monkeypatch):
    feed_stdin(monkeypatch, "{bad\n")
    rc = main(["report"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: report is not valid JSON: ")


@pytest.mark.parametrize("text, cause", [
    ("[]", "AttributeError"),
    ('{"experiments": [{}]}', "KeyError: 'task'"),
    ('{"experiments": [{"task": "t", "arm": "a", "n": 1,'
     ' "aggregate": {"successRate": "high"}}]}', "ValueError"),
    ('{"experiments": [{"task": "t", "arm": "a", "n": 1}]}', "KeyError: 'aggregate'"),
], ids=["list", "experiment-without-keys", "string-rate", "experiment-without-aggregate"])
def test_report_not_a_report_is_an_error(capsys, monkeypatch, text, cause):
    feed_stdin(monkeypatch, text)
    rc = main(["report"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: not a comdb report: {cause}")


def test_run_is_deterministic(tmp_path):
    args = ["run", "--task", "integration", "--arm", "both", "--n", "4",
            "--mock", fx(bundled.INTEGRATION_MOCK),
            "--gold", fx(bundled.PATIENTS_GOLD_MAP)]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


_COMMANDS = ("ingest", "emit", "prompt", "run", "validate-sql", "score", "report")

# argv cases whose output is help, usage or a usage error, each as the full
# parser words it: the top level, every subcommand's help, a missing
# required flag, a bad choice, and unrecognized arguments after a
# subcommand.
_PARSER_CASES = [
    [], ["--help"], ["-h", "run"], ["sorting"], ["--bogus"],
    *([name, "--help"] for name in _COMMANDS),
    ["run"], ["score", "--gold", "g.map"], ["run", "--task", "sorting"],
    ["emit", "s.schema", "--order", "random"],
    ["run", "--task", "joining", "--bogus"], ["report", "a.json", "b.json"],
]


def _exit(capsys, call):
    with pytest.raises(SystemExit) as excinfo:
        call()
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def _set_columns(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)


@pytest.mark.parametrize("columns", ["80", "50", None], ids=["80", "50", "unset"])
@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_main_words_help_and_usage_errors_as_the_full_parser(capsys, monkeypatch,
                                                             argv, columns):
    _set_columns(monkeypatch, columns)
    expected = _exit(capsys, lambda: build_parser.__wrapped__().parse_args(argv))
    assert _exit(capsys, lambda: main(argv)) == expected


_JOINING_MOCK = ["--task", "joining", "--mock", fx(bundled.JOINING_MOCK)]


# argv that argparse accepts but a handler refuses, and the usage error it
# words through the parser it was given.
@pytest.mark.parametrize("argv, message", [
    (["run", *_JOINING_MOCK, "--db", "s.db", "--n", "0"], "--n must be >= 1"),
    (["run", *_JOINING_MOCK, "--db", "s.db", "--workers", "0"], "--workers must be >= 1"),
    (["run", "--task", "joining", "--mock", "", "--db", "s.db"], "--mock names no mock script"),
    (["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db"], "--to db requires --out"),
    (["run", *_JOINING_MOCK], "--db is required for --task joining"),
], ids=["n", "workers", "mock", "to-db", "db"])
@pytest.mark.parametrize("columns", ["80", "50", None], ids=["80", "50", "unset"])
def test_main_words_handler_usage_errors_as_the_full_parser(capsys, monkeypatch,
                                                            argv, message, columns):
    _set_columns(monkeypatch, columns)
    # A new full parser accepts argv, so its subparser is args.parser.
    expected = _exit(capsys, lambda: build_parser.__wrapped__().parse_args(argv)
                     .parser.error(message))
    assert expected[0] == 2 and message in expected[2]
    assert _exit(capsys, lambda: main(argv)) == expected


# Every command renders nl's default style, so a style flag is an
# unrecognized argument.
@pytest.mark.parametrize("argv", [
    ["emit", fx(bundled.SYNTHEA_SCHEMA), fx(bundled.SYNTHEA_CONTEXT), "--plain-groups"],
    ["prompt", "--task", "integration", "--no-oxford"],
    ["run", "--task", "joining", "--mock", fx(bundled.JOINING_MOCK), "--db", "s.db",
     "--plain-groups"],
], ids=["emit", "prompt", "run"])
def test_style_flags_are_usage_errors(capsys, argv):
    code, out, err = _exit(capsys, lambda: main(argv))
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {argv[-1]}" in err


# A schema source is read by its suffix alone, so --schema-format is an
# unrecognized argument.
@pytest.mark.parametrize("argv", [
    ["ingest", fx(bundled.SYNTHEA_DDL), "--schema-format", "ddl"],
    ["emit", fx(bundled.SYNTHEA_SCHEMA), "--schema-format", "fixture"],
    ["prompt", "--task", "joining", "--schema-format", "auto"],
    ["run", "--task", "joining", "--mock", fx(bundled.JOINING_MOCK), "--db", "s.db",
     "--schema-format", "db"],
], ids=["ingest", "emit", "prompt", "run"])
def test_schema_format_is_a_usage_error(capsys, argv):
    code, out, err = _exit(capsys, lambda: main(argv))
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["ingest", fx(bundled.SYNTHEA_SCHEMA), "--out", str(tmp_path / "out")]) == 0
    assert built == ["comdb", *(f"comdb {name}" for name in _COMMANDS)]
    built.clear()
    assert main(["run", "--task", "integration", "--n", "1",
                 "--mock", fx(bundled.INTEGRATION_MOCK),
                 "--gold", fx(bundled.PATIENTS_GOLD_MAP),
                 "--out", str(tmp_path / "report")]) == 0
    assert built == []


def _fresh_output(capsys, argv):
    build_parser.cache_clear()
    assert main(argv) == 0
    return capsys.readouterr().out


# The first argv sets flags away from their defaults; the second leaves
# them unset and must print what it prints from a new parser.
@pytest.mark.parametrize("command", ["emit", "run"])
def test_a_reused_parser_carries_nothing_over(tmp_path, capsys, command):
    schema = tmp_path / "unsorted.schema"
    schema.write_text("b: x, y\na: z\n")
    run = ["run", "--task", "integration", "--mock", fx(bundled.INTEGRATION_MOCK),
           "--gold", fx(bundled.PATIENTS_GOLD_MAP)]
    first, second = {"emit": (["emit", str(schema), "--order", "input-order"],
                              ["emit", str(schema)]),
                     "run": ([*run, "--arm", "with", "--n", "3"], run)}[command]
    expected = _fresh_output(capsys, second)
    assert _fresh_output(capsys, first) != expected
    assert main(second) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["ingest", "run"])
def test_a_full_disk_is_an_error_not_a_traceback(capsys, command):
    argv = {"ingest": ["ingest", fx(bundled.SYNTHEA_DDL)],
            "run": ["run", "--task", "integration", "--n", "1",
                    "--mock", fx(bundled.INTEGRATION_MOCK),
                    "--gold", fx(bundled.PATIENTS_GOLD_MAP)]}[command]
    assert main(argv + ["--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}:"
                            " '/dev/full'\n")
