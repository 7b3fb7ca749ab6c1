import argparse
import hashlib
import io
import json
from pathlib import Path

import pytest

from comdb import fixtures as bundled
from comdb.cli import build_parser, main
from comdb.ingest import introspect_database

from conftest import data_text


def fx(name):
    return str(bundled.fixture_path(name))


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


def test_ingest_to_db(tmp_path):
    db = tmp_path / "hospital.db"
    rc = main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db", "--out", str(db)])
    assert rc == 0
    assert len(introspect_database(db).tables) == 14


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


def test_ingest_db_requires_out():
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest", fx(bundled.SYNTHEA_DDL), "--to", "db"])
    assert excinfo.value.code == 2


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
], ids=["max-retries", "timeout", "temperature", "timeout-nan", "timeout-inf",
        "temperature-nan", "temperature-inf"])
def test_run_bad_client_setting_is_usage_error(capsys, flag, value, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--task", "integration", "--endpoint", "http://127.0.0.1:9",
              "--gold", fx(bundled.PATIENTS_GOLD_MAP), flag, value])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_run_mock_not_json_is_an_error(tmp_path, capsys):
    mock = tmp_path / "bad.mockjson"
    mock.write_text("[{bad")
    rc = main(["run", "--task", "integration", "--mock", str(mock),
               "--gold", fx(bundled.PATIENTS_GOLD_MAP)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: mock script is not valid JSON: ")


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
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
        path = tmp_path / "binary"
        path.write_bytes(b"table: a\n\xd0\x00\xff\n")
        reason = "not UTF-8 text (invalid continuation byte at byte 9)"
    assert main(command(str(path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {reason}\n"


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
    lambda db: ["ingest", db, "--schema-format", "db"],
    _joining_on,
], ids=["validate-sql", "ingest", "run"])
def test_sqlite_path_that_is_no_sqlite_file_is_an_error(tmp_path, capsys, monkeypatch,
                                                         kind, reason, command):
    db = str(tmp_path) if kind == "directory" else fx(bundled.SYNTHEA_DDL)
    monkeypatch.setattr("sys.stdin", io.StringIO("SELECT 1;"))
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
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
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
    score = json.loads(capsys.readouterr().out)
    assert score == {"matched": 3, "goldSize": 6, "predictedSize": 4,
                     "precision": 0.75, "recall": 0.5, "f1": 0.6}


def test_report_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["run", "--task", "integration", "--arm", "with", "--n", "2",
          "--mock", fx(bundled.INTEGRATION_MOCK),
          "--gold", fx(bundled.PATIENTS_GOLD_MAP), "--out", str(out)])
    rc = main(["report", str(out)])
    assert rc == 0
    assert "semantic-integration / with-context:" in capsys.readouterr().out


def test_report_not_json_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{bad\n"))
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
], ids=["list", "experiment-without-keys", "string-rate"])
def test_report_not_a_report_is_an_error(capsys, monkeypatch, text, cause):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
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


# argv cases whose output is help, usage or a usage error, each as the full
# parser words it: the top level, every subcommand's help, a missing
# required flag, a bad choice, and unrecognized arguments after a
# subcommand (which only the full parser's usage line can word).
_PARSER_CASES = [
    [], ["--help"], ["-h", "run"], ["sorting"], ["--bogus"],
    *([name, "--help"] for name in
      ("ingest", "emit", "prompt", "run", "validate-sql", "score", "report")),
    ["run"], ["score", "--gold", "g.map"], ["run", "--task", "sorting"],
    ["emit", "s.schema", "--order", "random"],
    ["run", "--task", "joining", "--bogus"], ["report", "a.json", "b.json"],
]


def _exit(capsys, call):
    with pytest.raises(SystemExit) as excinfo:
        call()
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["80", "50"])
@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_main_words_help_and_usage_errors_as_the_full_parser(capsys, monkeypatch,
                                                             argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _exit(capsys, lambda: build_parser().parse_args(argv))
    assert _exit(capsys, lambda: main(argv)) == expected


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_main_builds_only_the_invoked_subparser(tmp_path, monkeypatch, command):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = {"ingest": ["ingest", fx(bundled.SYNTHEA_SCHEMA)],
            "run": ["run", "--task", "integration", "--n", "1",
                    "--mock", fx(bundled.INTEGRATION_MOCK),
                    "--gold", fx(bundled.PATIENTS_GOLD_MAP)]}[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert built == ["comdb", f"comdb {command}"]
