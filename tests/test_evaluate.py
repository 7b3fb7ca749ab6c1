import gc
import hashlib
import json
import os
import random
import re
import sqlite3
import string
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from comdb import evaluate, fixtures as bundled, llm
from comdb.errors import (
    ConfigError,
    NoMappingFound,
    NoSqlFound,
    ParseError,
    WriteAttempt,
)
from comdb.evaluate import (
    MappingScore,
    SqlValidationReport,
    execute_sql,
    render_report,
    render_summary,
    run_experiment,
    score_mapping,
)
from comdb.llm import (
    TASK_INTEGRATION,
    TASK_JOINING,
    WITH_CONTEXT,
    WITHOUT_CONTEXT,
    MockChatClient,
)
from comdb.ingest import (
    SQL_HEAP_LIMIT,
    SQL_LENGTH_LIMIT,
    build_database,
    open_readonly,
    parse_annotations,
    parse_ddl,
    parse_fixture,
    restrict,
)
from comdb.mapping import HeaderMapping, MappingEntry, parse_map_text, split_reused
from comdb.schema import DatabaseSchema, TableSchema, validate_annotations, validate_schema

from conftest import data_text, rand_annotations, rand_schema, scale_ddl, src_env

FLAWED_JOIN = """\
SELECT careplans.Id, providers.NAME
FROM careplans
JOIN providers ON careplans.PROVIDER = providers.Id
JOIN patients ON careplans.PATIENT = patients.Id;
"""

CORRECT_JOIN = """\
SELECT careplans.Id AS careplan_id,
       providers.NAME AS provider_name,
       patients.FIRST AS patient_first_name,
       patients.LAST AS patient_last_name
FROM careplans
JOIN encounters ON careplans.ENCOUNTER = encounters.Id
JOIN patients ON encounters.PATIENT = patients.Id
JOIN providers ON encounters.PROVIDER = providers.Id;
"""


def entry(sources, targets):
    return MappingEntry(tuple(sources), tuple(targets))


def mapping(*entries, tables=("patients_A", "patients_B")):
    return HeaderMapping(tuple(entries), *tables)


PARTIAL_PREDICTION = mapping(
    entry(["Date of Birth"], ["BIRTHDATE"]),
    entry(["Place of Birth"], ["BIRTHPLACE"]),
    entry(["Gender"], ["GENDER"]),
    entry(["Address"], ["ADDRESS"]),
)


# --- scoring ---

def test_score_gold_against_itself(gold_mapping):
    score = score_mapping(gold_mapping, gold_mapping)
    assert score.matched == 6
    assert score.precision == 1.0
    assert score.recall == 1.0
    assert score.f1 == 1.0


def test_score_partial_prediction(gold_mapping):
    score = score_mapping(PARTIAL_PREDICTION, gold_mapping)
    assert score.matched == 3
    assert score.precision == 0.75
    assert score.recall == 0.5


def test_score_empty_prediction(gold_mapping):
    score = score_mapping(mapping(), gold_mapping)
    assert score == MappingScore(0, 6, 0, 0.0, 0.0, 0.0)


def test_score_normalizes_case_and_space(gold_mapping):
    predicted = mapping(entry([" gender "], ["GENDER"]))
    assert score_mapping(predicted, gold_mapping).matched == 1


def test_score_does_not_stem(gold_mapping):
    # Name -> FIRST is a semantic correspondence the model must supply;
    # the scorer itself gives no credit for lookalike strings
    predicted = mapping(entry(["Name"], ["NAME"]))
    assert score_mapping(predicted, gold_mapping).matched == 0


def test_score_table_mismatch(gold_mapping):
    predicted = HeaderMapping((entry(["Gender"], ["GENDER"]),), "other_A", "other_B")
    with pytest.raises(ConfigError) as excinfo:
        score_mapping(predicted, gold_mapping)
    assert str(excinfo.value) == ("mappings cover different table pairs: "
                                  "('other_A', 'other_B') vs ('patients_A', 'patients_B')")


def test_mapping_invariant_duplicate_source():
    with pytest.raises(ValueError):
        HeaderMapping((entry(["a"], ["x"]), entry(["A "], ["y"])))


def test_mapping_invariant_duplicate_target():
    with pytest.raises(ValueError):
        HeaderMapping((entry(["a"], ["x"]), entry(["b"], ["X"])))


@pytest.mark.parametrize("text, message", [
    ("Name = FIRST", "line 1: expected 'A-side -> B-side'"),
    ("# gold\nName -> FIRST +", "line 2: empty header name"),
    ("# no entries\n\n", "line 1: no mapping entries found"),
    ("Name -> FIRST\nname -> LAST", "line 2: source header 'name' appears in two entries"),
    ("Name -> FIRST\n# c\n\nname -> LAST",
     "line 4: source header 'name' appears in two entries"),
], ids=["no-arrow", "empty-header", "no-entries", "reused-header", "reused-after-comment"])
def test_parse_map_text_errors(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_map_text(text)
    assert str(excinfo.value) == message


_header = st.text(alphabet="abcdefgh", min_size=1, max_size=5)
_sides = st.lists(_header, min_size=1, max_size=3, unique=True)


def _build_mapping(pairs):
    entries = []
    seen_src, seen_tgt = set(), set()
    for sources, targets in pairs:
        if set(sources) & seen_src or set(targets) & seen_tgt:
            continue
        seen_src |= set(sources)
        seen_tgt |= set(targets)
        entries.append(entry(sources, targets))
    return HeaderMapping(tuple(entries))


@given(st.lists(st.tuples(_sides, _sides), max_size=5),
       st.lists(st.tuples(_sides, _sides), max_size=5))
def test_score_bounds_property(pred_pairs, gold_pairs):
    score = score_mapping(_build_mapping(pred_pairs), _build_mapping(gold_pairs))
    assert 0.0 <= score.precision <= 1.0
    assert 0.0 <= score.recall <= 1.0
    assert 0.0 <= score.f1 <= 1.0
    assert score.matched <= min(score.gold_size, score.predicted_size)


@given(st.lists(st.tuples(_sides, _sides), min_size=1, max_size=5))
def test_score_identity_property(pairs):
    m = _build_mapping(pairs)
    score = score_mapping(m, m)
    if m.entries:
        assert score.precision == 1.0
        assert score.recall == 1.0


def test_removing_matched_entry_never_raises_recall(gold_mapping):
    full = gold_mapping
    for drop in range(len(full.entries)):
        smaller = HeaderMapping(
            tuple(e for i, e in enumerate(full.entries) if i != drop),
            full.source_table, full.target_table)
        assert score_mapping(smaller, gold_mapping).recall < \
            score_mapping(full, gold_mapping).recall


# --- SQL execution ---

def test_execute_flawed_join(fixture_db):
    report = execute_sql(FLAWED_JOIN, fixture_db)
    assert not report.success
    assert "no such column: careplans.PROVIDER" in report.error_text


def test_execute_correct_join(fixture_db):
    report = execute_sql(CORRECT_JOIN, fixture_db)
    assert report.success
    assert report.row_count == 0
    assert report.result_columns == ("careplan_id", "provider_name",
                                     "patient_first_name", "patient_last_name")


def test_execute_empty_statement(fixture_db):
    report = execute_sql("", fixture_db)
    assert not report.success
    assert "empty statement" in report.error_text


def test_execute_comment_only(fixture_db):
    report = execute_sql("-- nothing\n/* still nothing */", fixture_db)
    assert not report.success


@pytest.mark.parametrize("sql", ["(SELECT 1)", "1", ";SELECT 1"])
def test_execute_names_the_openers_of_a_statement_without_a_keyword(fixture_db, sql):
    report = execute_sql(sql, fixture_db)
    assert (report.success, report.error_text) == (
        False, "statement opens with no keyword; it must open with one of "
               "EXPLAIN, SELECT, VALUES, WITH")


def test_execute_refuses_a_leading_semicolon_on_a_writable_connection():
    # sqlite3 runs what follows the ';', so on a connection that may write
    # the keyword check is the only barrier.
    con = sqlite3.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (x)")
        assert not execute_sql(";DROP TABLE t", con).success
        assert con.execute("SELECT name FROM sqlite_master").fetchall() == [("t",)]
    finally:
        con.close()


@pytest.mark.parametrize("sql", [
    "WITH x AS (SELECT 1) DELETE FROM t",
    "WITH x AS (SELECT 2) INSERT INTO t SELECT * FROM x",
])
def test_execute_refuses_a_cte_write_on_a_writable_connection(sql):
    # The keyword gate passes WITH; query_only stops the write behind it.
    con = sqlite3.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (x)")
        con.execute("INSERT INTO t VALUES (1)")
        report = execute_sql(sql, con)
        assert (report.success, report.error_text) == (
            False, "attempt to write a readonly database")
        assert con.execute("SELECT count(*) FROM t").fetchone() == (1,)
        assert con.execute("PRAGMA query_only").fetchone() == (0,)
    finally:
        con.close()


@pytest.mark.parametrize("sql", [
    "INSERT INTO patients (Id) VALUES ('x')",
    "UPDATE patients SET Id = 'y'",
    "DELETE FROM patients",
    "DROP TABLE patients",
    "CREATE TABLE extra (x TEXT)",
])
def test_execute_rejects_writes(fixture_db, sql):
    with pytest.raises(WriteAttempt):
        execute_sql(sql, fixture_db)


@pytest.mark.parametrize("prefix", [
    "/* a */ /* b */",
    "-- a\n-- b\n",
    "/* a */\n-- b\n /* c\n d */",
    "--\n/**/\t-- x\n/*-- y*/",
])
def test_execute_reads_the_keyword_after_stacked_comments(fixture_db, prefix):
    assert execute_sql(prefix + "SELECT Id FROM patients", fixture_db).success
    with pytest.raises(WriteAttempt):
        execute_sql(prefix + "DELETE FROM patients", fixture_db)


def test_execute_cte_write_blocked_by_readonly(fixture_db):
    report = execute_sql(
        "WITH p AS (SELECT 'x' AS v) INSERT INTO patients (Id) SELECT v FROM p",
        fixture_db)
    assert not report.success
    assert "readonly" in report.error_text
    con = sqlite3.connect(fixture_db)
    assert con.execute("SELECT COUNT(*) FROM patients").fetchone()[0] == 0
    con.close()


def test_execute_missing_db(tmp_path):
    with pytest.raises(FileNotFoundError):
        execute_sql("SELECT 1", tmp_path / "none.db")


def test_execute_counts_rows(fixture_db):
    con = sqlite3.connect(fixture_db)
    con.execute("INSERT INTO providers (Id, NAME) VALUES ('p1', 'Dr A')")
    con.execute("INSERT INTO providers (Id, NAME) VALUES ('p2', 'Dr B')")
    con.commit()
    con.close()
    report = execute_sql("SELECT Id, NAME FROM providers", fixture_db)
    assert report.success and report.row_count == 2


def test_execute_error_text_is_verbatim_engine_text(fixture_db):
    got = execute_sql("SELECT nope FROM patients", fixture_db).error_text
    con = sqlite3.connect(fixture_db)
    try:
        con.execute("SELECT nope FROM patients")
    except sqlite3.Error as exc:
        assert got == str(exc)
    finally:
        con.close()


COUNT_TO_50M = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
                "WHERE x < 50000000) SELECT count(*) FROM c")


def test_execute_stops_at_time_limit(fixture_db, monkeypatch):
    monkeypatch.setattr(evaluate, "SQL_TIME_LIMIT_S", 0.1)
    start = time.perf_counter()
    report = execute_sql(COUNT_TO_50M, fixture_db)
    elapsed = time.perf_counter() - start
    assert not report.success
    assert "0.1 s time limit" in report.error_text
    assert report.row_count == 0
    assert elapsed < 2.0


BLOB_OF_50MB = "SELECT length(randomblob(50000000));"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Connection.setlimit needs 3.11")
def test_a_blob_past_the_length_limit_fails_the_run(fixture_db, synthea_schema,
                                                    synthea_annotations):
    # Without SQL_LENGTH_LIMIT the statement succeeds and takes ~50 MB.
    report = execute_sql(BLOB_OF_50MB, fixture_db)
    assert (report.success, report.error_text) == (False, "string or blob too big")
    client = MockChatClient([{"task": TASK_JOINING, "arm": WITHOUT_CONTEXT,
                              "response": BLOB_OF_50MB}])
    [experiment] = run_experiment(
        TASK_JOINING, arms=(WITHOUT_CONTEXT,), repetitions=2,
        client_factory=lambda: client, schema=synthea_schema,
        annotations=synthea_annotations, database=fixture_db)
    assert [(r["ok"], r["sqlSuccess"], r["error"]) for r in experiment["runs"]] == [
        (False, False, "string or blob too big")] * 2


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Connection.setlimit needs 3.11")
def test_open_readonly_sets_the_length_limit(fixture_db):
    con = open_readonly(fixture_db)
    try:
        assert con.getlimit(sqlite3.SQLITE_LIMIT_LENGTH) == SQL_LENGTH_LIMIT
    finally:
        con.close()


def test_a_read_only_connection_costs_one_pragma_per_statement(fixture_db):
    # open_readonly sets query_only once, so execute_sql only reads it.
    con = open_readonly(fixture_db)
    try:
        assert con.execute("PRAGMA query_only").fetchone() == (1,)
        traced = []
        con.set_trace_callback(traced.append)
        for _ in range(2):
            assert execute_sql("SELECT Id FROM patients", con).success
        con.set_trace_callback(None)
        assert traced == ["PRAGMA query_only", "SELECT Id FROM patients"] * 2
        assert con.execute("PRAGMA query_only").fetchone() == (1,)
    finally:
        con.close()


_BOUNDS = ("query_only", "temp_store", "hard_heap_limit")


@pytest.mark.parametrize("pragma", [
    "query_only = 0", "main.QUERY_ONLY = off", "temp_store = FILE",
    f"hard_heap_limit = {SQL_HEAP_LIMIT}"])
def test_a_statement_cannot_set_a_bound_of_a_kept_connection(fixture_db, pragma):
    # SQLite applies these pragmas as it prepares them, EXPLAIN or not, so
    # one statement would lift a bound for every later one on the connection.
    con = open_readonly(fixture_db)
    try:
        before = [con.execute(f"PRAGMA {name}").fetchall() for name in _BOUNDS]
        assert before[0] == [(1,)]
        report = execute_sql(f"EXPLAIN PRAGMA {pragma}", con)
        assert (report.success, report.error_text) == (False, "not authorized")
        assert [con.execute(f"PRAGMA {name}").fetchall() for name in _BOUNDS] == before
        # Reads of them, and other pragmas, still run.
        assert execute_sql("SELECT Id FROM patients", con).success
        assert execute_sql("EXPLAIN PRAGMA table_info(patients)", con).success
    finally:
        con.close()


def _sqlite_has_hard_heap_limit() -> bool:
    with closing(sqlite3.connect(":memory:")) as con:
        return bool(con.execute("PRAGMA hard_heap_limit").fetchall())


# Its temporary b-tree grows without end: on disk until the time limit, or
# in memory until the heap limit.
COUNT_DISTINCT_FOREVER = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                          "SELECT count(DISTINCT x) FROM c")
# SQLite's heap limit holds for the whole process and a pragma only lowers
# it, so a fresh interpreter lowers it to 4 MiB.
_HEAP_LIMIT_CHILD = """
import json, sys, time
from comdb import evaluate, ingest
ingest.SQL_HEAP_LIMIT = 4 * 1024 * 1024
evaluate.SQL_TIME_LIMIT_S = 4.0
con = ingest.open_readonly(sys.argv[1])
start = time.perf_counter()
report = evaluate.execute_sql(sys.argv[2], con)
elapsed = time.perf_counter() - start
after = evaluate.execute_sql("SELECT Id FROM patients", con)
temp_store = con.execute("PRAGMA temp_store").fetchone()[0]
con.close()
print(json.dumps([elapsed, report.success, report.error_text, after.success, temp_store]))
"""


@pytest.mark.skipif(not _sqlite_has_hard_heap_limit(), reason="SQLite lacks hard_heap_limit")
def test_a_statement_past_the_heap_limit_fails_and_the_connection_stays_usable(fixture_db):
    # Without the bound the statement spills to temporary files until the
    # time limit interrupts it.
    proc = subprocess.run([sys.executable, "-c", _HEAP_LIMIT_CHILD, str(fixture_db),
                           COUNT_DISTINCT_FOREVER], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    elapsed, success, error, after, temp_store = json.loads(proc.stdout)
    assert (success, error) == (False, "out of memory: statement exceeded the 4 MiB heap limit")
    assert elapsed < 2.0
    assert after and temp_store == 2  # MEMORY


def test_execute_on_connection_leaves_it_open(fixture_db, monkeypatch):
    monkeypatch.setattr(evaluate, "SQL_TIME_LIMIT_S", 0.05)
    con = open_readonly(fixture_db)
    try:
        for _ in range(2):
            report = execute_sql("SELECT Id FROM patients", con)
            assert report.success and report.result_columns == ("Id",)
        with pytest.raises(WriteAttempt):
            execute_sql("DELETE FROM patients", con)
        time.sleep(0.1)
        # the deadline of an earlier statement no longer applies
        assert con.execute("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 "
                           "FROM c WHERE x < 10000) SELECT count(*) FROM c"
                           ).fetchone() == (10000,)
    finally:
        con.close()


@pytest.mark.parametrize("success, error_text", [(True, "boom"), (False, None)])
def test_sql_report_invariant(success, error_text):
    with pytest.raises(ValueError):
        SqlValidationReport(success, error_text, (), 0)


# --- experiment runner ---

def _mock_factory(path):
    records = json.loads(bundled.fixture_path(path).read_text())

    def factory():
        return MockChatClient(records)

    return factory


def run_integration(patient_tables, patient_annotations, gold_mapping, **kw):
    table_a, table_b = patient_tables
    kwargs = dict(repetitions=10, client_factory=_mock_factory(bundled.INTEGRATION_MOCK),
                  table_a=table_a, table_b=table_b,
                  annotations=patient_annotations, gold=gold_mapping)
    kwargs.update(kw)
    return run_experiment(TASK_INTEGRATION, **kwargs)


def test_run_integration_both_arms(patient_tables, patient_annotations,
                                   gold_mapping):
    reports = run_integration(patient_tables, patient_annotations, gold_mapping)
    by_arm = {r["arm"]: r for r in reports}
    assert by_arm[WITH_CONTEXT]["aggregate"]["meanRecall"] == 1.0
    assert by_arm[WITHOUT_CONTEXT]["aggregate"]["meanRecall"] == 0.5
    assert by_arm[WITHOUT_CONTEXT]["aggregate"]["meanPrecision"] == 0.75
    assert all(r["n"] == 10 and len(r["runs"]) == 10 for r in reports)


def test_run_joining_both_arms(synthea_schema, synthea_annotations, fixture_db):
    reports = run_experiment(
        TASK_JOINING, repetitions=10,
        client_factory=_mock_factory(bundled.JOINING_MOCK),
        schema=synthea_schema, annotations=synthea_annotations,
        database=fixture_db)
    by_arm = {r["arm"]: r for r in reports}
    assert by_arm[WITH_CONTEXT]["aggregate"]["successRate"] == 1.0
    assert by_arm[WITHOUT_CONTEXT]["aggregate"]["successRate"] == 0.0
    failure = by_arm[WITHOUT_CONTEXT]["runs"][0]
    assert "no such column: careplans.PROVIDER" in failure["error"]


def test_run_zero_repetitions(patient_tables, patient_annotations, gold_mapping):
    with pytest.raises(ConfigError):
        run_integration(patient_tables, patient_annotations, gold_mapping,
                        repetitions=0)


def test_run_zero_workers(patient_tables, patient_annotations, gold_mapping):
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        run_integration(patient_tables, patient_annotations, gold_mapping, workers=0)


def test_run_unknown_task():
    with pytest.raises(ConfigError):
        run_experiment("guessing", repetitions=1, client_factory=lambda: None)


def test_run_unknown_arm(patient_tables, patient_annotations, gold_mapping):
    with pytest.raises(ConfigError, match="unknown arm 'sideways'"):
        run_integration(patient_tables, patient_annotations, gold_mapping,
                        arms=(WITH_CONTEXT, "sideways"), repetitions=1,
                        client_factory=lambda: pytest.fail("a repetition ran"))


@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_with_context_without_annotations(task, patient_tables, gold_mapping,
                                              synthea_schema, fixture_db):
    table_a, table_b = patient_tables
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(task, repetitions=1,
                       client_factory=lambda: pytest.fail("a repetition ran"),
                       table_a=table_a, table_b=table_b, gold=gold_mapping,
                       schema=synthea_schema, database=fixture_db, annotations=None)
    assert str(excinfo.value) == "with-context prompt requested but no annotations given"


def test_run_missing_gold(patient_tables, patient_annotations):
    table_a, table_b = patient_tables
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(TASK_INTEGRATION, repetitions=1,
                       client_factory=lambda: None,
                       table_a=table_a, table_b=table_b,
                       annotations=patient_annotations, gold=None)
    assert str(excinfo.value) == "required fixture missing: gold mapping for semantic integration"


@pytest.mark.parametrize("task, missing, what", [
    (TASK_INTEGRATION, "table_b", "both tables for semantic integration"),
    (TASK_JOINING, "schema", "database schema for tables joining"),
    (TASK_JOINING, "database", "database file for tables joining"),
])
def test_run_without_a_fixture_the_task_needs(patient_tables, gold_mapping, synthea_schema,
                                              fixture_db, task, missing, what):
    table_a, table_b = patient_tables
    fixtures = dict(table_a=table_a, table_b=table_b, gold=gold_mapping,
                    schema=synthea_schema, database=fixture_db)
    fixtures[missing] = None
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(task, arms=(WITHOUT_CONTEXT,), repetitions=1,
                       client_factory=lambda: pytest.fail("a client was made"), **fixtures)
    assert str(excinfo.value) == f"required fixture missing: {what}"


def test_run_missing_database(synthea_schema, synthea_annotations, tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(TASK_JOINING, repetitions=1, client_factory=lambda: None,
                       schema=synthea_schema, annotations=synthea_annotations,
                       database=tmp_path / "gone.db")
    assert str(excinfo.value) == f"required fixture missing: database file {tmp_path / 'gone.db'}"


def test_run_failure_is_data(patient_tables, patient_annotations, gold_mapping):
    table_a, table_b = patient_tables
    records = [
        {"task": TASK_INTEGRATION, "arm": WITHOUT_CONTEXT,
         "response": "I cannot help with that."},
    ]
    reports = run_experiment(
        TASK_INTEGRATION, arms=(WITHOUT_CONTEXT,), repetitions=4,
        client_factory=lambda: MockChatClient(records),
        table_a=table_a, table_b=table_b, annotations=patient_annotations,
        gold=gold_mapping)
    report = reports[0]
    assert len(report["runs"]) == 4
    assert all(not run["ok"] for run in report["runs"])
    assert all(run["recall"] == 0.0 for run in report["runs"])
    assert report["aggregate"]["successRate"] == 0.0
    assert report["aggregate"]["meanRecall"] == 0.0


def test_run_deterministic_mock_gives_identical_records(
        patient_tables, patient_annotations, gold_mapping):
    reports = run_integration(patient_tables, patient_annotations, gold_mapping,
                              arms=(WITH_CONTEXT,), repetitions=5)
    runs = reports[0]["runs"]
    assert all(run == runs[0] for run in runs)


def test_run_varying_script_follows_order(patient_tables, patient_annotations,
                                          gold_mapping):
    good = "```\nGender -> GENDER\n```"
    records = [
        {"task": TASK_INTEGRATION, "arm": WITH_CONTEXT, "response": good},
        {"task": TASK_INTEGRATION, "arm": WITH_CONTEXT, "repetition": 1,
         "response": "no mapping at all"},
    ]
    reports = run_integration(patient_tables, patient_annotations, gold_mapping,
                              arms=(WITH_CONTEXT,), repetitions=3,
                              client_factory=lambda: MockChatClient(records))
    oks = [run["ok"] for run in reports[0]["runs"]]
    assert oks == [True, False, True]


def test_run_workers_match_serial(patient_tables, patient_annotations,
                                  gold_mapping, synthea_schema, synthea_annotations,
                                  fixture_db):
    serial = run_integration(patient_tables, patient_annotations, gold_mapping,
                             repetitions=6, workers=1)
    parallel = run_integration(patient_tables, patient_annotations, gold_mapping,
                               repetitions=6, workers=4)
    assert [r["runs"] for r in serial] == [r["runs"] for r in parallel]
    assert [r["aggregate"] for r in serial] == [r["aggregate"] for r in parallel]

    def joining(workers):
        return run_experiment(
            TASK_JOINING, repetitions=5, workers=workers,
            client_factory=_mock_factory(bundled.JOINING_MOCK),
            schema=synthea_schema, annotations=synthea_annotations,
            database=fixture_db)

    serial, parallel = joining(1), joining(3)
    assert [r["arm"] for r in serial] == [r["arm"] for r in parallel]
    assert [r["runs"] for r in serial] == [r["runs"] for r in parallel]
    assert [r["aggregate"] for r in serial] == [r["aggregate"] for r in parallel]


@pytest.mark.parametrize("workers", [1, 3])
def test_run_calling_thread_is_the_first_worker(task_inputs, monkeypatch, workers):
    # workers=1 starts no thread; every started thread has ended on return.
    started, callers = [], set()

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def factory():
        callers.add(threading.current_thread())
        time.sleep(0.005)  # so that every worker is busy when the next job is taken
        return _mock_factory(bundled.JOINING_MOCK)()

    monkeypatch.setattr(evaluate.threading, "Thread", RecordingThread)
    run_experiment(TASK_JOINING, **task_inputs[TASK_JOINING], repetitions=10,
                   workers=workers, client_factory=factory)
    assert len(started) == workers - 1
    assert not any(thread.is_alive() for thread in started)
    assert threading.current_thread() in callers
    assert callers <= {threading.current_thread(), *started}


def test_run_starts_no_thread_without_a_job(task_inputs, monkeypatch):
    # Two arms of one repetition are two jobs: one thread beside the caller.
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(evaluate.threading, "Thread", RecordingThread)
    run_experiment(TASK_JOINING, **task_inputs[TASK_JOINING], repetitions=1, workers=8,
                   client_factory=_mock_factory(bundled.JOINING_MOCK))
    assert len(started) == 1


def _slow_judge(monkeypatch) -> list:
    """Make evaluate.execute_sql take 50 ms more, so that workers meet in
    the judge; return the list each statement it runs is appended to."""
    statements, original = [], evaluate.execute_sql

    def slow(sql, database):
        statements.append(sql)
        time.sleep(0.05)
        return original(sql, database)

    monkeypatch.setattr(evaluate, "execute_sql", slow)
    return statements


def _record_judge_connections(monkeypatch) -> list:
    """Record every connection the joining judge bounds with
    ingest.restrict, and fail the test if anything opens --db."""
    opened = []

    def recording_restrict(con):
        opened.append(con)
        return restrict(con)

    monkeypatch.setattr(evaluate, "restrict", recording_restrict)
    monkeypatch.setattr(evaluate, "open_readonly",
                        lambda *args, **kwargs: pytest.fail("the judge opened --db"))
    return opened


@pytest.mark.parametrize("workers", [1, 8])
def test_run_joining_opens_one_connection(synthea_schema, synthea_annotations,
                                          fixture_db, monkeypatch, workers):
    # More workers than cores, a short switch interval and a slow judge, so
    # that each worker has an answer to judge while the first one is judged,
    # and a connection left unclosed would show up.
    opened = _record_judge_connections(monkeypatch)
    _slow_judge(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reports = run_experiment(
            TASK_JOINING, repetitions=20, workers=workers,
            client_factory=_mock_factory(bundled.JOINING_MOCK),
            schema=synthea_schema, annotations=synthea_annotations,
            database=fixture_db)
    finally:
        sys.setswitchinterval(interval)
    assert [r["aggregate"]["successRate"] for r in reports] == [1.0, 0.0]
    assert len(opened) == 1
    for con in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            con.execute("SELECT 1")


def test_run_judges_one_answer_once_whatever_the_workers(synthea_schema, fixture_db,
                                                          monkeypatch):
    # All eight workers get the same answer at once, and the judge is slow.
    records = [{"task": TASK_JOINING, "arm": WITHOUT_CONTEXT, "repetition": rep,
                "response": "SELECT Id FROM patients;"} for rep in range(8)]
    statements = _slow_judge(monkeypatch)
    [report] = run_experiment(TASK_JOINING, arms=(WITHOUT_CONTEXT,), repetitions=8,
                              workers=8, client_factory=lambda: MockChatClient(records),
                              schema=synthea_schema, database=fixture_db)
    assert statements == ["SELECT Id FROM patients;"]
    assert all(run["ok"] for run in report["runs"])


@pytest.mark.parametrize("workers", [1, 3])
def test_run_exception_outside_a_repetition_reaches_the_caller(
        synthea_schema, synthea_annotations, fixture_db, monkeypatch, workers):
    # client_factory runs outside the per-repetition guard; what it raises
    # on the fifth call leaves run_experiment, and the judge's connection,
    # opened by the answers judged before it, closes.
    opened, calls = _record_judge_connections(monkeypatch), []

    def factory():
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("factory broke")
        return _mock_factory(bundled.JOINING_MOCK)()

    with pytest.raises(RuntimeError, match="factory broke"):
        run_experiment(TASK_JOINING, repetitions=10, workers=workers,
                       client_factory=factory, schema=synthea_schema,
                       annotations=synthea_annotations, database=fixture_db)
    assert len(opened) == 1
    for con in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            con.execute("SELECT 1")


@pytest.mark.parametrize("workers", [1, 3])
def test_run_keeps_the_database_read_only(synthea_schema, fixture_db, workers):
    # The keyword check refuses the DROP; the CTE passes it, and the
    # read-only connection refuses its DELETE. Each answer comes 3 times.
    before = hashlib.sha256(fixture_db.read_bytes()).hexdigest()
    answers = ["DROP TABLE patients;", "WITH t AS (SELECT 1) DELETE FROM patients;"]
    records = [{"task": TASK_JOINING, "arm": WITHOUT_CONTEXT, "repetition": rep,
                "response": f"```sql\n{answers[rep % 2]}\n```"} for rep in range(6)]
    [report] = run_experiment(TASK_JOINING, arms=(WITHOUT_CONTEXT,), repetitions=6,
                              workers=workers, client_factory=lambda: MockChatClient(records),
                              schema=synthea_schema, database=fixture_db)
    assert [(run["ok"], run["error"]) for run in report["runs"]] == 3 * [
        (False, "refusing non-read-only statement (DROP)"),
        (False, "attempt to write a readonly database")]
    assert hashlib.sha256(fixture_db.read_bytes()).hexdigest() == before


def test_judge_keeps_its_bounds_whatever_an_answer_sets(synthea_schema):
    # EXPLAIN PRAGMA sets a flag when SQLite prepares it, so it would turn
    # query_only off for every later answer; the judge denies it. The JSON
    # table functions work on first use and after other answers alike.
    judge = evaluate._SchemaJudge(synthea_schema)
    json_rows = "SELECT value FROM json_each('[1, 2]');"
    try:
        first = judge.judge(json_rows)
        for sql in ("EXPLAIN PRAGMA query_only = 0;", "EXPLAIN PRAGMA temp_store = FILE;"):
            assert judge.judge(sql) == SqlValidationReport(False, "not authorized", (), 0)
        write = judge.judge("WITH t AS (SELECT 1) INSERT INTO patients (Id) SELECT 1 FROM t;")
        assert write.error_text == "attempt to write a readonly database"
        assert judge.judge("SELECT * FROM patients;").row_count == 0
        assert judge.judge(json_rows.lower()) == first == SqlValidationReport(
            True, None, ("value",), 2)
        assert judge.judge("SELECT * FROM json_tree('[1]');").success
    finally:
        judge.close()


def test_judge_adds_each_table_sqlite_finds_missing(synthea_schema, fixture_db, monkeypatch):
    # With a scan that finds no name, each table comes from SQLite's "no
    # such table", main.-qualified or not, at one more run of the answer.
    monkeypatch.setattr(evaluate, "_NOT_IN_WORD", dict.fromkeys(range(128), " "))
    monkeypatch.setattr(evaluate, "_QUOTED", re.compile("(a)(b)(c)(d)(?!)"))
    calls = _count_calls(monkeypatch, evaluate, "execute_sql")
    judge = evaluate._SchemaJudge(synthea_schema)
    try:
        sql = "SELECT * FROM main.careplans JOIN PATIENTS;"
        assert judge.judge(sql) == execute_sql(sql, fixture_db)
        assert len(calls) == 3
        # A table the answer reads but does not join (so SQLite finds it
        # missing in the full schema too) is added once, and a name no
        # table has is not retried.
        for sql, runs in (("SELECT providers.* FROM careplans;", 2),
                          ("SELECT * FROM nowhere;", 1)):
            del calls[:]
            assert judge.judge(sql) == execute_sql(sql, fixture_db)
            assert len(calls) == runs
    finally:
        judge.close()


@pytest.mark.parametrize("sql", ['SELECT * FROM "Care Plans";', "SELECT * FROM [care plans];",
                                 "SELECT * FROM `CARE PLANS`;", "SELECT * FROM 'care plans';",
                                 'SELECT * FROM "it\'s ""x""";', "SELECT * FROM 'IT''S \"X\"';",
                                 "SELECT * FROM main.`a``b`;"])
def test_judge_finds_a_quoted_name_before_the_first_run(sql, monkeypatch):
    # Names that no bare word spells come from the quotes, in any ASCII
    # case, so the answer runs once, without a "no such table" retry.
    schema = validate_schema(DatabaseSchema("odd", (
        TableSchema("care plans", ("Id",)), TableSchema("it's \"x\"", ("Id",)),
        TableSchema("a`b", ("Id",)))))
    calls = _count_calls(monkeypatch, evaluate, "execute_sql")
    judge = evaluate._SchemaJudge(schema)
    try:
        assert judge.judge(sql) == SqlValidationReport(True, None, ("Id",), 0)
    finally:
        judge.close()
    assert len(calls) == 1


@pytest.mark.parametrize("text", ["[" * 400_000, "'" * 400_001, "/*" * 200_000,
                                  '"a""' * 100_000])
def test_judge_scans_an_answer_in_linear_time(synthea_schema, text):
    # A quote never closed runs to the end of the text, as in SQLite's
    # tokenizer, so the scan for table names does not restart at each quote.
    judge = evaluate._SchemaJudge(synthea_schema)
    start = time.monotonic()
    try:
        report = judge.judge("SELECT " + text)
    finally:
        judge.close()
    assert not report.success
    assert time.monotonic() - start < 5


# --- the schema-only judge against a database of the whole schema ---

_WRONG_NAME = "no_such_name"
# Ways to write a name that SQLite resolves alike, and ways it does not.
_SPELLINGS = [str, str.upper, str.lower, lambda n: '"' + n.replace('"', '""') + '"',
              lambda n: f"[{n}]", lambda n: f"`{n}`", lambda n: f"main.{n}",
              lambda n: f'MAIN."{n}"', lambda n: f"'{n}'", lambda n: n[:-1]]


@st.composite
def _selects(draw, tables, depth=0):
    """A SELECT over one or two of tables (or a name no table has), with
    right and wrong columns and, at depth 0, maybe a subquery."""
    def table():
        return draw(st.sampled_from([*tables, None]))

    def name(text):
        return draw(st.sampled_from(_SPELLINGS))(text)

    def column(t, alias):
        header = draw(st.sampled_from([*t.headers, _WRONG_NAME] if t else [_WRONG_NAME]))
        return f"{alias}.{name(header)}" if draw(st.booleans()) else name(header)

    first = table()
    columns = [column(first, "a")]
    sql = f" FROM {name(first.name if first else _WRONG_NAME)} AS a"
    if draw(st.booleans()):
        second = table()
        sql += (f" JOIN {name(second.name if second else _WRONG_NAME)} AS b"
                f" ON {column(first, 'a')} = {column(second, 'b')}")
        columns.append(column(second, "b"))
    sql = f"SELECT {', '.join(columns)}{sql}"
    if depth == 0 and draw(st.booleans()):
        sql += f" WHERE {columns[0]} IN ({draw(_selects(tables, 1))})"
    return sql


@st.composite
def _statements(draw, tables):
    body = draw(_selects(tables))
    kind = draw(st.sampled_from(["plain", "cte", "union"]))
    if kind == "cte":
        return f"WITH x AS ({body}) SELECT * FROM x"
    if kind == "union":
        return f"{body} UNION {draw(_selects(tables))}"
    return body


@pytest.fixture(scope="module")
def full_schema_databases(tmp_path_factory):
    """Per schema name, the validated schema and its build_database copy:
    the bundled synthea DDL and 30 tables of the seed-5 scale schema."""
    schemas = {"synthea": parse_ddl(bundled.fixture_text(bundled.SYNTHEA_DDL)),
               "scale": DatabaseSchema("scale", parse_ddl(scale_ddl(5)).tables[:30])}
    databases = {}
    for name, schema in schemas.items():
        path = tmp_path_factory.mktemp(name) / "full.db"
        build_database(schema, path)
        databases[name] = validate_schema(schema), path
    return databases


@pytest.mark.parametrize("name", ["synthea", "scale"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_schema_judge_gives_the_full_schema_verdict(full_schema_databases, name, data):
    # Several statements share one judge, so each also meets the tables the
    # ones before it made. The generator reads no catalogue, whose reads the
    # judge denies.
    schema, full = full_schema_databases[name]
    statements = data.draw(st.lists(_statements(schema.tables), min_size=1, max_size=4))
    judge = evaluate._SchemaJudge(schema)
    try:
        for sql in statements:
            assert judge.judge(sql) == execute_sql(sql, full), sql
    finally:
        judge.close()


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that every call is appended to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def task_inputs(patient_tables, patient_annotations, gold_mapping, synthea_schema,
                synthea_annotations, fixture_db):
    table_a, table_b = patient_tables
    return {
        TASK_INTEGRATION: dict(table_a=table_a, table_b=table_b,
                               annotations=patient_annotations, gold=gold_mapping),
        TASK_JOINING: dict(schema=synthea_schema, annotations=synthea_annotations,
                           database=fixture_db),
    }


_JUDGES = {TASK_INTEGRATION: (llm, "parse_mapping_response"),
           TASK_JOINING: (evaluate, "execute_sql")}
_MOCKS = {TASK_INTEGRATION: bundled.INTEGRATION_MOCK, TASK_JOINING: bundled.JOINING_MOCK}


@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_judges_each_distinct_answer_once(task_inputs, monkeypatch, task):
    # The bundled scripts give one answer per arm, so 20 repetitions hold two.
    calls = _count_calls(monkeypatch, *_JUDGES[task])
    hashes = _count_calls(monkeypatch, evaluate, "_sha256")
    reports = run_experiment(task, **task_inputs[task], repetitions=10,
                             client_factory=_mock_factory(_MOCKS[task]))
    assert len(calls) == 2
    assert len(hashes) == 2 + 2  # the two prompts and the two answers
    for report in reports:
        assert len({run["responseSha256"] for run in report["runs"]}) == 1


@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_judges_a_new_answer_on_every_repetition(task_inputs, monkeypatch, task):
    texts = ([f"```\nGender -> GENDER\nName -> FIRST{i}\n```" for i in range(4)]
             if task == TASK_INTEGRATION else [f"SELECT {i};" for i in range(4)])
    records = [{"task": task, "arm": WITH_CONTEXT, "repetition": i, "response": text}
               for i, text in enumerate(texts)]
    calls = _count_calls(monkeypatch, *_JUDGES[task])
    reports = run_experiment(task, **task_inputs[task], arms=(WITH_CONTEXT,),
                             repetitions=4, client_factory=lambda: MockChatClient(records))
    assert len(calls) == 4
    assert len({run["responseSha256"] for run in reports[0]["runs"]}) == 4


@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_judge_that_raises_runs_on_every_repetition(task_inputs, monkeypatch, task):
    owner, name = _JUDGES[task]
    calls = []

    def broken(*args):
        calls.append(args)
        raise RuntimeError(f"judge broke on call {len(calls)}")

    monkeypatch.setattr(owner, name, broken)
    reports = run_experiment(task, **task_inputs[task], repetitions=3,
                             client_factory=_mock_factory(_MOCKS[task]))
    assert len(calls) == 6
    errors = [run["error"] for report in reports for run in report["runs"]]
    assert errors == [f"RuntimeError: judge broke on call {i}" for i in range(1, 7)]
    assert all(run["responseSha256"] for report in reports for run in report["runs"])


@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_memo_under_workers_matches_serial(task_inputs, task):
    # Three answers repeated out of order, one of which fails its judge.
    answers = {TASK_INTEGRATION: ["```\nGender -> GENDER\n```", "no mapping at all",
                                  "```\nName -> FIRST\n```"],
               TASK_JOINING: ["SELECT 1;", "SELECT nothing FROM nowhere;",
                              "nothing to run"]}[task]
    records = [{"task": task, "arm": arm, "repetition": rep,
                "response": answers[(rep * 7 + len(arm)) % 3]}
               for arm in (WITH_CONTEXT, WITHOUT_CONTEXT) for rep in range(30)]

    def run(workers):
        return run_experiment(task, **task_inputs[task], repetitions=30,
                              workers=workers,
                              client_factory=lambda: MockChatClient(records))

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert [r["runs"] for r in serial] == [r["runs"] for r in parallel]
    assert render_report(serial) == render_report(parallel)
    assert {run["ok"] for r in serial for run in r["runs"]} == {True, False}


class _RaisingClient:
    def complete(self, bundle, repetition=0):
        raise RuntimeError("client broke")


def test_run_records_any_exception_as_failure(patient_tables, patient_annotations,
                                              gold_mapping):
    reports = run_integration(patient_tables, patient_annotations, gold_mapping,
                              repetitions=3, client_factory=_RaisingClient)
    assert [len(r["runs"]) for r in reports] == [3, 3]
    for run in (run for r in reports for run in r["runs"]):
        assert not run["ok"]
        assert run["error"] == "RuntimeError: client broke"
        assert run["recall"] == 0.0


def test_run_judges_on_when_the_database_is_removed_mid_run(synthea_schema,
                                                           synthea_annotations, fixture_db):
    # The judge reads the schema, not --db, so the verdicts stay those of
    # the bundled answers.
    inner = _mock_factory(bundled.JOINING_MOCK)()

    class RemovingClient:
        def complete(self, bundle, repetition=0):
            if os.path.exists(fixture_db):
                os.remove(fixture_db)
            return inner.complete(bundle, repetition=repetition)

    reports = run_experiment(
        TASK_JOINING, repetitions=2, client_factory=RemovingClient,
        schema=synthea_schema, annotations=synthea_annotations,
        database=fixture_db)
    assert not os.path.exists(fixture_db)
    assert [[run.get("error") for run in r["runs"]] for r in reports] == [
        [None, None], ["no such column: careplans.PROVIDER"] * 2]


def test_experiment_report_invariant(task_inputs):
    # Every experiment is a dict in report key order holding n runs.
    for task in (TASK_INTEGRATION, TASK_JOINING):
        experiments = run_experiment(task, **task_inputs[task], repetitions=2,
                                     client_factory=_mock_factory(_MOCKS[task]))
        for experiment in experiments:
            assert list(experiment) == ["task", "arm", "n", "runs", "aggregate"]
            assert experiment["n"] == len(experiment["runs"]) == 2


# --- metamorphic properties of whole runs (random schemas, mock client) ---

def _random_runs(task, schema, annotations, database, arms=llm.ARMS):
    """One repetition per arm of task over schema, with a mock client that
    gives every repetition the same answer. Integration pairs the two
    tables first by name, so the pair does not depend on the table order.
    An arm whose prompt the annotations cannot fill is left out."""
    validated = validate_schema(schema)
    ann = None if annotations is None else validate_annotations(annotations, validated)
    table_a, table_b = (validated.table(name)
                        for name in sorted(t.name for t in schema.tables)[:2])
    if annotations is None:
        usable = False
    elif task == TASK_JOINING:
        usable = bool(annotations.table_relations or annotations.header_groups)
    else:
        usable = any(g.table in (table_a.name, table_b.name)
                     for g in annotations.header_groups)
    arms = tuple(arm for arm in arms if arm == WITHOUT_CONTEXT or usable)
    answer = "SELECT 1;" if task == TASK_JOINING else "no mapping"
    client = MockChatClient([{"task": task, "arm": arm, "response": answer}
                             for arm in llm.ARMS])
    return run_experiment(task, arms=arms, repetitions=1, client_factory=lambda: client,
                          table_a=table_a, table_b=table_b, annotations=ann,
                          gold=HeaderMapping((), table_a.name, table_b.name),
                          schema=validated, database=database)


def _prompt_hashes(reports) -> dict:
    return {report["arm"]: [run["promptSha256"] for run in report["runs"]] for report in reports}


_seeds = st.integers(0, 2**32 - 1)


def _two_table_schema(rng):
    schema = rand_schema(rng)
    while len(schema.tables) < 2:
        schema = rand_schema(rng)
    return schema


@settings(deadline=None, max_examples=40)
@given(seed=_seeds, order_seed=_seeds)
@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_prompt_hashes_ignore_table_order(task, seed, order_seed):
    rng = random.Random(seed)
    schema = _two_table_schema(rng)
    annotations = rand_annotations(rng, schema)
    tables = list(schema.tables)
    random.Random(order_seed).shuffle(tables)
    shuffled = DatabaseSchema(schema.name, tuple(tables))
    with tempfile.TemporaryDirectory() as tmp:
        database = Path(tmp) / "db.sqlite"
        build_database(schema, database)
        before = _random_runs(task, schema, annotations, database)
        after = _random_runs(task, shuffled, annotations, database)
    assert _prompt_hashes(after) == _prompt_hashes(before)
    assert render_report(after) == render_report(before)


@settings(deadline=None, max_examples=40)
@given(seed=_seeds)
@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_without_context_prompt_ignores_annotations(task, seed):
    rng = random.Random(seed)
    schema = _two_table_schema(rng)
    annotations = rand_annotations(rng, schema)
    with tempfile.TemporaryDirectory() as tmp:
        database = Path(tmp) / "db.sqlite"
        build_database(schema, database)
        bare = _random_runs(task, schema, None, database)
        annotated = _random_runs(task, schema, annotations, database)
    assert list(_prompt_hashes(bare)) == [WITHOUT_CONTEXT]
    assert _prompt_hashes(annotated)[WITHOUT_CONTEXT] == _prompt_hashes(bare)[WITHOUT_CONTEXT]


def _random_entries(rng, a_headers, b_headers, count):
    """count entries of one to three random headers a side; they may reuse headers."""
    return [entry(rng.sample(a_headers, rng.randint(1, min(3, len(a_headers)))),
                  rng.sample(b_headers, rng.randint(1, min(3, len(b_headers)))))
            for _ in range(count)]


def _fenced(entries) -> str:
    lines = (" + ".join(e.source_headers) + " -> " + " + ".join(e.target_headers)
             for e in entries)
    return "Here it is:\n```\n" + "\n".join(lines) + "\n```\n"


def _inverted(entries):
    return [entry(e.target_headers, e.source_headers) for e in entries]


@settings(deadline=None, max_examples=40)
@given(seed=_seeds)
def test_run_swapping_the_tables_swaps_precision_and_recall(seed):
    """Swapping table A and table B, with the gold mapping and the mock
    answer inverted, leaves every run's score as it was. Exchanging the
    gold mapping and the answer as well swaps each run's precision and
    recall and leaves F1 equal."""
    rng = random.Random(seed)
    schema = _two_table_schema(rng)
    validated = validate_schema(schema)
    annotations = validate_annotations(rand_annotations(rng, schema), validated)
    table_a, table_b = (validated.table(t.name) for t in rng.sample(schema.tables, 2))
    gold, _ = split_reused(_random_entries(rng, table_a.headers, table_b.headers,
                                           rng.randint(1, 6)))
    answer = [e for e in gold if rng.random() < 0.5]
    answer += _random_entries(rng, table_a.headers, table_b.headers, rng.randint(0, 4))
    rng.shuffle(answer)
    answer = answer or gold[:1]
    usable = any(g.table in (table_a.name, table_b.name) for g in annotations.header_groups)
    arms = llm.ARMS if usable else (WITHOUT_CONTEXT,)

    def scores(a, b, gold_entries, answer_entries):
        client = MockChatClient([{"task": TASK_INTEGRATION, "arm": arm,
                                  "response": _fenced(answer_entries)} for arm in llm.ARMS])
        reports = run_experiment(TASK_INTEGRATION, arms=arms, repetitions=2,
                                 client_factory=lambda: client, table_a=a, table_b=b,
                                 annotations=annotations,
                                 gold=HeaderMapping(tuple(gold_entries), a.name, b.name))
        runs = [run for report in reports for run in report["runs"]]
        assert len(runs) == 2 * len(arms) and all(run["ok"] for run in runs)
        return [(run["precision"], run["recall"], run["f1"]) for run in runs]

    forward = scores(table_a, table_b, gold, answer)
    assert scores(table_b, table_a, _inverted(gold), _inverted(answer)) == forward
    scored, _ = split_reused(answer)  # the entries the answer is scored by
    exchanged = scores(table_b, table_a, _inverted(scored), _inverted(gold))
    assert exchanged == [(recall, precision, f1) for precision, recall, f1 in forward]


def _renamer(schema, rng):
    """A function that renames every table and header name of schema, each
    as a whole word and case-sensitively, to a fresh identifier, in one
    pass (so a new name is never renamed again). Longer names go first, so
    that "Date of Birth" is renamed whole."""
    names = sorted({t.name for t in schema.tables} | {h for t in schema.tables
                                                     for h in t.headers}, key=len, reverse=True)
    fresh = {name: "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 6))) + f"_{i}"
             for i, name in enumerate(rng.sample(names, len(names)))}
    pattern = re.compile(r"\b(?:%s)\b" % "|".join(map(re.escape, names)))
    return lambda text: pattern.sub(lambda match: fresh[match[0]], text)


def _bundled_runs(task, rename, workers):
    """Three repetitions per arm of task on the bundled fixtures and mock
    answers, every text of which (schema, .ctx, gold, DDL, answers) goes
    through rename first."""
    records = [dict(record, response=rename(record["response"])) for record in
               json.loads(bundled.fixture_text(_MOCKS[task]))]
    kwargs = dict(repetitions=3, workers=workers,
                  client_factory=lambda: MockChatClient(records))
    if task == TASK_INTEGRATION:
        schema = validate_schema(parse_fixture(rename(bundled.fixture_text(
            bundled.PATIENTS_SCHEMA))))
        table_a, table_b = (schema.table(rename(name)) for name in ("patients_A", "patients_B"))
        return run_experiment(task, **kwargs, table_a=table_a, table_b=table_b,
                              annotations=validate_annotations(parse_annotations(rename(
                                  bundled.fixture_text(bundled.PATIENTS_CONTEXT))), schema),
                              gold=parse_map_text(rename(bundled.fixture_text(
                                  bundled.PATIENTS_GOLD_MAP)), table_a.name, table_b.name))
    schema = validate_schema(parse_fixture(rename(bundled.fixture_text(
        bundled.SYNTHEA_SCHEMA)), name="synthea"))
    annotations = validate_annotations(parse_annotations(rename(bundled.fixture_text(
        bundled.SYNTHEA_CONTEXT))), schema)
    with tempfile.TemporaryDirectory() as tmp:
        database = Path(tmp) / "synthea.db"
        build_database(parse_ddl(rename(bundled.fixture_text(bundled.SYNTHEA_DDL))), database)
        return run_experiment(task, **kwargs, schema=schema, annotations=annotations,
                              database=database)


@settings(deadline=None, max_examples=10)
@given(seed=_seeds)
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_run_verdicts_and_scores_do_not_depend_on_names(task, workers, seed):
    """Renaming tables and headers the same way in the schema, the .ctx,
    the gold mapping, the database and the mock answers leaves every
    run's verdict and score as it was; an error text is renamed with them."""
    fixture = (bundled.PATIENTS_SCHEMA if task == TASK_INTEGRATION
               else bundled.SYNTHEA_SCHEMA)
    rename = _renamer(parse_fixture(bundled.fixture_text(fixture)), random.Random(seed))
    before = _bundled_runs(task, lambda text: text, workers)
    after = _bundled_runs(task, rename, workers)
    def verdicts(experiments, rename_error=lambda text: text):
        return [[{key: rename_error(value) if key == "error" else value
                  for key, value in run.items() if not key.endswith("Sha256")}
                 for run in r["runs"]] for r in experiments]

    assert [(r["arm"], r["aggregate"]) for r in after] == [(r["arm"], r["aggregate"])
                                                         for r in before]
    assert verdicts(after) == verdicts(before, rename)
    assert {run["ok"] for r in before for run in r["runs"]} == (
        {True} if task == TASK_INTEGRATION else {True, False})


# --- reports ---

def test_render_report_empty():
    assert json.loads(render_report([])) == {"experiments": []}


def test_report_payload_shapes(patient_tables, patient_annotations, gold_mapping,
                               synthea_schema, synthea_annotations, fixture_db):
    reports = run_integration(patient_tables, patient_annotations, gold_mapping,
                              repetitions=3)
    reports += run_experiment(
        TASK_JOINING, repetitions=3,
        client_factory=_mock_factory(bundled.JOINING_MOCK),
        schema=synthea_schema, annotations=synthea_annotations,
        database=fixture_db)
    payload = json.loads(render_report(reports))
    assert payload == {"experiments": reports}
    assert len(payload["experiments"]) == 4
    integration = payload["experiments"][0]
    assert [len(e["runs"]) for e in payload["experiments"]] == [3, 3, 3, 3]
    run0 = integration["runs"][0]
    assert list(run0)[:4] == ["ok", "precision", "recall", "f1"]
    joining = payload["experiments"][2]
    assert "sqlSuccess" in joining["runs"][0]
    # deterministic serialization
    assert render_report(reports) == render_report(reports)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_render_report_dumps_the_experiments(task_inputs, task, workers):
    # Passing and failed runs: an answer with no mapping or no SQL, a
    # write the judge refuses, and a client that raises.
    answers = {TASK_INTEGRATION: ["```\nGender -> GENDER\n```", "no mapping at all"],
               TASK_JOINING: ["SELECT 1;", "nothing to run",
                              "```sql\nDROP TABLE patients;\n```"]}[task]
    script = MockChatClient([{"task": task, "arm": arm, "repetition": rep,
                              "response": answers[rep % len(answers)]}
                             for arm in llm.ARMS for rep in range(6)])

    class BreaksOnLastRepetition:
        def complete(self, bundle, repetition=0):
            if repetition == 5:
                raise RuntimeError("client broke")
            return script.complete(bundle, repetition=repetition)

    experiments = run_experiment(task, **task_inputs[task], repetitions=6, workers=workers,
                                 client_factory=BreaksOnLastRepetition)
    errors = {run.get("error") for e in experiments for run in e["runs"]}
    assert errors == {None, "RuntimeError: client broke", *(
        [NoMappingFound().args[0]] if task == TASK_INTEGRATION
        else [NoSqlFound().args[0], str(WriteAttempt("DROP"))])}
    assert json.loads(render_report(experiments)) == {"experiments": experiments}


@pytest.mark.parametrize("task", [TASK_INTEGRATION, TASK_JOINING])
def test_runs_that_share_a_memoized_answer_have_entries_of_their_own(task_inputs, task):
    [experiment] = run_experiment(task, **task_inputs[task], arms=(WITHOUT_CONTEXT,),
                                  repetitions=2, client_factory=_mock_factory(_MOCKS[task]))
    first, second = experiment["runs"]
    assert first == second
    expected = dict(second)
    first.clear()
    assert second == expected


def test_render_report_golden(patient_tables, patient_annotations, gold_mapping,
                              synthea_schema, synthea_annotations, fixture_db):
    reports = run_integration(patient_tables, patient_annotations, gold_mapping,
                              repetitions=3)
    reports += run_experiment(
        TASK_JOINING, repetitions=3,
        client_factory=_mock_factory(bundled.JOINING_MOCK),
        schema=synthea_schema, annotations=synthea_annotations,
        database=fixture_db)
    assert render_report(reports) == data_text("mock_report_n3.json")


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), True, 1, 1.0,
                     "\u00e9\u2028\x00\x1f\"\\\U0001f600"]))
_JSON = st.recursive(_JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=20)
# Equal under ==, and so under a dict key, but each written its own way.
_LOOKALIKES = [{"v": True}, {"v": 1}, {"v": 1.0}, {"v": 0.0}, {"v": -0.0}, {"v": False}]


@settings(deadline=None, max_examples=300)
@given(_JSON, st.dictionaries(st.text(max_size=4), _JSON_SCALARS, max_size=4))
def test_render_report_writes_the_bytes_of_json_dumps(value, flat):
    for payload in (value, [flat, value, flat, dict(flat), flat, *_LOOKALIKES]):
        assert render_report(payload) == json.dumps({"experiments": payload}, indent=2) + "\n"


def test_render_report_leaves_no_cyclic_garbage():
    experiments = (_bundled_runs(TASK_INTEGRATION, str, 1)
                   + _bundled_runs(TASK_JOINING, str, 1))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = render_report(experiments)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == data_text("mock_report_n3.json")


def test_render_summary(patient_tables, patient_annotations, gold_mapping):
    reports = run_integration(patient_tables, patient_annotations, gold_mapping,
                              repetitions=2)
    text = render_summary({"experiments": reports})
    assert "semantic-integration / with-context:" in text
    assert "recall=1.00" in text
    assert render_summary({"experiments": []}) == "no experiments\n"


def test_render_summary_of_the_bundled_report():
    assert render_summary(json.loads(data_text("mock_report_n3.json"))) == (
        "semantic-integration / with-context: n=3 successRate=1.00 precision=1.00 "
        "recall=1.00 f1=1.00\n"
        "semantic-integration / without-context: n=3 successRate=1.00 precision=0.75 "
        "recall=0.50 f1=0.60\n"
        "tables-joining / with-context: n=3 successRate=1.00\n"
        "tables-joining / without-context: n=3 successRate=0.00\n")
