"""Score mappings, validate SQL by execution, and run the two-arm protocol.

An experiment runs one task over one or both arms, N repetitions each
(the protocol default is 10). Every repetition asks the client for an
answer; each distinct answer is parsed once, and its mapping is scored
against gold (semantic integration) or its SQL executed against the
fixture database (tables joining). Failed repetitions are recorded and score
zero; they never abort the experiment, so aggregates stay comparable
across arms.
"""

from __future__ import annotations

import json
import math
import os
import re
import sqlite3
import threading
import time
from contextlib import closing

from . import llm
from .errors import ComdbError, ConfigError, FixtureMissing, TableMismatch, WriteAttempt
from .ingest import check_sqlite_file, open_readonly
from .mapping import HeaderMapping
from .nl import DEFAULT_STYLE, StyleFlags
from .schema import TableSchema, ValidatedAnnotations, ValidatedSchema
from .value import Value


class MappingScore(Value):
    __slots__ = ("matched", "gold_size", "predicted_size", "precision", "recall", "f1")

    def __init__(self, matched: int, gold_size: int, predicted_size: int,
                 precision: float, recall: float, f1: float):
        object.__setattr__(self, "matched", matched)
        object.__setattr__(self, "gold_size", gold_size)
        object.__setattr__(self, "predicted_size", predicted_size)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "recall", recall)
        object.__setattr__(self, "f1", f1)


def score_mapping(predicted: HeaderMapping, gold: HeaderMapping) -> MappingScore:
    """Exact-entry scoring: a predicted entry counts iff both its header
    sets equal a gold entry's sets after normalization. Partial overlap
    (e.g. covering one of four gold target headers) earns nothing."""
    if (predicted.source_table and gold.source_table
            and (predicted.source_table, predicted.target_table)
            != (gold.source_table, gold.target_table)):
        raise TableMismatch((predicted.source_table, predicted.target_table),
                            (gold.source_table, gold.target_table))
    gold_entries = {e.normalized() for e in gold.entries}
    matched = sum(1 for e in predicted.entries if e.normalized() in gold_entries)
    predicted_size = len(predicted.entries)
    gold_size = len(gold.entries)
    precision = matched / predicted_size if predicted_size else 0.0
    recall = matched / gold_size if gold_size else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MappingScore(matched, gold_size, predicted_size, precision, recall, f1)


class SqlValidationReport(Value):
    __slots__ = ("success", "error_text", "result_columns", "row_count")

    def __init__(self, success: bool, error_text: str | None,
                 result_columns: tuple[str, ...], row_count: int):
        result_columns = tuple(result_columns)
        if success != (error_text is None):
            raise ValueError("error_text must be set exactly when success is false")
        object.__setattr__(self, "success", success)
        object.__setattr__(self, "error_text", error_text)
        object.__setattr__(self, "result_columns", result_columns)
        object.__setattr__(self, "row_count", row_count)


_COMMENT_OR_WS = re.compile(r"(?:\s+|--[^\n]*(?:\n|$)|/\*.*?\*/)*", re.DOTALL)
_FIRST_WORD = re.compile(r"[A-Za-z]+")
_READONLY_KEYWORDS = {"SELECT", "WITH", "VALUES", "EXPLAIN"}

# Wall-clock bound on one statement, checked every _PROGRESS_STEPS SQLite
# virtual-machine steps.
SQL_TIME_LIMIT_S = 10.0
_PROGRESS_STEPS = 1000


def _statement_kind(sql: str) -> str | None:
    word = _FIRST_WORD.match(sql, _COMMENT_OR_WS.match(sql).end())
    return word.group().upper() if word else None


def execute_sql(sql: str, database) -> SqlValidationReport:
    """Run one read-only statement and report the outcome.

    database is either the path of an SQLite file, which is opened
    read-only for this call and closed again, or a connection from
    ingest.open_readonly, which is used and left open. Engine errors come
    back verbatim in error_text. Statements that open with a write/DDL
    keyword are rejected with WriteAttempt before they reach the engine;
    the read-only connection backstops anything sneakier. A statement
    still running after SQL_TIME_LIMIT_S seconds is interrupted and
    reported as failed. Rows are counted as they stream, never held.
    """
    if isinstance(database, sqlite3.Connection):
        return _execute(sql, database)
    with closing(open_readonly(database)) as con:
        return _execute(sql, con)


def _execute(sql: str, con: sqlite3.Connection) -> SqlValidationReport:
    kind = _statement_kind(sql)
    if kind is None:
        # SQLite treats empty input as a no-op, so reject it ourselves.
        return SqlValidationReport(False, "empty statement: no SQL found in input", (), 0)
    if kind not in _READONLY_KEYWORDS:
        raise WriteAttempt(kind)
    deadline = time.monotonic() + SQL_TIME_LIMIT_S
    timed_out = False

    def past_deadline():
        nonlocal timed_out
        timed_out = time.monotonic() > deadline
        return timed_out

    con.set_progress_handler(past_deadline, _PROGRESS_STEPS)
    try:
        cursor = con.execute(sql)
        columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        row_count = sum(1 for _ in cursor)
        return SqlValidationReport(True, None, columns, row_count)
    except sqlite3.Error as exc:
        if timed_out:
            return SqlValidationReport(
                False, f"interrupted: statement exceeded the {SQL_TIME_LIMIT_S:g} s time limit",
                (), 0)
        return SqlValidationReport(False, str(exc), (), 0)
    finally:
        con.set_progress_handler(None, 0)


class RunRecord(Value):
    __slots__ = ("ok", "prompt_sha256", "response_sha256", "error", "score", "sql",
                 "sql_report", "mapping")

    def __init__(self, ok: bool, prompt_sha256: str, response_sha256: str | None = None,
                 error: str | None = None, score: MappingScore | None = None,
                 sql: str | None = None, sql_report: SqlValidationReport | None = None,
                 mapping: HeaderMapping | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "prompt_sha256", prompt_sha256)
        object.__setattr__(self, "response_sha256", response_sha256)
        object.__setattr__(self, "error", error)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "sql", sql)
        object.__setattr__(self, "sql_report", sql_report)
        object.__setattr__(self, "mapping", mapping)


class ExperimentReport(Value):
    __slots__ = ("task", "arm", "n", "runs", "aggregate")

    def __init__(self, task: str, arm: str, n: int, runs: tuple[RunRecord, ...],
                 aggregate: dict):
        runs = tuple(runs)
        if len(runs) != n:
            raise ValueError(f"{len(runs)} runs recorded for n={n}")
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "arm", arm)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "aggregate", aggregate)


def _sha256(text: str) -> str:
    import hashlib  # loaded on first use, so ingest never pays for it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _repetition(bundle, prompt_hash, client, repetition, judge, failure_score,
                memo) -> RunRecord:
    """Ask the client once and judge the answer, unless memo already holds
    the (hash, outcome) of its text. Any exception on the way becomes a
    failed record carrying failure_score; it is never memoized and never
    propagates. A ComdbError keeps its message; any other exception is
    recorded as ``ClassName: message``."""
    response_hash = None
    try:
        resp = client.complete(bundle, repetition=repetition)
        judged = memo.get(resp.raw_text)
        if judged is None:
            response_hash = _sha256(resp.raw_text)
            judged = memo[resp.raw_text] = (response_hash, judge(resp))
        response_hash, outcome = judged
    except Exception as exc:
        error = str(exc) if isinstance(exc, ComdbError) else f"{type(exc).__name__}: {exc}"
        return RunRecord(False, prompt_hash, response_hash, error=error,
                         score=failure_score)
    return RunRecord(prompt_sha256=prompt_hash, response_sha256=response_hash,
                     **outcome)


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def run_experiment(task: str, *,
                   arms=llm.ARMS,
                   repetitions: int = 10,
                   client_factory,
                   table_a: TableSchema | None = None,
                   table_b: TableSchema | None = None,
                   annotations: ValidatedAnnotations | None = None,
                   gold: HeaderMapping | None = None,
                   schema: ValidatedSchema | None = None,
                   database=None,
                   goal: str = llm.DEFAULT_JOIN_GOAL,
                   style: StyleFlags = DEFAULT_STYLE,
                   workers: int = 1) -> list[ExperimentReport]:
    """Run one task over the requested arms, N repetitions per arm.

    client_factory is called once per repetition so that concurrent
    workers never share a client handle. One pool of workers runs every
    (arm, repetition) pair. For tables joining each worker thread opens one
    read-only connection to the database on first use; all of them are
    closed before this function returns or raises.

    Each distinct answer text is hashed and judged once per call, for both
    arms: the judges read only the text and inputs fixed for the call, and
    repeats share the immutable outcome. So repeats of an answer whose SQL
    hit SQL_TIME_LIMIT_S get its verdict without waiting again. A judge
    that raises is not remembered, so each repeat records its own error.
    Without a lock, two workers may both judge one text.
    """
    if repetitions <= 0:
        raise ConfigError("repetitions must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    connections = []
    if task == llm.TASK_INTEGRATION:
        if table_a is None or table_b is None:
            raise FixtureMissing("both tables for semantic integration")
        if gold is None:
            raise FixtureMissing("gold mapping for semantic integration")
        failure_score = MappingScore(0, len(gold.entries), 0, 0.0, 0.0, 0.0)

        def judge(resp):
            predicted = llm.parse_mapping_response(resp, table_a, table_b)
            return {"ok": True, "score": score_mapping(predicted, gold),
                    "mapping": predicted}
    elif task == llm.TASK_JOINING:
        if schema is None:
            raise FixtureMissing("database schema for tables joining")
        if database is None:
            raise FixtureMissing("database file for tables joining")
        if not os.path.exists(os.fspath(database)):
            raise FixtureMissing(f"database file {database}")
        # A directory or a file that is not SQLite fails here, not in every run.
        check_sqlite_file(database)
        failure_score = None
        local = threading.local()

        def connection():
            con = getattr(local, "con", None)
            if con is None:
                # Only this thread uses it; the calling thread closes it.
                con = local.con = open_readonly(database, check_same_thread=False)
                connections.append(con)
            return con

        def judge(resp):
            sql = llm.extract_sql(resp)
            try:
                report = execute_sql(sql, connection())
            except WriteAttempt as exc:
                return {"ok": False, "error": str(exc), "sql": sql}
            return {"ok": report.success, "error": report.error_text, "sql": sql,
                    "sql_report": report}
    else:
        raise ConfigError(f"unknown task {task!r}")
    if llm.WITH_CONTEXT in arms and annotations is None:
        raise FixtureMissing("annotations for the with-context arm")

    prepared = []
    for arm in arms:
        bundle = llm.build_prompt(task, arm, annotations, style, table_a=table_a,
                                  table_b=table_b, schema=schema, goal=goal)
        prepared.append((bundle, _sha256(bundle.user_text)))

    memo = {}

    def one_run(job):
        (bundle, prompt_hash), rep = job
        return _repetition(bundle, prompt_hash, client_factory(), rep, judge,
                           failure_score, memo)

    jobs = [(p, rep) for p in prepared for rep in range(repetitions)]
    try:
        if workers == 1:
            runs = [one_run(job) for job in jobs]
        else:
            from concurrent.futures import ThreadPoolExecutor  # serial runs never load it

            with ThreadPoolExecutor(max_workers=workers) as pool:
                runs = list(pool.map(one_run, jobs))
    finally:
        for con in connections:
            con.close()

    reports = []
    for i, arm in enumerate(arms):
        arm_runs = runs[i * repetitions:(i + 1) * repetitions]
        aggregate = {"successRate": _mean(r.ok for r in arm_runs)}
        if arm_runs[0].score is not None:
            aggregate["meanPrecision"] = _mean(r.score.precision for r in arm_runs)
            aggregate["meanRecall"] = _mean(r.score.recall for r in arm_runs)
            aggregate["meanF1"] = _mean(r.score.f1 for r in arm_runs)
        reports.append(ExperimentReport(task, arm, repetitions, tuple(arm_runs),
                                        aggregate))
    return reports


def report_payload(reports) -> dict:
    experiments = []
    for report in reports:
        runs = []
        for run in report.runs:
            entry = {"ok": run.ok}
            # An integration run always carries a score, failed runs too.
            if run.score is not None:
                entry["precision"] = run.score.precision
                entry["recall"] = run.score.recall
                entry["f1"] = run.score.f1
            else:
                entry["sqlSuccess"] = run.ok
            if run.error is not None:
                entry["error"] = run.error
            entry["promptSha256"] = run.prompt_sha256
            entry["responseSha256"] = run.response_sha256
            runs.append(entry)
        experiments.append({
            "task": report.task,
            "arm": report.arm,
            "n": report.n,
            "runs": runs,
            "aggregate": dict(report.aggregate),
        })
    return {"experiments": experiments}


def render_report(reports) -> str:
    """Machine-readable report JSON with stable key order."""
    return json.dumps(report_payload(reports), indent=2) + "\n"


def render_summary(payload: dict) -> str:
    """Short human-readable digest of a report payload. Raises ConfigError
    when the payload, read from outside, does not have a report's shape."""
    lines = []
    try:
        for experiment in payload.get("experiments", []):
            agg = experiment.get("aggregate", {})
            parts = [f"{experiment['task']} / {experiment['arm']}:",
                     f"n={experiment['n']}",
                     f"successRate={agg.get('successRate', 0.0):.2f}"]
            if "meanRecall" in agg:
                parts.append(f"precision={agg['meanPrecision']:.2f}")
                parts.append(f"recall={agg['meanRecall']:.2f}")
                parts.append(f"f1={agg['meanF1']:.2f}")
            lines.append(" ".join(parts))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a comdb report: {type(exc).__name__}: {exc}") from exc
    if not lines:
        return "no experiments\n"
    return "\n".join(lines) + "\n"
