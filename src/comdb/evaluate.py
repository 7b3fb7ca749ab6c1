"""Score mappings, validate SQL by execution, and run the two-arm protocol.

An experiment runs one task over one or both arms, N repetitions each
(the protocol default is 10). Every repetition asks the client for an
answer; each distinct answer is parsed once, and its mapping is scored
against gold (semantic integration) or its SQL executed on an in-memory,
schema-only database of the tables it names (tables joining; see
_SchemaJudge). Failed repetitions are recorded and score
zero; they never abort the experiment, so aggregates stay comparable
across arms. The runner returns the report's experiments as plain dicts,
and each run is its finished report entry. render_report writes the bytes
json.dumps(payload, indent=2) would, for a payload whose keys are strings:
it walks the nesting itself and gives each container of scalars to json's
C encoder, which json.dumps skips whenever indent is set.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sqlite3
import threading
import time
from contextlib import closing

from . import llm
from .errors import ComdbError, ConfigError, WriteAttempt
from .ingest import (check_sqlite_file, create_table_sql, open_readonly, reserved_name,
                     restrict)
from .mapping import HeaderMapping
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
    (e.g. covering one of four gold target headers) earns nothing.
    Mappings between different table pairs are a ConfigError."""
    if (predicted.source_table and gold.source_table
            and (pair := (predicted.source_table, predicted.target_table))
            != (gold_pair := (gold.source_table, gold.target_table))):
        raise ConfigError(f"mappings cover different table pairs: {pair} vs {gold_pair}")
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


# A block comment without its */ runs to the end of the input, as in SQLite.
_COMMENT_OR_WS = re.compile(r"(?:\s+|--[^\n]*(?:\n|$)|/\*.*?(?:\*/|\Z))*", re.DOTALL)
_FIRST_WORD = re.compile(r"[A-Za-z]+")
_READONLY_KEYWORDS = ("EXPLAIN", "SELECT", "VALUES", "WITH")

# Wall-clock bound on one statement, checked every _PROGRESS_STEPS SQLite
# virtual-machine steps.
SQL_TIME_LIMIT_S = 10.0
_PROGRESS_STEPS = 1000


def execute_sql(sql: str, database) -> SqlValidationReport:
    """Run one read-only statement and report the outcome.

    database is either the path of an SQLite file, which is opened with
    ingest.open_readonly for this call and closed again, or a connection
    bounded by open_readonly or ingest.restrict, which is used as it is and
    left open. Engine errors come back verbatim in error_text. Statements
    that open with a write/DDL keyword are rejected with WriteAttempt
    before they reach the engine; one that opens with no keyword is
    reported as failed there too. PRAGMA query_only backstops anything
    sneakier, on any connection: ingest.restrict sets it when the
    connection opens and refuses a statement that sets it again, and on a
    writable connection that a caller passes in it is set for the
    statement and restored after. A statement
    still running after SQL_TIME_LIMIT_S seconds is interrupted and
    reported as failed, and so is one that runs out of SQLite's heap
    (ingest.SQL_HEAP_LIMIT); the connection stays usable after either.
    Rows are counted as they stream, never held.
    """
    if isinstance(database, sqlite3.Connection):
        return _execute(sql, database)
    with closing(open_readonly(database)) as con:
        return _execute(sql, con)


def _execute(sql: str, con: sqlite3.Connection) -> SqlValidationReport:
    start = _COMMENT_OR_WS.match(sql).end()
    word = _FIRST_WORD.match(sql, start)
    if word is None:
        # SQLite treats empty input as a no-op, and would run what follows a
        # leading ';' unchecked, so reject both here.
        error = ("statement opens with no keyword; it must open with one of "
                 f"{', '.join(_READONLY_KEYWORDS)}" if start < len(sql)
                 else "empty statement: no SQL found in input")
        return SqlValidationReport(False, error, (), 0)
    kind = word.group().upper()
    if kind not in _READONLY_KEYWORDS:
        raise WriteAttempt(kind)
    deadline = time.monotonic() + SQL_TIME_LIMIT_S
    timed_out = False

    def past_deadline():
        nonlocal timed_out
        timed_out = time.monotonic() > deadline
        return timed_out

    writable = not con.execute("PRAGMA query_only").fetchone()[0]
    if writable:
        con.execute("PRAGMA query_only = 1")
    con.set_progress_handler(past_deadline, _PROGRESS_STEPS)
    try:
        cursor = con.execute(sql)
        # From a list: tuple() of a generator shrinks a guessed size, which
        # piles tuples onto CPython's free lists, one per call.
        columns = tuple([d[0] for d in cursor.description]) if cursor.description else ()
        row_count = sum(1 for _ in cursor)
        return SqlValidationReport(True, None, columns, row_count)
    except sqlite3.Error as exc:
        if timed_out:
            return SqlValidationReport(
                False, f"interrupted: statement exceeded the {SQL_TIME_LIMIT_S:g} s time limit",
                (), 0)
        return SqlValidationReport(False, str(exc), (), 0)
    except MemoryError:  # how SQLite's out-of-memory error reaches Python
        (limit,) = con.execute("PRAGMA hard_heap_limit").fetchone() or (0,)
        bound = f"the {limit / 2**20:g} MiB heap limit" if limit else "available memory"
        return SqlValidationReport(False, f"out of memory: statement exceeded {bound}", (), 0)
    finally:
        con.set_progress_handler(None, 0)
        if writable:
            con.execute("PRAGMA query_only = 0")


# The names an answer may give a table, found in its text in lower case
# (SQLite folds only ASCII letters, so this can only find more). Every bare
# word counts, in quotes and comments too: _NOT_IN_WORD maps each ASCII
# character that cannot stand in one to a space. _QUOTED finds the inside
# of each "…", […], `…` and '…' (SQLite reads a string as a name where a
# name must stand), comments skipped. A quote never closed runs to the end,
# as in SQLite's tokenizer, so the scan is linear in the text.
_NOT_IN_WORD = {c: " " for c in range(128) if not chr(c).isalnum() and chr(c) not in "_$"}
_QUOTED = re.compile(r"""--[^\n]*|/\*.*?(?:\*/|\Z)|"((?:[^"]|"")*)(?:"|\Z)
    |\[([^\]]*)(?:\]|\Z)|`((?:[^`]|``)*)(?:`|\Z)|'((?:[^']|'')*)(?:'|\Z)""",
                     re.DOTALL | re.VERBOSE)
_NO_SUCH_TABLE = re.compile(r"no such table: (?:(?i:main)\.)?(.*)", re.DOTALL)
_CATALOGUE = {"sqlite_master", "sqlite_schema", "sqlite_temp_master", "sqlite_temp_schema"}
_JSON_FUNCTIONS = {f: f"SELECT * FROM {f}('[]')" for f in ("json_each", "json_tree")}


_UNJUDGED = "cannot judge answers on this schema: "


@functools.cache
def _max_columns() -> int:
    """The most columns SQLite lets a table have: SQLITE_LIMIT_COLUMN, as a
    new connection reads it on Python 3.11+. Python 3.10 cannot read it,
    and takes SQLite's default, 2000."""
    if not hasattr(sqlite3.Connection, "getlimit"):
        return 2000
    with closing(sqlite3.connect(":memory:")) as con:
        return con.getlimit(sqlite3.SQLITE_LIMIT_COLUMN)


class _SchemaJudge:
    """The joining judge: an in-memory database, bounded by ingest.restrict,
    holding with no rows the schema tables that answers judged so far name.
    judge(sql) creates the tables sql names and runs it through execute_sql;
    on "no such table" for a schema table still missing, it adds that table
    and runs sql again. So the verdict is the one the whole schema gives.

    The catalogue would show what earlier answers named, so an authorizer,
    idle while tables are made, denies reads of sqlite_master and
    sqlite_temp_master (and so of pragma_ table functions and dbstat), and
    every PRAGMA but _execute's two reads: under EXPLAIN, query_only = 0
    would take effect as SQLite prepares it. Table functions read the
    catalogue on first use, so json_each and json_tree are set up as tables
    are. A verdict depends on its answer alone. A schema table SQLite will
    not create is a ConfigError when the judge is made.
    """

    def __init__(self, schema: ValidatedSchema):
        # A table SQLite will not create has no full-schema verdict, so it is
        # refused here, before the first answer, as build_database refuses it.
        limit, self.tables = _max_columns(), {}
        for table in schema.tables:
            key = table.name.lower()  # reserved_name needs sqlite_ here too
            if key[:7] == "sqlite_" and reserved_name(table.name):
                raise ConfigError(f"{_UNJUDGED}object name reserved for internal use: "
                                  f"{table.name}")
            if len(table.headers) > limit:
                raise ConfigError(f"{_UNJUDGED}too many columns on {table.name}: "
                                  f"{len(table.headers)}, SQLite allows {limit}")
            self.tables[key] = table
        self.made, self.creating, self.con = set(), False, None

    def _authorize(self, action, arg1, arg2, *_):
        if self.creating:
            return sqlite3.SQLITE_OK
        if action == sqlite3.SQLITE_PRAGMA:
            allowed = arg2 is None and arg1.lower() in ("query_only", "hard_heap_limit")
        else:
            allowed = action != sqlite3.SQLITE_READ or arg1.lower() not in _CATALOGUE
        return sqlite3.SQLITE_OK if allowed else sqlite3.SQLITE_DENY

    def _add(self, names) -> None:
        """Create, in one transaction, what names holds and the database lacks."""
        names = names - self.made
        if not names:
            return
        script = [create_table_sql(self.tables[name]) if name in self.tables
                  else _JSON_FUNCTIONS[name] for name in names]
        self.creating = True
        try:
            self.con.executescript(";".join(["PRAGMA query_only = 0; BEGIN", *script, "COMMIT"]))
            self.made |= names
        finally:
            if self.con.in_transaction:
                self.con.rollback()
            self.con.execute("PRAGMA query_only = 1")
            self.creating = False

    def judge(self, sql: str) -> SqlValidationReport:
        text = sql.lower()
        names = text.translate(_NOT_IN_WORD).split(" ")
        names += [d.replace('""', '"') or b or t.replace("``", "`") or q.replace("''", "'")
                  for d, b, t, q in _QUOTED.findall(text)]
        wanted = self.tables.keys() & names | _JSON_FUNCTIONS.keys() & names
        if self.con is None:
            # The first tables are made before the authorizer, which SQLite
            # would call at each step of making them, is installed.
            try:
                self.con = sqlite3.connect(":memory:", check_same_thread=False)
                self._add(wanted)
                restrict(self.con).set_authorizer(self._authorize)
            except BaseException:
                self.close()
                raise
        while True:
            self._add(wanted)
            report = execute_sql(sql, self.con)  # the module global, which a tracer may wrap
            missing = _NO_SUCH_TABLE.fullmatch(report.error_text or "")
            wanted = self.tables.keys() & {missing[1].lower()} - self.made if missing else ()
            if not wanted:
                return report

    def close(self) -> None:
        if self.con is not None:
            self.con.close()
        self.con, self.made = None, set()


def _sha256(text: str) -> str:
    import hashlib  # loaded on first use, so ingest never pays for it

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _repetition(bundle, prompt_hash, client, repetition, judge, failed, memo, lock) -> dict:
    """Ask the client once, then, under lock, judge the answer text unless
    memo already holds its (hash, (ok, error, keys)). Return the run's
    report entry: ok, the task's keys, error when there is one, and the two
    hashes. Any exception on the way becomes a failed entry with the task's
    failed keys; it is never memoized and never propagates. A ComdbError
    keeps its message; any other exception is recorded as
    ``ClassName: message``."""
    response_hash = None
    try:
        text = client.complete(bundle, repetition=repetition)
        with lock:
            if text not in memo:
                response_hash = _sha256(text)
                memo[text] = (response_hash, judge(text))
            response_hash, (ok, error, keys) = memo[text]
    except Exception as exc:
        ok, keys = False, failed
        error = str(exc) if isinstance(exc, ComdbError) else f"{type(exc).__name__}: {exc}"
    entry = {"ok": ok, **keys}
    if error is not None:
        entry["error"] = error
    entry["promptSha256"] = prompt_hash
    entry["responseSha256"] = response_hash
    return entry


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
                   workers: int = 1) -> list[dict]:
    """Run one task over the requested arms, N repetitions per arm, and
    return the report's experiments: per arm, in order, a dict of task,
    arm, n, runs and aggregate. Each run is its report entry (see
    _repetition). Each task names its prompt builder and its judge, which
    returns (ok, error, keys); a failed run gets the task's failed keys,
    and the aggregate holds successRate and the mean of each run key the
    task names.

    client_factory is called once per repetition, and the client's
    complete(bundle, repetition=...) returns the answer text. The calling
    thread and min(workers, jobs) - 1 more threads run one loop: each takes
    the next (arm, repetition) job from the shared list until none is left,
    so workers=1 starts no thread. Every run keeps its position, so the
    report does not depend on workers. An exception that escapes a
    repetition (from client_factory, say) stops every loop and reaches
    the caller once all threads have ended. For tables joining, database
    must name an SQLite file, but the judge never opens it: it runs each
    answer on an in-memory database of the schema tables it names (see
    _SchemaJudge), whose connection opens on its first call and is closed
    before this function returns or raises.

    Each distinct answer text is hashed and judged once per call, for both
    arms and any workers: the judges read only the text and inputs fixed
    for the call, and repeats share the outcome, each in an entry of its
    own. A judge that raises is not remembered, so each repeat records its
    own error. Judging holds one lock, so the connection serves one thread
    at a time: repeats of an answer whose SQL hit SQL_TIME_LIMIT_S get its
    verdict without waiting, and two answers that each hit it wait in turn.
    """
    if repetitions <= 0:
        raise ConfigError("repetitions must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    missing = "required fixture missing: {}".format
    sql_judge = None
    if task == llm.TASK_INTEGRATION:
        if table_a is None or table_b is None:
            raise ConfigError(missing("both tables for semantic integration"))
        if gold is None:
            raise ConfigError(missing("gold mapping for semantic integration"))
        failed = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        means = {"meanPrecision": "precision", "meanRecall": "recall", "meanF1": "f1"}
        build = lambda arm: llm.build_integration_prompt(table_a, table_b, annotations, arm)

        def judge(text):
            score = score_mapping(llm.parse_mapping_response(text, table_a, table_b), gold)
            return True, None, {"precision": score.precision, "recall": score.recall,
                                "f1": score.f1}
    elif task == llm.TASK_JOINING:
        if schema is None:
            raise ConfigError(missing("database schema for tables joining"))
        if database is None:
            raise ConfigError(missing("database file for tables joining"))
        if not os.path.exists(os.fspath(database)):
            raise ConfigError(missing(f"database file {database}"))
        # A directory or a file that is not SQLite fails here, not in every run.
        check_sqlite_file(database)
        failed, means = {"sqlSuccess": False}, {}
        build = lambda arm: llm.build_join_prompt(schema, annotations, goal, arm)
        sql_judge = _SchemaJudge(schema)

        def judge(text):
            try:
                report = sql_judge.judge(llm.extract_sql(text))
            except WriteAttempt as exc:
                return False, str(exc), failed
            return report.success, report.error_text, {"sqlSuccess": report.success}
    else:
        raise ConfigError(f"unknown task {task!r}")

    prepared = [(bundle, _sha256(bundle.user_text)) for bundle in map(build, arms)]

    memo, escaped = {}, []
    jobs = [(p, rep) for p in prepared for rep in range(repetitions)]
    runs = [None] * len(jobs)
    pending = iter(range(len(jobs)))
    lock, judge_lock = threading.Lock(), threading.Lock()

    def drain():
        try:
            while not escaped:
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                (bundle, prompt_hash), rep = jobs[i]
                runs[i] = _repetition(bundle, prompt_hash, client_factory(), rep, judge,
                                      failed, memo, judge_lock)
        except BaseException as exc:  # stops the other loops, then reaches the caller
            escaped.append(exc)

    threads = []
    try:
        for _ in range(min(workers, len(jobs)) - 1):
            thread = threading.Thread(target=drain)
            thread.start()
            threads.append(thread)
        drain()
    finally:
        for thread in threads:
            thread.join()
        if sql_judge is not None:
            sql_judge.close()
    if escaped:
        raise escaped[0]

    experiments = []
    for i, arm in enumerate(arms):
        arm_runs = runs[i * repetitions:(i + 1) * repetitions]
        aggregate = {"successRate": _mean(r["ok"] for r in arm_runs)}
        for name, key in means.items():
            aggregate[name] = _mean(r[key] for r in arm_runs)
        experiments.append({"task": task, "arm": arm, "n": repetitions, "runs": arm_runs,
                            "aggregate": aggregate})
    return experiments


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """json's encoder, its C one where it has one (json.dumps skips that when
    indent is set), with the newline and indent of depth + 1 in its item
    separator: a flat container's text then lacks only the inner breaks."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "),
                            check_circular=False)


def _indented(value, depth: int, texts: dict) -> str:
    """value as json.dumps(value, indent=2) writes it at nesting depth.

    A container of scalars is encoded in one call; a container holding
    containers is walked here. The text of a flat container is kept in
    texts under its depth, keys and the ids of its values, so a repeat that
    shares its value objects (runs of one memoized verdict do) is encoded
    once. Equal values in other objects, such as 0.0 and -0.0, or True and
    1, never share a text. The caller holds value for the whole render, so
    no id is reused while texts lives."""
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return _flat_encoder(depth).encode(value)
    brackets = "{}" if is_dict else "[]"
    if not value:
        return brackets
    items = value.values() if is_dict else value
    # One tuple of exact size: tuple(map(...)) guesses a size and shrinks it,
    # which moves tuples between CPython's free lists and grows the heap.
    key = (depth, *value, *map(id, items)) if is_dict else (depth, *map(id, value))
    text = texts.get(key)  # only flat containers are kept
    if text is not None:
        return text
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if any(isinstance(item, (dict, list, tuple)) for item in items):
        if is_dict:
            parts = [f"{json.encoder.encode_basestring_ascii(name)}: "
                     f"{_indented(item, depth + 1, texts)}" for name, item in value.items()]
        else:
            parts = [_indented(item, depth + 1, texts) for item in value]
        return f"{brackets[0]}{inner}{(',' + inner).join(parts)}{outer}{brackets[1]}"
    flat = _flat_encoder(depth).encode(value)
    text = texts[key] = f"{brackets[0]}{inner}{flat[1:-1]}{outer}{brackets[1]}"
    return text


def render_json(value) -> str:
    """json.dumps(value, indent=2) and a newline, byte for byte, for a JSON
    value whose dict keys are strings."""
    return _indented(value, 0, {}) + "\n"


def render_report(experiments) -> str:
    """The report JSON: the bytes of json.dumps(payload, indent=2) and a
    newline, payload being {"experiments": experiments} with string keys."""
    return render_json({"experiments": experiments})


def render_summary(payload: dict) -> str:
    """Short human-readable digest of a report payload: successRate, then
    each mean* aggregate key as its rest in lower case (meanF1 as f1).
    Raises ConfigError when the payload does not have a report's shape."""
    lines = []
    try:
        for experiment in payload.get("experiments", []):
            head = f"{experiment['task']} / {experiment['arm']}: n={experiment['n']}"
            agg = experiment["aggregate"]
            lines.append(" ".join([head, f"successRate={agg['successRate']:.2f}"] + [
                f"{key[4:].lower()}={value:.2f}" for key, value in agg.items()
                if key.startswith("mean")]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a comdb report: {type(exc).__name__}: {exc}") from exc
    if not lines:
        return "no experiments\n"
    return "\n".join(lines) + "\n"
