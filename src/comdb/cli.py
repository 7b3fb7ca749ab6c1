"""Command-line front end.

Subcommands: ingest, emit, prompt, run, validate-sql, score, report.
Exit codes: 0 success, 1 task failure, 2 usage error. Results go to
stdout, diagnostics to stderr. Mock runs need no network or credentials;
live runs read the API key from the environment variable named by
--api-key-env, never from a flag.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from pathlib import Path

from . import fixtures
from .errors import ComdbError, ConfigError
from .evaluate import (
    execute_sql,
    render_json,
    render_report,
    render_summary,
    run_experiment,
    score_mapping,
)
from .ingest import (
    build_database,
    introspect_database,
    parse_annotations,
    parse_ddl,
    parse_fixture,
    read_text,
    render_fixture,
)
from .llm import (
    ARMS,
    DEFAULT_JOIN_GOAL,
    TASK_INTEGRATION,
    TASK_JOINING,
    WITH_CONTEXT,
    WITHOUT_CONTEXT,
    ClientConfig,
    HttpChatClient,
    MockChatClient,
    build_integration_prompt,
    build_join_prompt,
    unsendable_key,
)
from .mapping import normalize_header, parse_map_text
from .nl import ALPHABETICAL, INPUT_ORDER, emit_base_schema, emit_contextual_schema
from .schema import validate_annotations, validate_schema

_TASKS = {"integration": TASK_INTEGRATION, "joining": TASK_JOINING}
_ARM_CHOICES = {"both": ARMS, "with": (WITH_CONTEXT,), "without": (WITHOUT_CONTEXT,)}
_DB_SUFFIXES = {".db", ".sqlite", ".sqlite3"}
_DDL_SUFFIXES = {".sql", ".ddl"}


def _load_schema_file(path: str):
    """Read path as SQLite, as DDL or as a .schema fixture, by its suffix alone
    (none when path ends in a separator)."""
    stem, suffix = os.path.splitext(os.path.basename(path))
    suffix = suffix.lower()
    if suffix in _DB_SUFFIXES:
        return introspect_database(path)
    if suffix in _DDL_SUFFIXES:
        return parse_ddl(read_text(path), name=stem)
    return parse_fixture(read_text(path), name=stem)


def _check_output(out: str | None):
    """Raise now what writing to out would raise for a directory or a missing parent."""
    if out and os.path.isdir(out):
        raise ConfigError(f"{out}: is a directory, not a file")
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)


def _write_output(text: str, out: str | None):
    _check_output(out)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            # A failed flush at close (say, a full disk) names no file.
            exc.filename = exc.filename or out
            raise
    else:
        sys.stdout.write(text)


def cmd_ingest(args) -> int:
    if args.to == "db" and not args.out:
        args.parser.error("--to db requires --out")
    _check_output(args.out)
    schema = _load_schema_file(args.source)
    validate_schema(schema)
    if args.to == "db":
        build_database(schema, args.out)
        print(f"created {args.out} with {len(schema.tables)} tables", file=sys.stderr)
        return 0
    _write_output(render_fixture(schema), args.out)
    return 0


def cmd_emit(args) -> int:
    schema = validate_schema(_load_schema_file(args.schema))
    text = emit_base_schema(schema, args.order)
    if args.annotations:
        ann = validate_annotations(parse_annotations(read_text(args.annotations)),
                                   schema)
        text += "\n" + emit_contextual_schema(ann)
    _write_output(text, args.out)
    return 0


def _task_inputs(args) -> dict:
    """The validated schema, annotations, tables and goal named by --schema,
    --ctx, --table-a, --table-b and --goal (or the task's bundled
    fixtures), as run_experiment's keyword arguments. An unset table flag
    takes the first table that the other side does not name."""
    integration = _TASKS[args.task] == TASK_INTEGRATION
    default_schema, default_ctx = ((fixtures.PATIENTS_SCHEMA, fixtures.PATIENTS_CONTEXT)
                                   if integration else
                                   (fixtures.SYNTHEA_SCHEMA, fixtures.SYNTHEA_CONTEXT))
    schema_path = args.schema or fixtures.fixture_path(default_schema)
    ctx_path = args.ctx or fixtures.fixture_path(default_ctx)
    schema = validate_schema(_load_schema_file(str(schema_path)))
    ann = validate_annotations(parse_annotations(read_text(str(ctx_path))), schema)
    inputs = dict(annotations=ann, schema=schema, goal=args.goal,
                  table_a=None, table_b=None)
    if integration:
        names = [t.name for t in schema.tables]
        name_a = args.table_a or next((n for n in names if n != args.table_b), names[0])
        name_b = args.table_b or next((n for n in names if n != name_a), name_a)
        for flag, name in (("--table-a", name_a), ("--table-b", name_b)):
            if not schema.has_table(name):
                raise ConfigError(f"{flag} references unknown table {name!r}")
        if name_a == name_b:
            raise ConfigError(f"--table-a and --table-b both name {name_a!r}; "
                              "integration needs two different tables")
        inputs.update(table_a=schema.table(name_a), table_b=schema.table(name_b))
    return inputs


def cmd_prompt(args) -> int:
    (arm,) = _ARM_CHOICES[args.arm]
    inputs = _task_inputs(args)
    if _TASKS[args.task] == TASK_INTEGRATION:
        bundle = build_integration_prompt(inputs["table_a"], inputs["table_b"],
                                          inputs["annotations"], arm)
    else:
        bundle = build_join_prompt(inputs["schema"], inputs["annotations"], inputs["goal"], arm)
    print(bundle.user_text)
    return 0


def _read_gold(path: str, table_a, table_b):
    """The gold mapping from table_a to table_b. Each header must belong to
    its side's table (compared as the scorer compares), so that a gold file
    read the wrong way round is an error, not a low score."""
    gold = parse_map_text(read_text(path), table_a.name, table_b.name)
    for side, flag, table, headers in (
            ("left", "--table-a", table_a, [h for e in gold.entries for h in e.source_headers]),
            ("right", "--table-b", table_b, [h for e in gold.entries for h in e.target_headers])):
        known = {normalize_header(h) for h in table.headers}
        for header in headers:
            if normalize_header(header) not in known:
                raise ConfigError(f"gold mapping {path}: {side}-side header {header!r} "
                                  f"is not a header of {flag} table {table.name!r}")
    return gold


def cmd_run(args) -> int:
    task = _TASKS[args.task]
    if args.n < 1:
        args.parser.error("--n must be >= 1")
    if args.workers < 1:
        args.parser.error("--workers must be >= 1")
    # The mock holds no mutable state and the HTTP client's connection
    # pool is locked, so every repetition shares one client.
    if args.mock is not None:
        if not args.mock:
            args.parser.error("--mock names no mock script")
        client = MockChatClient.from_file(args.mock)
    else:
        try:
            config = ClientConfig(
                endpoint_url=args.endpoint, model=args.model,
                temperature=args.temperature, timeout=args.timeout,
                max_retries=args.max_retries, api_key_source=args.api_key_env)
        except ConfigError as exc:
            args.parser.error(str(exc))
        client = HttpChatClient(config)
    if task == TASK_INTEGRATION and not args.gold:
        args.parser.error("--gold is required for --task integration")
    if task == TASK_JOINING and not args.db:
        args.parser.error("--db is required for --task joining")
    if isinstance(client, HttpChatClient):
        # An unset variable, or a key no header can carry, fails here, not
        # in every repetition; the key itself stays out of the message.
        key = client.api_key()
        fault = key and unsendable_key(key)
        if fault:
            raise ConfigError(f"environment variable {args.api_key_env} contains {fault}")
    _check_output(args.out)
    inputs = _task_inputs(args)
    gold = None
    if task == TASK_INTEGRATION:
        gold = _read_gold(args.gold, inputs["table_a"], inputs["table_b"])
    try:
        experiments = run_experiment(task, arms=_ARM_CHOICES[args.arm], repetitions=args.n,
                                     client_factory=lambda: client, gold=gold,
                                     database=args.db, workers=args.workers, **inputs)
    finally:
        if isinstance(client, HttpChatClient):
            client.close()
    _write_output(render_report(experiments), args.out)
    return 0


def cmd_validate_sql(args) -> int:
    sql = read_text(args.sql_file)
    report = execute_sql(sql, args.db)
    if report.success:
        cols = ", ".join(report.result_columns)
        print(f"ok: {report.row_count} rows, columns: {cols}")
        return 0
    print(f"failed: {report.error_text}")
    return 1


def cmd_score(args) -> int:
    predicted = parse_map_text(read_text(args.predicted))
    gold = parse_map_text(read_text(args.gold))
    score = score_mapping(predicted, gold)
    sys.stdout.write(render_json({
        "matched": score.matched,
        "goldSize": score.gold_size,
        "predictedSize": score.predicted_size,
        "precision": score.precision,
        "recall": score.recall,
        "f1": score.f1,
    }))
    return 0


def cmd_report(args) -> int:
    try:
        payload = json.loads(read_text(args.report_file))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("report nests too deeply to read") from exc
    sys.stdout.write(render_summary(payload))
    return 0


def _add_task_fixture_flags(parser):
    parser.add_argument("--schema", help="schema file (default: bundled fixture)")
    parser.add_argument("--ctx", help="annotation file (default: bundled fixture)")
    parser.add_argument("--table-a", help="source table for integration")
    parser.add_argument("--table-b", help="target table for integration")
    parser.add_argument("--goal", default=DEFAULT_JOIN_GOAL,
                        help="joining goal sentence")


def _add_ingest_args(p):
    p.add_argument("source", help="schema file (.schema, .sql/.ddl, or SQLite)")
    p.add_argument("--to", choices=["fixture", "db"], default="fixture")
    p.add_argument("--out", help="output path (required for --to db)")


def _add_emit_args(p):
    p.add_argument("schema", help="schema file")
    p.add_argument("annotations", nargs="?", help="annotation file (.ctx)")
    p.add_argument("--order", choices=[ALPHABETICAL, INPUT_ORDER],
                   default=ALPHABETICAL)
    p.add_argument("--out")


def _add_prompt_args(p):
    p.add_argument("--task", choices=sorted(_TASKS), required=True)
    p.add_argument("--arm", choices=["with", "without"], default="with")
    _add_task_fixture_flags(p)


def _add_run_args(p):
    p.add_argument("--task", choices=sorted(_TASKS), required=True)
    p.add_argument("--arm", choices=sorted(_ARM_CHOICES), default="both")
    p.add_argument("--n", type=int, default=10, help="repetitions per arm")
    client = p.add_mutually_exclusive_group(required=True)
    client.add_argument("--mock", help="mock script (.mockjson); offline run")
    client.add_argument("--endpoint", help="chat-completion endpoint base URL")
    p.add_argument("--model", default="gpt-3.5-turbo")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument("--api-key-env", default="COMDB_API_KEY",
                   help="environment variable holding the API key")
    p.add_argument("--db", help="SQLite fixture (required for joining; checked, not read: "
                                "answers are judged on --schema)")
    p.add_argument("--gold", help="gold mapping file (required for integration)")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--workers", type=int, default=1)
    _add_task_fixture_flags(p)


def _add_validate_sql_args(p):
    p.add_argument("--db", required=True)
    p.add_argument("sql_file", nargs="?", help="SQL file (default: stdin)")


def _add_score_args(p):
    p.add_argument("--predicted", required=True)
    p.add_argument("--gold", required=True)


def _add_report_args(p):
    p.add_argument("report_file", nargs="?", help="report path (default: stdin)")


# name -> (help, function that adds its arguments, handler), in help order.
_SUBCOMMANDS = {
    "ingest": ("read a schema source, write it back out", _add_ingest_args, cmd_ingest),
    "emit": ("render the natural-language schema forms", _add_emit_args, cmd_emit),
    "prompt": ("print the prompt for one task and arm", _add_prompt_args, cmd_prompt),
    "run": ("run an experiment and write the JSON report", _add_run_args, cmd_run),
    "validate-sql": ("execute SQL read-only against a fixture db",
                     _add_validate_sql_args, cmd_validate_sql),
    "score": ("score a predicted mapping against gold", _add_score_args, cmd_score),
    "report": ("summarize a report JSON", _add_report_args, cmd_report),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full comdb parser, with every subcommand, built once per process.
    Each subparser sets its handler as `func` and itself as `parser`, through
    which a handler words its own usage errors. parse_args makes a fresh
    namespace on each call, so a reused parser carries nothing over."""
    parser = argparse.ArgumentParser(
        prog="comdb",
        description="Natural-language schema representations and the two "
                    "database-management experiments built on them.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_arguments, handler) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=handler, parser=subparser)
    return parser


def main(argv=None) -> int:
    """Run one comdb command and return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ComdbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 1
    except FileExistsError as exc:
        print(f"error: refusing to overwrite existing file: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Any other file error, such as a full disk or a denied permission.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
