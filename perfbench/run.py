"""comdb benchmark: three workloads through comdb's public surface.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; comdb is imported from its `src/`.
One operation is one pass of the workload's task list, each task a
`comdb run` of both arms with `--n 10` through `comdb.cli.main(argv)`.
A single caller runs passes in a closed loop for `--seconds` seconds.
Every report is checked against a fixed oracle.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced run, whose
spans are written to `.bench_out/`. Exit code 0 means every output
matched the oracle, 1 that some did not, 2 that the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import scale_gen  # noqa: E402

WORKLOADS = ("paper", "scale", "live-loopback")
REPETITIONS = 10
ARMS = ("with-context", "without-context")
TASK_NAMES = {"integration": "semantic-integration", "joining": "tables-joining"}
SETUP_RUNS = 5            # fresh-interpreter ingests per run; setup_s is their median
TRACED_SETUP_RUNS = 3     # in-process ingests under the tracer
MAX_TRACED_OPS = 100      # caps the spans a traced run keeps in memory
FLOAT_TOLERANCE = 1e-9

# Bounded end-to-end metrics. comdb's cost per repetition is CPU time in
# units of a reference operation timed right after each operation (see
# reference.py): raw times follow the shared host's speed, which shifts by
# up to ~1.8x for minutes at a time.
END_TO_END_UNITS = {
    "setup_s": "s", "cpu_ref_per_rep": "ref", "prompt_bytes": "B", "peak_rss_mb": "MB",
}
# Printed beside them, not bounded: raw times, which follow the host's speed.
RAW_UNITS = {
    "run_min_ms": "ms", "run_p50_ms": "ms", "run_p90_ms": "ms", "reps_per_s": "1/s",
    "cpu_ms_per_rep": "ms", "reference_cpu_ms": "ms", "error_ratio": "ratio",
}

# Per-layer metrics: unit and which way is better. README.md names the
# end-to-end metric and workload each should move. A layer off a
# workload's path reads 0.
PER_LAYER = {
    "cli.build_parser.ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "import.comdb_ms": ("ms", "lower"),
    "import.requests_ms": ("ms", "lower"),
    "ingest.parse_ddl.ms": ("ms", "lower"),
    "ingest.parse_annotations.ms": ("ms", "lower"),
    "ingest.parse_fixture.ms": ("ms", "lower"),
    "setup.ingest.parse_ddl.ms": ("ms", "lower"),
    "setup.ingest.build_database.ms": ("ms", "lower"),
    "schema.validate_schema.ms": ("ms", "lower"),
    "schema.validate_annotations.ms": ("ms", "lower"),
    "schema.validate_annotations.calls": ("count", "lower"),
    "nl.emit_base_schema.ms": ("ms", "lower"),
    "nl.emit_contextual_schema.ms": ("ms", "lower"),
    "llm.build_join_prompt.ms": ("ms", "lower"),
    "llm.build_integration_prompt.ms": ("ms", "lower"),
    "llm.complete.ms": ("ms", "lower"),
    "llm.complete.calls": ("count", "lower"),
    "llm.parse_mapping_response.us": ("us", "lower"),
    "llm.extract_sql.us": ("us", "lower"),
    "llm.http.client_overhead_ms": ("ms", "lower"),
    "llm.http.connections_per_request": ("count", "lower"),
    "llm.http.requests_per_rep": ("count", "lower"),
    "llm.http.request_bytes": ("B", "lower"),
    "endpoint.service_ms": ("ms", "lower"),
    "mapping.parse_map_text.us": ("us", "lower"),
    "evaluate.score_mapping.us": ("us", "lower"),
    "evaluate.render_report.ms": ("ms", "lower"),
    "evaluate.report_bytes": ("B", "lower"),
    "evaluate.execute_sql.ms": ("ms", "lower"),
    "evaluate.execute_sql.calls": ("count", "lower"),
    "evaluate.run_experiment.self_ms": ("ms", "lower"),
    "evaluate.worker_busy_ratio": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}


# Wrapped attributes that must fire on each workload's path; a traced run
# that misses one fails instead of reporting zero.
_COMMON = {"comdb.cli.main", "comdb.cli.build_parser", "comdb.cli.parse_annotations",
           "comdb.cli.validate_schema", "comdb.cli.validate_annotations",
           "comdb.llm.emit_base_schema", "comdb.llm.emit_contextual_schema",
           "comdb.llm.build_join_prompt", "comdb.llm.extract_sql",
           "comdb.evaluate.execute_sql", "comdb.cli.run_experiment",
           "comdb.cli.render_report"}
_PAPER = _COMMON | {"comdb.cli.parse_fixture", "comdb.ingest.validate_schema",
                    "comdb.llm.validate_schema", "comdb.llm.validate_annotations",
                    "comdb.llm.build_integration_prompt",
                    "comdb.llm.parse_mapping_response", "comdb.cli.parse_map_text",
                    "comdb.evaluate.score_mapping"}
EXPECTED_ON_PATH = {
    "paper": _PAPER | {"comdb.llm.MockChatClient.complete"},
    "scale": _COMMON | {"comdb.cli.parse_ddl", "comdb.llm.MockChatClient.complete"},
    "live-loopback": _PAPER | {"comdb.llm.HttpChatClient.complete"},
}
EXPECTED_IN_SETUP = {"comdb.cli.parse_ddl", "comdb.cli.build_database"}


class BenchError(Exception):
    """The benchmark cannot run; no result is printed."""


def log(message: str):
    print(message, flush=True)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# --- comdb access -----------------------------------------------------------

def import_cli():
    if not (SRC / "comdb" / "__init__.py").is_file():
        raise BenchError(f"no comdb sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import comdb.cli
    if Path(comdb.cli.__file__).resolve().parent != (SRC / "comdb").resolve():
        raise BenchError(f"imported comdb from {comdb.cli.__file__}, not {SRC}")
    return comdb.cli


def call(cli, argv) -> tuple[int, str]:
    """comdb.cli.main(argv) with stdout captured; returns (exit code, stdout).
    An exception escaping comdb becomes exit code 1, so it counts as a
    failed operation instead of stopping the run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - the loop must keep running
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, out.getvalue()


def loopback_only_env():
    """Keep HTTP clients of this process and its children off any proxy."""
    for key in list(os.environ):
        if key.lower() in ("http_proxy", "https_proxy", "all_proxy"):
            del os.environ[key]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# --- workloads --------------------------------------------------------------

@dataclass
class Workload:
    name: str
    ddl: Path
    oracle: dict                              # task -> arm -> expected run
    mocks: dict                               # task -> mock script path
    fixture_flags: list = field(default_factory=list)
    workers: int = 1
    counts: dict | None = None
    tasks: list = field(default_factory=list)  # (task, argv for comdb run)

    def run_argv(self, task: str, db: Path, client: list) -> list:
        argv = ["run", "--task", task, "--arm", "both", "--n", str(REPETITIONS),
                "--workers", str(self.workers)] + client + self.fixture_flags
        if task == "integration":
            return argv + ["--gold", str(fixture("patients_ab_gold.map"))]
        return argv + ["--db", str(db)]

    def prompt_argv(self, task: str, arm: str) -> list:
        return ["prompt", "--task", task, "--arm", arm.split("-")[0]] + self.fixture_flags


def fixture(name: str) -> Path:
    from comdb import fixtures
    return fixtures.fixture_path(name)


def prepare(name: str, seed: int, work: Path) -> Workload:
    if name == "scale":
        generated = scale_gen.write(seed, work)
        return Workload(name, work / "gen.sql", generated["expected"],
                        {"joining": work / "gen.mockjson"},
                        ["--schema", str(work / "gen.sql"), "--ctx", str(work / "gen.ctx"),
                         "--goal", generated["goal"]],
                        counts=generated["counts"])
    oracle = json.loads((HERE / "oracle_paper.json").read_text(encoding="utf-8"))
    del oracle["_comment"]
    return Workload(name, fixture("synthea.sql"), oracle,
                    {"integration": fixture("mock_integration.mockjson"),
                     "joining": fixture("mock_joining.mockjson")},
                    workers=2 if name == "live-loopback" else 1)


def answers_for(wl: Workload) -> dict:
    """Prompt sha256 -> mock answer, for the stand-in endpoint."""
    answers = {}
    for task, path in wl.mocks.items():
        records = json.loads(Path(path).read_text(encoding="utf-8"))
        for record in records:
            if record["task"] == TASK_NAMES[task]:
                answers[wl.oracle[task][record["arm"]]["promptSha256"]] = record["response"]
    return answers


class Endpoint:
    """The stand-in chat endpoint, run as a child process on 127.0.0.1."""

    def __init__(self, seed: int, answers_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), "--seed", str(seed),
             "--answers", str(answers_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env())
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise BenchError(f"stand-in endpoint did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def command(self, word: str) -> dict:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"stand-in endpoint exited (code {self.proc.poll()})")
        return json.loads(line)

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- oracle -----------------------------------------------------------------

def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= FLOAT_TOLERANCE


def check_report(task: str, code: int, text: str, expected: dict) -> list:
    """Differences between one `comdb run` report and the oracle."""
    if code != 0:
        return [f"{task}: exit code {code}"]
    try:
        experiments = json.loads(text)["experiments"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{task}: unreadable report ({exc})"]
    problems = []
    if [e.get("arm") for e in experiments] != list(ARMS):
        return [f"{task}: arms {[e.get('arm') for e in experiments]}"]
    for experiment in experiments:
        arm = experiment["arm"]
        want = expected[arm]
        where = f"{task}/{arm}"
        if experiment.get("task") != TASK_NAMES[task] or experiment.get("n") != want["n"]:
            problems.append(f"{where}: task/n {experiment.get('task')}/{experiment.get('n')}")
        aggregate = experiment.get("aggregate", {})
        if set(aggregate) != set(want["aggregate"]) or not all(
                _close(aggregate[k], v) for k, v in want["aggregate"].items()):
            problems.append(f"{where}: aggregate {aggregate}")
        runs = experiment.get("runs", [])
        if len(runs) != want["n"]:
            problems.append(f"{where}: {len(runs)} runs")
        for i, run in enumerate(runs):
            got = (run.get("ok"), run.get("error"), run.get("promptSha256"),
                   run.get("responseSha256"))
            if got != (want["ok"], want["error"], want["promptSha256"], want["responseSha256"]):
                problems.append(f"{where} run {i}: verdict/hashes {got}")
            for key, value in want.get("score", {}).items():
                if not _close(run.get(key), value):
                    problems.append(f"{where} run {i}: {key} {run.get(key)}")
    return problems


# --- set-up -----------------------------------------------------------------

def setup_fresh(wl: Workload, work: Path) -> tuple[list, Path]:
    """Fresh-interpreter `python -m comdb ingest <ddl> --to db`, SETUP_RUNS times."""
    times = []
    for i in range(SETUP_RUNS):
        db = work / f"setup-{i}.db"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "comdb", "ingest", str(wl.ddl),
                               "--to", "db", "--out", str(db)],
                              env=child_env(), cwd=work, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up ingest failed: {proc.stderr.strip()}")
    return times, db


def setup_in_process(cli, wl: Workload, work: Path, tracer=None) -> Path:
    """`comdb ingest <ddl> --to db` through cli.main; spans get op `setup-<i>`."""
    for i in range(TRACED_SETUP_RUNS):
        db = work / f"{'traced' if tracer else 'plain'}-setup-{i}.db"
        if tracer is not None:
            tracer.op = f"setup-{i}"
        code, _ = call(cli, ["ingest", str(wl.ddl), "--to", "db", "--out", str(db)])
        if code != 0:
            raise BenchError(f"in-process ingest exited {code}")
    if tracer is not None:
        tracer.op = None
    return db


def import_times_ms() -> dict:
    """Cumulative import time of comdb and requests from `-X importtime`."""
    found = {"comdb": [], "requests": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import comdb"],
                              env=child_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"import comdb failed: {proc.stderr.strip()[-300:]}")
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1000.0)
    return {name: median(values) for name, values in found.items()}


# --- the closed loop --------------------------------------------------------

@dataclass
class Loop:
    times: list = field(default_factory=list)       # wall seconds per operation
    cpu_times: list = field(default_factory=list)   # CPU seconds per operation
    ref_times: list = field(default_factory=list)   # CPU seconds of the reference after it
    attempted: int = 0
    failed: int = 0
    report_bytes: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def run_pass(cli, wl: Workload) -> tuple[float, float, list]:
    """One operation; returns (wall seconds, CPU seconds, outputs)."""
    outputs = []
    cpu, start = time.process_time(), time.perf_counter()
    for task, argv in wl.tasks:
        outputs.append((task,) + call(cli, argv))
    return time.perf_counter() - start, time.process_time() - cpu, outputs


def verify_first_pass(cli, wl: Workload) -> list:
    """Run one untimed pass, check it fully, and return the digest each
    later report must match (None where the first one was wrong)."""
    _, _, outputs = run_pass(cli, wl)
    digests = []
    for task, code, text in outputs:
        problems = check_report(task, code, text, wl.oracle[task])
        for problem in problems:
            log(f"MISMATCH {problem}")
        digests.append(None if problems else hashlib.sha256(text.encode()).hexdigest())
    return digests


def timed_pass(cli, wl: Workload, digests: list, loop: Loop):
    """One operation, recorded in loop and checked against the digests."""
    elapsed, cpu, outputs = run_pass(cli, wl)
    loop.times.append(elapsed)
    loop.cpu_times.append(cpu)
    loop.attempted += 1
    loop.report_bytes.append(sum(len(text.encode()) for _, _, text in outputs))
    bad = []
    for (task, code, text), digest in zip(outputs, digests):
        if code == 0 and digest == hashlib.sha256(text.encode()).hexdigest():
            continue
        bad += check_report(task, code, text, wl.oracle[task]) or [f"{task}: changed"]
    if bad:
        loop.failed += 1
        loop.problems += bad[:3]


def closed_loop(cli, wl: Workload, digests: list, seconds: float, loop: Loop,
                ref: reference.Reference):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        timed_pass(cli, wl, digests, loop)
        loop.ref_times.append(ref.cpu_seconds())


# --- metrics ----------------------------------------------------------------

def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def prompt_bytes(cli, wl: Workload) -> int:
    """User-prompt bytes per operation, read with `comdb prompt` and proven
    equal to what is sent by the report's promptSha256 (checked by the oracle)."""
    total = 0
    for task, _ in wl.tasks:
        for arm in ARMS:
            code, out = call(cli, wl.prompt_argv(task, arm))
            text = out[:-1] if out.endswith("\n") else out
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if code != 0 or digest != wl.oracle[task][arm]["promptSha256"]:
                raise BenchError(f"comdb prompt {task}/{arm} differs from the oracle prompt")
            total += len(text.encode("utf-8")) * REPETITIONS
    return total


def end_to_end(cli, wl: Workload, work: Path, seconds: float, digests,
               setup_s: float) -> tuple[dict, dict, Loop]:
    """Bounded metrics, raw-time metrics, and the loop."""
    loop = Loop()
    closed_loop(cli, wl, digests, seconds, loop, reference.Reference(wl.ddl, work))
    reps_per_op = len(wl.tasks) * len(ARMS) * REPETITIONS
    reps = loop.attempted * reps_per_op
    values = {
        "setup_s": setup_s,
        "cpu_ref_per_rep": median([cpu / ref for cpu, ref in zip(loop.cpu_times, loop.ref_times)])
                           / reps_per_op,
        "prompt_bytes": prompt_bytes(cli, wl),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "run_min_ms": min(loop.times) * 1000.0,
        "run_p50_ms": median(loop.times) * 1000.0,
        "run_p90_ms": p90(loop.times) * 1000.0,
        "reps_per_s": reps / sum(loop.times),
        "cpu_ms_per_rep": sum(loop.cpu_times) * 1000.0 / reps,
        "reference_cpu_ms": median(loop.ref_times) * 1000.0,
    }
    return values, raw, loop


def per_layer(cli, wl: Workload, work: Path, seconds: float, digests, endpoint,
              seed: int) -> tuple[dict, Loop]:
    """Traced and untraced passes alternate, so both meet the same host
    conditions and their difference is the tracing overhead."""
    imports = import_times_ms()
    tracer = layers.Tracer()
    tracer.install()
    try:
        setup_in_process(cli, wl, work, tracer)
    finally:
        tracer.uninstall()
    if endpoint is not None:
        endpoint.command("reset")
    untraced, traced = Loop(), Loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and len(traced.times) < MAX_TRACED_OPS:
        timed_pass(cli, wl, digests, untraced)
        tracer.install()
        tracer.op = len(traced.times)
        try:
            timed_pass(cli, wl, digests, traced)
        finally:
            tracer.op = None
            tracer.uninstall()
    http = endpoint.command("stats") if endpoint else None

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}-seed{seed}.jsonl")

    spans = tracer.spans
    fired = {s[6] for s in spans if isinstance(s[5], int)}
    fired_setup = {s[6] for s in spans if isinstance(s[5], str)}
    missing = sorted(EXPECTED_ON_PATH[wl.name] - fired) + sorted(EXPECTED_IN_SETUP - fired_setup)
    if missing:
        raise BenchError(f"wrapped layers never fired on {wl.name}: {', '.join(missing)}")

    ops = len(traced.times)
    self_ns = layers.self_times_ns(spans)

    def per_op_ms(name, setup=False, use_self=False) -> float:
        sums = {}
        for span in spans:
            op = span[5]
            if span[2] != name or not isinstance(op, str if setup else int):
                continue
            ns = self_ns[span[0]] if use_self else span[4] - span[3]
            sums[op] = sums.get(op, 0) + ns
        n = TRACED_SETUP_RUNS if setup else ops
        return median(list(sums.values()) + [0] * (n - len(sums))) / 1e6

    def pass_spans(name):
        return [s for s in spans if s[2] == name and isinstance(s[5], int)]

    def per_call_us(name) -> float:
        return median([(s[4] - s[3]) / 1e3 for s in pass_spans(name)])

    def calls(name) -> float:
        return len(pass_spans(name)) / ops

    complete_ns = sum(s[4] - s[3] for s in pass_spans("llm.complete"))
    experiment_ns = sum(s[4] - s[3] for s in pass_spans("evaluate.run_experiment"))
    values = {
        "cli.build_parser.ms": per_op_ms("cli.build_parser"),
        "cli.main.self_ms": per_op_ms("cli.main", use_self=True),
        "import.comdb_ms": imports["comdb"],
        "import.requests_ms": imports["requests"],
        "ingest.parse_ddl.ms": per_op_ms("ingest.parse_ddl"),
        "ingest.parse_annotations.ms": per_op_ms("ingest.parse_annotations"),
        "ingest.parse_fixture.ms": per_op_ms("ingest.parse_fixture"),
        "setup.ingest.parse_ddl.ms": per_op_ms("ingest.parse_ddl", setup=True),
        "setup.ingest.build_database.ms": per_op_ms("ingest.build_database", setup=True),
        "schema.validate_schema.ms": per_op_ms("schema.validate_schema"),
        "schema.validate_annotations.ms": per_op_ms("schema.validate_annotations"),
        "schema.validate_annotations.calls": calls("schema.validate_annotations"),
        "nl.emit_base_schema.ms": per_op_ms("nl.emit_base_schema"),
        "nl.emit_contextual_schema.ms": per_op_ms("nl.emit_contextual_schema"),
        "llm.build_join_prompt.ms": per_op_ms("llm.build_join_prompt"),
        "llm.build_integration_prompt.ms": per_op_ms("llm.build_integration_prompt"),
        "llm.complete.ms": per_op_ms("llm.complete"),
        "llm.complete.calls": calls("llm.complete"),
        "llm.parse_mapping_response.us": per_call_us("llm.parse_mapping_response"),
        "llm.extract_sql.us": per_call_us("llm.extract_sql"),
        "llm.http.client_overhead_ms": 0.0,
        "llm.http.connections_per_request": 0.0,
        "llm.http.requests_per_rep": 0.0,
        "llm.http.request_bytes": 0.0,
        "endpoint.service_ms": 0.0,
        "mapping.parse_map_text.us": per_call_us("mapping.parse_map_text"),
        "evaluate.score_mapping.us": per_call_us("evaluate.score_mapping"),
        "evaluate.render_report.ms": per_op_ms("evaluate.render_report"),
        "evaluate.report_bytes": median(traced.report_bytes),
        "evaluate.execute_sql.ms": per_op_ms("evaluate.execute_sql"),
        "evaluate.execute_sql.calls": calls("evaluate.execute_sql"),
        "evaluate.run_experiment.self_ms": per_op_ms("evaluate.run_experiment", use_self=True),
        "evaluate.worker_busy_ratio": complete_ns / (wl.workers * experiment_ns),
        "trace.overhead_ms": median([t - u for t, u in zip(traced.times, untraced.times)])
                             * 1000.0,
    }
    if http is not None:
        # The endpoint served the traced and the untraced passes alike.
        requests = http["requests"]
        reps = (ops + len(untraced.times)) * len(wl.tasks) * len(ARMS) * REPETITIONS
        values.update({
            "llm.http.client_overhead_ms": (complete_ns / 1e6 / len(pass_spans("llm.complete"))
                                            - http["serviceMs"] / requests),
            "llm.http.connections_per_request": http["connections"] / requests,
            "llm.http.requests_per_rep": requests / reps,
            "llm.http.request_bytes": http["bodyBytes"] / requests,
            "endpoint.service_ms": http["serviceMs"] / requests,
        })
        log(f"endpoint: {json.dumps(http)}")
    loop = Loop(times=untraced.times + traced.times,
                attempted=untraced.attempted + traced.attempted,
                failed=untraced.failed + traced.failed,
                problems=untraced.problems + traced.problems)
    log(f"traced ops {ops} (p50 {median(traced.times) * 1000.0:.3f} ms), spans {len(spans)}; "
        f"untraced ops {len(untraced.times)} (p50 {median(untraced.times) * 1000.0:.3f} ms)")
    return values, loop


# --- entry points -----------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    loopback_only_env()
    cli = import_cli()
    work_root = ROOT / ".bench_work"
    work = work_root / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    endpoint = None
    try:
        wl = prepare(name, seed, work)
        if wl.counts:
            log(f"generated: {json.dumps(wl.counts)}")
        if trace:
            db = setup_in_process(cli, wl, work)
        else:
            setup_times, db = setup_fresh(wl, work)
            log(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup_times)}")
        client = {task: ["--mock", str(path)] for task, path in wl.mocks.items()}
        if name == "live-loopback":
            os.environ["COMDB_API_KEY"] = "perfbench-dummy-key"
            answers = work / "answers.json"
            answers.write_text(json.dumps(answers_for(wl)), encoding="utf-8")
            endpoint = Endpoint(seed, answers)
            client = {task: ["--endpoint", endpoint.url] for task in wl.mocks}
        wl.tasks = [(task, wl.run_argv(task, db, client[task])) for task in wl.mocks]

        digests = verify_first_pass(cli, wl)
        raw = {}
        if trace:
            values, loop = per_layer(cli, wl, work, seconds, digests, endpoint, seed)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            values, raw, loop = end_to_end(cli, wl, work, seconds, digests,
                                               median(setup_times))
            units = END_TO_END_UNITS
    finally:
        if endpoint is not None:
            endpoint.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    failed = loop.failed + int(None in digests)
    attempted = loop.attempted + 1
    raw["error_ratio"] = failed / attempted
    for problem in loop.problems[:10]:
        log(f"MISMATCH {problem}")
    log(f"workload {name} seed {seed}: {attempted} operations, "
        f"{len(loop.times)} timed samples")
    for key, value in values.items():
        log(f"  {key:36s} {value:14.4f} {units[key]}")
    for key, value in raw.items():
        log(f"  {key:36s} {value:14.4f} {RAW_UNITS[key]} (not bounded)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; prints one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="comdb benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, LookupError) as exc:  # LookupError: a wrapped layer is gone
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
