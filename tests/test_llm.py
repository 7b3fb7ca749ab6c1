import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from comdb import fixtures as bundled, llm
from comdb.cli import main as cli_main
from comdb.errors import (
    ApiError,
    ConfigError,
    MissingAnnotations,
    MissingCredentials,
    NoMappingFound,
    NoSqlFound,
    Timeout,
    TransportError,
)
from comdb.evaluate import run_experiment
from comdb.llm import (
    DEFAULT_JOIN_GOAL,
    TASK_INTEGRATION,
    TASK_JOINING,
    WITH_CONTEXT,
    WITHOUT_CONTEXT,
    ClientConfig,
    HttpChatClient,
    LLMResponse,
    MockChatClient,
    build_integration_prompt,
    build_join_prompt,
    extract_sql,
    parse_mapping_response,
)
from comdb.schema import TableSchema


def resp(text):
    return LLMResponse(text, 0.0, "test")


# --- prompt building ---

def test_integration_prompt_with_context(patient_tables, patient_annotations):
    table_a, table_b = patient_tables
    bundle = build_integration_prompt(table_a, table_b, patient_annotations,
                                      WITH_CONTEXT)
    text = bundle.user_text
    assert ("In table 'patients_A', headers Name and Surname are in the "
            "context of patients' name.") in text
    assert ("In table 'patients_B', headers ADDRESS, CITY, STATE, and COUNTY "
            "are in the context of patients' address.") in text
    assert ("Identify the headers from table 'patients_A' and table "
            "'patients_B' which contain the same information. Some headers "
            "may need to be combined or split.") in text
    assert bundle.task == TASK_INTEGRATION
    assert bundle.format_directive in text


def test_integration_prompt_without_context(patient_tables, patient_annotations):
    table_a, table_b = patient_tables
    bundle = build_integration_prompt(table_a, table_b, None, WITHOUT_CONTEXT)
    text = bundle.user_text
    assert "context of" not in text
    assert "Given a table 'patients_A' with headers: Id_patients, Name," in text
    assert "And a table 'patients_B' with headers: Id, BIRTHDATE," in text
    assert "combined or split" in text


def test_integration_prompt_requires_annotations(patient_tables):
    table_a, table_b = patient_tables
    with pytest.raises(MissingAnnotations):
        build_integration_prompt(table_a, table_b, None, WITH_CONTEXT)


def test_join_prompt_with_context(synthea_schema, synthea_annotations):
    bundle = build_join_prompt(synthea_schema, synthea_annotations,
                               arm=WITH_CONTEXT)
    text = bundle.user_text
    assert ("encounters are in the context of patients, organizations, "
            "providers, payers.") in text
    assert text.startswith("Given a table 'allergies'")
    assert DEFAULT_JOIN_GOAL in text
    assert bundle.task == TASK_JOINING


def test_join_prompt_without_context(synthea_schema):
    bundle = build_join_prompt(synthea_schema, None, arm=WITHOUT_CONTEXT)
    text = bundle.user_text
    assert "context of" not in text
    # all 14 base lines, plus goal and directive
    assert text.count("a table '") == 14


def test_join_prompt_empty_goal(synthea_schema, synthea_annotations):
    with pytest.raises(ConfigError):
        build_join_prompt(synthea_schema, synthea_annotations, goal="  ",
                          arm=WITH_CONTEXT)


def test_prompt_determinism(synthea_schema, synthea_annotations):
    a = build_join_prompt(synthea_schema, synthea_annotations, arm=WITH_CONTEXT)
    b = build_join_prompt(synthea_schema, synthea_annotations, arm=WITH_CONTEXT)
    assert a == b
    assert a.user_text == b.user_text


def test_arm_discipline(patient_tables, patient_annotations, synthea_schema,
                        synthea_annotations):
    table_a, table_b = patient_tables
    without = [
        build_integration_prompt(table_a, table_b, None, WITHOUT_CONTEXT),
        build_join_prompt(synthea_schema, None, arm=WITHOUT_CONTEXT),
    ]
    withc = [
        build_integration_prompt(table_a, table_b, patient_annotations,
                                 WITH_CONTEXT),
        build_join_prompt(synthea_schema, synthea_annotations, arm=WITH_CONTEXT),
    ]
    for bundle in without:
        assert bundle.user_text.count("context of") == 0
    for bundle in withc:
        assert bundle.user_text.count("context of") >= 1


# --- HTTP client ---

def _ok_transport(content="hello"):
    body = json.dumps({"choices": [{"message": {"content": content}}]})

    def transport(url, payload, headers, timeout):
        transport.calls.append((url, payload, headers, timeout))
        return 200, body

    transport.calls = []
    return transport


def make_config(**kw):
    defaults = dict(endpoint_url="http://llm.example", model="m",
                    api_key_source="TEST_LLM_KEY")
    defaults.update(kw)
    return ClientConfig(**defaults)


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("TEST_LLM_KEY", "sk-test")


def simple_bundle(patient_tables):
    table_a, table_b = patient_tables
    return build_integration_prompt(table_a, table_b, None, WITHOUT_CONTEXT)


def test_http_client_success(patient_tables, api_key):
    transport = _ok_transport("the answer")
    client = HttpChatClient(make_config(), transport=transport)
    result = client.complete(simple_bundle(patient_tables))
    assert result.raw_text == "the answer"
    assert result.latency_ms >= 0
    url, payload, headers, timeout = transport.calls[0]
    assert url == "http://llm.example/chat/completions"
    assert payload["model"] == "m"
    assert payload["temperature"] == 0.0
    assert payload["messages"][0]["role"] == "user"
    assert headers["Authorization"] == "Bearer sk-test"
    assert timeout == 30.0


def test_http_client_missing_credentials(patient_tables, monkeypatch):
    monkeypatch.delenv("TEST_LLM_KEY", raising=False)
    client = HttpChatClient(make_config(), transport=_ok_transport())
    with pytest.raises(MissingCredentials):
        client.complete(simple_bundle(patient_tables))


def test_http_client_api_error(patient_tables, api_key):
    def transport(url, payload, headers, timeout):
        return 401, "unauthorized"

    client = HttpChatClient(make_config(), transport=transport)
    with pytest.raises(ApiError) as excinfo:
        client.complete(simple_bundle(patient_tables))
    assert excinfo.value.status == 401
    assert "unauthorized" in excinfo.value.body


def test_http_client_retries_then_fails(patient_tables, api_key, monkeypatch):
    monkeypatch.setattr("comdb.llm.time.sleep", lambda s: None)
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        raise TransportError("connection refused")

    client = HttpChatClient(make_config(max_retries=2), transport=transport)
    with pytest.raises(TransportError):
        client.complete(simple_bundle(patient_tables))
    assert len(attempts) == 3


def test_http_client_retry_then_success(patient_tables, api_key, monkeypatch):
    monkeypatch.setattr("comdb.llm.time.sleep", lambda s: None)
    ok = _ok_transport("late but fine")
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            raise Timeout(1.0)
        return ok(url, payload, headers, timeout)

    client = HttpChatClient(make_config(max_retries=3), transport=transport)
    assert client.complete(simple_bundle(patient_tables)).raw_text == "late but fine"
    assert len(attempts) == 3


def _status_transport(*replies):
    """Answer each call with the next (status, body) pair, then 200."""
    ok = _ok_transport("recovered")
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(1)
        if len(calls) <= len(replies):
            return replies[len(calls) - 1]
        return ok(url, payload, headers, timeout)

    transport.calls = calls
    return transport


def test_http_client_retries_server_error(patient_tables, api_key, monkeypatch):
    delays = []
    monkeypatch.setattr("comdb.llm.time.sleep", delays.append)
    transport = _status_transport((503, "unavailable"))
    client = HttpChatClient(make_config(max_retries=2), transport=transport)
    assert client.complete(simple_bundle(patient_tables)).raw_text == "recovered"
    assert len(transport.calls) == 2
    assert len(delays) == 1 and 0.5 <= delays[0] <= 0.5 * 1.25


def test_http_client_rate_limited_every_attempt(patient_tables, api_key, monkeypatch):
    monkeypatch.setattr("comdb.llm.time.sleep", lambda s: None)
    transport = _status_transport((429, "slow down 1"), (429, "slow down 2"),
                                  (429, "slow down 3"))
    client = HttpChatClient(make_config(max_retries=2), transport=transport)
    with pytest.raises(ApiError) as excinfo:
        client.complete(simple_bundle(patient_tables))
    assert (excinfo.value.status, excinfo.value.body) == (429, "slow down 3")
    assert len(transport.calls) == 3


def test_http_client_client_error_not_retried(patient_tables, api_key, monkeypatch):
    monkeypatch.setattr("comdb.llm.time.sleep", lambda s: None)
    transport = _status_transport((400, "bad request"))
    client = HttpChatClient(make_config(max_retries=2), transport=transport)
    with pytest.raises(ApiError) as excinfo:
        client.complete(simple_bundle(patient_tables))
    assert excinfo.value.status == 400
    assert len(transport.calls) == 1


def test_http_client_malformed_body(patient_tables, api_key):
    def transport(url, payload, headers, timeout):
        return 200, "not json"

    client = HttpChatClient(make_config(), transport=transport)
    with pytest.raises(ApiError):
        client.complete(simple_bundle(patient_tables))


@pytest.mark.parametrize("content", [None, 42])
def test_run_records_non_string_reply_as_failure(patient_tables, patient_annotations,
                                                  gold_mapping, api_key, content):
    client = HttpChatClient(make_config(), transport=_ok_transport(content))
    table_a, table_b = patient_tables
    reports = run_experiment(
        TASK_INTEGRATION, arms=(WITHOUT_CONTEXT,), repetitions=3,
        client_factory=lambda: client, table_a=table_a, table_b=table_b,
        annotations=patient_annotations, gold=gold_mapping)
    runs = reports[0].runs
    assert len(runs) == 3
    assert all(not run.ok and "HTTP 200" in run.error for run in runs)
    assert reports[0].aggregate["successRate"] == 0.0


# --- the default (stdlib) transport against a loopback server ---

class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        pass  # the slow handler writes to a socket its client has closed


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):
        pass

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.path, self.headers["Authorization"], payload))
        # server.reply is (status, body, delay) or a function of the payload.
        reply = self.server.reply
        status, reply, delay = reply(payload) if callable(reply) else reply
        time.sleep(delay)
        data = reply.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture()
def loopback(monkeypatch, api_key):
    monkeypatch.setenv("no_proxy", "*")
    server = _Server(("127.0.0.1", 0), _Handler)
    server.seen = []
    server.reply = (200, json.dumps({"choices": [{"message": {"content": "hi"}}]}), 0.0)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def loopback_client(port, **kw):
    return HttpChatClient(make_config(endpoint_url=f"http://127.0.0.1:{port}",
                                      max_retries=0, **kw))


def test_default_transport_round_trip(patient_tables, loopback):
    client = loopback_client(loopback.server_address[1])
    bundle = simple_bundle(patient_tables)
    assert client.complete(bundle).raw_text == "hi"
    [(path, authorization, payload)] = loopback.seen
    assert path == "/chat/completions"
    assert authorization == "Bearer sk-test"
    assert payload["model"] == "m"
    assert payload["messages"] == [{"role": "user", "content": bundle.user_text}]


def test_default_transport_server_error_keeps_body(patient_tables, loopback):
    loopback.reply = (503, '{"error": "overloaded"}', 0.0)
    client = loopback_client(loopback.server_address[1])
    with pytest.raises(ApiError) as excinfo:
        client.complete(simple_bundle(patient_tables))
    assert excinfo.value.status == 503
    assert "overloaded" in excinfo.value.body


def test_default_transport_timeout(patient_tables, loopback):
    loopback.reply = (200, "{}", 0.5)
    client = loopback_client(loopback.server_address[1], timeout=0.1)
    with pytest.raises(Timeout):
        client.complete(simple_bundle(patient_tables))


def test_default_transport_closed_port(patient_tables, monkeypatch, api_key):
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(TransportError):
        loopback_client(port).complete(simple_bundle(patient_tables))


def src_env() -> dict:
    """The environment for a fresh interpreter that imports comdb from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_loads_no_third_party_module():
    code = ("import sys; before = set(sys.modules); import comdb; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "comdb" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"comdb"}


# Modules that only `comdb run` needs: the HTTP stack (which brings email
# and ssl) for a live run, the thread pool (which brings logging) for more
# than one worker, hashlib for the report's hashes and random for the
# retry jitter. No command needs importlib.resources, and comdb's value
# types need neither dataclasses (which brings inspect) nor typing.
_DEFERRED = ("http.client", "urllib.request", "email.parser", "ssl",
             "concurrent.futures", "logging", "hashlib", "random",
             "importlib.resources", "dataclasses", "inspect", "typing")


def test_import_and_ingest_load_no_deferred_module(tmp_path):
    code = ("import sys; before = set(sys.modules); import comdb.cli; "
            "rc = comdb.cli.main(['ingest', sys.argv[1], '--to', 'db', '--out', sys.argv[2]]); "
            "print(rc, *sorted(set(sys.modules) - before))")
    # -S: no site .pth file may load a deferred module before comdb does.
    proc = subprocess.run([sys.executable, "-S", "-c", code,
                           str(bundled.fixture_path(bundled.SYNTHEA_DDL)),
                           str(tmp_path / "synthea.db")],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, *loaded = proc.stdout.split()
    assert rc == "0"
    assert "comdb.cli" in loaded
    assert sorted(set(_DEFERRED) & set(loaded)) == []


@pytest.mark.parametrize("task", ["integration", "joining"])
def test_live_run_in_fresh_interpreter_writes_the_mock_report(tmp_path, capsys,
                                                              loopback, task):
    """A live two-worker run in a fresh interpreter, where the HTTP stack
    and the thread pool load on first use, against a server that replays
    the bundled mock script, writes the --mock run's report byte for byte."""
    mock = bundled.INTEGRATION_MOCK if task == "integration" else bundled.JOINING_MOCK
    responses = {}
    for record in json.loads(bundled.fixture_text(mock)):
        arm = record["arm"].split("-")[0]  # "with" or "without"
        assert cli_main(["prompt", "--task", task, "--arm", arm]) == 0
        responses[capsys.readouterr().out[:-1]] = record["response"]
    loopback.reply = lambda payload: (200, json.dumps({"choices": [{"message": {
        "content": responses[payload["messages"][0]["content"]]}}]}), 0.0)
    db = tmp_path / "synthea.db"
    assert cli_main(["ingest", str(bundled.fixture_path(bundled.SYNTHEA_DDL)),
                     "--to", "db", "--out", str(db)]) == 0
    run = ["run", "--task", task, "--n", "3", "--db", str(db),
           "--gold", str(bundled.fixture_path(bundled.PATIENTS_GOLD_MAP))]
    assert cli_main(run + ["--mock", str(bundled.fixture_path(mock)),
                           "--out", str(tmp_path / "mock.json")]) == 0
    proc = subprocess.run([sys.executable, "-m", "comdb", *run, "--workers", "2",
                           "--endpoint", f"http://127.0.0.1:{loopback.server_address[1]}",
                           "--api-key-env", "TEST_LLM_KEY",
                           "--out", str(tmp_path / "live.json")],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(loopback.seen) == 6
    assert (tmp_path / "live.json").read_bytes() == (tmp_path / "mock.json").read_bytes()


def test_client_config_validation():
    with pytest.raises(ConfigError):
        make_config(timeout=0)
    with pytest.raises(ConfigError):
        make_config(temperature=-1)
    with pytest.raises(ConfigError):
        make_config(max_retries=-1)


# --- mock client ---

def test_mock_client_passthrough(patient_tables):
    client = MockChatClient([
        {"task": TASK_INTEGRATION, "arm": WITHOUT_CONTEXT, "response": "canned"},
    ])
    result = client.complete(simple_bundle(patient_tables), repetition=7)
    assert result.raw_text == "canned"
    assert result.client_id == "mock"


def test_mock_client_exact_beats_wildcard(patient_tables):
    client = MockChatClient([
        {"task": TASK_INTEGRATION, "arm": WITHOUT_CONTEXT, "response": "default"},
        {"task": TASK_INTEGRATION, "arm": WITHOUT_CONTEXT, "repetition": 2,
         "response": "special"},
    ])
    bundle = simple_bundle(patient_tables)
    assert client.complete(bundle, repetition=0).raw_text == "default"
    assert client.complete(bundle, repetition=2).raw_text == "special"


def test_mock_client_missing_entry(patient_tables):
    client = MockChatClient([])
    with pytest.raises(ConfigError):
        client.complete(simple_bundle(patient_tables))


def test_mock_client_from_file():
    client = MockChatClient.from_file(
        bundled.fixture_path(bundled.INTEGRATION_MOCK))
    assert isinstance(client, MockChatClient)


def test_mock_client_bad_records():
    with pytest.raises(ConfigError):
        MockChatClient([{"task": TASK_INTEGRATION}])


@pytest.mark.parametrize("fields", [
    {"response": 42},
    {"response": None},
    {"response": ["a"]},
    {"response": "ok", "repetition": "1"},
    {"response": "ok", "repetition": 1.0},
    {"response": "ok", "repetition": True},
    {"response": "ok", "repetition": None},
])
def test_mock_client_rejects_mistyped_records(fields):
    good = {"task": TASK_INTEGRATION, "arm": WITH_CONTEXT, "response": "ok"}
    with pytest.raises(ConfigError) as excinfo:
        MockChatClient([good, dict(good, arm=WITHOUT_CONTEXT, **fields)])
    assert str(excinfo.value) == ("mock record 1 is malformed: "
                                  "'response' must be a string, 'repetition' an integer")


@pytest.mark.parametrize("fields, problem", [
    ({"task": "integration"}, "unknown task 'integration'"),
    ({"task": ["semantic-integration"]}, "unknown task ['semantic-integration']"),
    ({"arm": "with_context"}, "unknown arm 'with_context'"),
    ({"arm": None}, "unknown arm None"),
])
def test_mock_client_rejects_records_for_unknown_tasks_and_arms(fields, problem):
    good = {"task": TASK_INTEGRATION, "arm": WITH_CONTEXT, "response": "ok"}
    with pytest.raises(ConfigError) as excinfo:
        MockChatClient([good, dict(good, **fields)])
    assert str(excinfo.value) == f"mock record 1 is malformed: {problem}"


def test_run_with_mock_record_for_unknown_arm_fails_before_any_repetition(tmp_path, capsys,
                                                                          monkeypatch,
                                                                          fixture_db):
    script = tmp_path / "bad.mockjson"
    records = json.loads(bundled.fixture_text(bundled.JOINING_MOCK))
    records[1]["arm"] = "with_context"
    script.write_text(json.dumps(records))
    monkeypatch.setattr("comdb.evaluate._repetition",
                        lambda *args: pytest.fail("a repetition ran"))
    rc = cli_main(["run", "--task", "joining", "--mock", str(script), "--n", "1",
                   "--db", str(fixture_db)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: mock record 1 is malformed: "
                                       "unknown arm 'with_context'\n")


def test_run_with_mistyped_mock_record_fails_before_any_repetition(tmp_path, capsys,
                                                                   monkeypatch):
    script = tmp_path / "bad.mockjson"
    script.write_text(json.dumps([{"task": TASK_INTEGRATION, "arm": WITH_CONTEXT,
                                   "response": 42}]))
    monkeypatch.setattr("comdb.evaluate._repetition",
                        lambda *args: pytest.fail("a repetition ran"))
    rc = cli_main(["run", "--task", "integration", "--mock", str(script),
                   "--gold", str(bundled.fixture_path(bundled.PATIENTS_GOLD_MAP))])
    assert rc == 1
    assert capsys.readouterr().err == ("error: mock record 0 is malformed: 'response' "
                                       "must be a string, 'repetition' an integer\n")


# --- mapping response parsing ---

def test_parse_fenced_mapping(patient_tables):
    table_a, table_b = patient_tables
    text = ("Here is the mapping:\n```\n"
            "Name -> FIRST\n"
            "Surname -> LAST\n"
            "Date of Birth -> BIRTHDATE\n"
            "Place of Birth -> BIRTHPLACE\n"
            "Address -> ADDRESS + CITY + STATE + COUNTY\n"
            "Gender -> GENDER\n"
            "```\nDone.")
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    assert len(mapping.entries) == 6
    address = next(e for e in mapping.entries if e.source_headers == ("Address",))
    assert set(address.target_headers) == {"ADDRESS", "CITY", "STATE", "COUNTY"}
    assert mapping.source_table == "patients_A"
    assert not mapping.warnings


def test_parse_fenced_mapping_case_insensitive(patient_tables):
    table_a, table_b = patient_tables
    text = "```\ngender -> gender\n```"
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    # resolves to the canonical spellings of each table
    assert mapping.entries[0].source_headers == ("Gender",)
    assert mapping.entries[0].target_headers == ("GENDER",)


def test_parse_mapping_freeform_fallback(patient_tables):
    table_a, table_b = patient_tables
    text = "Date of Birth corresponds to BIRTHDATE"
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    assert len(mapping.entries) == 1
    assert mapping.entries[0].source_headers == ("Date of Birth",)
    assert mapping.entries[0].target_headers == ("BIRTHDATE",)


def test_parse_mapping_freeform_multi_target(patient_tables):
    table_a, table_b = patient_tables
    text = "Address corresponds to ADDRESS, CITY, STATE, and COUNTY."
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    assert set(mapping.entries[0].target_headers) == \
        {"ADDRESS", "CITY", "STATE", "COUNTY"}


def test_parse_mapping_vocabulary_built_once_per_table(patient_tables):
    table_a, table_b = patient_tables
    text = "Date of Birth corresponds to BIRTHDATE"
    swapped = "BIRTHDATE corresponds to Date of Birth"
    parse_mapping_response(resp(text), table_a, table_b)
    misses = llm._vocabulary.cache_info().misses
    for _ in range(3):
        forward = parse_mapping_response(resp(text), table_a, table_b)
        backward = parse_mapping_response(resp(swapped), table_b, table_a)
    assert llm._vocabulary.cache_info().misses == misses
    assert forward.entries[0].source_headers == ("Date of Birth",)
    assert backward.entries[0].source_headers == ("BIRTHDATE",)
    assert backward.entries[0].target_headers == ("Date of Birth",)


def test_parse_mapping_nothing_found(patient_tables):
    table_a, table_b = patient_tables
    with pytest.raises(NoMappingFound):
        parse_mapping_response(resp("I cannot help with that."), table_a, table_b)


def test_parse_mapping_unresolvable_collected(patient_tables):
    table_a, table_b = patient_tables
    text = "```\nGender -> GENDER\nShoe Size -> SSN\n```"
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    assert len(mapping.entries) == 1
    assert any("Shoe Size" in w for w in mapping.warnings)


def test_parse_mapping_duplicate_source_dropped(patient_tables):
    table_a, table_b = patient_tables
    text = "```\nGender -> GENDER\nGender -> SSN\n```"
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    assert len(mapping.entries) == 1
    assert mapping.entries[0].target_headers == ("GENDER",)
    assert mapping.warnings


@pytest.mark.parametrize("text, entries", [
    # A header with surrounding spaces, as quoted DDL or SQLite can give.
    ("Id  is the same as id.", [(("Id ",), ("id",))]),
    # re.IGNORECASE matches 'ıd' (dotless i) to 'Id'; casefold keeps them apart.
    ("ıd is the id. name is the label.", [(("name",), ("label",))]),
])
def test_parse_mapping_freeform_normalizes_names_as_the_scorer(text, entries):
    table_a = TableSchema("a", ("Id ", "name"))
    table_b = TableSchema("b", ("id", "label"))
    mapping = parse_mapping_response(resp(text), table_a, table_b)
    assert [(e.source_headers, e.target_headers) for e in mapping.entries] == entries


@given(st.text(max_size=300))
def test_parse_mapping_total(patient_tables, text):
    table_a, table_b = patient_tables
    try:
        mapping = parse_mapping_response(resp(text), table_a, table_b)
        assert mapping.entries
    except NoMappingFound:
        pass


def _random_case(header):
    return st.lists(st.booleans(), min_size=len(header), max_size=len(header)).map(
        lambda flips: "".join(c.swapcase() if f else c for c, f in zip(header, flips)))


def _side(headers):
    return st.lists(st.sampled_from(headers).flatmap(_random_case),
                    min_size=1, max_size=3).map(" + ".join)


@given(st.data())
def test_parse_fenced_mapping_property(patient_tables, data):
    # Known headers in random case, repeated within and across entries.
    table_a, table_b = patient_tables
    lines = data.draw(st.lists(st.tuples(_side(table_a.headers), _side(table_b.headers)),
                               min_size=1, max_size=8))
    text = "```\n" + "\n".join(f"{a} -> {b}" for a, b in lines) + "\n```"
    try:
        mapping = parse_mapping_response(resp(text), table_a, table_b)
    except NoMappingFound:
        return
    assert mapping.entries
    assert (mapping.source_table, mapping.target_table) == (table_a.name, table_b.name)
    for entry in mapping.entries:
        assert set(entry.source_headers) <= set(table_a.headers)
        assert set(entry.target_headers) <= set(table_b.headers)


# --- SQL extraction ---

def test_extract_sql_fenced():
    text = "Sure:\n```sql\nSELECT 1;\n```\nand maybe\n```\nSELECT 2;\n```"
    assert extract_sql(resp(text)) == "SELECT 1;"


def test_extract_sql_bare_select():
    text = "You could run SELECT a FROM t WHERE x = 1; to get the rows."
    assert extract_sql(resp(text)) == "SELECT a FROM t WHERE x = 1;"


def test_extract_sql_lowercase_no_semicolon():
    assert extract_sql(resp("try select * from t")) == "select * from t"


def test_extract_sql_none():
    with pytest.raises(NoSqlFound):
        extract_sql(resp("No query here."))


@given(st.text(max_size=300))
def test_extract_sql_total(text):
    try:
        sql = extract_sql(resp(text))
        assert sql.strip()
    except NoSqlFound:
        pass
