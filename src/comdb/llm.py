"""Prompt construction, chat-completion clients, and response parsing.

Two tasks are supported. Semantic integration asks the model to match
headers between two tables; tables joining asks it to write a SQL query
over the whole database. Each task builds in two arms: with-context
prompts include the contextual (context-of) sentences, without-context
prompts carry the bare header lists only. Each task has its own builder,
which callers name directly, and _context is the one place that decides
which annotations an arm's prompt shows. A prompt is one text, sent as
the single user message. Prompts are pure functions of schema +
annotations + fixed task text, so they can never leak row data.

Clients are pluggable: a client is any object with
complete(bundle, *, repetition) -> str, which returns the answer text.
HttpChatClient speaks the common JSON chat-completions protocol over
comdb.wire (loaded on first live use), which keeps connections open and
reuses them across requests, through the proxy that http_proxy or
https_proxy names unless no_proxy lists the host. comdb.wire loads ssl
only for an https endpoint or proxy, and urllib.request only to read
proxy settings where one may be set, so a live run against a plain
http:// server on localhost loads neither. The client retries 429 and 5xx
replies, waiting as long as a 429 or 503 reply's Retry-After asks
(delta-seconds only, capped). Its close() closes the idle connections.
MockChatClient replays a scripted response per (task, arm, repetition)
for offline, deterministic runs.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import time
import weakref
from collections.abc import Callable
from urllib.parse import urlsplit

from .errors import (
    ApiError,
    ConfigError,
    NoMappingFound,
    NoSqlFound,
    Timeout,
    TransportError,
)
from .ingest import read_text
from .mapping import HeaderMapping, MappingEntry, normalize_header, split_reused
from .nl import INPUT_ORDER, emit_base_schema, emit_contextual_schema
from .schema import (
    DatabaseSchema,
    OntologyAnnotations,
    TableSchema,
    ValidatedAnnotations,
    ValidatedSchema,
    validate_annotations,
    validate_schema,
)
from .value import Value

TASK_INTEGRATION = "semantic-integration"
TASK_JOINING = "tables-joining"
WITH_CONTEXT = "with-context"
WITHOUT_CONTEXT = "without-context"
ARMS = (WITH_CONTEXT, WITHOUT_CONTEXT)

# A socket waits in poll(), which takes its timeout as a C int of
# milliseconds: a longer timeout wraps, and ends at once or never.
MAX_TIMEOUT_S = (2**31 - 1) // 1000

INTEGRATION_TASK_TEMPLATE = (
    "Identify the headers from table '{a}' and table '{b}' which contain the "
    "same information. Some headers may need to be combined or split."
)

DEFAULT_JOIN_GOAL = (
    "To create a SQL query that generates a list of careplans, with "
    "corresponding providers' and patients' identity information."
)

MAPPING_DIRECTIVE_TEMPLATE = (
    "Write the final mapping inside one fenced code block, one entry per "
    "line, as: <headers from '{a}'> -> <headers from '{b}'>. Join several "
    "headers on one side with ' + '. Use only header names that appear in "
    "the tables, and put nothing else inside the block."
)

SQL_DIRECTIVE = (
    "Write the complete SQL query inside one fenced code block, with "
    "nothing else inside the block."
)


class PromptBundle(Value):
    __slots__ = ("task", "arm", "user_text")

    def __init__(self, task: str, arm: str, user_text: str):
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "arm", arm)
        object.__setattr__(self, "user_text", user_text)


class ClientConfig(Value):
    __slots__ = ("endpoint_url", "model", "temperature", "timeout", "max_retries",
                 "api_key_source")

    def __init__(self, endpoint_url: str, model: str, temperature: float = 0.0,
                 timeout: float = 30.0, max_retries: int = 2,
                 api_key_source: str = "COMDB_API_KEY"):
        # NaN passes the range checks below, and json.dumps would send a
        # NaN temperature as a bare NaN, which is not JSON.
        for name, value in (("timeout", timeout), ("temperature", temperature)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if timeout <= 0:
            raise ConfigError("timeout must be positive")
        if timeout > MAX_TIMEOUT_S:
            raise ConfigError(f"timeout must be at most {MAX_TIMEOUT_S} s")
        if temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        # Checked here, so that a URL no request can use fails before the first one.
        try:
            url = urlsplit(endpoint_url)
            url.port  # raises ValueError unless the port is a number in range
        except ValueError as exc:
            raise ConfigError(f"endpoint_url {endpoint_url!r}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError("endpoint_url must be an http:// or https:// URL with a "
                              f"host, not {endpoint_url!r}")
        if "@" in url.netloc:
            raise ConfigError("endpoint_url must not carry user:password@; name the "
                              "API key's environment variable instead")
        if re.search(r"[\x00-\x20\x7f]", endpoint_url):
            raise ConfigError(f"endpoint_url {endpoint_url!r} contains a space or "
                              "control character")
        object.__setattr__(self, "endpoint_url", endpoint_url)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "timeout", timeout)
        object.__setattr__(self, "max_retries", max_retries)
        object.__setattr__(self, "api_key_source", api_key_source)


def _context(arm: str, ann: ValidatedAnnotations | None) -> ValidatedAnnotations | None:
    """The annotations the arm's prompt shows: ann for with-context (which
    needs them), None for without-context. An unknown arm is a ConfigError."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}")
    if arm == WITH_CONTEXT and ann is None:
        raise ConfigError("with-context prompt requested but no annotations given")
    return ann if arm == WITH_CONTEXT else None


def _pair_schema(table_a: TableSchema, table_b: TableSchema) -> ValidatedSchema:
    return validate_schema(DatabaseSchema("pair", (table_a, table_b)))


def build_integration_prompt(table_a: TableSchema, table_b: TableSchema,
                             ann: ValidatedAnnotations | None, arm: str) -> PromptBundle:
    """Header lists for both tables, optional header-group sentences, the
    matching task sentence, then the output-format directive."""
    ann = _context(arm, ann)
    pair = _pair_schema(table_a, table_b)
    parts = [emit_base_schema(pair, INPUT_ORDER).rstrip("\n")]
    if ann is not None:
        # From a list, for the reason evaluate._execute gives.
        groups = tuple([g for g in ann.header_groups
                        if g.table in (table_a.name, table_b.name)])
        if not groups:
            raise ConfigError("the annotations hold no header group of table "
                              f"{table_a.name!r} or {table_b.name!r}")
        local = validate_annotations(OntologyAnnotations((), groups), pair)
        parts.append(emit_contextual_schema(local).rstrip("\n"))
    parts.append(INTEGRATION_TASK_TEMPLATE.format(a=table_a.name, b=table_b.name))
    parts.append(MAPPING_DIRECTIVE_TEMPLATE.format(a=table_a.name, b=table_b.name))
    return PromptBundle(TASK_INTEGRATION, arm, "\n".join(parts))


def build_join_prompt(schema: ValidatedSchema, ann: ValidatedAnnotations | None,
                      goal: str = DEFAULT_JOIN_GOAL, arm: str = WITH_CONTEXT) -> PromptBundle:
    """Whole-database header listing in alphabetical order, optional
    contextual sentences, the goal sentence, then the SQL directive."""
    ann = _context(arm, ann)
    if not goal or not goal.strip():
        raise ConfigError("join goal must be nonempty")
    parts = [emit_base_schema(schema).rstrip("\n")]
    if ann is not None:
        context_text = emit_contextual_schema(ann).rstrip("\n")
        if not context_text:
            raise ConfigError("the annotations hold no context sentence")
        parts.append(context_text)
    parts.append(goal)
    parts.append(SQL_DIRECTIVE)
    return PromptBundle(TASK_JOINING, arm, "\n".join(parts))


def _retry_after(status: int, headers, cap: float) -> float | None:
    """The wait a 429 or 503 reply asks for in Retry-After (RFC 9110
    §10.2.3), at most cap; None for other replies, an HTTP-date or a
    malformed value. The name is found in any case. Only delta-seconds
    are read; float() takes any number of digits, where int() stops at 4300."""
    if status not in (429, 503):
        return None
    value = next((v for k, v in headers.items() if k.lower() == "retry-after"), "").strip()
    return min(float(value), cap) if value.isascii() and value.isdigit() else None


def unsendable_key(key: str) -> str | None:
    """What in key no Authorization header can carry, or None when one can:
    "CR or LF", which would end the header early, or "a character outside
    Latin-1", which has no byte in the header's encoding. The answer never
    shows the key."""
    if "\r" in key or "\n" in key:
        return "CR or LF"
    try:
        key.encode("latin-1")
    except UnicodeEncodeError:
        return "a character outside Latin-1"
    return None


class HttpChatClient:
    """Client for POST <endpoint>/chat/completions with bearer auth.

    Transport failures, timeouts and HTTP 429 and 5xx replies are retried
    with exponential backoff plus jitter, up to max_retries extra attempts.
    A 429 or 503 reply whose Retry-After gives delta-seconds waits that
    long instead, at most backoff_cap and the timeout. If the last attempt
    still gets such a reply, it is an ApiError with that status and body.
    Other error statuses are not retried, and a reply without string
    content, or one nested too deeply to read, is an ApiError. The
    credential is read from the environment variable named by the config
    and never logged.

    complete() returns the reply's message content. The request goes to
    the endpoint's path joined with /chat/completions, and the endpoint's
    query, if any, follows it.

    transport(url, payload, headers, timeout) -> (status, headers, body)
    sends one request. The default, comdb.wire.HttpTransport, keeps its
    connections open for later requests. A request on a connection the
    server closed while it was idle goes once more on a new one, which is
    not an attempt, and TCP_QUICKACK keeps a reply written in two sends
    from waiting on a delayed ACK. close() closes the idle connections, as
    does collecting the client. An API key that unsendable_key refuses is a
    TransportError before the first attempt, since no retry could send it.
    """

    backoff_base = 0.5
    backoff_cap = 8.0

    def __init__(self, config: ClientConfig, transport: Callable | None = None):
        self.config = config
        url = urlsplit(config.endpoint_url)
        self._url = url._replace(path=url.path.rstrip("/") + "/chat/completions",
                                 fragment="").geturl()
        if transport is None:
            from .wire import HttpTransport  # only live runs load the HTTP code

            transport = HttpTransport(config.endpoint_url)
            weakref.finalize(self, transport.close)
        self._transport = transport

    def close(self) -> None:
        """Close the idle connections of the transport, if it has a close().
        The client stays usable."""
        close = getattr(self._transport, "close", None)
        if close is not None:
            close()

    def api_key(self) -> str | None:
        """The key in the environment variable the config names, or None
        when it names none. An unset variable is a ConfigError."""
        source = self.config.api_key_source
        if not source:
            return None
        key = os.environ.get(source)
        if key is None:
            raise ConfigError(f"environment variable {source} is not set")
        return key

    def complete(self, bundle: PromptBundle, *, repetition: int = 0) -> str:
        headers = {"Content-Type": "application/json"}
        key = self.api_key()
        if key:
            fault = unsendable_key(key)
            if fault:
                raise TransportError(f"header Authorization contains {fault}")
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": bundle.user_text}],
            "temperature": self.config.temperature,
        }
        attempts = self.config.max_retries + 1
        wait = None
        for attempt in range(attempts):
            if attempt:
                if wait is None:
                    import random  # loaded on the first retry, so offline commands never pay

                    delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
                    wait = delay * (1 + random.random() * 0.25)
                time.sleep(wait)
            wait = None
            try:
                status, reply_headers, body = self._transport(self._url, payload, headers,
                                                              self.config.timeout)
            except (TransportError, Timeout):
                if attempt + 1 >= attempts:
                    raise
                continue
            if status != 429 and not 500 <= status <= 599:
                break
            wait = _retry_after(status, reply_headers,
                                min(self.backoff_cap, self.config.timeout))
        if not 200 <= status < 300:
            raise ApiError(status, body)
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise ApiError(status, body) from exc
        if not isinstance(content, str):
            raise ApiError(status, body)
        return content


class MockChatClient:
    """Scripted client: (task, arm, repetition) -> canned response text.

    Script records may omit the repetition index to cover every
    repetition; an exact-index record wins over such a wildcard. A record
    whose task or arm is not one comdb runs could never be used, so it is
    rejected with the malformed ones.
    """

    def __init__(self, records):
        self._responses = {}
        for i, record in enumerate(records):
            try:
                task, arm, text = record["task"], record["arm"], record["response"]
                if task not in (TASK_INTEGRATION, TASK_JOINING):
                    raise ValueError(f"unknown task {task!r}")
                if arm not in ARMS:
                    raise ValueError(f"unknown arm {arm!r}")
                if not isinstance(text, str) or type(record.get("repetition", 0)) is not int:
                    raise TypeError("'response' must be a string, 'repetition' an integer")
            except (TypeError, KeyError, ValueError) as exc:
                raise ConfigError(f"mock record {i} is malformed: {exc}") from exc
            self._responses[(task, arm, record.get("repetition"))] = text

    @classmethod
    def from_file(cls, path) -> "MockChatClient":
        try:
            data = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"mock script is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("mock script nests too deeply to read") from exc
        if not isinstance(data, list):
            raise ConfigError("mock script must be a JSON array of records")
        return cls(data)

    def complete(self, bundle: PromptBundle, *, repetition: int = 0) -> str:
        text = self._responses.get((bundle.task, bundle.arm, repetition))
        if text is None:
            text = self._responses.get((bundle.task, bundle.arm, None))
        if text is None:
            raise ConfigError(
                f"mock script has no response for ({bundle.task}, {bundle.arm}, "
                f"{repetition})")
        return text


# --- response parsing ---

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_SELECT_RE = re.compile("select", re.IGNORECASE)


@functools.lru_cache(maxsize=8)
def _vocabulary(headers: tuple[str, ...]) -> tuple[re.Pattern, dict]:
    """Header-matching regex and normalize_header -> header map, built once
    per header tuple; callers only read the returned dict."""
    canonical = {normalize_header(h): h for h in headers}
    alternatives = sorted((re.escape(h) for h in headers), key=len, reverse=True)
    pattern = re.compile(
        r"(?<![A-Za-z0-9_])(?:" + "|".join(alternatives) + r")(?![A-Za-z0-9_])",
        re.IGNORECASE)
    return pattern, canonical


def _resolve(tokens, canonical, line, warnings) -> list[str] | None:
    resolved = []
    for token in tokens:
        header = canonical.get(normalize_header(token))
        if header is None:
            warnings.append(f"unresolvable header {token.strip()!r} in line {line!r}")
            return None
        resolved.append(header)
    return resolved


def _fenced_entries(text, canon_a, canon_b, warnings) -> list[MappingEntry]:
    entries = []
    for block in _FENCE_RE.findall(text):
        for raw in block.splitlines():
            line = raw.strip()
            if not line:
                continue
            if "->" not in line:
                warnings.append(f"ignored line without '->': {line!r}")
                continue
            left, right = line.split("->", 1)
            sources = _resolve(left.split("+"), canon_a, line, warnings)
            targets = _resolve(right.split("+"), canon_b, line, warnings)
            if sources is None or targets is None:
                continue
            entries.append(MappingEntry(tuple(sources), tuple(targets)))
    return entries


_SENTENCE_SPLIT = re.compile(r"[.!?\n;]+")


def _headers_in(chunk, vocab, canonical) -> list[str]:
    """Headers named in chunk, once each, in order. re.IGNORECASE also matches
    text that no header equals under normalize_header (a dotless 'ı')."""
    found = []
    for m in vocab.finditer(chunk):
        header = canonical.get(normalize_header(m.group()))
        if header is not None and header not in found:
            found.append(header)
    return found


def _freeform_entries(text, vocab_a, canon_a, vocab_b, canon_b) -> list[MappingEntry]:
    entries = []
    for chunk in _SENTENCE_SPLIT.split(text):
        a_found = _headers_in(chunk, vocab_a, canon_a)
        b_found = len(a_found) == 1 and _headers_in(chunk, vocab_b, canon_b)
        if b_found:
            entries.append(MappingEntry(tuple(a_found), tuple(b_found)))
    return entries


def parse_mapping_response(text: str, table_a: TableSchema,
                           table_b: TableSchema) -> HeaderMapping:
    """Read a header mapping out of a model's answer text.

    Fenced ``A -> B`` lines are the primary channel; failing that, free
    text is scanned for sentences that pair exactly one known table-A
    header with known table-B headers. Unresolvable lines become warnings
    on the returned mapping. Raises NoMappingFound when neither channel
    yields an entry; never raises on weird text.
    """
    warnings: list[str] = []
    vocab_a, canon_a = _vocabulary(table_a.headers)
    vocab_b, canon_b = _vocabulary(table_b.headers)
    entries = _fenced_entries(text, canon_a, canon_b, warnings)
    if not entries:
        entries = _freeform_entries(text, vocab_a, canon_a, vocab_b, canon_b)
    entries, rejected = split_reused(entries)
    for entry, _, _ in rejected:
        warnings.append(f"dropped entry reusing already-mapped headers: "
                        f"{' + '.join(entry.source_headers)} -> "
                        f"{' + '.join(entry.target_headers)}")
    if not entries:
        raise NoMappingFound()
    return HeaderMapping(tuple(entries), table_a.name, table_b.name,
                         tuple(warnings))


def extract_sql(text: str) -> str:
    """First fenced code block of an answer text, else the span from the
    first SELECT to the last semicolon (or end of text). Raises NoSqlFound
    if neither exists."""
    for block in _FENCE_RE.findall(text):
        sql = block.strip()
        if sql:
            return sql
    match = _SELECT_RE.search(text)
    if match is None:
        raise NoSqlFound()
    tail = text[match.start():]
    semi = tail.rfind(";")
    if semi >= 0:
        tail = tail[:semi + 1]
    return tail.strip()
