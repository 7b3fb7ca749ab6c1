"""Span recording around comdb's public functions, for the traced run.

Each layer's public function is wrapped at the module attribute its caller
resolves (for example `comdb.cli.parse_ddl`, because `cmd_run` looks the
name up in `comdb.cli`). comdb's own files are never edited. A span holds
its name, start, end, parent span and the operation it belongs to; spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

# (span name, module, attribute path). The attribute is the one the caller
# on the workload's path resolves; several callers may resolve one layer.
TARGETS = (
    ("cli.main", "comdb.cli", "main"),
    ("cli.build_parser", "comdb.cli", "build_parser"),
    ("ingest.parse_ddl", "comdb.cli", "parse_ddl"),
    ("ingest.parse_fixture", "comdb.cli", "parse_fixture"),
    ("ingest.parse_annotations", "comdb.cli", "parse_annotations"),
    ("ingest.build_database", "comdb.cli", "build_database"),
    ("schema.validate_schema", "comdb.cli", "validate_schema"),
    ("schema.validate_schema", "comdb.ingest", "validate_schema"),
    ("schema.validate_schema", "comdb.llm", "validate_schema"),
    ("schema.validate_annotations", "comdb.cli", "validate_annotations"),
    ("schema.validate_annotations", "comdb.llm", "validate_annotations"),
    ("nl.emit_base_schema", "comdb.llm", "emit_base_schema"),
    ("nl.emit_contextual_schema", "comdb.llm", "emit_contextual_schema"),
    ("llm.build_join_prompt", "comdb.llm", "build_join_prompt"),
    ("llm.build_integration_prompt", "comdb.llm", "build_integration_prompt"),
    ("llm.complete", "comdb.llm", "MockChatClient.complete"),
    ("llm.complete", "comdb.llm", "HttpChatClient.complete"),
    ("llm.parse_mapping_response", "comdb.llm", "parse_mapping_response"),
    ("llm.extract_sql", "comdb.llm", "extract_sql"),
    ("mapping.parse_map_text", "comdb.cli", "parse_map_text"),
    ("evaluate.score_mapping", "comdb.evaluate", "score_mapping"),
    ("evaluate.execute_sql", "comdb.evaluate", "execute_sql"),
    ("evaluate.run_experiment", "comdb.cli", "run_experiment"),
    ("evaluate.render_report", "comdb.cli", "render_report"),
)


class Tracer:
    """Records spans from any thread. A span opened on a thread with no
    open span of its own (a runner worker) takes as parent the innermost
    span open on the thread that installed the tracer."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start_ns, end_ns, op, target)
        self.op = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, target: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, tracer.op, target))

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target; a missing attribute is a hard error."""
        for name, module_name, attr in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                self.uninstall()
                raise LookupError(f"layer {name}: {module_name}.{attr} no longer exists")
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, f"{module_name}.{attr}", original))

    def uninstall(self):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, op, target in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "op": op,
                                     "target": target}) + "\n")


def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    covered, reach = 0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


def self_times_ns(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    children = {}
    for span_id, parent, _name, start, end, _op, _target in spans:
        children.setdefault(parent, []).append((start, end))
    return {span_id: (end - start) - _covered_ns(start, end, children.get(span_id, ()))
            for span_id, _parent, _name, start, end, _op, _target in spans}
