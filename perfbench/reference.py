"""A reference operation that measures the host's speed, not comdb's.

On a shared host the machine's speed shifts by up to ~1.8x for minutes at
a time, so raw CPU times of one workload differ between runs by more than
any useful bound. The benchmark therefore runs this reference right after
every timed operation and reports the operation's CPU time in units of
the reference's. The reference does the kind of work comdb does on the
same inputs, with stdlib code only: it tokenizes the workload's DDL with
a regex and makes SQLite load the same schema from a database the
benchmark builds itself. Garbage collection is off while it runs, so
comdb's heap cannot change its cost.
"""

from __future__ import annotations

import gc
import re
import sqlite3
import time
from pathlib import Path
from urllib.parse import quote

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<comment>--[^\n]*)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<punct>[(),;])|(?P<other>\S)")
_CHARS_PER_OPERATION = 20_000    # small schemas are repeated up to this much text


class Reference:
    def __init__(self, ddl: Path, work: Path):
        self._text = ddl.read_text(encoding="utf-8")
        path = work / "reference.db"
        con = sqlite3.connect(path)
        try:
            con.executescript(f"BEGIN;\n{self._text}\nCOMMIT;")
            self._table = con.execute("SELECT name FROM sqlite_master LIMIT 1").fetchone()[0]
        finally:
            con.close()
        self._uri = "file:" + quote(str(path.resolve())) + "?mode=ro"
        self._repeats = max(1, _CHARS_PER_OPERATION // len(self._text))

    def _once(self):
        words = {m.group() for m in _TOKEN.finditer(self._text) if m.lastgroup == "word"}
        con = sqlite3.connect(self._uri, uri=True)
        try:
            con.execute(f'SELECT missing FROM "{self._table}"')
        except sqlite3.OperationalError:
            pass
        finally:
            con.close()
        return words

    def cpu_seconds(self) -> float:
        """Least CPU time of two reference operations."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                start = time.process_time()
                for _ in range(self._repeats):
                    self._once()
                best = min(best, time.process_time() - start)
            return best
        finally:
            if enabled:
                gc.enable()
