"""Header correspondences between two tables.

An entry maps a set of source-table headers to a set of target-table
headers; one-to-many entries cover headers that must be combined or split
(e.g. one address field matching four address columns). The .map file
format is one entry per line, ``A-side -> B-side``, sides joined with
``+`` when they hold several headers; ``#`` starts a comment line.
"""

from __future__ import annotations

from .errors import ParseError
from .value import Value


def normalize_header(name: str) -> str:
    """Scorer-side normalization: strip and casefold, nothing smarter."""
    return name.strip().casefold()


def normalize_headers(names) -> frozenset[str]:
    """The set of normalize_header(n) for n in names, made in C-level passes."""
    return frozenset(map(str.casefold, map(str.strip, names)))


class MappingEntry(Value):
    __slots__ = ("source_headers", "target_headers")

    def __init__(self, source_headers: tuple[str, ...], target_headers: tuple[str, ...]):
        source_headers, target_headers = tuple(source_headers), tuple(target_headers)
        if not source_headers or not target_headers:
            raise ValueError("mapping entry needs headers on both sides")
        object.__setattr__(self, "source_headers", source_headers)
        object.__setattr__(self, "target_headers", target_headers)

    def normalized(self) -> tuple[frozenset, frozenset]:
        return normalize_headers(self.source_headers), normalize_headers(self.target_headers)


def split_reused(entries) -> tuple[list[MappingEntry], list[tuple[MappingEntry, str, str]]]:
    """Apply the rule that a header maps at most once per side.

    Walks the entries in order and keeps each one whose normalized headers
    no kept entry has claimed on the same side. Returns the kept entries
    and, for every other entry, ``(entry, side, header)`` naming the side
    ("source" or "target") and the first header it reuses.
    """
    kept, rejected = [], []
    seen_src, seen_tgt = set(), set()
    for entry in entries:
        src, tgt = entry.normalized()
        if src & seen_src:
            rejected.append((entry, "source", min(src & seen_src)))
        elif tgt & seen_tgt:
            rejected.append((entry, "target", min(tgt & seen_tgt)))
        else:
            seen_src |= src
            seen_tgt |= tgt
            kept.append(entry)
    return kept, rejected


class HeaderMapping(Value):
    __slots__ = ("entries", "source_table", "target_table", "warnings")
    _uncompared = ("warnings",)

    def __init__(self, entries: tuple[MappingEntry, ...], source_table: str | None = None,
                 target_table: str | None = None, warnings: tuple[str, ...] = ()):
        entries, warnings = tuple(entries), tuple(warnings)
        _, rejected = split_reused(entries)
        if rejected:
            _, side, header = rejected[0]
            raise ValueError(f"{side} header {header!r} appears in two entries")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "source_table", source_table)
        object.__setattr__(self, "target_table", target_table)
        object.__setattr__(self, "warnings", warnings)

    def __len__(self):
        return len(self.entries)


def parse_map_text(text: str, source_table: str | None = None,
                   target_table: str | None = None) -> HeaderMapping:
    entries, lines = [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ParseError("expected 'A-side -> B-side'", lineno)
        left, right = line.split("->", 1)
        sources = [h.strip() for h in left.split("+")]
        targets = [h.strip() for h in right.split("+")]
        if any(not h for h in sources + targets):
            raise ParseError("empty header name", lineno)
        entries.append(MappingEntry(tuple(sources), tuple(targets)))
        lines.append(lineno)
    if not entries:
        raise ParseError("no mapping entries found", 1)
    try:
        return HeaderMapping(tuple(entries), source_table, target_table)
    except ValueError as exc:
        # HeaderMapping refuses only a reused header: name the line reusing it.
        (entry, _, _), *_ = split_reused(entries)[1]
        lineno = next(n for e, n in zip(entries, lines) if e is entry)
        raise ParseError(str(exc), lineno) from exc

