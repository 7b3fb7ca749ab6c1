"""Render schemas and annotations as natural-language sentences, and back.

Base schema form, one sentence per line, LF endings:

    Given a table 'allergies' with headers: Id, START, STOP, ...
    And a table 'careplans' with headers: Id, START, STOP, ...

Contextual schema form:

    encounters are in the context of patients, organizations, providers, payers.
    In table 'patients_B', headers ADDRESS, CITY, STATE, and COUNTY are in the context of patients' address.

Table relations always use plain comma lists. Header groups are styled by
StyleFlags: with the "In table" prefix or bare, and with or without the
Oxford "and" before the last of three-plus headers (two headers always
join with "and"). StyleFlags is part of this module's API; the CLI and the
runner render the default style. When parsing back, a line ends at LF and
nowhere else. A quoted table name may hold an apostrophe: it is read up
to the first "' with headers: " or "', headers ". A line with the "In
table" prefix is a header group; every other line is a table relation
whose comma-separated names are taken as written. Bare header groups are
written but not read back.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .schema import (
    ContextRelation,
    DatabaseSchema,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    ValidatedAnnotations,
    ValidatedSchema,
)
from .value import Value

INPUT_ORDER = "input-order"
ALPHABETICAL = "alphabetical"


class StyleFlags(Value):
    __slots__ = ("prefixed_header_groups", "oxford_and")

    def __init__(self, prefixed_header_groups: bool = True, oxford_and: bool = True):
        object.__setattr__(self, "prefixed_header_groups", prefixed_header_groups)
        object.__setattr__(self, "oxford_and", oxford_and)


DEFAULT_STYLE = StyleFlags()


def _header_list(headers, oxford_and: bool) -> str:
    # A validated header group holds at least two headers.
    if len(headers) == 2:
        return f"{headers[0]} and {headers[1]}"
    if oxford_and:
        return ", ".join(headers[:-1]) + f", and {headers[-1]}"
    return ", ".join(headers)


def emit_base_schema(schema: ValidatedSchema, order: str = ALPHABETICAL) -> str:
    """One sentence per table; the first opens with "Given", the rest with
    "And". Alphabetical order sorts tables by name bytewise ascending. The
    alphabetical listing is rendered once per witness and kept in it, so
    every later call returns that same string."""
    if order == INPUT_ORDER:
        return _listing(schema.tables)
    if order != ALPHABETICAL:
        raise ValueError(f"unknown order {order!r}")
    if schema._listing is None:
        object.__setattr__(schema, "_listing",
                           _listing(sorted(schema.tables, key=lambda t: t.name)))
    return schema._listing


def _listing(tables) -> str:
    lines = []
    for i, table in enumerate(tables):
        lead = "Given" if i == 0 else "And"
        lines.append(f"{lead} a table '{table.name}' with headers: "
                     f"{', '.join(table.headers)}.")
    return "\n".join(lines) + "\n"


def emit_contextual_schema(ann: ValidatedAnnotations,
                           style: StyleFlags = DEFAULT_STYLE) -> str:
    """Table relations first, then header groups, preserving list order."""
    lines = []
    for rel in ann.table_relations:
        lines.append(f"{', '.join(rel.subjects)} are in the context of "
                     f"{', '.join(rel.objects)}.")
    for group in ann.header_groups:
        hl = _header_list(group.headers, style.oxford_and)
        if style.prefixed_header_groups:
            lines.append(f"In table '{group.table}', headers {hl} "
                         f"are in the context of {group.concept}.")
        else:
            lines.append(f"{hl} are in the context of {group.concept}.")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


_BASE_LINE = re.compile(
    r"^(?P<lead>Given|And) a table '(?P<name>.+?)' with headers: (?P<headers>.+)\.$")


def parse_base_schema(text: str, name: str = "database") -> DatabaseSchema:
    """Inverse of emit_base_schema. The schema name is not encoded in the
    sentences, so the caller supplies it."""
    tables = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            continue
        m = _BASE_LINE.match(line)
        if m is None:
            raise ParseError("not a base-schema sentence", lineno)
        expected_lead = "Given" if not tables else "And"
        if m.group("lead") != expected_lead:
            raise ParseError(f"expected sentence to open with {expected_lead!r}",
                             lineno, expected=expected_lead)
        headers = [h.strip() for h in m.group("headers").split(",")]
        if any(not h for h in headers):
            raise ParseError("empty header name", lineno)
        tables.append(TableSchema(m.group("name"), tuple(headers)))
    if not tables:
        raise ParseError("no base-schema sentences found", 1)
    return DatabaseSchema(name, tuple(tables))


_PREFIXED_GROUP = re.compile(
    r"^In table '(?P<table>.+?)', headers (?P<headers>.+?) "
    r"are in the context of (?P<concept>.+)\.$")
_CONTEXT_SEP = " are in the context of "


def _split_header_list(text: str) -> list[str]:
    # Inverts _header_list: "A and B", "A, B, and C", or "A, B, C".
    if ", and " in text:
        head, last = text.rsplit(", and ", 1)
        return [p.strip() for p in head.split(",")] + [last.strip()]
    if ", " not in text and " and " in text:
        a, b = text.split(" and ", 1)
        return [a.strip(), b.strip()]
    return [p.strip() for p in text.split(",")]


def parse_contextual_schema(text: str) -> OntologyAnnotations:
    """Inverse of emit_contextual_schema for prefixed header groups."""
    relations = []
    groups = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            continue
        m = _PREFIXED_GROUP.match(line)
        if m is not None:
            headers = _split_header_list(m.group("headers"))
            groups.append(HeaderContextGroup(m.group("table"), tuple(headers),
                                             m.group("concept")))
            continue
        if not line.endswith("."):
            raise ParseError("sentence does not end with '.'", lineno)
        body = line[:-1]
        if _CONTEXT_SEP not in body:
            raise ParseError("no 'are in the context of' clause", lineno)
        left, right = body.split(_CONTEXT_SEP, 1)
        if not left.strip() or not right.strip():
            raise ParseError("empty side in context sentence", lineno)
        subjects = [p.strip() for p in left.split(",")]
        objects = [p.strip() for p in right.split(",")]
        if "" in subjects or "" in objects:
            raise ParseError("empty table name in relation", lineno)
        relations.append(ContextRelation(tuple(subjects), tuple(objects)))
    return OntologyAnnotations(tuple(relations), tuple(groups))
