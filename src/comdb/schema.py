"""In-memory model of database schemas and context-of annotations.

Tables are names plus ordered header names, nothing else: no column types,
no keys, and deliberately no way to attach row data. Annotations relate
tables to tables (ContextRelation) or headers within one table to a free
text concept (HeaderContextGroup). Validation rejects two tables, or two
headers of one table, whose names are equal under
comdb.mapping.normalize_header (stripped and casefolded), the rule the
response parser and the scorer match names by. Names keep their spelling,
and annotation references must match it exactly.

Every type here is a slotted comdb.value.Value: immutable after
construction, equal and hashed by value, and with no room for an
attribute beyond its fields, so nothing can attach row data later.
Validation is a pure function, so values can be shared freely between
threads.
"""

from __future__ import annotations

from .errors import ConfigError
from .mapping import normalize_header, normalize_headers
from .value import Value


class TableSchema(Value):
    """One table: a name and its ordered header names."""

    __slots__ = ("name", "headers")

    def __init__(self, name: str, headers: tuple[str, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "headers", tuple(headers))


class DatabaseSchema(Value):
    __slots__ = ("name", "tables")

    def __init__(self, name: str, tables: tuple[TableSchema, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tables", tuple(tables))

    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)


class ContextRelation(Value):
    """Condensed table-level relation: every subject is in the context of
    every object."""

    __slots__ = ("subjects", "objects")

    def __init__(self, subjects: tuple[str, ...], objects: tuple[str, ...]):
        object.__setattr__(self, "subjects", tuple(subjects))
        object.__setattr__(self, "objects", tuple(objects))


class HeaderContextGroup(Value):
    """Two or more headers of one table sharing a concept, e.g. the four
    address columns in the context of "patients' address"."""

    __slots__ = ("table", "headers", "concept")

    def __init__(self, table: str, headers: tuple[str, ...], concept: str):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "headers", tuple(headers))
        object.__setattr__(self, "concept", concept)


class OntologyAnnotations(Value):
    __slots__ = ("table_relations", "header_groups")

    def __init__(self, table_relations: tuple[ContextRelation, ...] = (),
                 header_groups: tuple[HeaderContextGroup, ...] = ()):
        object.__setattr__(self, "table_relations", tuple(table_relations))
        object.__setattr__(self, "header_groups", tuple(header_groups))


_set_field = object.__setattr__


class DirectedContextPair(Value):
    __slots__ = ("subject", "object")

    def __init__(self, subject: str, object: str):
        # The parameter hides the builtin object here.
        _set_field(self, "subject", subject)
        _set_field(self, "object", object)


class ValidatedSchema(Value):
    """Witness that a DatabaseSchema passed validate_schema.

    Downstream operations (emission, prompt building, annotation checks)
    require this wrapper rather than a bare DatabaseSchema. The constructor
    builds an exact-match name index, so table() and has_table() cost O(1)
    each. The index is derived state: it takes no part in ==, hash, repr or
    pickling.
    """

    __slots__ = ("schema", "_by_name")
    _fields = ("schema",)

    def __init__(self, schema: DatabaseSchema):
        object.__setattr__(self, "schema", schema)
        # reversed, so the first table of a name wins, as a scan would
        object.__setattr__(self, "_by_name", {t.name: t for t in reversed(schema.tables)})

    def table(self, name: str) -> TableSchema:
        return self._by_name[name]

    def has_table(self, name: str) -> bool:
        return name in self._by_name

    @property
    def tables(self) -> tuple[TableSchema, ...]:
        return self.schema.tables


class ValidatedAnnotations(Value):
    """Witness that annotations resolve against a validated schema. Its
    repr leaves the schema out."""

    __slots__ = ("annotations", "schema")
    _hidden = ("schema",)

    def __init__(self, annotations: OntologyAnnotations, schema: ValidatedSchema):
        object.__setattr__(self, "annotations", annotations)
        object.__setattr__(self, "schema", schema)

    @property
    def table_relations(self) -> tuple[ContextRelation, ...]:
        return self.annotations.table_relations

    @property
    def header_groups(self) -> tuple[HeaderContextGroup, ...]:
        return self.annotations.header_groups


def _check_name(kind: str, name: str):
    if (not name or "\n" in name or "\r" in name or "," in name
            or (kind == "table" and "." in name)):
        raise ConfigError(f"invalid {kind} name {name!r}")


def validate_schema(schema: DatabaseSchema) -> ValidatedSchema:
    """Check every schema invariant and return the validation witness.

    Raises ConfigError for an empty schema, a table with no headers, two
    tables or two headers of one table whose names clash, or an invalid
    name; on success the returned wrapper vouches that none of these holds.
    Two names clash when they are equal under normalize_header. A name is
    invalid when empty or holding a CR, an LF or a list-separating comma;
    a table name also when holding ".", which ends the table part of a
    table.header reference.
    """
    if not schema.tables:
        raise ConfigError("schema contains no tables")
    seen_tables = set()
    for table in schema.tables:
        _check_name("table", table.name)
        key = normalize_header(table.name)
        if key in seen_tables:
            raise ConfigError(f"duplicate table name {table.name!r}")
        seen_tables.add(key)
        headers = table.headers
        if not headers:
            raise ConfigError(f"table {table.name!r} has no headers")
        # One test over all headers; only a table that fails it is walked
        # header by header, to name the first offender.
        joined = "".join(headers)
        if ("" in headers or "\n" in joined or "\r" in joined or "," in joined
                or len(normalize_headers(headers)) < len(headers)):
            seen_headers = set()
            for header in headers:
                _check_name("header", header)
                key = normalize_header(header)
                if key in seen_headers:
                    raise ConfigError(f"duplicate header {header!r} in table {table.name!r}")
                seen_headers.add(key)
    return ValidatedSchema(schema)


def validate_annotations(ann: OntologyAnnotations,
                         schema: ValidatedSchema) -> ValidatedAnnotations:
    """Resolve every annotation reference against the schema.

    Rejects unknown tables/headers, empty or duplicated relation sides,
    self-referential relations, and header groups of fewer than two
    headers or with an empty concept, each as a ConfigError.
    """
    unknown_table = "annotation references unknown table {!r}".format
    bad_group = "bad header group on table {!r}: {}".format
    known = schema._by_name.keys()
    for i, rel in enumerate(ann.table_relations):
        if not rel.subjects or not rel.objects:
            raise ConfigError(f"relation {i} has an empty subject or object list")
        # Set operations accept a relation with no repeat, no overlap and only
        # known tables. Any other is walked to name its first fault; when the
        # walk finds no repeat and no unknown table, the fault is an overlap.
        names = {*rel.subjects, *rel.objects}
        if len(names) == len(rel.subjects) + len(rel.objects) and known >= names:
            continue
        for side in (rel.subjects, rel.objects):
            seen = set()
            for name in side:
                if name in seen:
                    raise ConfigError(f"table {name!r} repeated within relation {i}")
                seen.add(name)
                if not schema.has_table(name):
                    raise ConfigError(unknown_table(name))
        overlap = min(set(rel.subjects) & set(rel.objects))
        raise ConfigError(f"table {overlap!r} appears on both sides of one relation")
    for group in ann.header_groups:
        if not schema.has_table(group.table):
            raise ConfigError(unknown_table(group.table))
        if len(group.headers) < 2:
            raise ConfigError(bad_group(group.table, "a header group needs at least two headers"))
        if not group.concept or "\n" in group.concept:
            raise ConfigError(bad_group(group.table, "concept must be a nonempty single line"))
        table = schema.table(group.table)
        seen = set()
        for header in group.headers:
            if header in seen:
                raise ConfigError(bad_group(group.table, f"header {header!r} repeated"))
            seen.add(header)
            if header not in table.headers:
                raise ConfigError(f"table {group.table!r} has no header {header!r}")
    return ValidatedAnnotations(ann, schema)


def expand_context_relation(rel: ContextRelation) -> list[DirectedContextPair]:
    """Expand the condensed form into subject-major directed pairs.

    A relation with S subjects and O objects yields exactly S*O pairs.
    """
    return [DirectedContextPair(s, o) for s in rel.subjects for o in rel.objects]
