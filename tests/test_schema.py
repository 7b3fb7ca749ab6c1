import inspect
import random
import time

import pytest
from hypothesis import given, strategies as st

from comdb.errors import (
    DuplicateHeader,
    DuplicateTable,
    EmptySchema,
    EmptySide,
    EmptyTable,
    InvalidGroup,
    InvalidName,
    SelfContext,
    UnknownHeader,
    UnknownTable,
)
from comdb.mapping import normalize_header
from comdb.schema import (
    ContextRelation,
    DatabaseSchema,
    DirectedContextPair,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    expand_context_relation,
    validate_annotations,
    validate_schema,
)

from conftest import rand_schema


def table(name, *headers):
    return TableSchema(name, tuple(headers))


def test_validate_synthea_schema(synthea_schema):
    assert len(synthea_schema.tables) == 14
    assert synthea_schema.table("allergies").headers[:3] == ("Id", "START", "STOP")
    assert len(synthea_schema.table("patients").headers) == 18


def test_validate_empty_schema():
    with pytest.raises(EmptySchema):
        validate_schema(DatabaseSchema("x", ()))


def test_validate_duplicate_table():
    schema = DatabaseSchema("x", (table("patients", "Id"), table("patients", "Id")))
    with pytest.raises(DuplicateTable) as excinfo:
        validate_schema(schema)
    assert excinfo.value.table == "patients"


def test_validate_duplicate_header():
    with pytest.raises(DuplicateHeader) as excinfo:
        validate_schema(DatabaseSchema("x", (table("t", "Id", "Id"),)))
    assert (excinfo.value.table, excinfo.value.header) == ("t", "Id")


def test_validate_empty_table():
    with pytest.raises(EmptyTable):
        validate_schema(DatabaseSchema("x", (TableSchema("t", ()),)))


@pytest.mark.parametrize("bad", ["", "a\nb"])
def test_validate_bad_names(bad):
    with pytest.raises(InvalidName):
        validate_schema(DatabaseSchema("x", (table(bad, "Id"),)))
    with pytest.raises(InvalidName):
        validate_schema(DatabaseSchema("x", (table("t", bad),)))


def test_names_equal_under_normalization_rejected():
    # The response parser and the scorer match names casefolded, so 'Id'
    # and 'ID' in one table would be one header to them.
    with pytest.raises(DuplicateHeader) as excinfo:
        validate_schema(DatabaseSchema("x", (table("t", "Id", "ID"),)))
    assert (excinfo.value.table, excinfo.value.header) == ("t", "ID")
    with pytest.raises(DuplicateTable) as excinfo:
        validate_schema(DatabaseSchema("x", (table("a", "Id"), table("A", "Id"))))
    assert excinfo.value.table == "A"
    # Names keep their spelling once validated.
    schema = validate_schema(DatabaseSchema("x", (table("t", "Id", "iD_2"),)))
    assert schema.table("t").headers == ("Id", "iD_2")


def test_validate_annotations_ok(synthea_schema, synthea_annotations):
    assert len(synthea_annotations.table_relations) == 4


def test_unknown_table(synthea_schema):
    ann = OntologyAnnotations((ContextRelation(("providers",), ("visits",)),), ())
    with pytest.raises(UnknownTable) as excinfo:
        validate_annotations(ann, synthea_schema)
    assert excinfo.value.table == "visits"
    group = HeaderContextGroup("visits", ("START", "STOP"), "the visit's span")
    with pytest.raises(UnknownTable) as excinfo:
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)
    assert excinfo.value.table == "visits"


def test_unknown_header(synthea_schema):
    group = HeaderContextGroup("patients", ("ADDRESS", "ZIPCODE"), "patients' address")
    with pytest.raises(UnknownHeader) as excinfo:
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)
    assert (excinfo.value.table, excinfo.value.header) == ("patients", "ZIPCODE")


def test_self_context_rejected(synthea_schema):
    ann = OntologyAnnotations(
        (ContextRelation(("patients", "encounters"), ("encounters",)),), ())
    with pytest.raises(SelfContext):
        validate_annotations(ann, synthea_schema)


def test_empty_side_rejected(synthea_schema):
    ann = OntologyAnnotations((ContextRelation((), ("patients",)),), ())
    with pytest.raises(EmptySide) as excinfo:
        validate_annotations(ann, synthea_schema)
    assert excinfo.value.index == 0


def test_single_header_group_rejected(synthea_schema):
    group = HeaderContextGroup("patients", ("ADDRESS",), "patients' address")
    with pytest.raises(InvalidGroup):
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)


@pytest.mark.parametrize("headers, concept, reason", [
    (("ADDRESS", "CITY"), "patients'\naddress", "concept must be a nonempty single line"),
    (("ADDRESS", "CITY", "ADDRESS"), "patients' address", "header 'ADDRESS' repeated"),
], ids=["multiline-concept", "repeated-header"])
def test_bad_header_group_rejected(synthea_schema, headers, concept, reason):
    group = HeaderContextGroup("patients", headers, concept)
    with pytest.raises(InvalidGroup) as excinfo:
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)
    assert excinfo.value.reason == reason


def test_duplicate_in_relation_rejected(synthea_schema):
    ann = OntologyAnnotations(
        (ContextRelation(("patients", "patients"), ("encounters",)),), ())
    with pytest.raises(InvalidGroup):
        validate_annotations(ann, synthea_schema)


def test_expand_single_pair():
    pairs = expand_context_relation(ContextRelation(("providers",), ("organizations",)))
    assert pairs == [DirectedContextPair("providers", "organizations")]


def test_expand_eight_by_two(synthea_annotations):
    rel = synthea_annotations.table_relations[0]
    pairs = expand_context_relation(rel)
    assert len(rel.subjects) == 8 and len(rel.objects) == 2
    assert len(pairs) == 16
    assert pairs[0] == DirectedContextPair("allergies", "patients")
    assert pairs[-1] == DirectedContextPair("imaging_studies", "encounters")


def test_expand_all_synthea_relations(synthea_annotations):
    # brute-force oracle: enumerate subject x object by hand
    expected = []
    for rel in synthea_annotations.table_relations:
        for subject in rel.subjects:
            for obj in rel.objects:
                expected.append((subject, obj))
    got = [
        (p.subject, p.object)
        for rel in synthea_annotations.table_relations
        for p in expand_context_relation(rel)
    ]
    assert len(got) == 16 + 4 + 3 + 1 == 24
    assert got == expected


def test_expand_deterministic(synthea_annotations):
    rel = synthea_annotations.table_relations[1]
    assert expand_context_relation(rel) == expand_context_relation(rel)


_names = st.lists(st.text(alphabet="abcdefgh_", min_size=1, max_size=6),
                  min_size=1, max_size=5, unique=True)


@given(subjects=_names, objects=_names)
def test_expansion_cardinality_property(subjects, objects):
    rel = ContextRelation(tuple(subjects), tuple(objects))
    pairs = expand_context_relation(rel)
    assert len(pairs) == len(subjects) * len(objects)
    # subject-major ordering
    assert [p.subject for p in pairs[:len(objects)]] == [subjects[0]] * len(objects)


@given(seed=st.integers(0, 2**32 - 1))
def test_validation_soundness(seed):
    rng = random.Random(seed)
    schema = rand_schema(rng)
    validated = validate_schema(schema)
    names = [t.name for t in validated.tables]
    assert len(set(names)) == len(names)
    for t in validated.tables:
        assert t.headers
        assert len(set(t.headers)) == len(t.headers)


def _first_bad_header(table):
    """The per-header walk validate_schema does without its bulk test."""
    seen = set()
    for header in table.headers:
        if not header or "\n" in header or "\r" in header:
            return InvalidName, header
        key = normalize_header(header)
        if key in seen:
            return DuplicateHeader, header
        seen.add(key)
    return None


@given(headers=st.lists(st.sampled_from(
    ["Id", "ID", " id", "Name", "name ", "", "a\nb", "c\r", "Zip", "ZİP", "ß", "SS"]),
    min_size=1, max_size=6))
def test_bulk_header_check_names_first_offender(headers):
    t = table("t", *headers)
    want = _first_bad_header(t)
    if want is None:
        assert validate_schema(DatabaseSchema("x", (t,))).tables == (t,)
        return
    with pytest.raises(want[0]) as excinfo:
        validate_schema(DatabaseSchema("x", (t,)))
    err = excinfo.value
    assert (err.header if want[0] is DuplicateHeader else err.name) == want[1]


def test_table_lookup_is_exact(synthea_schema):
    assert synthea_schema.has_table("patients")
    assert synthea_schema.table("patients").name == "patients"
    for variant in ("Patients", "PATIENTS", " patients", "patients ", "patient"):
        assert not synthea_schema.has_table(variant)
        with pytest.raises(KeyError):
            synthea_schema.table(variant)


def test_table_lookup_agrees_with_linear_scan():
    rng = random.Random(3)
    schema = validate_schema(DatabaseSchema("db", tuple(
        table(f"t{i}_{rng.randrange(10**6)}", "a", "b") for i in range(300))))
    probes = [t.name for t in schema.tables] + [t.name.upper() for t in schema.tables[:20]]
    probes += [f"t{rng.randrange(400)}_{rng.randrange(10**6)}" for _ in range(200)]
    for name in probes:
        scan = [t for t in schema.tables if t.name == name]
        assert schema.has_table(name) == bool(scan)
        if scan:
            assert schema.table(name) is scan[0]
        else:
            with pytest.raises(KeyError):
                schema.table(name)


def test_validate_annotations_is_linear_at_scale():
    # 5000 tables and 5000 relations naming 6 tables each. A name lookup
    # that scans every table takes seconds here; an index takes about
    # 10 ms, so the budget leaves room for a host several times slower.
    rng = random.Random(0)
    schema = validate_schema(DatabaseSchema("db", tuple(
        table(f"table_{i}", "h0", "h1", "h2") for i in range(5000))))
    names = [t.name for t in schema.tables]
    relations = []
    for _ in range(5000):
        picked = rng.sample(names, 6)
        relations.append(ContextRelation(tuple(picked[:3]), tuple(picked[3:])))
    ann = OntologyAnnotations(tuple(relations), ())
    budget_s = 0.25
    for _ in range(3):
        fresh = validate_schema(schema.schema)
        start = time.perf_counter()
        validated = validate_annotations(ann, fresh)
        elapsed = time.perf_counter() - start
        if elapsed < budget_s:
            break
    assert validated.table_relations == ann.table_relations
    assert elapsed < budget_s


def test_no_row_data_representable():
    # construction surface accepts names only
    assert set(inspect.signature(TableSchema).parameters) == {"name", "headers"}
    assert set(inspect.signature(DatabaseSchema).parameters) == {"name", "tables"}
    # and no other attribute can be attached afterwards, not even past the
    # frozen guard
    for value in (table("t", "Id"), DatabaseSchema("d", (table("t", "Id"),))):
        for setter in (setattr, object.__setattr__):
            with pytest.raises(AttributeError):
                setter(value, "rows", [("1",)])
        assert not hasattr(value, "rows")
