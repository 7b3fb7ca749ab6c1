import inspect
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from comdb.errors import ComdbError, ConfigError
from comdb.mapping import normalize_header, normalize_headers
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

from conftest import raises_exactly, rand_schema


def table(name, *headers):
    return TableSchema(name, tuple(headers))


def test_validate_synthea_schema(synthea_schema):
    assert len(synthea_schema.tables) == 14
    assert synthea_schema.table("allergies").headers[:3] == ("Id", "START", "STOP")
    assert len(synthea_schema.table("patients").headers) == 18


def test_validate_empty_schema():
    with raises_exactly(ConfigError, "schema contains no tables"):
        validate_schema(DatabaseSchema("x", ()))


def test_validate_duplicate_table():
    schema = DatabaseSchema("x", (table("patients", "Id"), table("patients", "Id")))
    with raises_exactly(ConfigError, "duplicate table name 'patients'"):
        validate_schema(schema)


def test_validate_duplicate_header():
    with raises_exactly(ConfigError, "duplicate header 'Id' in table 't'"):
        validate_schema(DatabaseSchema("x", (table("t", "Id", "Id"),)))


def test_validate_empty_table():
    with raises_exactly(ConfigError, "table 't' has no headers"):
        validate_schema(DatabaseSchema("x", (TableSchema("t", ()),)))


@pytest.mark.parametrize("bad", ["", "a\nb", "a,b", "a.b"])
def test_validate_bad_names(bad):
    with raises_exactly(ConfigError, f"invalid table name {bad!r}"):
        validate_schema(DatabaseSchema("x", (table(bad, "Id"),)))
    if bad == "a.b":
        # Only a table name may not hold "."; "t.a.b" reads as header "a.b".
        assert validate_schema(DatabaseSchema("x", (table("t", bad),))).table("t").headers == (
            bad,)
        return
    with raises_exactly(ConfigError, f"invalid header name {bad!r}"):
        validate_schema(DatabaseSchema("x", (table("t", bad),)))


def test_names_equal_under_normalization_rejected():
    # The response parser and the scorer match names casefolded, so 'Id'
    # and 'ID' in one table would be one header to them.
    with raises_exactly(ConfigError, "duplicate header 'ID' in table 't'"):
        validate_schema(DatabaseSchema("x", (table("t", "Id", "ID"),)))
    with raises_exactly(ConfigError, "duplicate table name 'A'"):
        validate_schema(DatabaseSchema("x", (table("a", "Id"), table("A", "Id"))))
    # Names keep their spelling once validated.
    schema = validate_schema(DatabaseSchema("x", (table("t", "Id", "iD_2"),)))
    assert schema.table("t").headers == ("Id", "iD_2")


def test_validate_annotations_ok(synthea_schema, synthea_annotations):
    assert len(synthea_annotations.table_relations) == 4


def test_unknown_table(synthea_schema):
    ann = OntologyAnnotations((ContextRelation(("providers",), ("visits",)),), ())
    with raises_exactly(ConfigError, "annotation references unknown table 'visits'"):
        validate_annotations(ann, synthea_schema)
    group = HeaderContextGroup("visits", ("START", "STOP"), "the visit's span")
    with raises_exactly(ConfigError, "annotation references unknown table 'visits'"):
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)


def test_unknown_header(synthea_schema):
    group = HeaderContextGroup("patients", ("ADDRESS", "ZIPCODE"), "patients' address")
    with raises_exactly(ConfigError, "table 'patients' has no header 'ZIPCODE'"):
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)


def test_self_context_rejected(synthea_schema):
    ann = OntologyAnnotations(
        (ContextRelation(("patients", "encounters"), ("encounters",)),), ())
    with raises_exactly(ConfigError, "table 'encounters' appears on both sides of one relation"):
        validate_annotations(ann, synthea_schema)


def test_empty_side_rejected(synthea_schema):
    ann = OntologyAnnotations((ContextRelation((), ("patients",)),), ())
    with raises_exactly(ConfigError, "relation 0 has an empty subject or object list"):
        validate_annotations(ann, synthea_schema)


def test_single_header_group_rejected(synthea_schema):
    group = HeaderContextGroup("patients", ("ADDRESS",), "patients' address")
    with raises_exactly(ConfigError, "bad header group on table 'patients': "
                                     "a header group needs at least two headers"):
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)


@pytest.mark.parametrize("headers, concept, reason", [
    (("ADDRESS", "CITY"), "patients'\naddress", "concept must be a nonempty single line"),
    (("ADDRESS", "CITY", "ADDRESS"), "patients' address", "header 'ADDRESS' repeated"),
], ids=["multiline-concept", "repeated-header"])
def test_bad_header_group_rejected(synthea_schema, headers, concept, reason):
    group = HeaderContextGroup("patients", headers, concept)
    with raises_exactly(ConfigError, f"bad header group on table 'patients': {reason}"):
        validate_annotations(OntologyAnnotations((), (group,)), synthea_schema)


def test_duplicate_in_relation_rejected(synthea_schema):
    ann = OntologyAnnotations(
        (ContextRelation(("patients", "patients"), ("encounters",)),), ())
    with raises_exactly(ConfigError, "table 'patients' repeated within relation 0"):
        validate_annotations(ann, synthea_schema)


_ABCD = validate_schema(DatabaseSchema("abcd", tuple(
    table(name, "x", "y", "z") for name in "abcd")))
_GOOD = ContextRelation(("a",), ("b",))


# Annotations with two faults, in one relation or across relations and
# groups: validation names the first one a walk in order meets. Subjects
# are walked before objects, each name checked for a repeat and then for
# its table, and the overlap of the sides is checked last.
@pytest.mark.parametrize("relations, groups, message", [
    ([(("a", "a", "q"), ("b",))], [], "table 'a' repeated within relation 0"),
    ([(("q", "a", "a"), ("b",))], [],
     "annotation references unknown table 'q'"),
    ([(("a", "b"), ("b", "q"))], [],
     "annotation references unknown table 'q'"),
    ([(("a", "q"), ("b", "b"))], [],
     "annotation references unknown table 'q'"),
    ([(("a",), ("b", "b", "q"))], [], "table 'b' repeated within relation 0"),
    ([(("c", "b", "a"), ("b", "a"))], [],
     "table 'a' appears on both sides of one relation"),
    ([(("a", "b"), ("c", "a", "a"))], [], "table 'a' repeated within relation 0"),
    ([((), ("q",))], [], "relation 0 has an empty subject or object list"),
    ([(("q", "q"), ())], [], "relation 0 has an empty subject or object list"),
    ([_GOOD, (("a",), ())], [], "relation 1 has an empty subject or object list"),
    ([(("a",), ("a",)), (("q",), ("b",))], [],
     "table 'a' appears on both sides of one relation"),
    ([_GOOD, (("c", "d", "c"), ("q",))], [],
     "table 'c' repeated within relation 1"),
    ([(("q",), ("b",))], [("r", ("x", "y"), "c")],
     "annotation references unknown table 'q'"),
    ([(("a",), ("a",))], [("a", ("x",), "c")],
     "table 'a' appears on both sides of one relation"),
    ([_GOOD], [("a", ("x", "w"), "c"), ("r", ("x", "y"), "c")],
     "table 'a' has no header 'w'"),
    ([_GOOD], [("a", ("x", "x", "w"), "c")],
     "bad header group on table 'a': header 'x' repeated"),
    ([_GOOD], [("a", ("w", "x", "x"), "c")],
     "table 'a' has no header 'w'"),
    ([_GOOD], [("a", ("w",), "")],
     "bad header group on table 'a': a header group needs at least two headers"),
], ids=["repeat-then-unknown", "unknown-then-repeat", "overlap-then-unknown-object",
        "unknown-subject-then-repeated-objects", "repeated-object-then-unknown",
        "overlap-of-two", "overlap-then-repeat", "empty-subjects", "empty-objects",
        "empty-side-after-good", "overlap-before-unknown-relation",
        "repeat-in-second-relation", "bad-relation-then-bad-group",
        "overlap-then-short-group", "unknown-header-then-unknown-table",
        "repeated-header-then-unknown", "unknown-header-then-repeat", "short-group"])
def test_validate_annotations_names_the_first_offender(relations, groups, message):
    ann = OntologyAnnotations(
        tuple(r if isinstance(r, ContextRelation) else ContextRelation(*r)
              for r in relations),
        tuple(HeaderContextGroup(*g) for g in groups))
    with pytest.raises(ConfigError) as excinfo:
        validate_annotations(ann, _ABCD)
    assert type(excinfo.value) is ConfigError
    assert str(excinfo.value) == message


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
    """The per-header walk validate_schema does without its bulk test: the
    message for the first offending header, or None."""
    seen = set()
    for header in table.headers:
        if not header or "\n" in header or "\r" in header or "," in header:
            return f"invalid header name {header!r}"
        key = normalize_header(header)
        if key in seen:
            return f"duplicate header {header!r} in table {table.name!r}"
        seen.add(key)
    return None


@given(headers=st.lists(st.sampled_from(
    ["Id", "ID", " id", "Name", "name ", "", "a\nb", "c\r", "a,b", "h.x", "Zip", "ZİP", "ß",
     "SS"]),
    min_size=1, max_size=6))
def test_bulk_header_check_names_first_offender(headers):
    t = table("t", *headers)
    want = _first_bad_header(t)
    if want is None:
        assert validate_schema(DatabaseSchema("x", (t,))).tables == (t,)
        return
    with raises_exactly(ConfigError, want):
        validate_schema(DatabaseSchema("x", (t,)))


# Text rich in what strip and casefold treat specially: ß and the ligature
# ﬁ casefold to two letters, İ to i and a combining dot, and the ideographic
# space and the separators \x1c-\x1f are whitespace that strip removes.
_FOLDING_TEXT = st.lists(st.one_of(
    st.characters(), st.sampled_from(["ß", "SS", "İ", "i̇", "ﬁ", "FI", "　", "\x1c", "\x1d",
                                      "\x1e", "\x1f", " ", "\t", "\xa0", "ς", "Σ"]))).map("".join)


@example(["ß", "SS", "ss", " İ", "i̇ ", "ﬁ", "FI", "　x\x1c", "X\x1f", "\x1d\x1e"])
@given(st.lists(_FOLDING_TEXT))
def test_bulk_normalizer_equals_normalize_header(names):
    assert normalize_headers(names) == {normalize_header(h) for h in names}
    assert type(normalize_headers(names)) is frozenset


def _outcome(validate, *args):
    try:
        validate(*args)
    except ComdbError as err:
        return type(err), str(err)
    return None


def _walk_schema(schema):
    """validate_schema as a walk over every name in order, with no bulk test."""
    if not schema.tables:
        raise ConfigError("schema contains no tables")
    seen_tables = set()
    for t in schema.tables:
        if not t.name or "\n" in t.name or "\r" in t.name or "," in t.name or "." in t.name:
            raise ConfigError(f"invalid table name {t.name!r}")
        if normalize_header(t.name) in seen_tables:
            raise ConfigError(f"duplicate table name {t.name!r}")
        seen_tables.add(normalize_header(t.name))
        if not t.headers:
            raise ConfigError(f"table {t.name!r} has no headers")
        if (bad := _first_bad_header(t)) is not None:
            raise ConfigError(bad)


_NAMES = st.sampled_from(["a", "A", " a", "b", "ß", "SS", "", "x\ny", "c\r", "a,b", "a.b", "ﬁ",
                          "FI"])


@given(st.lists(st.tuples(_NAMES, st.lists(_NAMES, max_size=4)), max_size=4))
def test_validate_schema_raises_as_a_walk_does(tables):
    schema = DatabaseSchema("db", tuple(table(name, *headers) for name, headers in tables))
    assert _outcome(validate_schema, schema) == _outcome(_walk_schema, schema)


def _walk_relations(ann, schema):
    """validate_annotations' relation checks as a walk, with no set test."""
    for i, rel in enumerate(ann.table_relations):
        if not rel.subjects or not rel.objects:
            raise ConfigError(f"relation {i} has an empty subject or object list")
        for side in (rel.subjects, rel.objects):
            seen = set()
            for name in side:
                if name in seen:
                    raise ConfigError(f"table {name!r} repeated within relation {i}")
                seen.add(name)
                if not schema.has_table(name):
                    raise ConfigError(f"annotation references unknown table {name!r}")
        overlap = set(rel.subjects) & set(rel.objects)
        if overlap:
            raise ConfigError(f"table {min(overlap)!r} appears on both sides of one relation")


_SIDES = st.lists(st.sampled_from(["a", "b", "c", "d", "q", "A"]), max_size=4).map(tuple)


@given(st.lists(st.tuples(_SIDES, _SIDES), max_size=4))
def test_validate_annotations_raises_as_a_walk_does(relations):
    ann = OntologyAnnotations(tuple(ContextRelation(*r) for r in relations), ())
    assert (_outcome(validate_annotations, ann, _ABCD)
            == _outcome(_walk_relations, ann, _ABCD))


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
