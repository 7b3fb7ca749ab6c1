import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from comdb import nl
from comdb.errors import ParseError
from comdb.llm import ARMS, build_join_prompt
from comdb.nl import (
    ALPHABETICAL,
    INPUT_ORDER,
    StyleFlags,
    emit_base_schema,
    emit_contextual_schema,
    parse_base_schema,
    parse_contextual_schema,
)
from comdb.schema import (
    ContextRelation,
    DatabaseSchema,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    validate_annotations,
    validate_schema,
)

from conftest import NOT_LINE_BREAKS, data_text, rand_annotations, rand_schema

PREFIXED = StyleFlags(prefixed_header_groups=True, oxford_and=True)
BARE = StyleFlags(prefixed_header_groups=False, oxford_and=False)


def test_base_schema_golden(synthea_schema):
    assert emit_base_schema(synthea_schema, ALPHABETICAL) == \
        data_text("synthea_base_schema.txt")


def test_contextual_schema_golden(synthea_annotations):
    assert emit_contextual_schema(synthea_annotations) == \
        data_text("synthea_contextual_schema.txt")


def test_single_table_emission(synthea_schema):
    patients = synthea_schema.table("patients")
    schema = validate_schema(DatabaseSchema("one", (patients,)))
    text = emit_base_schema(schema)
    assert text.count("\n") == 1
    assert text.startswith("Given a table 'patients' with headers: Id, BIRTHDATE,")
    assert text.endswith("COUNTY.\n")


def test_table_ordering():
    schema = validate_schema(DatabaseSchema(
        "two", (TableSchema("b", ("x",)), TableSchema("a", ("y",)))))
    assert emit_base_schema(schema, INPUT_ORDER).splitlines()[0] == \
        "Given a table 'b' with headers: x."
    assert emit_base_schema(schema, ALPHABETICAL).splitlines()[0] == \
        "Given a table 'a' with headers: y."


def test_the_alphabetical_listing_is_rendered_once_per_witness(synthea_annotations):
    schema = validate_schema(synthea_annotations.schema.schema)
    ann = validate_annotations(synthea_annotations.annotations, schema)
    with mock.patch("comdb.nl._listing", wraps=nl._listing) as render:
        listing = emit_base_schema(schema)
        assert emit_base_schema(schema) is listing
        prompts = [build_join_prompt(schema, ann, arm=arm).user_text for arm in ARMS]
    render.assert_called_once()
    assert listing == data_text("synthea_base_schema.txt")
    assert all(p.startswith(listing) for p in prompts)


def test_unknown_order_rejected(synthea_schema):
    with pytest.raises(ValueError):
        emit_base_schema(synthea_schema, "random")


def _pair_annotations():
    schema = validate_schema(DatabaseSchema("p", (
        TableSchema("patients_A", ("Name", "Surname")),
        TableSchema("patients_B", ("ADDRESS", "CITY", "STATE", "COUNTY")),
    )))
    ann = OntologyAnnotations((), (
        HeaderContextGroup("patients_A", ("Name", "Surname"), "patients' name"),
        HeaderContextGroup("patients_B", ("ADDRESS", "CITY", "STATE", "COUNTY"),
                           "patients' address"),
    ))
    return validate_annotations(ann, schema)


def test_header_group_prefixed_oxford():
    lines = emit_contextual_schema(_pair_annotations(), PREFIXED).splitlines()
    assert lines[0] == ("In table 'patients_A', headers Name and Surname "
                       "are in the context of patients' name.")
    assert lines[1] == ("In table 'patients_B', headers ADDRESS, CITY, STATE, "
                       "and COUNTY are in the context of patients' address.")


def test_header_group_bare_plain():
    lines = emit_contextual_schema(_pair_annotations(), BARE).splitlines()
    assert lines[0] == "Name and Surname are in the context of patients' name."
    assert lines[1] == ("ADDRESS, CITY, STATE, COUNTY are in the context of "
                       "patients' address.")


def test_parse_base_schema_golden(synthea_schema):
    parsed = parse_base_schema(data_text("synthea_base_schema.txt"), name="synthea")
    assert parsed == synthea_schema.schema


@pytest.mark.parametrize("text, message", [
    ("Given a table patients with headers: Id.", "line 1: not a base-schema sentence"),
    ("Given a table 't' with headers: a, , b.", "line 1: empty header name"),
    ("\n  \n", "line 1: no base-schema sentences found"),
], ids=["missing-quotes", "empty-header", "no-sentences"])
def test_parse_base_schema_missing_quotes(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_base_schema(text)
    assert str(excinfo.value) == message


def test_parse_base_schema_wrong_lead():
    with pytest.raises(ParseError):
        parse_base_schema("And a table 'a' with headers: x.")


def test_parse_contextual_golden(synthea_annotations):
    parsed = parse_contextual_schema(data_text("synthea_contextual_schema.txt"))
    assert parsed == synthea_annotations.annotations


@pytest.mark.parametrize("text, message", [
    ("are in the context of patients.", "line 1: no 'are in the context of' clause"),
    (" are in the context of patients.", "line 1: empty side in context sentence"),
    ("a are in the context of b.\na are in the context of b",
     "line 2: sentence does not end with '.'"),
    ("A, , B are in the context of x.", "line 1: empty table name in relation"),
], ids=["no-clause", "empty-subject", "no-period", "empty-header"])
def test_parse_contextual_empty_subject(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_contextual_schema(text)
    assert str(excinfo.value) == message


def test_emission_deterministic(synthea_schema, synthea_annotations):
    assert emit_base_schema(synthea_schema) == emit_base_schema(synthea_schema)
    assert emit_contextual_schema(synthea_annotations) == \
        emit_contextual_schema(synthea_annotations)


@given(seed=st.integers(0, 2**32 - 1))
def test_base_round_trip(seed):
    schema = rand_schema(random.Random(seed))
    validated = validate_schema(schema)
    assert parse_base_schema(emit_base_schema(validated, INPUT_ORDER),
                             name=schema.name) == schema
    sorted_schema = DatabaseSchema(
        schema.name, tuple(sorted(schema.tables, key=lambda t: t.name)))
    assert parse_base_schema(emit_base_schema(validated, ALPHABETICAL),
                             name=schema.name) == sorted_schema


@given(seed=st.integers(0, 2**32 - 1), oxford=st.booleans())
def test_contextual_round_trip_prefixed(seed, oxford):
    rng = random.Random(seed)
    schema = rand_schema(rng)
    ann = rand_annotations(rng, schema)
    validated = validate_annotations(ann, validate_schema(schema))
    style = StyleFlags(prefixed_header_groups=True, oxford_and=oxford)
    text = emit_contextual_schema(validated, style)
    assert parse_contextual_schema(text) == ann


# A sentence without the "In table" prefix is a relation, whatever its
# table names hold: a space, a hyphen, or the word "and".
@pytest.mark.parametrize("name", ["my table", "t-2", "a and b"])
def test_relation_names_round_trip_as_written(name):
    schema = validate_schema(DatabaseSchema("db", (
        TableSchema(name, ("x",)), TableSchema("c", ("y",)), TableSchema("d", ("z",)))))
    ann = OntologyAnnotations((ContextRelation((name,), ("c", "d")),
                               ContextRelation(("c",), (name,))))
    text = emit_contextual_schema(validate_annotations(ann, schema))
    assert parse_contextual_schema(text) == ann


# A quoted table name is read up to the quote that closes its clause, so
# it may hold an apostrophe.
def test_a_table_name_holding_an_apostrophe_round_trips():
    schema = DatabaseSchema("db", (TableSchema("o'brien", ("a", "b")),
                                   TableSchema("c", ("x",)), TableSchema("d", ("y",))))
    ann = OntologyAnnotations(
        (ContextRelation(("o'brien",), ("c", "d")),),
        (HeaderContextGroup("o'brien", ("a", "b"), "o'brien's name"),))
    validated = validate_schema(schema)
    base = emit_base_schema(validated, INPUT_ORDER)
    assert base.startswith("Given a table 'o'brien' with headers: a, b.\n")
    assert parse_base_schema(base, name="db") == schema
    text = emit_contextual_schema(validate_annotations(ann, validated))
    assert parse_contextual_schema(text) == ann


# A sentence ends at LF alone, so the odd character may sit in any name.
@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_names_holding_a_unicode_line_break_round_trip(char):
    schema = DatabaseSchema("db", (TableSchema(f"t{char}a", (f"h{char}1", f"h{char}2", "x")),
                                   TableSchema(f"u{char}w", ("y",)), TableSchema("v", ("z",))))
    ann = OntologyAnnotations(
        (ContextRelation((f"u{char}w",), ("v",)),),
        (HeaderContextGroup(f"t{char}a", (f"h{char}1", f"h{char}2", "x"), f"c{char}d"),))
    validated = validate_schema(schema)
    assert parse_base_schema(emit_base_schema(validated, INPUT_ORDER), name="db") == schema
    text = emit_contextual_schema(validate_annotations(ann, validated))
    assert text.count("\n") == 2
    assert parse_contextual_schema(text) == ann


def test_crlf_text_parses_as_lf_text(synthea_schema, synthea_annotations):
    base = emit_base_schema(synthea_schema)
    context = emit_contextual_schema(synthea_annotations)
    assert parse_base_schema(base.replace("\n", "\r\n")) == parse_base_schema(base)
    assert parse_contextual_schema(context.replace("\n", "\r\n")) == \
        parse_contextual_schema(context)
