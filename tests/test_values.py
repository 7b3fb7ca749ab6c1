"""The contract every comdb value type keeps: immutable, equal and hashed by
value, with dataclass-style repr text, list arguments stored as tuples,
constructor validation, and copy/pickle round trips."""

import copy
import math
import pickle

import pytest

from comdb.errors import ConfigError
from comdb.evaluate import MappingScore, SqlValidationReport
from comdb.llm import ClientConfig, PromptBundle
from comdb.mapping import HeaderMapping, MappingEntry
from comdb.nl import StyleFlags, emit_base_schema
from comdb.schema import (
    ContextRelation,
    DatabaseSchema,
    DirectedContextPair,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    ValidatedAnnotations,
    ValidatedSchema,
    validate_annotations,
    validate_schema,
)


def _schema():
    return DatabaseSchema("db", [TableSchema("a", ["Id", "X"]), TableSchema("b", ["Id"])])


def _annotations():
    return OntologyAnnotations([ContextRelation(["a"], ["b"])],
                               [HeaderContextGroup("a", ["Id", "X"], "key")])


def _mapping(**kw):
    return HeaderMapping([MappingEntry(["a"], ["b"])], "s", "t", **kw)


# Per type: a builder (from lists where the constructor accepts them), a
# value that differs in one compared field, and the expected repr text.
CASES = {
    "TableSchema": (
        lambda: TableSchema("a", ["Id", "X"]),
        lambda: TableSchema("a", ["Id"]),
        "TableSchema(name='a', headers=('Id', 'X'))"),
    "DatabaseSchema": (
        _schema,
        lambda: DatabaseSchema("other", _schema().tables),
        "DatabaseSchema(name='db', tables=(TableSchema(name='a', headers=('Id', 'X')), "
        "TableSchema(name='b', headers=('Id',))))"),
    "ContextRelation": (
        lambda: ContextRelation(["a"], ["b", "c"]),
        lambda: ContextRelation(["a"], ["b"]),
        "ContextRelation(subjects=('a',), objects=('b', 'c'))"),
    "HeaderContextGroup": (
        lambda: HeaderContextGroup("a", ["Id", "X"], "key"),
        lambda: HeaderContextGroup("a", ["Id", "X"], "other"),
        "HeaderContextGroup(table='a', headers=('Id', 'X'), concept='key')"),
    "OntologyAnnotations": (
        _annotations,
        lambda: OntologyAnnotations(),
        "OntologyAnnotations(table_relations=(ContextRelation(subjects=('a',), "
        "objects=('b',)),), header_groups=(HeaderContextGroup(table='a', "
        "headers=('Id', 'X'), concept='key'),))"),
    "DirectedContextPair": (
        lambda: DirectedContextPair("a", "b"),
        lambda: DirectedContextPair("b", "a"),
        "DirectedContextPair(subject='a', object='b')"),
    "ValidatedSchema": (
        lambda: validate_schema(_schema()),
        lambda: validate_schema(DatabaseSchema("db", [TableSchema("a", ["Id"])])),
        "ValidatedSchema(schema=DatabaseSchema(name='db', tables=(TableSchema(name='a', "
        "headers=('Id', 'X')), TableSchema(name='b', headers=('Id',)))))"),
    "ValidatedAnnotations": (
        lambda: validate_annotations(_annotations(), validate_schema(_schema())),
        lambda: validate_annotations(OntologyAnnotations(), validate_schema(_schema())),
        "ValidatedAnnotations(annotations=OntologyAnnotations(table_relations="
        "(ContextRelation(subjects=('a',), objects=('b',)),), header_groups="
        "(HeaderContextGroup(table='a', headers=('Id', 'X'), concept='key'),)))"),
    "MappingScore": (
        lambda: MappingScore(1, 2, 3, 0.5, 0.25, 1 / 3),
        lambda: MappingScore(1, 2, 3, 0.5, 0.25, 0.0),
        "MappingScore(matched=1, gold_size=2, predicted_size=3, precision=0.5, "
        "recall=0.25, f1=0.3333333333333333)"),
    "SqlValidationReport": (
        lambda: SqlValidationReport(True, None, ["Id"], 0),
        lambda: SqlValidationReport(True, None, ["Id"], 1),
        "SqlValidationReport(success=True, error_text=None, result_columns=('Id',), "
        "row_count=0)"),
    "PromptBundle": (
        lambda: PromptBundle("t", "with-context", "text"),
        lambda: PromptBundle("t", "without-context", "text"),
        "PromptBundle(task='t', arm='with-context', user_text='text')"),
    "ClientConfig": (
        lambda: ClientConfig("http://h", "m"),
        lambda: ClientConfig("http://h", "m", max_retries=0),
        "ClientConfig(endpoint_url='http://h', model='m', temperature=0.0, timeout=30.0, "
        "max_retries=2, api_key_source='COMDB_API_KEY')"),
    "MappingEntry": (
        lambda: MappingEntry(["a", "b"], ["c"]),
        lambda: MappingEntry(["a"], ["c"]),
        "MappingEntry(source_headers=('a', 'b'), target_headers=('c',))"),
    "HeaderMapping": (
        lambda: _mapping(warnings=["w"]),
        lambda: HeaderMapping([MappingEntry(["a"], ["b"])], "s", None),
        "HeaderMapping(entries=(MappingEntry(source_headers=('a',), "
        "target_headers=('b',)),), source_table='s', target_table='t', warnings=('w',))"),
    "StyleFlags": (
        lambda: StyleFlags(),
        lambda: StyleFlags(oxford_and=False),
        "StyleFlags(prefixed_header_groups=True, oxford_and=True)"),
}

FIELDS = {
    "TableSchema": ("name", "headers"),
    "DatabaseSchema": ("name", "tables"),
    "ContextRelation": ("subjects", "objects"),
    "HeaderContextGroup": ("table", "headers", "concept"),
    "OntologyAnnotations": ("table_relations", "header_groups"),
    "DirectedContextPair": ("subject", "object"),
    "ValidatedSchema": ("schema",),
    "ValidatedAnnotations": ("annotations", "schema"),
    "MappingScore": ("matched", "gold_size", "predicted_size", "precision", "recall", "f1"),
    "SqlValidationReport": ("success", "error_text", "result_columns", "row_count"),
    "PromptBundle": ("task", "arm", "user_text"),
    "ClientConfig": ("endpoint_url", "model", "temperature", "timeout", "max_retries",
                     "api_key_source"),
    "MappingEntry": ("source_headers", "target_headers"),
    "HeaderMapping": ("entries", "source_table", "target_table", "warnings"),
    "StyleFlags": ("prefixed_header_groups", "oxford_and"),
}

# Fields given as lists in CASES, which the constructor stores as tuples.
TUPLE_FIELDS = {
    "TableSchema": ("headers",),
    "DatabaseSchema": ("tables",),
    "ContextRelation": ("subjects", "objects"),
    "HeaderContextGroup": ("headers",),
    "OntologyAnnotations": ("table_relations", "header_groups"),
    "SqlValidationReport": ("result_columns",),
    "MappingEntry": ("source_headers", "target_headers"),
    "HeaderMapping": ("entries", "warnings"),
}

TYPES = sorted(CASES)


def test_every_value_type_is_covered():
    assert len(CASES) == 15
    assert set(CASES) == set(FIELDS)
    assert set(TUPLE_FIELDS) <= set(CASES)


@pytest.mark.parametrize("name", TYPES)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    value = CASES[name][0]()
    for field in FIELDS[name] + ("rows",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            delattr(value, field)
        getattr(value, field)


@pytest.mark.parametrize("name", TYPES)
def test_equality_by_value_and_never_across_types(name):
    make, differ, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != differ()
    assert a != tuple(getattr(a, f) for f in FIELDS[name])
    other = next(CASES[n][0]() for n in TYPES if n != name)
    assert a != other


@pytest.mark.parametrize("name", TYPES)
def test_equal_values_hash_equal(name):
    a, b = CASES[name][0](), CASES[name][0]()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", TYPES)
def test_repr_is_the_dataclass_text(name):
    assert repr(CASES[name][0]()) == CASES[name][2]


def test_validated_annotations_repr_hides_the_schema():
    ann = CASES["ValidatedAnnotations"][0]()
    assert "schema" not in repr(ann)
    assert ann.schema == validate_schema(_schema())


def test_a_rendered_listing_changes_no_value_behaviour_of_the_witness():
    fresh, rendered = validate_schema(_schema()), validate_schema(_schema())
    listing = emit_base_schema(rendered)
    assert rendered == fresh and hash(rendered) == hash(fresh)
    assert repr(rendered) == repr(fresh) == CASES["ValidatedSchema"][2]
    assert pickle.dumps(rendered) == pickle.dumps(fresh)
    for clone in (copy.copy(rendered), copy.deepcopy(rendered),
                  pickle.loads(pickle.dumps(rendered))):
        assert clone == fresh and repr(clone) == repr(fresh)
        assert emit_base_schema(clone) == listing


def test_header_mapping_warnings_take_no_part_in_equality():
    a, b = _mapping(warnings=["one"]), _mapping(warnings=["two", "three"])
    assert a == b
    assert hash(a) == hash(b)
    assert a.warnings == ("one",)
    assert len(a) == 1


@pytest.mark.parametrize("name", sorted(TUPLE_FIELDS))
def test_list_arguments_become_tuples(name):
    value = CASES[name][0]()
    for field in TUPLE_FIELDS[name]:
        assert type(getattr(value, field)) is tuple, field


def test_defaults():
    assert OntologyAnnotations() == OntologyAnnotations((), ())
    assert HeaderMapping([MappingEntry(["a"], ["b"])]).warnings == ()
    assert StyleFlags() == StyleFlags(True, True)
    config = ClientConfig(model="m", endpoint_url="http://h")
    assert (config.temperature, config.timeout, config.max_retries,
            config.api_key_source) == (0.0, 30.0, 2, "COMDB_API_KEY")


@pytest.mark.parametrize("build, error, message", [
    (lambda: SqlValidationReport(True, "boom", (), 0), ValueError,
     "error_text must be set exactly when success is false"),
    (lambda: SqlValidationReport(False, None, (), 0), ValueError,
     "error_text must be set exactly when success is false"),
    (lambda: MappingEntry([], ["b"]), ValueError, "mapping entry needs headers on both sides"),
    (lambda: MappingEntry(["a"], ()), ValueError, "mapping entry needs headers on both sides"),
    (lambda: HeaderMapping([MappingEntry(["a"], ["b"]), MappingEntry(["A "], ["c"])]),
     ValueError, "source header 'a' appears in two entries"),
    (lambda: HeaderMapping([MappingEntry(["a"], ["b"]), MappingEntry(["c"], ["b"])]),
     ValueError, "target header 'b' appears in two entries"),
    (lambda: ClientConfig("http://h", "m", timeout=math.nan), ConfigError,
     "timeout must be finite"),
    (lambda: ClientConfig("http://h", "m", temperature=math.inf), ConfigError,
     "temperature must be finite"),
    (lambda: ClientConfig("http://h", "m", timeout=0), ConfigError,
     "timeout must be positive"),
    (lambda: ClientConfig("http://h", "m", temperature=-0.5), ConfigError,
     "temperature must be >= 0"),
    (lambda: ClientConfig("http://h", "m", max_retries=-1), ConfigError,
     "max_retries must be >= 0"),
])
def test_constructor_validation_still_raises(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("name", TYPES)
def test_copy_and_pickle_round_trips_give_equal_values(name):
    value = CASES[name][0]()
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == repr(value)


def test_pickled_validated_schema_still_looks_tables_up():
    schema = pickle.loads(pickle.dumps(validate_schema(_schema())))
    assert schema.table("b") == TableSchema("b", ("Id",))
    assert schema.has_table("a") and not schema.has_table("c")


def test_pickled_header_mapping_keeps_its_warnings():
    assert pickle.loads(pickle.dumps(_mapping(warnings=["w"]))).warnings == ("w",)
