"""Shared fixtures: bundled schema/annotation files, a temp SQLite fixture
database, and seeded random generators for round-trip properties."""

from __future__ import annotations

import os
import random
import re
from pathlib import Path

import pytest

from comdb import fixtures as bundled
from comdb.ingest import build_database, parse_annotations, parse_ddl, parse_fixture
from comdb.mapping import parse_map_text
from comdb.schema import (
    ContextRelation,
    DatabaseSchema,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    validate_annotations,
    validate_schema,
)

DATA_DIR = Path(__file__).parent / "data"


def data_text(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


def raises_exactly(error, message):
    """pytest.raises for an error of class error whose whole message is message."""
    return pytest.raises(error, match=rf"\A{re.escape(message)}\Z")


def src_env() -> dict:
    """The environment for a fresh interpreter that imports comdb from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# Every character but LF and CR at which str.splitlines() ends a line. A
# line of comdb's text formats ends at LF alone, so a name may hold these.
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.fixture(scope="session")
def synthea_schema():
    return validate_schema(parse_fixture(bundled.fixture_text(bundled.SYNTHEA_SCHEMA),
                                         name="synthea"))


@pytest.fixture(scope="session")
def synthea_annotations(synthea_schema):
    ann = parse_annotations(bundled.fixture_text(bundled.SYNTHEA_CONTEXT))
    return validate_annotations(ann, synthea_schema)


@pytest.fixture(scope="session")
def patient_tables():
    schema = validate_schema(
        parse_fixture(bundled.fixture_text(bundled.PATIENTS_SCHEMA)))
    return schema.table("patients_A"), schema.table("patients_B")


@pytest.fixture(scope="session")
def patient_annotations(patient_tables):
    schema = validate_schema(
        parse_fixture(bundled.fixture_text(bundled.PATIENTS_SCHEMA)))
    ann = parse_annotations(bundled.fixture_text(bundled.PATIENTS_CONTEXT))
    return validate_annotations(ann, schema)


@pytest.fixture(scope="session")
def gold_mapping(patient_tables):
    table_a, table_b = patient_tables
    return parse_map_text(bundled.fixture_text(bundled.PATIENTS_GOLD_MAP),
                          table_a.name, table_b.name)


@pytest.fixture()
def fixture_db(tmp_path):
    """Empty hospital database built from the bundled DDL."""
    schema = parse_ddl(bundled.fixture_text(bundled.SYNTHEA_DDL))
    path = tmp_path / "synthea.db"
    build_database(schema, path)
    return path


# --- random generators for round-trip properties ---
# Names stay clear of the tokens the sentence grammars reserve
# ("and", "are", "of", commas, colons, quotes, periods).

_WORDS = [
    "alpha", "beta", "gamma", "delta", "omega", "code", "start", "stop",
    "value", "units", "zip", "lat", "lon", "phone", "revenue", "kind",
    "date", "patient", "visit", "payer", "device", "claim", "cost",
    "First", "Last", "Birth", "Place", "City", "County", "Name",
]


def rand_identifier(rng: random.Random) -> str:
    return f"{rng.choice(_WORDS)}_{rng.randrange(1000)}"


def rand_header(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(1, 3))]
    return " ".join(words) + f"_{rng.randrange(1000)}"


def rand_concept(rng: random.Random) -> str:
    # always a phrase (space or apostrophe), never a bare identifier
    if rng.random() < 0.5:
        return f"{rng.choice(_WORDS)}s' {rng.choice(_WORDS)}"
    return f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"


def _distinct(count: int, make) -> list[str]:
    names: list[str] = []
    seen = set()
    while len(names) < count:
        candidate = make()
        if candidate not in seen:
            seen.add(candidate)
            names.append(candidate)
    return names


def rand_schema(rng: random.Random, name: str = "db") -> DatabaseSchema:
    table_names = _distinct(rng.randint(1, 6), lambda: rand_identifier(rng))
    tables = []
    for tname in table_names:
        headers = _distinct(rng.randint(1, 8), lambda: rand_header(rng))
        tables.append(TableSchema(tname, tuple(headers)))
    return DatabaseSchema(name, tuple(tables))


def rand_annotations(rng: random.Random, schema: DatabaseSchema) -> OntologyAnnotations:
    names = [t.name for t in schema.tables]
    relations = []
    if len(names) >= 2:
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(2, len(names))
            chosen = rng.sample(names, k)
            split = rng.randint(1, k - 1)
            relations.append(ContextRelation(tuple(chosen[:split]),
                                             tuple(chosen[split:])))
    groups = []
    for table in schema.tables:
        if len(table.headers) >= 2 and rng.random() < 0.6:
            chosen = set(rng.sample(table.headers, rng.randint(2, len(table.headers))))
            headers = [h for h in table.headers if h in chosen]
            groups.append(HeaderContextGroup(table.name, tuple(headers),
                                             rand_concept(rng)))
    return OntologyAnnotations(tuple(relations), tuple(groups))
