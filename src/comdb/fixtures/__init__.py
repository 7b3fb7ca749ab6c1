"""Bundled experiment fixtures.

The hospital database fixture (synthea.*) backs the tables-joining task;
patients_ab.* and the gold mapping back the semantic-integration task.
The .mockjson scripts replay canned model answers so both experiments
run offline and deterministically.
"""

from __future__ import annotations

from pathlib import Path

SYNTHEA_SCHEMA = "synthea.schema"
SYNTHEA_CONTEXT = "synthea.ctx"
SYNTHEA_DDL = "synthea.sql"
PATIENTS_SCHEMA = "patients_ab.schema"
PATIENTS_CONTEXT = "patients_ab.ctx"
PATIENTS_GOLD_MAP = "patients_ab_gold.map"
INTEGRATION_MOCK = "mock_integration.mockjson"
JOINING_MOCK = "mock_joining.mockjson"


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file."""
    path = Path(__file__).with_name(name)
    if not path.exists():
        raise FileNotFoundError(name)
    return path


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")
