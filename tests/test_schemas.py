"""The JSON schema files under docs/schemas are the published copies of the
schema dictionaries in idcalc.schemas; the two must not drift apart."""

import json
from pathlib import Path

import pytest

from idcalc import schemas

DOCS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.mark.parametrize("name,schema", [
    ("distribution", schemas.DISTRIBUTION_SCHEMA),
    ("kernel", schemas.KERNEL_SCHEMA),
    ("report", schemas.JOB_REPORT_SCHEMA),
])
def test_docs_schema_matches_package(name, schema):
    with open(DOCS / f"{name}.schema.json") as fh:
        assert json.load(fh) == schema
