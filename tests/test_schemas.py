"""The JSON schema files under docs/schemas are the published copies of the
schema dictionaries in idcalc.schemas; the two must not drift apart.  Each
schema is itself valid, and every report the CLI writes validates against
the report schema."""

import json
from pathlib import Path

import pytest
from jsonschema.validators import validator_for

from idcalc import cli, schemas

DOCS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


SCHEMAS = [
    ("distribution", schemas.DISTRIBUTION_SCHEMA),
    ("kernel", schemas.KERNEL_SCHEMA),
    ("report", schemas.JOB_REPORT_SCHEMA),
]


@pytest.mark.parametrize("name,schema", SCHEMAS)
def test_docs_schema_matches_package(name, schema):
    with open(DOCS / f"{name}.schema.json") as fh:
        assert json.load(fh) == schema


@pytest.mark.parametrize("name,schema", SCHEMAS)
def test_schema_valid_against_its_metaschema(name, schema):
    validator_for(schema).check_schema(schema)


_STABLE05 = {"dim": 1, "A": 0.0, "gamma": [0.0],
             "nu": {"type": "stable", "alpha": 0.5,
                    "directions": [{"xi": [1.0], "weight": 1.0}]}}
_CP = {"dim": 1, "A": 0.0, "gamma": [0.5],
       "nu": {"type": "atomic", "atoms": [{"x": [1.0], "mass": 1.0}]}}


@pytest.mark.parametrize("argv,rc", [
    (["classify", "--dist", "cp.json"], 0),
    (["dual", "--dist", "stable05.json"], 0),
    (["transform", "--kernel", "exp.json", "--dist", "cp.json"], 0),
    (["domain", "--kernel", "exp.json", "--dist", "stable05.json"], 0),
    (["largeness", "--kernel", "exp.json"], 0),
    (["tau", "--kernel", "exp.json"], 0),
    (["psi", "--kernel", "exp.json", "--dist", "stable05.json"], 0),
    (["simulate", "--kernel", "exp.json", "--dist", "cp.json",
      "--paths", "2000", "--mesh", "8"], 0),
    (["classify", "--dist", "bad.json"], 3),
])
def test_cli_reports_match_report_schema(tmp_path, monkeypatch, capsys,
                                         argv, rc):
    for name, obj in (("cp.json", _CP), ("stable05.json", _STABLE05),
                      ("exp.json", {"type": "exp"}), ("bad.json", {"dim": 1})):
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert cli.run(["--out", str(tmp_path), *argv]) == rc
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert report["command"] == argv[0]
    cli.validate(report, schemas.JOB_REPORT_SCHEMA)
