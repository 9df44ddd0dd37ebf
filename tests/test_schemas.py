"""The shipped JSON schemas describe exactly what the tool reads and writes."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

# RefResolver still works fine for a two-file local schema set
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

from solitonlab.cli import main  # noqa: E402
from solitonlab.report import _ROWS, DEFAULT_TOLERANCES, emit_report, run_suite  # noqa: E402
from solitonlab.scenario import load_scenario  # noqa: E402

from conftest import SCENARIO_DIR  # noqa: E402

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
DOCS_DIR = SCHEMA_DIR.parent / "docs"


def _validator(name):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    resolver = jsonschema.RefResolver(
        base_uri=f"{(SCHEMA_DIR / name).as_uri()}", referrer=schema
    )
    return jsonschema.Draft7Validator(schema, resolver=resolver)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.name)
def test_fixture_scenarios_match_schema(path):
    validator = _validator("scenario.schema.json")
    validator.validate(json.loads(path.read_text()))


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.name)
def test_normalised_scenarios_match_schema(path):
    validator = _validator("scenario.schema.json")
    validator.validate(load_scenario(path).to_dict())


def test_tolerance_names_are_the_built_in_tolerances():
    # the schema names the tolerances a scenario may override, as
    # resolve_tolerances does: a misspelt name fails validation
    schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
    assert schema["properties"]["tolerances"]["propertyNames"]["enum"] == sorted(DEFAULT_TOLERANCES)
    validator = _validator("scenario.schema.json")
    doc = json.loads((SCENARIO_DIR / "de-sitter-soliton.json").read_text())
    validator.validate(doc)
    assert not validator.is_valid({**doc, "tolerances": {"laplacain_identity": 1e-3}})


def test_reports_match_schema():
    validator = _validator("report.schema.json")
    for name in ("minkowski.json", "de-sitter-eta-gradient.json", "minkowski-lambda-mismatch.json"):
        report = run_suite(load_scenario(SCENARIO_DIR / name))
        doc = json.loads(emit_report(report, "json", include_timestamp=True))
        validator.validate(doc)


@pytest.mark.parametrize(
    "param, values",
    [("soliton.alpha", [0.0, 1.0, 2.0]), ("metric.hubble", [0.5, 1.0])],
    ids=["shared geometry", "geometry per value"],
)
def test_sweep_document_holds_the_analyze_report_of_each_value(param, values, tmp_path):
    validator = _validator("report.schema.json")
    base = SCENARIO_DIR / "de-sitter-soliton.json"
    out = tmp_path / "sweep.json"
    argv = ["sweep", str(base), "--param", param, f"--values={','.join(map(str, values))}", "--no-timestamp"]
    code = main([*argv, "--out", str(out)])
    text = out.read_text()
    entries = json.loads(text)
    # laid out as every report is: the emitter writes json.dumps(indent=2) bytes
    assert text == json.dumps(entries, indent=2) + "\n"
    assert [entry["value"] for entry in entries] == values
    section, key = param.split(".")
    codes = []
    for value, entry in zip(values, entries):
        assert set(entry) == {"parameter", "value", "report"}
        assert entry["parameter"] == param
        validator.validate(entry["report"])
        doc = load_scenario(base).to_dict()
        doc[section][key] = value
        scenario = tmp_path / f"{value}.json"
        scenario.write_text(json.dumps(doc))
        alone = tmp_path / f"{value}.report.json"
        codes.append(main(["analyze", str(scenario), "--no-timestamp", "--out", str(alone)]))
        assert entry["report"] == json.loads(alone.read_text())
    assert code == max(codes)


def test_verdict_rules_name_every_row():
    # the "Verdict rules" section of the scenario format says when each row
    # of the report counts toward the verdict; a row missing there has no rule
    text = (DOCS_DIR / "scenario-schema.md").read_text(encoding="utf-8")
    section = text.split("## Verdict rules", 1)[1].split("\n## ", 1)[0]
    assert [name for name in _ROWS if f"`{name}`" not in section] == []
