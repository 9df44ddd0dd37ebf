"""The byte-stable report contract, pinned by sha256.

Every shipped scenario is run through ``analyze`` and ``verify`` with
``--no-timestamp``, plus three three-value sweeps (a soliton constant, a
metric parameter and an eta-family ``p``) and ``verify`` of
``tests/data/infall-grid.json`` (six generic points of the off-diagonal
infall chart, the benchmark's ``grid`` kind of report; kept out of
``scenarios/``, which the benchmark's ``fixtures`` workload runs whole) and
of ``tests/data/exp-closed-slices.json`` (the k = 1 chart, whose metric
reads three coordinates), and each report's digest is compared with
``tests/data/report_digests.json``.  A
refactor that leaves the numbers alone keeps every digest; a change that
moves a residual must regenerate the file and say which residuals moved.

Regenerate with: ``PYTHONPATH=src python tests/test_report_digests.py > tests/data/report_digests.json``
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from solitonlab.cli import main

from conftest import SCENARIO_DIR

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "report_digests.json"
SWEEPS = (
    ("de-sitter-soliton.json", "soliton.alpha", "0.0,1.0,2.0"),
    ("de-sitter-soliton.json", "metric.hubble", "0.5,1.0,2.0"),
    ("de-sitter-eta-gradient.json", "soliton.p", "-0.5,0.0,0.5"),
)


def _runs() -> dict[str, list[str]]:
    runs = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        for command in ("analyze", "verify"):
            runs[f"{command} {path.name}"] = [command, str(path)]
    for name, param, values in SWEEPS:
        runs[f"sweep {name} {param} {values}"] = ["sweep", str(SCENARIO_DIR / name), "--param", param, f"--values={values}"]
    for name in ("infall-grid.json", "exp-closed-slices.json"):
        runs[f"verify data/{name}"] = ["verify", str(DATA / name)]
    return runs


def _digest(argv: list[str], out: Path) -> str:
    main(argv + ["--out", str(out), "--no-timestamp"])
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(_runs()))
def test_report_is_byte_identical(key, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _digest(_runs()[key], tmp_path / "report.json") == expected[key]


def test_every_report_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(_runs())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {key: _digest(argv, Path(tmp) / "report.json") for key, argv in sorted(_runs().items())}
    sys.stdout.write(json.dumps(digests, indent=2) + "\n")
