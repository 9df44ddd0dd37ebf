#!/usr/bin/env python3
"""Run the analyzer over every shipped scenario and print a verdict table.

The lambda-mismatch fixture is expected to fail; everything else must pass.
Exits nonzero if any fixture deviates from its expectation.
"""

import sys
from pathlib import Path

try:
    import solitonlab  # noqa: F401
except ModuleNotFoundError:  # run from a source checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from solitonlab.report import run_suite  # noqa: E402
from solitonlab.scenario import load_scenario  # noqa: E402

EXPECTED_FAIL = {"minkowski-lambda-mismatch"}


def main() -> int:
    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    bad = 0
    for path in sorted(scenario_dir.glob("*.json")):
        report = run_suite(load_scenario(path))
        expected = "fail" if report.scenario.name in EXPECTED_FAIL else "pass"
        ok = report.verdict == expected
        bad += 0 if ok else 1
        cls = report.summary.get("classification")
        extra = f" constant={cls['value']:+.6g} ({cls['category']})" if cls else ""
        marker = "ok " if ok else "BAD"
        print(f"{marker} {path.name:34s} verdict={report.verdict:4s} expected={expected:4s}{extra}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
