"""Command-line interface: catalog, analyze, verify, sweep.

Exit codes are strict and never conflated: 0 means every asserted identity
passed, 1 means at least one asserted identity failed (or every plan point
errored), 2 means the input could not be used at all (bad file, schema
violation, expression parse error, bad SOLITONLAB_TOL).  Any other
exception is a programming error and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .expressions import ParseError
from .report import emit_report, emit_sweep, exit_code_for, run_suite, run_suites
from .scenario import SchemaError, load_scenario, scenario_from_dict
from .spacetimes import catalog_entries

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_catalog(_args: argparse.Namespace) -> int:
    for entry in catalog_entries():
        params = ", ".join(f"{k}: {v}" for k, v in entry["parameters"].items()) or "no parameters"
        sys.stdout.write(f"{entry['name']:12s} {entry['description']} ({params})\n")
    return EXIT_PASS


def _cmd_analyze(args: argparse.Namespace, solve: bool) -> int:
    scenario = load_scenario(args.scenario)
    report = run_suite(scenario, solve=solve)
    _write(emit_report(report, args.format, include_timestamp=not args.no_timestamp), args.out)
    return exit_code_for(report)


def _set_by_path(obj: dict, path: str, value: Any) -> None:
    keys = path.split(".")
    node = obj
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise SchemaError(f"sweep parameter path {path!r} not present in the scenario")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise SchemaError(f"sweep parameter path {path!r} not present in the scenario")
    node[keys[-1]] = value


def _parse_sweep_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # expression strings pass through


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = load_scenario(args.scenario)  # validate the base document first
    values = [_parse_sweep_value(v) for v in args.values.split(",")]
    scenarios = []
    for value in values:
        doc = base.to_dict()
        _set_by_path(doc, args.param, value)
        scenarios.append(scenario_from_dict(doc))
    # one call, so values that share the geometry share its evaluation
    reports = run_suites(scenarios)
    worst = max(exit_code_for(report) for report in reports)
    _write(emit_sweep(args.param, zip(values, reports), args.format, not args.no_timestamp), args.out)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Evaluate curvature, fluid, and soliton identities on explicit spacetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the built-in metrics")

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--no-timestamp", action="store_true", help="omit generated_at for byte-stable output")

    add_io(sub.add_parser("analyze", help="run the full identity suite including soliton solves"))
    add_io(sub.add_parser("verify", help="run the identity suite only, no soliton solve"))

    sweep = sub.add_parser("sweep", help="re-run the suite over values of one scenario parameter")
    add_io(sweep)
    sweep.add_argument("--param", required=True, help="dotted path into the scenario, e.g. soliton.alpha")
    sweep.add_argument("--values", required=True, help="comma-separated values, e.g. 0.5,1.0,1.5")
    return parser


def _join_values(argv: Sequence[str]) -> list[str]:
    """Fold ``--values V`` into ``--values=V``.

    argparse reads a separate value that starts with a minus sign, such as
    ``-0.5,-0.25``, as an option and rejects it.
    """
    args = list(argv)
    if "--values" in args[:-1]:
        i = args.index("--values")
        args[i : i + 2] = [f"--values={args[i + 1]}"]
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "analyze":
            return _cmd_analyze(args, solve=True)
        if args.command == "verify":
            return _cmd_analyze(args, solve=False)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except (SchemaError, ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
