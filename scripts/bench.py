#!/usr/bin/env python3
"""Record a before/after benchmark file, BENCH_<n>.json, from perfbench runs.

Usage, from the root of a source checkout:

    python3 scripts/bench.py --out BENCH_<n>.json --parent DIR [--seed S]

For every workload in BENCHMARK.json, each side (the checkout at DIR, and
this checkout) runs ``perfbench/run.py`` untraced ten times, for
BENCHMARK.json's ``run_seconds``, and traced once.  Pair ``k`` uses seed
``S + k`` on both sides and alternates which side runs first.  The file
records every run's end-to-end metrics, each side's median and quartiles,
how many pairs the change won on each metric, the failed operations, and
every per-layer figure of the traced run.  Of those, the counts
``geometry.metric_evals`` and ``geometry.metric_evals_unique`` (per plan
point) repeat exactly from run to run and are also kept apart as
``counts``; the timings are one sample each, with none of the spread of the
end-to-end medians.  Next to them, ``field_evals`` is the number of vector
field evaluations (``VectorFieldSpec.components_at`` and ``potential_at``
calls) per plan point of one run of the seed's operations, counted in a
subprocess in each checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
COUNTS = ("geometry.metric_evals", "geometry.metric_evals_unique")


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The summary line of one perfbench run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout.name} ({workload}, seed {seed}):\n{done.stderr}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    summary["metrics"] = {name: m["value"] for name, m in summary["metrics"].items()}
    return summary


def _field_evals(checkout: Path, workload: str, seed: int) -> float:
    """Vector field evaluations per plan point of one run of the operations of ``workload`` in ``checkout``."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--count-field-evals", workload, str(seed)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"field count failed in {checkout.name} ({workload}, seed {seed}):\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _count_field_evals(workload: str, seed: int) -> None:
    """Print the field evaluations per plan point of the seed's operations, run once from the working directory."""
    sys.path[:0] = ["src", "perfbench"]
    from workloads import build

    from solitonlab import cli
    from solitonlab.geometry import VectorFieldSpec

    calls = []
    for name in ("components_at", "potential_at"):

        def counted(spec, point, evaluate=getattr(VectorFieldSpec, name)):
            calls.append(point)
            return evaluate(spec, point)

        setattr(VectorFieldSpec, name, counted)
    with tempfile.TemporaryDirectory() as work:
        ops = build(workload, seed, Path.cwd(), Path(work))
        for op in ops:
            cli.main(op["argv"])
    print(len(calls) / sum(op["points"] for op in ops))


def _revision(checkout: Path) -> str:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout.strip()

    rev = git("rev-parse", "--short", "HEAD") or "unknown"
    return rev + ("+uncommitted" if git("status", "--porcelain", "--untracked-files=no") else "")


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _side(runs: list[dict], traced: dict, names: list[str], field_evals: float) -> dict:
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "metrics": {name: _stats([r["metrics"][name] for r in runs]) for name in names},
        "counts": {name: traced["metrics"][name] for name in COUNTS},
        "field_evals": field_evals,
        "per_layer": traced["metrics"],
        "runs": [r["metrics"] for r in runs],
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--count-field-evals"]:  # the child of _field_evals
        _count_field_evals(argv[1], int(argv[2]))
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_7.json")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit to compare with")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = declared["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    metrics = declared["end_to_end"]
    names = [m["name"] for m in metrics]
    workloads = [w["name"] for w in declared["workloads"]]

    doc: dict = {
        "command": "perfbench/run.py",
        "seconds": seconds,
        "seeds": [args.seed + k for k in range(PAIRS)],
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "revisions": {side: _revision(path) for side, path in sides.items()},
        "workloads": {},
    }
    for workload in workloads:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for k in range(PAIRS):
            order = list(sides) if k % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(_perfbench(sides[side], workload, args.seed + k, seconds, 0))
                sys.stderr.write(f"bench: {workload} pair {k} {side}: {runs[side][-1]['metrics']}\n")
        entry = {
            side: _side(
                runs[side],
                _perfbench(path, workload, args.seed, seconds, 1),
                names,
                _field_evals(path, workload, args.seed),
            )
            for side, path in sides.items()
        }
        wins = {}
        for m in metrics:
            sign = 1.0 if m["better"] == "higher" else -1.0
            pairs = zip(runs["parent"], runs["change"])
            wins[m["name"]] = sum(sign * (c["metrics"][m["name"]] - p["metrics"][m["name"]]) > 0 for p, c in pairs)
        entry["change_wins"] = wins
        doc["workloads"][workload] = entry

    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
