#!/usr/bin/env python3
"""Benchmark of solitonlab: run one workload for a set time, check it, print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fixtures|grid|sweep --seed N --seconds S --trace 0|1

The inputs are made from the seed (see workloads.py) and written under
.perfbench_out/, which the program reads; the program itself is imported
from src/.  With --trace 0 the metrics are the end-to-end ones: set-up time
of a fresh interpreter, plan points per second, CPU milliseconds per point
and peak resident memory of the workload process.  With --trace 1 they are
the per-layer figures of a traced run (see README.md).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 2 means the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7  # after one warm-up probe that also compiles the byte code
DEADLINE_S = 170.0
CHECK_RESERVE_S = 15.0

sys.path.insert(0, str(HERE))

from checks import check_operation, kretschmann_problems, schema_validator  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

def _setup_time(files: list[str], timeout: float) -> float:
    """Seconds from starting a fresh interpreter until solitonlab is imported and the files are loaded."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), *files],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


def _missing_program() -> str | None:
    for need in ("BENCHMARK.json", "src/solitonlab/__init__.py", "scenarios/vacuum-infall-custom.json", "schemas/report.schema.json"):
        if not (ROOT / need).is_file():
            return need
    return None


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = _missing_program()
    if missing is not None:
        sys.stderr.write(f"perfbench: {missing} not found; run from the root of a solitonlab checkout\n")
        return 2

    work = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = build(args.workload, args.seed, ROOT, work)
        spec_path, result_path = work / "spec.json", work / "worker-result.json"
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        spec = {"src": str(ROOT / "src"), "ops": ops, "trace_file": str(trace_file)}
        spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")

        setups: list[float] = []
        if not args.trace:
            files = [op["input"] for op in ops]
            setups = [_setup_time(files, 60.0) for _ in range(SETUP_PROBES + 1)][1:]

        budget = DEADLINE_S - CHECK_RESERVE_S - (time.monotonic() - started)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path), str(args.seconds), str(args.trace)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=budget,
        )
        if worker.returncode != 0:
            sys.stderr.write(worker.stderr)
            sys.stderr.write(f"perfbench: the workload process exited with {worker.returncode}\n")
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
        rounds = result["rounds"]

        sys.path.insert(0, str(ROOT / "src"))
        validator = schema_validator(ROOT)
        failed = 0
        # every round must reproduce the checked report byte for byte
        for i, op in enumerate(ops):
            text = Path(op["out"]).read_text(encoding="utf-8")
            digest = rounds[-1]["digests"][i]
            problems = check_operation(op, text, rounds[-1]["codes"][i], validator)
            for r in rounds:
                if problems or r["digests"][i] != digest or r["codes"][i] != op["expect_exit"]:
                    failed += 1
            for problem in problems:
                sys.stderr.write(f"perfbench: {op['name']}: {problem}\n")
        standalone = kretschmann_problems(ops[0]) if args.workload == "grid" else []
        for problem in standalone:
            sys.stderr.write(f"perfbench: {problem}\n")

        if args.trace:
            for name in result["missing"]:
                sys.stderr.write(f"perfbench: traced entry point not found, skipped: {name}\n")
            values = result["layers"]
        else:
            # totals over the timed rounds; per-round medians swing with the
            # machine's speed from one few-second round to the next
            points = sum(r["points"] for r in rounds)
            values = {
                "setup_s": statistics.median(setups),
                "points_per_s": points / sum(r["wall_s"] for r in rounds),
                "cpu_ms_per_point": 1e3 * sum(r["cpu_s"] for r in rounds) / points,
                "peak_rss_mb": result["peak_rss_mb"],
            }
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer" if args.trace else "end_to_end"]
        }
        summary = {
            "correct": not standalone,
            "attempted": len(rounds) * len(ops),
            "failed": failed,
            "metrics": metrics,
        }
        record = dict(summary, workload=args.workload, seed=args.seed, setups=setups, rounds=rounds)
        (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
