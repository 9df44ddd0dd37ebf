"""Seeded inputs of the three workloads.

Each workload is a list of operations, one CLI call each, that a round runs
in order.  Every operation reads only scenario files written here, so the
program never sees the seed.  The same seed gives byte-identical files and
the same command lines.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("fixtures", "grid", "sweep")

# The infall chart has its horizon at r = 1 and its axis at sin(a) = 0;
# grid points keep well clear of both, where the stencils stay accurate.
GRID_POINTS = 10
GRID_BOX = {"t": (-2.0, 2.0), "r": (3.0, 8.0), "a": (0.5, math.pi - 0.5), "b": (0.0, 2.0 * math.pi)}

SWEEP_VALUES = 4
SWEEP_ALPHA = (0.0, 3.0)


def plan_size(doc: dict) -> int:
    """Number of plan points of a scenario document: listed points plus the grid product."""
    count = len(doc.get("points", []))
    grid = doc.get("grid")
    if grid:
        size = 1
        for spec in grid.values():
            size *= len(spec) if isinstance(spec, list) else spec["count"]
        count += size
    return count


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _fixtures(rng: random.Random, root: Path, work: Path) -> list[dict]:
    shipped = sorted((root / "scenarios").glob("*.json"))
    rng.shuffle(shipped)
    ops = []
    for src in shipped:
        doc = json.loads(src.read_text(encoding="utf-8"))
        path = work / src.name
        _write(path, doc)
        ops.append(
            {
                "name": doc["name"],
                "input": str(path),
                "out": str(work / f"{src.stem}.report.json"),
                "command": "analyze",
                "plan_points": plan_size(doc),
                # the mismatch fixture is built to fail, and says so
                "expect_exit": 1 if "exits 1" in doc["description"] else 0,
            }
        )
    return ops


def _grid(rng: random.Random, root: Path, work: Path) -> list[dict]:
    doc = json.loads((root / "scenarios" / "vacuum-infall-custom.json").read_text(encoding="utf-8"))
    points = [[round(rng.uniform(*GRID_BOX[c]), 6) for c in ("t", "r", "a", "b")] for _ in range(GRID_POINTS)]
    doc["name"] = "infall-grid"
    doc["description"] = "Seeded points of the vacuum infall chart, away from the horizon and the axis."
    doc["points"] = points
    path = work / "infall-grid.json"
    _write(path, doc)
    return [
        {
            "name": doc["name"],
            "input": str(path),
            "out": str(work / "infall-grid.report.json"),
            "command": "verify",
            "plan_points": len(points),
            "expect_exit": 0,
        }
    ]


def _sweep(rng: random.Random, root: Path, work: Path) -> list[dict]:
    doc = json.loads((root / "scenarios" / "de-sitter-soliton.json").read_text(encoding="utf-8"))
    path = work / "de-sitter-soliton.json"
    _write(path, doc)
    values = [round(rng.uniform(*SWEEP_ALPHA), 4) for _ in range(SWEEP_VALUES)]
    return [
        {
            "name": doc["name"],
            "input": str(path),
            "out": str(work / "sweep.report.json"),
            "command": "sweep",
            "param": "soliton.alpha",
            "values": values,
            "plan_points": plan_size(doc),
            "expect_exit": 0,
        }
    ]


def build(workload: str, seed: int, root: Path, work: Path) -> list[dict]:
    """Write the workload's scenario files into ``work`` and return its operations."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"fixtures": _fixtures, "grid": _grid, "sweep": _sweep}[workload](rng, root, work)
    for op in ops:
        op["points"] = op["plan_points"] * len(op.get("values", [None]))
        argv = [op["command"], op["input"], "--no-timestamp", "--out", op["out"]]
        if op["command"] == "sweep":
            # the = form: a leading negative value would otherwise read as an option
            argv += ["--param", op["param"], "--values=" + ",".join(repr(v) for v in op["values"])]
        op["argv"] = argv
    return ops
