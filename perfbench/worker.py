"""Run a workload's operations in whole rounds for a set time, in a fresh process.

Usage: worker.py SPEC OUT SECONDS TRACE

SPEC is the JSON written by run.py (source directory and operations).  Each
round calls ``solitonlab.cli.main`` once per operation; the round's wall and
CPU time run from the first call to the last report written.  The digest of
every report is taken after the round, outside the timed part.  With TRACE
1, rounds alternate untraced and traced, and standalone calls of the public
curvature functions follow at the workload's points.  OUT receives the
per-round figures and, when traced, the per-layer metrics; the spans go to
the trace file named in SPEC.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_rounds(ops: list[dict], seconds: float, tracer) -> list[dict]:
    from solitonlab import cli

    points = sum(op["points"] for op in ops)
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.begin_round(len(rounds))
            tracer.install()
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        codes = [cli.main(op["argv"]) for op in ops]
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        if traced:
            tracer.uninstall()
            tracer.end_round()
        rounds.append(
            {
                "traced": traced,
                "wall_s": wall,
                "cpu_s": cpu,
                "points": points,
                "codes": codes,
                "digests": [_digest(op["out"]) for op in ops],
            }
        )
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.monotonic() - start >= seconds:
            return rounds


def _timed(fn, args, repeat: int) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn(*args)
    return (time.perf_counter() - start) / repeat


def standalone(ops: list[dict], tracer) -> tuple[dict[str, float], list[str]]:
    """Time the public curvature functions at each distinct plan point of the workload."""
    from solitonlab import geometry
    from solitonlab.scenario import load_scenario

    names = {
        "geometry.metric_at_us": ("metric_at", 1e6, 20),
        "geometry.christoffel_ms": ("christoffel", 1e3, 3),
        "geometry.riemann_ms": ("riemann", 1e3, 1),
        "geometry.ricci_ms": ("ricci", 1e3, 1),
        "geometry.einstein_ms": ("einstein_tensor", 1e3, 1),
    }
    sites = []
    for path in dict.fromkeys(op["input"] for op in ops):
        scenario = load_scenario(path)
        sites += [(scenario.metric, point, scenario.numerics) for point in scenario.points]
    out, missing = {}, []
    for metric, (fn_name, scale, repeat) in names.items():
        fn = getattr(geometry, fn_name, None)
        if fn is None:
            missing.append(f"solitonlab.geometry.{fn_name}")
        out[metric] = scale * statistics.median(_timed(fn, site, repeat) for site in sites) if fn else 0.0
    out["geometry.riemann_metric_evals"] = 0.0
    riemann = getattr(geometry, "riemann", None)
    if riemann is not None:
        tracer.install()
        before = tracer.matrix_calls
        for site in sites:
            riemann(*site)
        tracer.uninstall()
        out["geometry.riemann_metric_evals"] = (tracer.matrix_calls - before) / len(sites)
    return out, missing


def layer_metrics(rounds: list[dict], tracer) -> dict[str, float]:
    from spans import layer_times

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    points = sum(r["points"] for r in traced)
    times = layer_times(tracer.spans)
    out = {
        f"{layer}_ms": 1e3 * stats["self_s"] / points
        for layer, stats in times.items()
        if layer.split(".")[0] in ("geometry", "spacetimes", "solitons")
    }
    out["geometry.metric_evals"] = tracer.matrix_calls / points
    out["geometry.metric_evals_unique"] = tracer.unique_points / points
    out["geometry.metric_eval_reuse"] = tracer.unique_points / tracer.matrix_calls
    out["geometry.metric_eval_ms"] = 1e3 * tracer.matrix_s / points
    out["scenario.load_ms"] = 1e3 * times["scenario.load"]["incl_s"] / times["scenario.load"]["calls"]
    out["report.point_ms"] = 1e3 * times["report.suite"]["incl_s"] / points
    out["report.suite_self_ms"] = 1e3 * times["report.suite"]["self_s"] / points
    out["report.emit_ms"] = 1e3 * times["report.emit"]["incl_s"] / times["report.emit"]["calls"]
    out["cli.sweep_overhead_ms"] = 1e3 * (times["cli.main"]["incl_s"] - times["report.suite"]["incl_s"]) / points
    traced_ms = 1e3 * sum(r["wall_s"] for r in traced) / points
    untraced_ms = 1e3 * sum(r["wall_s"] for r in plain) / sum(r["points"] for r in plain)
    out["trace.overhead_ms"] = traced_ms - untraced_ms
    return out


def main(argv: list[str]) -> int:
    spec_path, out_path, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import solitonlab  # noqa: F401  (every module loaded before patching)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    ops = spec["ops"]
    rounds = run_rounds(ops, seconds, tracer)
    result: dict = {"rounds": rounds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = layer_metrics(rounds, tracer)
        extra, missing = standalone(ops, tracer)
        layers.update(extra)
        result["layers"] = layers
        result["missing"] = sorted(set(tracer.missing) | set(missing))
        Path(spec["trace_file"]).write_text(json.dumps({"spans": tracer.spans}) + "\n", encoding="utf-8")
    Path(out_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
