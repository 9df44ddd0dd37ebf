"""The scripts under scripts/ still import and run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["run_fixtures.py", "convergence_study.py", "constant_surface.py"])
def test_script_runs(script):
    done = run(str(ROOT / "scripts" / script))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout


def test_bench_help():
    done = run(str(ROOT / "scripts" / "bench.py"), "--help")
    assert done.returncode == 0, done.stderr
    assert "--parent" in done.stdout


def test_bench_counts_field_evaluations():
    done = run(str(ROOT / "scripts" / "bench.py"), "--count-field-evals", "grid", "1")
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.split()[-1]) > 0
