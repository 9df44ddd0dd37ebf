"""The scripts under scripts/ still import and run against the package."""

import ast
import importlib.util
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


def test_constant_surface_fails_on_a_closed_form_mismatch(monkeypatch, capsys):
    # the cross-check against the closed form is an explicit check, kept
    # under python -O: a closed form off by 1e-6 names the first node and
    # makes the script exit 1
    spec = importlib.util.spec_from_file_location("constant_surface", ROOT / "scripts" / "constant_surface.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    closed = script.lambda_closed_form
    monkeypatch.setattr(script, "lambda_closed_form", lambda *args: closed(*args) + 1e-6)
    assert script.main() == 1
    assert "alpha=-1.0, beta=-1.0: solved constant" in capsys.readouterr().err


def test_no_assert_statement_in_the_package_or_scripts():
    # a runtime check must not vanish under python -O
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for folder in ("src/solitonlab", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_reads_a_private_name_of_another():
    # geometry and lattice keep their underscore names to themselves: no other
    # module of the package, and no script, imports one from them, and none
    # reads an underscore attribute of any object but self or cls
    owners = ("geometry.py", "lattice.py")
    package = [path for path in sorted((ROOT / "src/solitonlab").glob("*.py")) if path.name not in owners]
    found = []
    for path in package + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] in ("geometry", "lattice"):
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                dunder = node.attr.startswith("__") and node.attr.endswith("__")
                own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                names = [] if dunder or own else [node.attr]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names]
    assert found == []
