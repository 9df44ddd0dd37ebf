"""Output checks against closed forms derived here, never against stored reports.

Every check returns a list of problems; an empty list means the output is
correct.  Tolerances are relative to max(1, |expected|), except the
Kretschmann scalar's, which is relative to the expected value.
"""

from __future__ import annotations

import json
from pathlib import Path

TOL = 1e-6
KRETSCHMANN_TOL = 1e-6


def schema_validator(root: Path):
    """Draft-7 validator of report.schema.json, resolving its $ref to the scenario schema locally."""
    import jsonschema
    from referencing import Registry
    from referencing.jsonschema import DRAFT7

    schemas = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in (root / "schemas").glob("*.schema.json")}
    registry = Registry().with_resources((name, DRAFT7.create_resource(doc)) for name, doc in schemas.items())
    return jsonschema.Draft7Validator(schemas["report.schema.json"], registry=registry)


def _near(value, expected: float, what: str, tol: float = TOL) -> list[str]:
    if value is None or not abs(value - expected) <= tol * max(1.0, abs(expected)):
        return [f"{what} = {value!r}, expected {expected!r}"]
    return []


def _derived(report: dict, key: str) -> list:
    return [pt["derived"].get(key) for pt in report["points"]]


def _de_sitter_lambda(hubble: float, alpha: float, beta: float, p: float) -> float:
    """Soliton constant of the xi-xi projection on the exponential slicing.

    There S = 3 H^2 g and r = 12 H^2, and the unit flow xi = d/dt is
    torse-forming, so (Lie_xi g)(xi, xi) = 0 and g(xi, xi) = -1.  The xi-xi
    component of Lie + 2 alpha S + (2 lam - beta r - p - 1/2) g is then
    -6 alpha H^2 - 2 lam + 12 beta H^2 + p + 1/2, which vanishes at the
    value returned.
    """
    h2 = hubble * hubble
    return (2.0 * beta - alpha) * 3.0 * h2 + 0.5 * (p + 0.5)


def _common(report: dict, op: dict, validator) -> list[str]:
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if len(report["points"]) != op["plan_points"]:
        problems.append(f"{len(report['points'])} points in the report")
    problems += [f"point {i}: {pt['error']}" for i, pt in enumerate(report["points"]) if pt["error"]]
    return problems


def _check_fixture(report: dict, scenario: dict) -> list[str]:
    name = scenario["name"]
    points = report["points"]
    problems: list[str] = []
    if name == "de-sitter-soliton":
        h = scenario["metric"]["hubble"]
        sol = scenario["soliton"]
        lam = _de_sitter_lambda(h, sol["alpha"], sol["beta"], sol["p"])
        problems += [x for r in _derived(report, "scalar_curvature") for x in _near(r, 12.0 * h * h, "r")]
        problems += [x for v in _derived(report, "lambda_projection") for x in _near(v, lam, "lambda")]
        problems += _near(report["summary"]["classification"]["value"], lam, "classified constant")
    elif name == "de-sitter-eta-gradient":
        # xi = grad t = -d/dt has divergence -3H; the closed forms of the
        # eta system are lam = (de Sitter lambda) - div/3, mu = -alpha k (sigma + rho) - div/3
        h = scenario["metric"]["hubble"]
        sol, fluid = scenario["soliton"], scenario["fluid"]
        div = -3.0 * h
        lam = _de_sitter_lambda(h, sol["alpha"], sol["beta"], sol["p"]) - div / 3.0
        mu = -sol["alpha"] * fluid["kappa"] * (fluid["sigma"] + fluid["rho"]) - div / 3.0
        problems += [x for v in _derived(report, "eta_lambda") for x in _near(v, lam, "eta lambda")]
        problems += [x for v in _derived(report, "eta_mu") for x in _near(v, mu, "eta mu")]
    elif name == "minkowski-euler-soliton":
        for i, pt in enumerate(points):
            res = pt["identities"].get("soliton_residual", {}).get("residual")
            problems += _near(res, 0.0, f"point {i} soliton residual", tol=1e-9)
    elif name == "frw-radiation":
        # a = sqrt(t): H = 1/(2t), so the density is 3 H^2 / k and the pressure a third of it
        kappa = scenario["fluid"]["fit_from_ricci"]["kappa"]
        for pt in points:
            t = pt["coordinates"][0]
            problems += _near(pt["derived"].get("sigma_fit"), 3.0 / (4.0 * kappa * t * t), f"sigma at t={t}")
            problems += _near(pt["derived"].get("rho_fit"), 1.0 / (4.0 * kappa * t * t), f"rho at t={t}")
            problems += _near(pt["derived"].get("scalar_curvature"), 0.0, f"r at t={t}")
    elif name in ("minkowski", "minkowski-lambda-mismatch", "vacuum-infall-custom"):
        problems += [x for r in _derived(report, "scalar_curvature") for x in _near(r, 0.0, "r")]
    return problems


def _check_grid(report: dict, scenario: dict) -> list[str]:
    problems = []
    for i, (pt, planned) in enumerate(zip(report["points"], scenario["points"])):
        if pt["coordinates"] != planned:
            problems.append(f"point {i} at {pt['coordinates']}, planned {planned}")
        for key in ("scalar_curvature", "sigma_fit", "rho_fit"):
            problems += _near(pt["derived"].get(key), 0.0, f"point {i} {key}")
    return problems


def check_operation(op: dict, text: str, code: int, validator) -> list[str]:
    """Problems with one operation's exit code and report."""
    scenario = json.loads(Path(op["input"]).read_text(encoding="utf-8"))
    expected_verdict = "fail" if op["expect_exit"] else "pass"
    problems = [] if code == op["expect_exit"] else [f"exit code {code}, expected {op['expect_exit']}"]
    doc = json.loads(text)
    if op["command"] != "sweep":
        problems += _common(doc, op, validator)
        if doc["summary"]["verdict"] != expected_verdict:
            problems.append(f"verdict {doc['summary']['verdict']}, expected {expected_verdict}")
        check = _check_grid if op["command"] == "verify" else _check_fixture
        return problems + check(doc, scenario)
    if [entry["value"] for entry in doc] != op["values"]:
        return problems + ["sweep values differ from the requested ones"]
    h = scenario["metric"]["hubble"]
    sol = scenario["soliton"]
    for entry in doc:
        report, alpha = entry["report"], entry["value"]
        where = f"alpha={alpha}: "
        problems += [where + x for x in _common(report, op, validator)]
        if entry["parameter"] != op["param"]:
            problems.append(where + f"parameter {entry['parameter']!r}")
        if report["summary"]["verdict"] != "pass":
            problems.append(where + f"verdict {report['summary']['verdict']}, expected pass")
        lam = _de_sitter_lambda(h, alpha, sol["beta"], sol["p"])
        problems += [where + x for r in _derived(report, "scalar_curvature") for x in _near(r, 12.0 * h * h, "r")]
        problems += [where + x for v in _derived(report, "lambda_projection") for x in _near(v, lam, "lambda")]
    return problems


def kretschmann_problems(op: dict, count: int = 3) -> list[str]:
    """R_abcd R^abcd from the public riemann and metric_at equals 12 / r^6 on the infall chart.

    The chart is the Schwarzschild vacuum with horizon radius 1 (mass 1/2),
    whose Kretschmann scalar is 48 M^2 / r^6.  Needs solitonlab importable.
    """
    import numpy as np
    from solitonlab import load_scenario
    from solitonlab.geometry import metric_at, riemann

    scenario = load_scenario(op["input"])
    problems = []
    for point in scenario.points[:count]:
        g = metric_at(scenario.metric, point, scenario.numerics).components
        up = riemann(scenario.metric, point, scenario.numerics).components  # R^l_kij
        g_inv = np.linalg.inv(g)
        low = np.einsum("lm,mkij->lkij", g, up)
        raised = np.einsum("kb,ic,jd,lbcd->lkij", g_inv, g_inv, g_inv, up)
        k = float(np.einsum("lkij,lkij->", low, raised))
        expected = 12.0 / point[1] ** 6
        if not abs(k / expected - 1.0) <= KRETSCHMANN_TOL:
            problems.append(f"Kretschmann at {list(point)} = {k!r}, expected {expected!r}")
    if not scenario.points:
        problems.append("no grid points")
    return problems

