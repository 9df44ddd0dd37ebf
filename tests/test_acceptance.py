"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Every tolerance is pinned here, not configurable.
"""

import json
import math

import numpy as np
import pytest

from solitonlab.cli import main
from solitonlab.expressions import parse
from solitonlab.geometry import (
    PointGeometry,
    VectorFieldSpec,
    christoffel,
    contracted_bianchi_residual,
    fd_convergence_ratio,
    laplacian_routes,
    max_abs,
    metric_at,
    ricci,
    riemann,
)
from solitonlab.solitons import (
    PointSamples,
    SolitonParams,
    ckv_fit,
    einstein_fit_point,
    eta_closed_forms,
    eta_projection_solve,
    lambda_closed_form,
    lambda_from_projection,
    nabla_decomposition_check,
    potential_field_identities,
    potential_field_terms,
    rotation_skew_residual,
    soliton_residual,
    torse_consequence_residuals,
    torse_forming_residual,
    torse_lie_residual,
)
from solitonlab.report import run_suite
from solitonlab.scenario import load_scenario
from solitonlab.spacetimes import (
    FluidValues,
    catalog_metric,
    einstein_eigen_check,
    fluid_from_ricci,
)

from conftest import COORDS, SCENARIO_DIR, field_samples, random_lorentzian, random_points

DS_FLUID = FluidValues(0.0, 0.0, 8 * math.pi, 3.0)
VACUUM = FluidValues(0.0, 0.0, 1.0, 0.0)


def _report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number:02d}: {description}"


@pytest.fixture(scope="module")
def fields():
    return {
        "time": VectorFieldSpec.from_components([1, 0, 0, 0], COORDS),
        "euler": VectorFieldSpec.from_components(["t", "x", "y", "z"], COORDS),
        "rotation": VectorFieldSpec.from_components(["0", "-y", "x", "0"], COORDS),
    }


@pytest.fixture(scope="module")
def catalog():
    return [
        catalog_metric("minkowski"),
        catalog_metric("de_sitter", hubble=1.0),
        catalog_metric("grw_flat", scale_factor="t^(1/2)"),
    ]


def test_criterion_01_curvature_oracle(de_sitter, minkowski):
    worst_ricci = worst_scalar = 0.0
    for t in (-1.0, 0.0, 1.0):
        p = (t, 0.0, 0.0, 0.0)
        g = metric_at(de_sitter, p).components
        worst_ricci = max(worst_ricci, max_abs(ricci(de_sitter, p).components - 3.0 * g))
        worst_scalar = max(worst_scalar, abs(PointGeometry(de_sitter, p).scalar - 12.0))
    flat = 0.0
    for p in random_points(3, seed=101):
        flat = max(
            flat,
            max_abs(christoffel(minkowski, p).components),
            max_abs(riemann(minkowski, p).components),
            max_abs(ricci(minkowski, p).components),
            abs(PointGeometry(minkowski, p).scalar),
        )
    _report(
        1,
        worst_ricci <= 1e-5 and worst_scalar <= 1e-5 and flat <= 1e-10,
        f"curvature oracle (|S-3g|={worst_ricci:.2e}, |r-12|={worst_scalar:.2e}, flat={flat:.2e})",
    )


def test_criterion_02_torse_forming_anchor(de_sitter, fields):
    worst = 0.0
    for p in random_points(5, seed=102):
        geo = PointGeometry(de_sitter, p)
        tc = torse_consequence_residuals(geo, fields["time"])
        worst = max(
            worst,
            torse_forming_residual(geo, fields["time"]),
            tc.geodesic_flow,
            tc.eta_derivative,
            tc.curvature_action,
            tc.eta_curvature,
            torse_lie_residual(geo, fields["time"]),
        )
    steep = catalog_metric("de_sitter", hubble=2.0)
    miss = torse_forming_residual(PointGeometry(steep, random_points(1, seed=103)[0]), fields["time"])
    _report(
        2,
        worst <= 1e-5 and abs(miss - 1.0) <= 1e-3,
        f"torse-forming anchor (pass residual={worst:.2e}, steep-warp miss={miss:.6f})",
    )


def test_criterion_03_closed_form_equivalence_sweep():
    rng = np.random.default_rng(20260809)
    worst_lambda = worst_eta = 0.0
    for _ in range(1000):
        g, xi = random_lorentzian(rng)
        vals = FluidValues(
            sigma=float(rng.uniform(-2, 2)),
            rho=float(rng.uniform(-2, 2)),
            kappa=float(rng.uniform(0.1, 5.0)),
            lam=float(rng.uniform(-2, 2)),
        )
        alpha, beta, p = (float(v) for v in rng.uniform(-2, 2, 3))
        samples = PointSamples.from_fluid(vals, g, xi)
        params = SolitonParams("conformal_ricci_yamabe", alpha=alpha, beta=beta, p=p)
        worst_lambda = max(
            worst_lambda,
            abs(lambda_from_projection(samples, params) - lambda_closed_form(vals, alpha, beta, p)),
        )
        sol = eta_projection_solve(samples, alpha, beta, p)
        lam_cf, mu_cf = eta_closed_forms(vals, alpha, beta, p, sol.div_xi)
        worst_eta = max(worst_eta, abs(sol.lam - lam_cf), abs(sol.mu - mu_cf))
    _report(
        3,
        worst_lambda <= 1e-9 and worst_eta <= 1e-9,
        f"closed-form equivalence over 1000 synthetic draws (lambda={worst_lambda:.2e}, eta={worst_eta:.2e})",
    )


def test_criterion_04_laplacian_identity(de_sitter):
    # the paper's Laplace equation for f = t, Delta f = -3(mu + alpha kappa (sigma + rho)),
    # with Delta f the trace of Hess f and mu solved from the projections, at a
    # generic point and the three plan points of de-sitter-eta-gradient
    f = parse("t", COORDS)
    grad_t = VectorFieldSpec.gradient_of("t", COORDS)
    coeff = DS_FLUID.kappa * (DS_FLUID.sigma + DS_FLUID.rho)  # alpha = 1
    value = identity = gap = 0.0
    for p in ((0.5, 0.1, -0.2, 0.3), (-0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)):
        geo = PointGeometry(de_sitter, p)
        div_route, trace_route = laplacian_routes(geo, f)
        mu = eta_projection_solve(PointSamples.from_geometry(geo, grad_t), 1.0, 0.0, -0.5).mu
        value = max(value, abs(trace_route + 3.0))
        identity = max(identity, abs(trace_route + 3.0 * (mu + coeff)))
        gap = max(gap, abs(div_route - trace_route))
    ok = value <= 1e-5 and identity <= 1e-5 and gap <= 1e-6
    _report(
        4,
        ok,
        f"laplace equation (|value + 3|={value:.2e}, residual={identity:.2e}, route gap={gap:.2e})",
    )


def test_criterion_05_eta_soliton_worked_case(de_sitter):
    grad_t = VectorFieldSpec.gradient_of("t", COORDS)
    samples = PointSamples.from_geometry(PointGeometry(de_sitter, (0.5, 0.1, -0.2, 0.3)), grad_t)
    sol = eta_projection_solve(samples, 1.0, 0.0, -0.5)
    ok = (
        abs(sol.lam - (-2.0)) <= 1e-6
        and abs(sol.mu - 1.0) <= 1e-6
        and sol.back_substitution <= 1e-9
    )
    _report(
        5,
        ok,
        f"eta-family worked case (lam={sol.lam:.9f}, mu={sol.mu:.9f}, back-sub={sol.back_substitution:.2e})",
    )


def test_criterion_06_radiation_reduction(frw_sqrt, fields):
    rng = np.random.default_rng(106)
    worst_cf = 0.0
    for _ in range(100):
        rho, k, a, b, lam_c, p, div = (float(v) for v in rng.uniform(-2, 2, 7))
        k = abs(k) + 0.1
        lam, mu = eta_closed_forms(FluidValues(3 * rho, rho, k, lam_c), a, b, p, div)
        worst_cf = max(
            worst_cf,
            abs(lam - ((2 * b - a) * lam_c - k * a * rho + 0.5 * (p + 0.5) - div / 3.0)),
            abs(mu - (-4.0 * k * a * rho - div / 3.0)),
        )
    point = (1.0, 0.0, 0.0, 0.0)
    s = ricci(frw_sqrt, point).components
    g = metric_at(frw_sqrt, point).components
    vals, fit = fluid_from_ricci(s, g, np.array([1.0, 0, 0, 0]), kappa=1.0, lam=0.0)
    geo = PointGeometry(frw_sqrt, point)
    r = geo.scalar
    eig = einstein_eigen_check(geo, vals)
    ok = (
        worst_cf <= 1e-12
        and abs(vals.sigma - 3.0 * vals.rho) <= 1e-5
        and abs(r) <= 1e-5
        and eig.max_deviation <= 1e-5
    )
    _report(
        6,
        ok,
        f"radiation reduction (coeff={worst_cf:.2e}, sigma-3rho={vals.sigma - 3 * vals.rho:.2e}, "
        f"r={r:.2e}, eigen dev={eig.max_deviation:.2e})",
    )


def test_criterion_07_ckv_einstein_logic(minkowski, de_sitter, fields):
    pts = random_points(4, seed=107)
    euler = ckv_fit(field_samples(minkowski, fields["euler"], pts))
    einstein_residual = max(einstein_fit_point(geo.ricci, geo.g)[1] for geo in (PointGeometry(minkowski, p) for p in pts))
    ds = ckv_fit(field_samples(de_sitter, fields["time"], pts))
    ok = (
        euler.category == "homothetic"
        and all(abs(phi - 1.0) <= 1e-6 for phi in euler.phis)
        and einstein_residual <= 1e-10
        and ds.category == "not_ckv"
    )
    _report(
        7,
        ok,
        f"conformal/einstein logic (euler={euler.category}, phi spread={max(euler.phis) - min(euler.phis):.1e}, "
        f"einstein residual={einstein_residual:.1e}, expansion flow={ds.category})",
    )


def test_criterion_08_potential_identity_suite(minkowski, catalog, fields):
    params = SolitonParams("conformal_ricci_yamabe", alpha=1.0, beta=0.0, p=-0.5, lam=-1.0)
    worst_soliton = worst_identity = 0.0
    for p in random_points(3, seed=108):
        geo = PointGeometry(minkowski, p)
        samples = PointSamples.from_geometry(geo, fields["euler"])
        worst_soliton = max(worst_soliton, max_abs(soliton_residual(samples, params).components))
        res = potential_field_identities(potential_field_terms(geo, fields["euler"]), VACUUM, params)
        worst_identity = max(
            worst_identity, res.curvature_identity, res.divergence_identity, res.norm_gradient_identity
        )
    worst_skew = 0.0
    for m in catalog:
        for v in fields.values():
            for p in random_points(2, seed=109):
                worst_skew = max(worst_skew, rotation_skew_residual(PointGeometry(m, p), v))
    # the report decides the hypotheses: the same field and constant in the shipped fixture
    report = run_suite(load_scenario(SCENARIO_DIR / "minkowski-euler-soliton.json"))
    applicable = all(rec.identities["potential_curvature_identity"]["applicable"] for rec in report.points)
    ok = applicable and worst_soliton <= 1e-9 and worst_identity <= 1e-5 and worst_skew <= 1e-9
    _report(
        8,
        ok,
        f"potential identity suite (soliton={worst_soliton:.2e}, identities={worst_identity:.2e}, "
        f"skew={worst_skew:.2e}, applicable={applicable})",
    )


def test_criterion_09_unconditional_decomposition(catalog, fields):
    worst = 0.0
    for m in catalog:
        for v in fields.values():
            for p in random_points(5, seed=110):
                worst = max(worst, nabla_decomposition_check(PointGeometry(m, p), v))
    _report(9, worst <= 1e-5, f"unconditional derivative decomposition (worst={worst:.2e})")


def test_criterion_10_numerics_health(catalog, de_sitter):
    worst_bianchi = 0.0
    for m in catalog:
        for p in random_points(3, seed=111):
            worst_bianchi = max(worst_bianchi, contracted_bianchi_residual(PointGeometry(m, p)))
    ratio = fd_convergence_ratio(PointGeometry(de_sitter, (0.5, 0.0, 0.0, 0.0)))
    ok = worst_bianchi <= 1e-4 and ratio is not None and 3.5 <= ratio <= 4.5
    _report(
        10,
        ok,
        f"numerics health (contracted bianchi={worst_bianchi:.2e}, fd ratio={ratio:.4f})",
    )


def test_criterion_11_cli_fixtures(tmp_path):
    passing = ["minkowski.json", "de-sitter-soliton.json", "frw-radiation.json"]
    codes = []
    stable = True
    for name in passing:
        a = tmp_path / f"{name}.a.json"
        b = tmp_path / f"{name}.b.json"
        codes.append(main(["analyze", str(SCENARIO_DIR / name), "--out", str(a), "--no-timestamp"]))
        main(["analyze", str(SCENARIO_DIR / name), "--out", str(b), "--no-timestamp"])
        stable = stable and a.read_bytes() == b.read_bytes()
        stable = stable and json.loads(a.read_text())["summary"]["verdict"] == "pass"
    mismatch = main(
        ["analyze", str(SCENARIO_DIR / "minkowski-lambda-mismatch.json"), "--out", str(tmp_path / "m.json")]
    )
    ok = codes == [0, 0, 0] and stable and mismatch == 1
    _report(
        11,
        ok,
        f"cli fixtures (exit codes={codes}, byte-stable={stable}, inconsistent exit={mismatch})",
    )
