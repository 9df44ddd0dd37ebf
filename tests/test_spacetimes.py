import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.expressions import ParseError
from solitonlab.geometry import PointGeometry, max_abs, metric_at, ricci
from solitonlab.report import run_suite
from solitonlab.scenario import load_scenario, scenario_from_dict
from solitonlab.spacetimes import (
    FluidState,
    FluidValues,
    catalog_entries,
    catalog_metric,
    efe_residual,
    einstein_eigen_check,
    energy_momentum,
    fluid_from_ricci,
    ricci_from_fluid,
)

from conftest import COORDS, SCENARIO_DIR, random_lorentzian, random_points

MINK = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA0 = np.array([-1.0, 0.0, 0.0, 0.0])  # lowered coordinate-time on Minkowski


class TestCatalog:
    def test_minkowski(self):
        g = metric_at(catalog_metric("minkowski"), (3.0, 1.0, 2.0, -1.0)).components
        assert np.array_equal(g, MINK)

    def test_de_sitter_definition(self):
        g = metric_at(catalog_metric("de_sitter", hubble=2.0), (0.5, 0, 0, 0)).components
        assert np.allclose(g, np.diag([-1.0, math.exp(2.0), math.exp(2.0), math.exp(2.0)]))

    def test_grw_flat_sqrt(self):
        g = metric_at(catalog_metric("grw_flat", scale_factor="t^(1/2)"), (2.5, 0, 0, 0)).components
        assert np.allclose(g, np.diag([-1.0, 2.5, 2.5, 2.5]))

    def test_bad_scale_factor(self):
        with pytest.raises(ParseError):
            catalog_metric("grw_flat", scale_factor="ex(2*t)")
        with pytest.raises(ValueError):
            catalog_metric("grw_flat", scale_factor="x+1")  # not time-only

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog_metric("schwarzschild")

    def test_entries_listed(self):
        assert [e["name"] for e in catalog_entries()] == ["minkowski", "de_sitter", "grw_flat"]


class TestFluidState:
    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            FluidState(1.0, 0.0, kappa=0.0, lam=0.0)

    def test_radiation_constructor(self):
        f = FluidState.radiation(rho=0.25, kappa=1.0, lam=0.0).at()
        assert f.sigma == 0.75 and f.rho == 0.25

    def test_expression_valued(self):
        from solitonlab.expressions import parse

        f = FluidState(sigma=parse("3*t", COORDS), rho=parse("t", COORDS), kappa=2.0, lam=0.0)
        vals = f.at((2.0, 0, 0, 0), COORDS)
        assert vals.sigma == 6.0 and vals.rho == 2.0
        with pytest.raises(ValueError):
            f.at()


class TestEnergyMomentum:
    def test_dust_is_pure_vertical(self):
        vals = FluidValues(sigma=2.0, rho=0.0, kappa=1.0, lam=0.0)
        t = energy_momentum(vals, MINK, ETA0)
        assert max_abs(t - 2.0 * np.outer(ETA0, ETA0)) == 0.0

    def test_radiation_form(self):
        vals = FluidValues(sigma=0.75, rho=0.25, kappa=1.0, lam=0.0)
        t = energy_momentum(vals, MINK, ETA0)
        assert max_abs(t - 0.25 * (MINK + 4.0 * np.outer(ETA0, ETA0))) < 1e-15

    def test_vacuum_is_zero(self):
        vals = FluidValues(0.0, 0.0, 1.0, 0.0)
        assert max_abs(energy_momentum(vals, MINK, ETA0)) == 0.0

    def test_unit_norm_enforced(self):
        # the fluid form needs a unit flow: the report marks the fit
        # inapplicable and skips the field equation, without an error
        doc = {
            "metric": {"catalog": "minkowski"},
            "vector_field": {"components": [2, 0, 0, 0]},
            "fluid": {"sigma": 1.0, "rho": 0.0, "kappa": 1.0, "cosmological_constant": 0.0},
            "points": [[0.0, 0.0, 0.0, 0.0]],
        }
        (rec,) = run_suite(scenario_from_dict(doc)).points
        assert rec.error is None
        assert not rec.identities["perfect_fluid_fit"]["applicable"]
        assert "efe_residual" not in rec.identities


class TestRicciFromFluid:
    def test_vacuum_with_constant(self):
        vals = FluidValues(0.0, 0.0, kappa=8 * math.pi, lam=3.0)
        assert max_abs(ricci_from_fluid(vals, MINK, ETA0) - 3.0 * MINK) == 0.0

    def test_radiation_split(self):
        vals = FluidValues(0.75, 0.25, kappa=2.0, lam=0.0)
        expected = 2.0 * 0.25 * MINK + 2.0 * 1.0 * np.outer(ETA0, ETA0)
        assert max_abs(ricci_from_fluid(vals, MINK, ETA0) - expected) < 1e-15

    def test_einstein_case_has_no_vertical_part(self):
        # sigma + rho = 0 leaves a pure multiple of the metric
        vals = FluidValues(1.5, -1.5, kappa=2.0, lam=0.5)
        theta = vals.lam + vals.kappa * (vals.sigma - vals.rho) / 2.0
        assert max_abs(ricci_from_fluid(vals, MINK, ETA0) - theta * MINK) < 1e-15


class TestFieldEquation:
    def test_de_sitter_exact(self, de_sitter, coordinate_time):
        fluid = FluidValues(0.0, 0.0, kappa=8 * math.pi, lam=3.0)
        for p in random_points(3, seed=21):
            res = efe_residual(PointGeometry(de_sitter, p), fluid, coordinate_time)
            assert max_abs(res) < 1e-5

    def test_minkowski_vacuum(self, minkowski, coordinate_time):
        fluid = FluidValues(0.0, 0.0, kappa=1.0, lam=0.0)
        res = efe_residual(PointGeometry(minkowski, (0, 0, 0, 0)), fluid, coordinate_time)
        assert max_abs(res) == 0.0

    def test_minkowski_mismatch_equals_metric(self, minkowski, coordinate_time):
        fluid = FluidValues(0.0, 0.0, kappa=1.0, lam=1.0)
        res = efe_residual(PointGeometry(minkowski, (0, 0, 0, 0)), fluid, coordinate_time)
        assert res.shape == MINK.shape and np.array_equal(res, res.T)
        assert max_abs(res - MINK) < 1e-12

    def test_scalar_curvature_identity(self, de_sitter, minkowski, frw_sqrt):
        def scalar_curvature_identity(geo, fluid):
            """r - [4 lam + kappa (sigma - 3 rho)]; near zero for a matching fluid."""
            values = fluid.at(geo.point, COORDS)
            return geo.scalar - (4.0 * values.lam + values.kappa * (values.sigma - 3.0 * values.rho))

        assert scalar_curvature_identity(
            PointGeometry(de_sitter, (0.5, 0, 0, 0)), FluidState(0.0, 0.0, 8 * math.pi, 3.0)
        ) == pytest.approx(0.0, abs=1e-6)
        # a radiation fluid forces the curvature scalar to 4 lam
        rad = FluidState.radiation(rho=0.25, kappa=1.0, lam=0.0)
        assert scalar_curvature_identity(PointGeometry(frw_sqrt, (1.0, 0, 0, 0)), rad) == pytest.approx(0.0, abs=1e-6)
        assert scalar_curvature_identity(
            PointGeometry(minkowski, (0, 0, 0, 0)), FluidState(0.0, 0.0, 1.0, 1.0)
        ) == pytest.approx(-4.0, abs=1e-12)


class TestFluidFromRicci:
    def test_de_sitter_vacuum(self, de_sitter):
        p = (0.7, 0.1, 0.2, 0.3)
        s = ricci(de_sitter, p).components
        g = metric_at(de_sitter, p).components
        vals, fit = fluid_from_ricci(s, g, np.array([1.0, 0, 0, 0]), kappa=8 * math.pi, lam=3.0)
        assert abs(vals.sigma) < 1e-7 and abs(vals.rho) < 1e-7
        assert fit.residual < 1e-6 and fit.perfect_fluid

    def test_frw_sqrt_is_radiation(self, frw_sqrt):
        s = ricci(frw_sqrt, (1.0, 0, 0, 0)).components
        g = metric_at(frw_sqrt, (1.0, 0, 0, 0)).components
        vals, fit = fluid_from_ricci(s, g, np.array([1.0, 0, 0, 0]), kappa=1.0, lam=0.0)
        assert vals.sigma == pytest.approx(0.75, abs=1e-8)
        assert vals.rho == pytest.approx(0.25, abs=1e-8)
        assert vals.sigma == pytest.approx(3 * vals.rho, abs=1e-7)
        assert fit.perfect_fluid

    def test_off_diagonal_breaks_the_form(self, de_sitter):
        p = (0.7, 0.1, 0.2, 0.3)
        s = ricci(de_sitter, p).components.copy()
        s[0, 1] = s[1, 0] = 0.5
        g = metric_at(de_sitter, p).components
        _, fit = fluid_from_ricci(s, g, np.array([1.0, 0, 0, 0]), kappa=1.0, lam=0.0)
        assert fit.residual > 0.1
        assert not fit.perfect_fluid

    def test_round_trip_random(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            g, xi = random_lorentzian(rng)
            vals = FluidValues(
                sigma=float(rng.uniform(-2, 2)),
                rho=float(rng.uniform(-2, 2)),
                kappa=float(rng.uniform(0.1, 5.0)),
                lam=float(rng.uniform(-2, 2)),
            )
            s = ricci_from_fluid(vals, g, g @ xi)
            got, fit = fluid_from_ricci(s, g, xi, vals.kappa, vals.lam)
            assert abs(got.sigma - vals.sigma) < 1e-9
            assert abs(got.rho - vals.rho) < 1e-9
            assert fit.residual < 1e-9

    def test_recovered_fluid_solves_field_equation(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            g, xi = random_lorentzian(rng)
            vals = FluidValues(
                sigma=float(rng.uniform(-1, 2)),
                rho=float(rng.uniform(-1, 1)),
                kappa=float(rng.uniform(0.5, 3.0)),
                lam=float(rng.uniform(-1, 1)),
            )
            eta = g @ xi
            s = ricci_from_fluid(vals, g, eta)
            r = float(np.einsum("ij,ij->", np.linalg.inv(g), s))
            t = energy_momentum(vals, g, eta)
            residual = s + (vals.lam - 0.5 * r) * g - vals.kappa * t
            assert max_abs(residual) < 1e-9


class TestRicciOperator:
    def test_de_sitter_is_three_identity(self, de_sitter):
        p = (0.4, 0, 0, 0)
        s = ricci(de_sitter, p).components
        g_inv = np.linalg.inv(metric_at(de_sitter, p).components)
        for x in np.eye(4):
            assert np.allclose(g_inv @ s @ x, 3.0 * x, atol=1e-6)

    def test_flat_is_zero(self, minkowski):
        s = ricci(minkowski, (0, 0, 0, 0)).components
        assert max_abs(MINK @ s @ np.array([1.0, 2.0, 3.0, 4.0])) == 0.0

    def test_bilinear_identity_and_vertical_eigenvalue(self):
        rng = np.random.default_rng(5)
        g, xi = random_lorentzian(rng)
        vals = FluidValues(sigma=1.3, rho=0.4, kappa=2.0, lam=0.7)
        eta = g @ xi
        s = ricci_from_fluid(vals, g, eta)
        g_inv = np.linalg.inv(g)
        x = rng.uniform(-1, 1, 4)
        y = rng.uniform(-1, 1, 4)
        assert float(g_inv @ s @ x @ g @ y) == pytest.approx(float(x @ s @ y), abs=1e-9)
        expected = (vals.lam + vals.kappa * (vals.sigma - vals.rho) / 2 - vals.kappa * (vals.sigma + vals.rho)) * xi
        assert np.allclose(g_inv @ s @ xi, expected, atol=1e-9)


class TestEigenCheck:
    # the multiset is applicable where the field equation holds, within the
    # report's default applicability tolerance 1e-6
    def test_minkowski_zero_spectrum(self, minkowski, coordinate_time):
        geo = PointGeometry(minkowski, (0, 0, 0, 0))
        vals = FluidValues(0.0, 0.0, 1.0, 0.0)
        res = einstein_eigen_check(geo, vals)
        assert res.eigenvalues == (0.0, 0.0, 0.0, 0.0)
        assert res.max_deviation == 0.0
        assert max_abs(efe_residual(geo, vals, coordinate_time)) <= 1e-6

    def test_frw_radiation_multiset(self, frw_sqrt, coordinate_time):
        vals = FluidValues(0.75, 0.25, kappa=1.0, lam=0.0)
        geo = PointGeometry(frw_sqrt, (1.0, 0, 0, 0))
        res = einstein_eigen_check(geo, vals)
        assert np.allclose(res.expected, [-0.75, 0.25, 0.25, 0.25])
        assert res.max_deviation < 1e-5
        assert max_abs(efe_residual(geo, vals, coordinate_time)) <= 1e-6

    def test_de_sitter_vacuum(self, de_sitter, coordinate_time):
        vals = FluidValues(0.0, 0.0, kappa=8 * math.pi, lam=3.0)
        geo = PointGeometry(de_sitter, (0.5, 0.1, 0.2, 0.3))
        res = einstein_eigen_check(geo, vals)
        assert res.max_deviation < 1e-5
        assert max_abs(efe_residual(geo, vals, coordinate_time)) <= 1e-6

    def test_mismatch_flagged_inapplicable(self):
        report = run_suite(load_scenario(SCENARIO_DIR / "minkowski-lambda-mismatch.json"))
        for rec in report.points:
            info = rec.identities["einstein_eigen_multiset"]
            assert not info["applicable"] and not info["asserted"]


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(["t^(1/2)", "exp(t)", "t", "1+t^2/4", "cosh(t)"]), seed=st.integers(0, 10**6))
def test_grw_metrics_fit_perfect_fluid_form(q, seed):
    # every flat warped product in the catalog family looks like a perfect
    # fluid along its time flow
    m = catalog_metric("grw_flat", scale_factor=q)
    (p,) = random_points(1, seed=seed)
    s = ricci(m, p).components
    g = metric_at(m, p).components
    _, fit = fluid_from_ricci(s, g, np.array([1.0, 0, 0, 0]), kappa=1.0, lam=0.0)
    assert fit.residual < 1e-5
    assert fit.isotropy_spread < 1e-5
