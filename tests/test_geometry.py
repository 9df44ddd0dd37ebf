import itertools
import json
import math
import re
from collections import Counter
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.expressions import (
    Binary,
    Const,
    EvalDomainError,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    variables,
)
from solitonlab.geometry import (
    DEFAULT_NUMERICS,
    NUMERICAL_FAILURES,
    BlockGeometry,
    ChristoffelSample,
    GeometryError,
    MetricSpec,
    NumericsConfig,
    PointGeometry,
    SignatureError,
    SingularMetricError,
    TensorSample,
    VectorFieldSpec,
    bianchi_first_residual,
    block_geometries,
    christoffel,
    christoffel_exact,
    contracted_bianchi_residual,
    einstein_tensor,
    fd_convergence_ratio,
    frame_from_matrix,
    laplacian_routes,
    max_abs,
    metric_at,
    metric_compatibility_residual,
    ricci,
    riemann,
    riemann_antisymmetry_residual,
)
from solitonlab import lattice
from solitonlab.lattice import _distinct, christoffel_from_dg, einstein_gradient
from solitonlab.report import DEFAULT_TOLERANCES, run_suite
from solitonlab.scenario import scenario_from_dict
from solitonlab.spacetimes import FluidValues, catalog_metric

from conftest import COORDS, CURVATURE_INPUTS, plan_blocks, random_points, ring_grad

MINK = np.diag([-1.0, 1.0, 1.0, 1.0])


def catalog_all():
    return [
        catalog_metric("minkowski"),
        catalog_metric("de_sitter", hubble=1.0),
        catalog_metric("grw_flat", scale_factor="t^(1/2)"),
    ]


def _matrix(metric, point) -> np.ndarray:
    """``MetricSpec.matrix`` at ``point``, one coordinate's values, as its dim x dim array."""
    return np.array(metric.matrix(tuple(point)), dtype=float).reshape(metric.dim, metric.dim)


class TestMetric:
    def test_minkowski_everywhere(self, minkowski):
        for p in random_points(3, seed=1):
            assert np.array_equal(metric_at(minkowski, p).components, MINK)
            assert np.array_equal(PointGeometry(minkowski, p).g_inv, MINK)

    def test_de_sitter_at_origin(self, de_sitter):
        assert np.allclose(metric_at(de_sitter, (0, 0, 0, 0)).components, MINK)

    def test_de_sitter_at_one(self, de_sitter):
        g = metric_at(de_sitter, (1, 0, 0, 0)).components
        assert np.allclose(g, np.diag([-1.0, math.e**2, math.e**2, math.e**2]), atol=1e-14)
        ginv = PointGeometry(de_sitter, (1, 0, 0, 0)).g_inv
        assert np.allclose(ginv, np.diag([-1.0, math.e**-2, math.e**-2, math.e**-2]), atol=1e-14)

    def test_degenerate_metric_rejected(self):
        m = MetricSpec.diagonal([-1.0, 1.0, 1.0, 0.0], COORDS)
        with pytest.raises(SingularMetricError):
            metric_at(m, (0, 0, 0, 0))

    def test_relative_degeneracy_test_is_scale_aware(self, de_sitter):
        # tiny determinant from uniform contraction is fine; a genuinely
        # ill-conditioned direction is not
        p = (-5.0, 0.1, -0.2, 0.3)
        g = metric_at(de_sitter, p).components
        assert ricci(de_sitter, p).components == pytest.approx(3.0 * g, abs=1e-5)
        bad = MetricSpec.diagonal([-1.0, 1.0, 1.0, 1e-14], COORDS)
        with pytest.raises(SingularMetricError):
            metric_at(bad, (0, 0, 0, 0))

    def test_degeneracy_test_matches_the_eigenvalue_ratio(self):
        # dominant diagonals pass without the eigensolver; the verdict must
        # be the eigenvalue ratio's all the same, off the diagonal too
        rng = np.random.default_rng(5)
        cases = [np.diag([-1.0, 1.0, 1.0, 5e-11]), np.ones((4, 4)), np.diag([-1.0, 1.0, 1.0, 1.0]) + 0.3]
        for _ in range(60):
            a = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-16, 0)
            cases.append(np.diag(10.0 ** rng.uniform(-16, 1, size=4) * rng.choice([-1, 1], size=4)) + a + a.T)
        for threshold in (1e-12, 1e-10, 1e-3):
            cfg = NumericsConfig(degeneracy_threshold=threshold)
            for c in cases:
                m = MetricSpec.from_grid([[repr(float(x)) for x in row] for row in c], COORDS)
                spectrum = np.sort(np.abs(np.linalg.eigvalsh(c)))
                if spectrum[0] <= threshold * spectrum[-1]:
                    with pytest.raises(SingularMetricError):
                        metric_at(m, (0, 0, 0, 0), cfg)
                else:
                    assert np.array_equal(metric_at(m, (0, 0, 0, 0), cfg).components, c)

    def test_inverse_is_inverse(self, frw_sqrt):
        for p in random_points(3, seed=2):
            g = metric_at(frw_sqrt, p).components
            ginv = PointGeometry(frw_sqrt, p).g_inv
            assert max_abs(g @ ginv - np.eye(4)) < 1e-12

    def test_asymmetric_grid_rejected(self):
        grid = [["-1", "t", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        with pytest.raises(ValueError):
            MetricSpec.from_grid(grid, COORDS)


class TestChristoffel:
    def test_minkowski_flat(self, minkowski):
        assert max_abs(christoffel(minkowski, (0.3, 1, 2, 3)).components) == 0.0

    def test_de_sitter_components(self, de_sitter):
        for t in (-0.5, 0.0, 1.0):
            gam = christoffel(de_sitter, (t, 0, 0, 0)).components
            assert gam[0, 1, 1] == pytest.approx(math.exp(2 * t), rel=1e-9)
            assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_frw_sqrt_component(self, frw_sqrt):
        gam = christoffel(frw_sqrt, (1.0, 0, 0, 0)).components
        assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-9)  # q'/q at t=1

    def test_lower_index_symmetry_exact(self, de_sitter):
        gam = christoffel(de_sitter, (0.7, 0.1, -0.2, 0.3)).components
        assert max_abs(gam - np.transpose(gam, (0, 2, 1))) == 0.0

    def test_metric_derivative_stencils_symmetric(self, de_sitter, frw_sqrt):
        for m in (de_sitter, frw_sqrt):
            dg = PointGeometry(m, (0.8, 0.1, 0.2, 0.3)).dg
            assert max_abs(dg - np.transpose(dg, (0, 2, 1))) == 0.0


class TestCurvature:
    def test_minkowski_zero(self, minkowski):
        for p in random_points(2, seed=3):
            assert max_abs(riemann(minkowski, p).components) == 0.0
            assert max_abs(ricci(minkowski, p).components) == 0.0
            assert PointGeometry(minkowski, p).scalar == 0.0
            assert max_abs(einstein_tensor(minkowski, p).components) == 0.0

    def test_de_sitter_constant_curvature_form(self, de_sitter):
        # R(X,Y)Z = g(Y,Z) X - g(X,Z) Y for the unit exponential slicing
        p = (0.6, 0.2, -0.4, 0.1)
        r = riemann(de_sitter, p).components
        g = metric_at(de_sitter, p).components
        eye = np.eye(4)
        expected = np.einsum("jk,li->lkij", g, eye) - np.einsum("ik,lj->lkij", g, eye)
        assert max_abs(r - expected) < 1e-5

    def test_de_sitter_ricci_is_3g(self, de_sitter):
        for p in random_points(3, seed=4):
            g = metric_at(de_sitter, p).components
            s = ricci(de_sitter, p)
            assert max_abs(s.components - 3.0 * g) < 1e-5
            assert s.symmetry_defect < 1e-9
            assert PointGeometry(de_sitter, p).scalar == pytest.approx(12.0, abs=1e-5)

    def test_frw_sqrt_ricci(self, frw_sqrt):
        # S_tt = -3 q''/q = 3/4 at t=1 for q = sqrt(t); curvature scalar vanishes
        s = ricci(frw_sqrt, (1.0, 0, 0, 0)).components
        assert s[0, 0] == pytest.approx(0.75, abs=1e-8)
        assert PointGeometry(frw_sqrt, (1.0, 0, 0, 0)).scalar == pytest.approx(0.0, abs=1e-8)

    def test_de_sitter_einstein_tensor(self, de_sitter):
        p = (0.5, 0, 0, 0)
        g = metric_at(de_sitter, p).components
        assert max_abs(einstein_tensor(de_sitter, p).components + 3.0 * g) < 1e-5

    def test_frw_einstein_tt(self, frw_sqrt):
        assert einstein_tensor(frw_sqrt, (1.0, 0, 0, 0)).components[0, 0] == pytest.approx(0.75, abs=1e-8)


class TestOffDiagonalCharts:
    """Diagonal metrics cannot catch transposed index contractions; these can."""

    def test_sheared_flat_chart_has_no_curvature(self):
        # pullback of the flat metric under X = x + 0.3 t^2: nonzero
        # connection, identically vanishing curvature
        shear = MetricSpec.from_grid(
            [
                ["0.36*t^2 - 1", "0.6*t", "0", "0"],
                ["0.6*t", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["0", "0", "0", "1"],
            ],
            COORDS,
        )
        for p in random_points(3, seed=17):
            assert max_abs(christoffel(shear, p).components) > 0.01
            assert max_abs(riemann(shear, p).components) < 1e-9
            assert max_abs(ricci(shear, p).components) < 1e-9
            assert contracted_bianchi_residual(PointGeometry(shear, p)) < 1e-8

    def test_vacuum_infall_chart_is_ricci_flat(self):
        # off-diagonal chart of a vacuum solution (unit horizon radius):
        # curvature is plainly nonzero while every Ricci component vanishes
        m = MetricSpec.from_grid(
            [
                ["1/r - 1", "r^(-1/2)", "0", "0"],
                ["r^(-1/2)", "1", "0", "0"],
                ["0", "0", "r^2", "0"],
                ["0", "0", "0", "r^2*sin(a)^2"],
            ],
            ("t", "r", "a", "b"),
        )
        for q in [(0.0, 3.0, 1.0, 0.5), (1.0, 5.0, 0.8, 2.0)]:
            assert max_abs(riemann(m, q).components) > 0.01
            s = ricci(m, q)
            assert max_abs(s.components) < 1e-6
            assert abs(PointGeometry(m, q).scalar) < 1e-6
            assert contracted_bianchi_residual(PointGeometry(m, q)) < 1e-4
        # the radial infall field is unit timelike and sees a vacuum fluid
        import numpy as _np

        from solitonlab.spacetimes import fluid_from_ricci

        q = (0.0, 3.0, 1.0, 0.5)
        g = metric_at(m, q).components
        u = _np.array([1.0, -math.sqrt(1.0 / 3.0), 0.0, 0.0])
        assert float(u @ g @ u) == pytest.approx(-1.0, abs=1e-12)
        vals, fit = fluid_from_ricci(ricci(m, q).components, g, u, kappa=1.0, lam=0.0)
        assert abs(vals.sigma) < 1e-6 and abs(vals.rho) < 1e-6
        assert fit.perfect_fluid


class TestDerivativeOperators:
    def test_cov_deriv_flat(self, minkowski, coordinate_time):
        geo = PointGeometry(minkowski, (0, 1, 2, 3))
        assert max_abs(geo.field(coordinate_time).nabla) == 0.0

    def test_cov_deriv_de_sitter(self, de_sitter, coordinate_time):
        nab = PointGeometry(de_sitter, (0.3, 0, 0, 0)).field(coordinate_time).nabla
        assert nab[1, 1] == pytest.approx(1.0, abs=1e-9)
        assert nab[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_cov_deriv_steeper_warp(self, coordinate_time):
        m = catalog_metric("de_sitter", hubble=2.0)
        nab = PointGeometry(m, (0.3, 0, 0, 0)).field(coordinate_time).nabla
        assert nab[1, 1] == pytest.approx(2.0, abs=1e-8)

    def test_lie_killing_flat(self, minkowski, coordinate_time):
        geo = PointGeometry(minkowski, (0.3, 1, 2, 3))
        assert max_abs(geo.field(coordinate_time).lie) == 0.0

    def test_lie_de_sitter_form(self, de_sitter, coordinate_time):
        p = (0.8, 0.1, 0.2, 0.3)
        g = metric_at(de_sitter, p).components
        eta = g @ np.array([1.0, 0, 0, 0])
        lie = PointGeometry(de_sitter, p).field(coordinate_time).lie
        assert max_abs(lie - 2.0 * (g + np.outer(eta, eta))) < 1e-9
        assert lie[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert lie[1, 1] == pytest.approx(2.0 * math.exp(2 * 0.8), rel=1e-9)

    def test_lie_euler_homothety(self, minkowski, euler_field):
        lie = PointGeometry(minkowski, (1.0, 0.5, -0.5, 0.2)).field(euler_field).lie
        assert max_abs(lie - 2.0 * MINK) < 1e-12

    def test_gradient(self, minkowski, de_sitter):
        f_t = parse("t", COORDS)
        for m in (minkowski, de_sitter):
            p = (0.6, 0.1, 0.2, 0.3)
            grad = PointGeometry(m, p).field(VectorFieldSpec.gradient_of(f_t, COORDS)).value
            assert np.allclose(grad, [-1.0, 0, 0, 0], atol=1e-10)
            g = metric_at(m, p).components
            assert grad @ g @ grad == pytest.approx(-1.0, abs=1e-10)
        grad_x = PointGeometry(minkowski, p).field(VectorFieldSpec.gradient_of(parse("x", COORDS), COORDS)).value
        assert np.allclose(grad_x, [0, 1, 0, 0], atol=1e-12)

    def test_hessian(self, minkowski, de_sitter):
        p = (0.4, 0.1, -0.3, 0.2)

        def hessian(m, f):
            return PointGeometry(m, p).field(VectorFieldSpec.gradient_of(f, COORDS)).hessian

        assert max_abs(hessian(minkowski, "t")) < 1e-12
        h = hessian(de_sitter, "t")
        assert np.array_equal(h, h.T)  # symmetrised, bit for bit
        assert h[1, 1] == pytest.approx(-math.exp(2 * 0.4), rel=1e-8)
        assert hessian(minkowski, "x^2")[1, 1] == pytest.approx(2.0, abs=1e-8)

    def test_divergence(self, minkowski, de_sitter, coordinate_time):
        # div V, the trace of nabla V
        p = (0.2, 0.4, 0.1, -0.5)

        def divergence(m, v):
            return np.trace(PointGeometry(m, p).field(v).nabla)

        assert divergence(minkowski, coordinate_time) == pytest.approx(0.0, abs=1e-12)
        assert divergence(de_sitter, coordinate_time) == pytest.approx(3.0, abs=1e-9)
        grad_t = VectorFieldSpec.gradient_of("t", COORDS)
        assert divergence(de_sitter, grad_t) == pytest.approx(-3.0, abs=1e-9)

    def test_laplacian(self, minkowski, de_sitter):
        def laplacian(geo, f):
            div_route, trace_route = laplacian_routes(geo, f)
            assert abs(div_route - trace_route) <= DEFAULT_TOLERANCES["laplacian_two_route"]
            return trace_route

        p = (0.2, 0.4, 0.1, -0.5)
        assert laplacian(PointGeometry(minkowski, p), parse("t", COORDS)) == pytest.approx(0.0, abs=1e-10)
        assert laplacian(PointGeometry(de_sitter, p), parse("t", COORDS)) == pytest.approx(-3.0, abs=1e-9)
        assert laplacian(PointGeometry(minkowski, p), parse("x^2+y^2", COORDS)) == pytest.approx(4.0, abs=1e-8)

    def test_laplacian_routes_disagree_on_coarse_stencils(self, de_sitter):
        coarse = NumericsConfig(h=0.5, richardson=False)
        geo = PointGeometry(de_sitter, (0.5, 0.4, 0.1, 0.2), coarse)
        div_route, trace_route = laplacian_routes(geo, parse("exp(t)*x^2", COORDS))
        assert abs(div_route - trace_route) > DEFAULT_TOLERANCES["laplacian_two_route"]


class TestFrames:
    def test_minkowski_coordinate_basis(self, minkowski):
        pack = frame_from_matrix(PointGeometry(minkowski, (0, 0, 0, 0)).g)
        assert pack.signs == (-1, 1, 1, 1)
        assert np.allclose(pack.vectors, np.eye(4))

    def test_de_sitter_normalisation(self, de_sitter):
        pack = frame_from_matrix(PointGeometry(de_sitter, (1.0, 0, 0, 0)).g)
        assert pack.signs == (-1, 1, 1, 1)
        assert np.allclose(pack.vectors[1:], np.eye(4)[1:] / math.e, atol=1e-12)

    def test_riemannian_signature_rejected(self):
        with pytest.raises(SignatureError):
            frame_from_matrix(np.eye(4))

    def test_gram_condition_random(self):
        from conftest import random_lorentzian

        rng = np.random.default_rng(7)
        for _ in range(50):
            g, xi = random_lorentzian(rng)
            pack = frame_from_matrix(g, timelike_hint=xi)
            gram = pack.vectors @ g @ pack.vectors.T
            assert max_abs(gram - np.diag(pack.signs)) < 1e-9
            assert pack.signs == (-1, 1, 1, 1)


def div_tensor11(geo, v):
    """(div F)_j = (nabla_k F)^k_j, the trace of the covariant derivative of the rotation field of ``v``."""
    return np.einsum("kkj->j", geo.field(v).nabla_f)


class TestDivTensor11:
    def test_zero_field(self, de_sitter, coordinate_time):
        # d_t on de Sitter has the closed dual -dt: F = 0
        assert max_abs(div_tensor11(PointGeometry(de_sitter, (0.5, 0, 0, 0)), coordinate_time)) == 0.0

    def test_constant_field_flat(self, minkowski, rotation_field):
        # the rotation (0, -y, x, 0) has the constant F^x_y = 1 = -F^y_x; with
        # a power-of-two step at integer coordinates every difference is exact
        geo = PointGeometry(minkowski, (0.5, 1, 2, 3), NumericsConfig(h=2.0**-10))
        assert np.array_equal(geo.field(rotation_field).f_mixed, [[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 0]])
        assert max_abs(div_tensor11(geo, rotation_field)) == 0.0

    def test_linear_component(self, minkowski):
        # V = (0, 0, x^2, 0) has F^x_y = x, so div F = (0, 0, 1, 0)
        v = VectorFieldSpec.from_components(["0", "0", "x^2", "0"], COORDS)
        div = div_tensor11(PointGeometry(minkowski, (0.0, 0.5, 0.5, 0.5)), v)
        assert np.allclose(div, [0, 0, 1, 0], atol=1e-10)


class TestInvariants:
    def test_metric_compatibility(self):
        for m in catalog_all():
            for p in random_points(3, seed=11):
                assert metric_compatibility_residual(PointGeometry(m, p)) < 1e-5

    def test_riemann_antisymmetry(self):
        for m in catalog_all():
            for p in random_points(3, seed=12):
                assert riemann_antisymmetry_residual(PointGeometry(m, p)) < 1e-6

    def test_first_bianchi(self):
        for m in catalog_all():
            for p in random_points(3, seed=13):
                assert bianchi_first_residual(PointGeometry(m, p)) < 1e-5

    def test_contracted_bianchi(self):
        for m in catalog_all():
            for p in random_points(2, seed=14):
                assert contracted_bianchi_residual(PointGeometry(m, p)) < 1e-4

    def test_two_route_laplacian(self, de_sitter, frw_sqrt):
        f = parse("t^2+x*t", COORDS)
        for m in (de_sitter, frw_sqrt):
            for p in random_points(3, seed=15):
                a, b = laplacian_routes(PointGeometry(m, p), f)
                assert abs(a - b) < 1e-6

    def test_fd_convergence_second_order(self, de_sitter):
        ratio = fd_convergence_ratio(PointGeometry(de_sitter, (0.5, 0, 0, 0)))
        assert 3.5 <= ratio <= 4.5

    def test_fd_convergence_flat_is_none(self, minkowski):
        assert fd_convergence_ratio(PointGeometry(minkowski, (0.5, 0, 0, 0))) is None

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("case", ["minkowski", "de_sitter", "grw_flat", "infall", "shear", "signed_t"])
    def test_fd_convergence_ratio_is_the_per_neighbour_ratio(self, case, richardson):
        # the store's one indexed read of the +-h and +-h/2 neighbours gives
        # bitwise the ratio of the metric evaluated at each neighbour's floats
        metric, point = REFERENCE_CASES[case]
        cfg = NumericsConfig(h=1.3e-3, richardson=richardson)
        geo = PointGeometry(metric, point, cfg)
        exact = christoffel_exact(geo)

        def g(axis, step):
            return _matrix(metric, (x + step if a == axis else x for a, x in enumerate(point)))

        errs = []
        for h in (cfg.h, cfg.h / 2):
            dg = np.stack([(g(axis, h) - g(axis, -h)) / (2 * h) for axis in range(4)])
            errs.append(max_abs(christoffel_from_dg(geo.g_inv, dg) - exact))
        expected = None if errs[1] < 1e-11 * max(1.0, max_abs(exact)) else errs[0] / errs[1]
        assert fd_convergence_ratio(PointGeometry(metric, point, cfg)) == expected
        assert fd_convergence_ratio(geo) == expected

    # charts whose read coordinates stay away from zero, so no stencil
    # coordinate differs from another only in the sign of a zero it reads
    UNSIGNED = ["minkowski", "de_sitter", "grw_flat", "infall", "shear"]

    @settings(max_examples=15, deadline=None)
    @given(
        case=st.sampled_from(UNSIGNED),
        moves=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=4, max_size=4),
        richardson=st.booleans(),
    )
    def test_an_unread_coordinate_changes_no_layer(self, case, moves, richardson):
        # two points that differ only along coordinates no component reads:
        # every stencil coordinate of one reads the same floats as the
        # other's, so the metric is bitwise the same there and so is every
        # layer built on it
        metric, point = REFERENCE_CASES[case]
        there = tuple(x if axis in metric.read_axes else move for axis, (x, move) in enumerate(zip(point, moves)))
        cfg = NumericsConfig(h=1.3e-3, richardson=richardson)
        a, b = PointGeometry(metric, point, cfg), PointGeometry(metric, there, cfg)
        for layer in ("g", "gamma", "riemann", "ricci", "scalar", "einstein"):
            assert np.asarray(getattr(a, layer)).tobytes() == np.asarray(getattr(b, layer)).tobytes(), layer

    @settings(max_examples=15, deadline=None)
    @given(case=st.sampled_from(UNSIGNED), power=st.integers(-3, 3), richardson=st.booleans())
    def test_a_power_of_two_scale_of_the_metric(self, case, power, richardson):
        # under g -> c g with c a power of two every step scales exactly: the
        # components and their stencil differences by c, the inverse by 1/c
        # (the same pivots, each product and quotient scaled), so each
        # product in Gamma is the unscaled one and Gamma, Riemann and Ricci
        # are bitwise unchanged, r = g^ij S_ij is exactly r/c and
        # G = S - (r/2) g is bitwise G
        metric, point = REFERENCE_CASES[case]
        c = 2.0**power
        grid = tuple(tuple(Binary("mul", Const(c), e) for e in row) for row in metric.components)
        scaled = MetricSpec(metric.coords, grid)
        cfg = NumericsConfig(h=1.3e-3, richardson=richardson)
        a, b = PointGeometry(metric, point, cfg), PointGeometry(scaled, point, cfg)
        assert (c * a.g).tobytes() == b.g.tobytes()
        assert (a.g_inv / c).tobytes() == b.g_inv.tobytes()
        for layer in ("gamma", "riemann", "ricci", "einstein"):
            assert getattr(a, layer).tobytes() == getattr(b, layer).tobytes(), layer
        assert np.float64(a.scalar / c).tobytes() == np.float64(b.scalar).tobytes()

    @pytest.mark.parametrize("case", ["de_sitter", "grw_flat", "infall", "shear"])
    def test_exact_derivatives_equal_the_per_component_derivatives(self, case):
        # the oracle evaluates each component's derivative tree at the point;
        # every entry is bitwise the compiled symbolic derivative of its component
        metric, point = REFERENCE_CASES[case]
        n = metric.dim
        dg = metric.derivatives(point)
        for k, name in enumerate(metric.coords):
            for i in range(n):
                for j in range(n):
                    exact = compile_expr(differentiate(metric.components[i][j], name), metric.coords)(*point)
                    assert dg[k, i, j] == exact and np.signbit(dg[k, i, j]) == np.signbit(exact), (k, i, j)

    def test_undefined_exact_derivative_gives_no_ratio(self):
        # g_xx = 1 + |x| has no derivative at x = 0, but its stencils are fine
        doc = {
            "schema_version": 1,
            "name": "kink",
            "description": "metric derivative undefined at the plan point",
            "coordinates": list(COORDS),
            "metric": {"components": _grid(tt="-1 - 0.1*t^2", xx="1 + (x^2)^(1/2)")},
            "points": [[0.5, 0.0, 0.0, 0.0]],
        }
        metric = MetricSpec.from_grid(doc["metric"]["components"], COORDS)
        with pytest.raises(EvalDomainError):
            metric.derivatives((0.5, 0.0, 0.0, 0.0))
        report = run_suite(scenario_from_dict(doc), solve=False)
        assert report.points[0].error is None
        assert report.to_dict()["summary"]["numerics_health"]["fd_convergence_ratio"] is None

    def test_ricci_frame_contraction_agrees(self, de_sitter, frw_sqrt):
        # trace over an orthonormal frame weighted by the signs reproduces
        # the coordinate contraction
        rng = np.random.default_rng(16)
        for m in (de_sitter, frw_sqrt):
            p = (0.9, 0.2, -0.1, 0.4)
            r = riemann(m, p).components
            s = ricci(m, p).components
            g = metric_at(m, p).components
            pack = frame_from_matrix(PointGeometry(m, p).g)
            for _ in range(5):
                xv = rng.uniform(-1, 1, 4)
                yv = rng.uniform(-1, 1, 4)
                total = 0.0
                for e, sign in zip(pack.vectors, pack.signs):
                    rz = np.einsum("lkij,i,j,k->l", r, e, xv, yv)
                    total += sign * float(rz @ g @ e)
                assert total == pytest.approx(float(xv @ s @ yv), abs=1e-5)

    def test_richardson_improves_error(self, de_sitter):
        p = (0.5, 0, 0, 0)
        plain = NumericsConfig(h=1e-2, richardson=False)
        rich = NumericsConfig(h=1e-2, richardson=True)
        exact = math.exp(2 * 0.5)
        err_plain = abs(christoffel(de_sitter, p, plain).components[0, 1, 1] - exact)
        err_rich = abs(christoffel(de_sitter, p, rich).components[0, 1, 1] - exact)
        assert err_rich < err_plain / 10


def _exact_derivatives(metric: MetricSpec, point, order: int) -> np.ndarray:
    """d_a d_b ... g_ij at ``point`` from the symbolic derivatives, ``order`` derivative indices first."""
    at, dim = dict(zip(metric.coords, point)), metric.dim
    out = np.empty((dim,) * (order + 2))
    for index in itertools.product(range(dim), repeat=order + 2):
        e = metric.components[index[-2]][index[-1]]
        for k in index[:-2]:
            e = differentiate(e, metric.coords[k])
        out[index] = evaluate(e, at)
    return out


class TestEinsteinJet:
    """The contracted Bianchi row's d_k G_ij, from the 3-jet of g at each point, against independent routes."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("path", CURVATURE_INPUTS, ids=lambda path: path.stem)
    def test_the_jet_is_the_symbolic_3_jet_within_the_fd_error_model(self, path):
        # the second and third derivatives read off the lattice against the
        # symbolic ones: rounding of g (eps |g|) divided by h^2 or h^3, times
        # the Richardson half-step stencil's 4/3 (h/2)^-3 and a margin, and a
        # truncation of h^2 relative, far above the h^4 of the stencils
        for block in plan_blocks(path):
            axes, h = list(block.store.axes), block.numerics.h
            if not axes:
                continue
            block.einstein
            g, dg, d2g, d3g = block.store.jet(block.numbers)
            assert np.array_equal(g, block.g) and np.array_equal(dg, block.dg)
            for k, point in enumerate(block.points):
                rounding = 32 * self.EPS * max_abs(g[k])
                second = _exact_derivatives(block.metric, point, 2)[axes]
                third = _exact_derivatives(block.metric, point, 3)[axes][:, axes]
                assert max_abs(d2g[k] - second) <= rounding / h**2 + h**2 * max_abs(second), (path.name, k)
                assert max_abs(d3g[k] - third) <= rounding / h**3 + h**2 * max_abs(third), (path.name, k)

    @pytest.mark.parametrize("path", CURVATURE_INPUTS, ids=lambda path: path.stem)
    def test_the_jet_route_equals_the_ring_route_within_the_fd_error_model(self, path):
        # d_k G_ij from the 3-jet against the ring route it replaced, G
        # differenced over each point's stencil ring: both are O(h^4) in
        # truncation, and rounding, eps |g| |g^-1| over h^3 through the
        # h/2 stencils, dominates; 64 is the (4/3) (h/2)^-3 of those stencils
        # and a margin of six.  Off the axes the metric reads, both are 0
        for block in plan_blocks(path):
            axes, h = list(block.store.axes), block.numerics.h
            block.einstein
            jet = np.zeros((len(block), block.metric.dim) + block.einstein.shape[1:])
            if axes:
                jet[:, axes] = einstein_gradient(*block.store.jet(block.numbers), axes)
            ring = ring_grad(block, "einstein")
            unread = [k for k in range(block.metric.dim) if k not in axes]
            assert not ring[:, unread].any()
            for k in range(len(block)):
                bound = 64 * self.EPS * max_abs(block.g[k]) * max_abs(block.g_inv[k]) / h**3
                assert max_abs(jet[k] - ring[k]) <= bound, (path.name, k)

    def test_a_chart_that_reads_no_axis_assembles_no_jet(self, minkowski, monkeypatch):
        def refused(store, numbers):
            raise AssertionError("jet read on a chart with no read axes")

        monkeypatch.setattr(lattice.Store, "jet", refused)
        geos = block_geometries([(minkowski, point, DEFAULT_NUMERICS) for point in random_points(3, seed=21)])
        assert contracted_bianchi_residual(geos[0].block) == [0.0, 0.0, 0.0]


class TestTensorSample:
    def test_symmetric_flag_checked(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            TensorSample("tensor02", bad, (0.0, 0.0), symmetric=True)

    def test_components_read_only(self, minkowski):
        sample = metric_at(minkowski, (0, 0, 0, 0))
        with pytest.raises(ValueError):
            sample.components[0, 0] = 5.0

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            TensorSample("vector", np.zeros((4, 4)), (0.0,))


def _recorded_geometries(monkeypatch) -> list:
    """Every PointGeometry the report runs its suite on, appended as the report makes them."""
    from solitonlab import report

    geos = []

    def recorded(keys):
        made = block_geometries(keys)
        geos.extend(made)
        return made

    monkeypatch.setattr(report, "block_geometries", recorded)
    return geos


def _count_evaluations(monkeypatch) -> tuple[list, list]:
    """Record every MetricSpec.matrix call, and every field component or potential evaluation."""
    metric_seen, field_seen = [], []

    def counted(method, seen, keyed):
        def wrapper(self, q):
            seen.append((self, tuple(q)) if keyed else tuple(q))
            return method(self, q)

        return wrapper

    monkeypatch.setattr(MetricSpec, "matrix", counted(MetricSpec.matrix, metric_seen, False))
    for name in ("components_at", "potential_at"):
        monkeypatch.setattr(VectorFieldSpec, name, counted(getattr(VectorFieldSpec, name), field_seen, True))
    return metric_seen, field_seen


def _swept_scenarios(path, param, values, changes=None) -> list:
    """One scenario per value of ``param``, a dotted path into the scenario at ``path`` after ``changes``."""
    from solitonlab.scenario import load_scenario

    base = {**load_scenario(path).to_dict(), **(changes or {})}
    *sections, key = param.split(".")
    scenarios = []
    for value in values:
        doc = json.loads(json.dumps(base))
        node = doc
        for section in sections:
            node = node[section]
        node[key] = value
        scenarios.append(scenario_from_dict(doc))
    return scenarios


def _report_docs(reports) -> list[dict]:
    return [report.to_dict(include_timestamp=False) for report in reports]


class TestPointGeometry:
    def test_dimension_checked(self, minkowski):
        with pytest.raises(ValueError):
            PointGeometry(minkowski, (0.0, 0.0, 0.0))

    def test_grad_equals_the_per_axis_stencil(self, frw_sqrt):
        # the reference ring route differences all axes at once; the
        # arithmetic is the per-axis central/Richardson formula's, so the
        # result must be bitwise equal
        h, point = 1.3e-3, (0.8, 0.1, 0.2, 0.3)
        for richardson in (True, False):
            cfg = NumericsConfig(h=h, richardson=richardson)
            geo = PointGeometry(frw_sqrt, point, cfg)

            def at(name, axis, step):
                there = tuple(x + step if a == axis else x for a, x in enumerate(point))
                return np.asarray(getattr(PointGeometry(frw_sqrt, there, cfg), name))

            for name in ("gamma", "scalar"):
                rows = []
                for axis in range(4):
                    d = (at(name, axis, h) - at(name, axis, -h)) / (2 * h)
                    if richardson:
                        d2 = (at(name, axis, h / 2) - at(name, axis, -h / 2)) / h
                        d = (4.0 * d2 - d) / 3.0
                    rows.append(d)
                assert np.array_equal(ring_grad(geo.block, name)[0], np.stack(rows))

    def test_lattice_arrays_are_read_only(self, de_sitter):
        # the store is shared by every scenario of a sweep: a write would leak
        geo = PointGeometry(de_sitter, (0.5, 0.0, 0.0, 0.0))
        lie = geo.field(VectorFieldSpec.from_components([1, 0, 0, 0], COORDS)).lie
        for arr in (geo.g, lie):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        contracted_bianchi_residual(geo)
        store = geo.block.store
        for name, layer in store.layers.items():
            for u in np.flatnonzero(layer.slot[: store.size] >= 0):
                if hasattr(BlockGeometry, name):  # a layer is handed out by a block: one of this coordinate
                    arr = getattr(BlockGeometry(store, [tuple(store.coords[u].tolist())], np.array([u])), name)
                    with pytest.raises(ValueError):
                        arr[(0,) * arr.ndim] = 1.0

    def test_samples_leave_the_callers_array_writeable(self):
        for make, arr in (
            (lambda a: TensorSample("tensor02", a, (0.0,) * 4, symmetric=True), MINK.copy()),
            (lambda a: ChristoffelSample(a, (0.0,) * 4), np.zeros((4, 4, 4))),
        ):
            sample = make(arr)
            assert arr.flags.writeable
            assert not sample.components.flags.writeable
            arr[0, 0] += 1.0
            assert not np.array_equal(sample.components, arr)

    def test_each_plan_point_evaluates_every_coordinate_once(self, monkeypatch):
        # a whole run, summary included: the metric at most once per
        # coordinate (once per distinct value of the coordinates it reads at
        # each point), and each field's components (or potential) once per
        # coordinate
        from solitonlab.report import run_suite
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        metric_seen, field_seen = _count_evaluations(monkeypatch)
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            scenario = load_scenario(path)
            metric_seen.clear()
            field_seen.clear()
            run_suite(scenario)
            assert metric_seen, path.name
            assert len(metric_seen) == len(set(metric_seen)), path.name
            assert len(field_seen) == len(set(field_seen)), path.name
            assert bool(field_seen) == (scenario.vector_field is not None), path.name

    # the field evaluations of a run of each scenario with a stencil tree over
    # every axis per point: the field lattice a block's points share, over the
    # axes the metric or the field reads, may make fewer, never more
    FIELD_EVALUATIONS = {
        "de-sitter-eta-gradient.json": 394,
        "de-sitter-soliton.json": 393,
        "frw-radiation.json": 51,
        "minkowski-euler-soliton.json": 416,
        "minkowski-lambda-mismatch.json": 34,
        "minkowski.json": 51,
        "vacuum-infall-custom.json": 34,
        "infall-grid.json": 102,
    }

    def test_field_evaluations_stay_within_the_pinned_counts(self, monkeypatch):
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        _, field_seen = _count_evaluations(monkeypatch)
        paths = [*sorted(SCENARIO_DIR.glob("*.json")), INFALL_GRID]
        assert sorted(path.name for path in paths) == sorted(self.FIELD_EVALUATIONS)
        for path in paths:
            field_seen.clear()
            run_suite(load_scenario(path))
            assert len(field_seen) <= self.FIELD_EVALUATIONS[path.name], path.name

    def test_no_lattice_outlives_its_run(self, monkeypatch):
        # once the geometries a run made are dropped, no store and no field
        # lattice is left, without the cycle collector: the reports keep none
        import gc
        import weakref

        from solitonlab.report import run_suites
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        geos = _recorded_geometries(monkeypatch)
        base = load_scenario(SCENARIO_DIR / "de-sitter-soliton.json").to_dict()
        sweep = [scenario_from_dict({**base, "soliton": {**base["soliton"], "alpha": a}}) for a in (0.5, 1.0)]
        runs = [
            lambda: [run_suite(load_scenario(SCENARIO_DIR / "de-sitter-eta-gradient.json"))],
            lambda: run_suites(sweep),
        ]
        gc.disable()
        try:
            for run in runs:
                reports = run()
                stores = [weakref.ref(geo.block.store) for geo in geos]
                trees = [weakref.ref(tree) for geo in geos for tree in geo.block.trees.values()]
                assert stores and trees
                geos.clear()
                assert all(ref() is None for ref in stores + trees), reports
        finally:
            gc.enable()

    def test_read_axes_are_the_coordinates_the_grid_reads(self, minkowski, de_sitter):
        assert minkowski.read_axes == ()
        assert de_sitter.read_axes == (0,)
        assert INFALL.read_axes == (1, 2)
        assert REFERENCE_CASES["signed_yz"][0].read_axes == (2, 3)

    def test_each_batched_read_evaluates_the_metric_once_per_distinct_read_value(self, monkeypatch):
        # over all the reads of a store, however many batches and plan points
        # they take, the metric is evaluated once per distinct bit pattern of
        # the coordinates it reads, at the first coordinate of the store's
        # numbering with that pattern, in numbering order; every call is made
        # for some store
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        metric_seen, _ = _count_evaluations(monkeypatch)
        stores = {}  # each store that evaluated the metric, and the calls made for it
        evaluate = lattice.Store._g

        def recorded(store, todo):
            start = len(metric_seen)
            try:
                return evaluate(store, todo)
            finally:
                stores.setdefault(store, []).extend(metric_seen[start:])

        monkeypatch.setattr(lattice.Store, "_g", recorded)

        def run():
            stores.clear()
            metric_seen.clear()
            for path in sorted(SCENARIO_DIR.glob("*.json")):
                run_suite(load_scenario(path))
            for case in ("infall", "signed_shift", "signed_yz"):
                contracted_bianchi_residual(PointGeometry(*REFERENCE_CASES[case]))
            assert sum(map(len, stores.values())) == len(metric_seen)
            return dict(stores)

        # the coordinates of the walk along every axis: a metric said to read
        # every coordinate spans the lattice over all of them
        with monkeypatch.context() as every:
            every.setattr(MetricSpec, "read_axes", property(lambda metric: tuple(range(metric.dim))))
            coordinates = sum(store.size for store in run())
        recorded = run()
        for store, calls in recorded.items():
            metric = store.metric
            names = set().union(*(variables(e) for row in metric.components for e in row))
            read = [i for i, c in enumerate(metric.coords) if c in names]
            firsts = {}
            for key in map(tuple, store.coords[: store.size].tolist()):
                firsts.setdefault(np.array(key)[read].tobytes(), key)
            assert list(map(repr, calls)) == list(map(repr, firsts.values()))
            if not read:
                assert len(calls) == 1
        assert any(not store.metric.read_axes for store in recorded)
        assert len(metric_seen) < coordinates / 4

    def test_sweep_values_share_each_plan_point(self, monkeypatch, tmp_path):
        # a soliton constant never touches the geometry: four values cost
        # the metric and field evaluations of one run, and the rows that read
        # no soliton constant are evaluated once per block of plan points (the
        # three points of the scenario share one store), and so are the
        # constant-free terms of the potential identities; only the soliton
        # block runs once per point and value
        from solitonlab import report
        from solitonlab.cli import main
        from solitonlab.report import run_suite
        from solitonlab.scenario import load_scenario
        from solitonlab.solitons import PointSamples

        from conftest import SCENARIO_DIR

        path = SCENARIO_DIR / "de-sitter-soliton.json"
        metric_seen, field_seen = _count_evaluations(monkeypatch)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        names = (
            "fluid_from_ricci",
            "contracted_bianchi_residual",
            "torse_consequence_residuals",
            "soliton_residual",
            "potential_field_terms",
            "potential_field_identities",
        )
        for name in names:
            monkeypatch.setattr(report, name, counted(name, getattr(report, name)))
        from_geometry = counted("from_geometry", PointSamples.from_geometry.__func__)
        monkeypatch.setattr(PointSamples, "from_geometry", classmethod(from_geometry))
        run_suite(load_scenario(path))
        one_run = (len(metric_seen), len(field_seen))
        metric_seen.clear()
        field_seen.clear()
        calls.clear()
        argv = ["sweep", str(path), "--param", "soliton.alpha", "--values=0.0,0.5,1.0,2.0"]
        assert main(argv + ["--out", str(tmp_path / "sweep.json")]) == 0
        assert (len(metric_seen), len(field_seen)) == one_run
        assert calls == {
            "fluid_from_ricci": 1,
            "contracted_bianchi_residual": 1,
            "torse_consequence_residuals": 1,
            "from_geometry": 1,
            "potential_field_terms": 1,
            "soliton_residual": 12,
            "potential_field_identities": 12,
        }

    def test_equal_specs_hash_equal_and_share_one_field_tree(self, monkeypatch):
        # a spec's hash is computed once per object; specs equal by value, as
        # each scenario of a sweep gives them, hash equal, so the scenarios
        # share each plan point's geometry and its block's one field lattice
        from solitonlab.report import run_suites
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        for name in ("de-sitter-soliton.json", "de-sitter-eta-gradient.json"):
            scenarios = [load_scenario(SCENARIO_DIR / name) for _ in range(3)]
            for other in scenarios[1:]:
                for a, b in ((scenarios[0].metric, other.metric), (scenarios[0].vector_field, other.vector_field)):
                    assert a is not b and a == b and hash(a) == hash(b)
            with pytest.MonkeyPatch.context() as patch:
                geos = _recorded_geometries(patch)
                run_suites(scenarios)
            assert len(geos) == len(scenarios[0].points) > 1
            assert all(geo.block is geos[0].block for geo in geos)
            assert len({id(tree) for geo in geos for tree in geo.block.trees.values()}) == 1

    @pytest.mark.parametrize(
        "name, param, values",
        [
            ("de-sitter-soliton.json", "metric.hubble", [0.5, 1.0, 0.5, 2.0]),
            ("de-sitter-soliton.json", "numerics.h", [1e-3, 2e-3]),
            ("de-sitter-soliton.json", "soliton.alpha", [0.0, 1.0, 2.0]),
            ("de-sitter-soliton.json", "soliton.alpha", [1.0, 0.0, 1.0, 1.0]),
            ("de-sitter-soliton.json", "soliton.beta", [-1.0, 0.0, 2.5]),
            ("de-sitter-soliton.json", "soliton.p", [-0.5, 0.5, "1/(t+3)", -0.5]),
            ("de-sitter-soliton.json", "fluid.sigma", [0.0, 1.0, "t^2", 0.0]),
            ("de-sitter-soliton.json", "fluid.cosmological_constant", [3.0, 2.0, 3.0]),
            (
                # equal FluidStates that differ in the fit and field-equation flags
                "de-sitter-soliton.json",
                "fluid",
                [
                    {"sigma": 0.0, "rho": 0.0, "kappa": 8 * math.pi, "cosmological_constant": 3.0},
                    {"fit_from_ricci": {"kappa": 8 * math.pi, "cosmological_constant": 3.0}},
                    {"sigma": 0, "rho": 0, "kappa": 8 * math.pi, "cosmological_constant": 3, "assert_field_equation": False},
                    {"fit_from_ricci": {"kappa": 8 * math.pi, "cosmological_constant": 3.0}},
                ],
            ),
            (
                "de-sitter-soliton.json",
                "vector_field",
                [{"components": [1, 0, 0, 0]}, {"components": [1, "x", 0, 0]}, {"gradient": "t"}, {"components": [1, 0, 0, 0]}],
            ),
            ("de-sitter-soliton.json", "tolerances", [{}, {"torse_forming": 1e-20}, {}, {"applicability": 1e-3}]),
            ("de-sitter-soliton.json", "assertions", [["torse"], [], ["torse"], []]),
            ("de-sitter-eta-gradient.json", "soliton.p", [-0.5, 0.5, "t", -0.5]),
        ],
    )
    def test_shared_runs_equal_separate_runs(self, name, param, values):
        # each input of the shared rows' key, and the soliton constants
        # outside it, with repeated values that share a key
        from solitonlab.report import run_suites

        from conftest import SCENARIO_DIR

        scenarios = _swept_scenarios(SCENARIO_DIR / name, param, values)
        assert _report_docs(run_suites(scenarios)) == _report_docs(map(run_suite, scenarios))

    def test_a_soliton_failure_stays_with_its_value(self):
        # p = 1/t is undefined at the plan point t = 0: only that value's
        # record there carries the error, and the other values share the
        # point's rows as if it had not run
        from solitonlab.report import run_suites

        from conftest import SCENARIO_DIR

        path = SCENARIO_DIR / "de-sitter-eta-gradient.json"
        scenarios = _swept_scenarios(path, "soliton.p", [0.5, "1/t", -0.5])
        reports = _report_docs(run_suites(scenarios))
        assert reports == _report_docs(map(run_suite, scenarios))
        message = "div of (1.0, 0.0): float division by zero at offsets 0..3"
        errors = [[point["error"] for point in doc["points"]] for doc in reports]
        assert errors == [[None, None, None], [None, message, None], [None, None, None]]

    def test_a_shared_failure_is_recorded_on_every_value(self, monkeypatch):
        # a vector field undefined at t = 0 fails the shared rows of the
        # block of the three plan points, once for all the values; each point
        # then runs them alone, once, and each value records the error a run
        # alone records
        from solitonlab import report

        from conftest import SCENARIO_DIR

        shared_rows, entered = report._shared_rows, []

        def counted(scenario, block, tols, solve):
            entered.append(block.points)
            return shared_rows(scenario, block, tols, solve)

        field = {"vector_field": {"components": [1, "1/t", 0, 0]}}
        scenarios = _swept_scenarios(SCENARIO_DIR / "de-sitter-soliton.json", "soliton.alpha", [0.0, 1.0, 2.0], field)
        with monkeypatch.context() as patch:
            patch.setattr(report, "_shared_rows", counted)
            reports = _report_docs(report.run_suites(scenarios))
        points = [(-1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]
        assert entered == [points] + [[point] for point in points]
        assert reports == _report_docs(map(run_suite, scenarios))
        message = "vector field components undefined at (0.0, 0.0, 0.0, 0.0): 1.0/t: float division by zero"
        for doc in reports:
            assert [point["error"] for point in doc["points"]] == [None, message, None]
            assert doc["summary"]["errors"] == [{"point": 1, "message": message}]


# the plan points of the grid workload at seed 1: vacuum-infall-custom.json at
# seeded points of the box of INFALL_POINTS
GRID_SEED1 = [
    [-1.745994, 4.276839, 1.99456, 2.530848],
    [-0.077526, 6.323302, 2.446294, 1.021269],
    [0.543642, 7.872776, 2.572146, 2.87817],
    [0.356876, 3.346006, 0.828578, 4.866346],
    [0.245159, 6.985314, 1.247045, 2.059151],
    [1.54503, 6.537261, 1.341617, 3.089274],
    [1.519359, 6.278086, 2.288709, 0.311174],
    [-1.714356, 7.131754, 2.1353, 3.681347],
    [0.408543, 5.645425, 1.704936, 2.671762],
    [-0.330748, 7.748434, 2.510017, 3.042158],
]


def _plan_sources() -> list[tuple[dict, list]]:
    """(scenario document, plan points) of each shipped fixture, and of the grid workload at seed 1."""
    from solitonlab.scenario import load_scenario

    from conftest import SCENARIO_DIR

    sources = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = load_scenario(path)
        sources.append((scenario.to_dict(), [list(point) for point in scenario.points]))
    sources.append((load_scenario(SCENARIO_DIR / "vacuum-infall-custom.json").to_dict(), GRID_SEED1))
    return sources


def _bits(value):
    """``value`` as nested lists of the bytes of its floats: equal only when equal bit for bit."""
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return [_bits(getattr(value, name)) for name in value.__dataclass_fields__]
    if value is None or isinstance(value, (str, bool)):
        return value
    return np.asarray(value, dtype=float).tobytes()


def _row_outcomes(geo, v, potential, fluids) -> dict:
    """Each row function's result on ``geo`` (``_bits``), or the numerical failure it meets, as a string.

    ``geo`` is a block or a PointGeometry, ``v`` a vector field, ``potential``
    a gradient potential and ``fluids`` the fluid values (a list over a block).
    """
    from solitonlab.solitons import (
        PointSamples,
        nabla_decomposition_check,
        potential_field_terms,
        rotation_skew_residual,
        torse_consequence_residuals,
        torse_forming_residual,
        torse_lie_residual,
    )
    from solitonlab.spacetimes import efe_residual, einstein_eigen_check

    def efe(geo):
        res = efe_residual(geo, fluids, v)  # one [point, i, j] array over a block
        return list(res) if res.ndim == 3 else res

    rows = {
        "riemann_antisymmetry": riemann_antisymmetry_residual,
        "bianchi_first": bianchi_first_residual,
        "bianchi_contracted": contracted_bianchi_residual,
        "metric_compatibility": metric_compatibility_residual,
        "divergence": lambda geo: np.trace(geo.field(v).nabla, axis1=-2, axis2=-1).tolist(),
        "laplacian_routes": lambda geo: laplacian_routes(geo, potential),
        "nabla_decomposition": lambda geo: nabla_decomposition_check(geo, v),
        "f_skew_adjoint": lambda geo: rotation_skew_residual(geo, v),
        "torse_forming": lambda geo: torse_forming_residual(geo, v),
        "torse_consequences": lambda geo: torse_consequence_residuals(geo, v),
        "torse_lie_form": lambda geo: torse_lie_residual(geo, v),
        "efe_residual": efe,
        "einstein_eigen_multiset": lambda geo: einstein_eigen_check(geo, fluids),
        "samples": lambda geo: PointSamples.from_geometry(geo, v),
        "potential_terms": lambda geo: potential_field_terms(geo, v),
    }
    outcomes = {}
    for name, row in rows.items():
        try:
            outcomes[name] = _bits(row(geo))
        except NUMERICAL_FAILURES as exc:
            outcomes[name] = f"{type(exc).__name__}: {exc}"
    return outcomes


class TestBlockRows:
    """The rows of a block of plan points are one call each, and each point's record is the one it gets alone."""

    SOURCES = _plan_sources()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_record_of_a_block_is_the_record_of_its_point_alone(self, data):
        # a random subset (1 to a block of points), in random order, of one
        # source's plan; with a field 1/t, one more point at t = 0 where the
        # field read fails, in a random place of the block
        from solitonlab.report import _BLOCK

        doc, plan = data.draw(st.sampled_from(self.SOURCES))
        order = data.draw(st.permutations(plan))
        points = order[: data.draw(st.integers(1, min(_BLOCK, len(order))))]
        if data.draw(st.booleans()):
            doc = {**doc, "vector_field": {"components": ["1", "1/t", "0", "0"]}}
            place = data.draw(st.integers(0, len(points)))
            points = points[:place] + [[0.0, *points[0][1:]]] + points[place:]

        def records(plan):
            return run_suite(scenario_from_dict({**doc, "points": plan})).to_dict(include_timestamp=False)["points"]

        block = records(points)
        assert [json.dumps(rec) for rec in block] == [json.dumps(records([point])[0]) for point in points]

        # the same points as a take of a take of the block of the whole plan,
        # as _shared_rows takes efe_rows from a key's points: each row over
        # it is, bit for bit, each point's row alone, or a numerical failure
        # where a point alone meets one
        full = plan + [point for point in points if point not in plan]
        scenario = scenario_from_dict({**doc, "points": full})
        keys = [(scenario.metric, tuple(point), scenario.numerics) for point in full]
        geos = block_geometries(keys)
        base = geos[full.index(points[0])].block
        rows = [full.index(point) for point in points if geos[full.index(point)].block is base]
        positions = [geos[r].row for r in rows]
        others = [r for r in range(len(base)) if r not in positions]
        middle = data.draw(st.permutations(positions + others[: data.draw(st.integers(0, len(others)))]))
        sub = base.take(middle).take([middle.index(r) for r in positions])
        assert sub.points == [geos[r].point for r in rows]
        coords = scenario.coords
        v = scenario.vector_field or VectorFieldSpec.from_components(["1", "0", "0", "0"], coords)
        potential = parse(f"{coords[0]}*{coords[1]} + sin({coords[2]})", coords)
        fluids = [FluidValues(0.1 * r, 0.2, 1.0, -0.3 * r) for r in rows]
        taken = _row_outcomes(sub, v, potential, fluids)
        alone = [_row_outcomes(PointGeometry(*keys[r]), v, potential, fluid) for r, fluid in zip(rows, fluids)]
        for name, outcome in taken.items():
            each = [point[name] for point in alone]
            if any(isinstance(result, str) for result in each):
                assert isinstance(outcome, str), name
            else:
                assert outcome == each, name

    def test_a_lone_point_reads_as_the_point_of_a_block_of_one(self):
        # PointGeometry(metric, point) is a block of one whose store fills
        # each layer at its first read; block_geometries([key])[0] one whose
        # store one batch filled: each layer, derivative, field quantity and
        # row is the same, bit for bit
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        infall = load_scenario(SCENARIO_DIR / "vacuum-infall-custom.json")
        keys = [(infall.metric, tuple(point), infall.numerics) for point in GRID_SEED1[:2]]
        keys += [(*REFERENCE_CASES[case], DEFAULT_NUMERICS) for case in sorted(REFERENCE_CASES)]
        for key in keys:
            lone, batched = PointGeometry(*key), block_geometries([key])[0]
            assert len(batched.block) == 1 and lone.point == batched.point
            for name in LAYERS:
                assert _bits(getattr(lone, name)) == _bits(getattr(batched, name)), (key, name)
            assert _bits(ring_grad(lone.block, "einstein")) == _bits(ring_grad(batched.block, "einstein")), key
            specs = _field_specs(lone.metric.coords)
            for kind, spec in specs.items():
                for name in FIELD_QUANTITIES:
                    if spec.is_gradient or name not in GRADIENT_ONLY:
                        expected = getattr(batched.field(spec), name)
                        assert _bits(getattr(lone.field(spec), name)) == _bits(expected), (key, kind, name)
            v, potential = specs["mixed"], specs["gradient"].potential
            fluid = FluidValues(0.1, 0.2, 1.0, -0.3)
            fresh = PointGeometry(*key)  # the rows read first, on a lattice holding nothing else
            expected = _row_outcomes(batched, v, potential, fluid)
            assert _row_outcomes(fresh, v, potential, fluid) == expected, key
            assert _row_outcomes(lone, v, potential, fluid) == expected, key

    def test_a_block_row_equals_each_point_alone(self):
        # each row function over the block of the ten seed-1 grid points on one
        # store gives, point by point, bit for bit, what it gives a
        # PointGeometry alone, a block of one
        from solitonlab.scenario import load_scenario
        from solitonlab.spacetimes import fluid_from_ricci

        from conftest import SCENARIO_DIR

        scenario = load_scenario(SCENARIO_DIR / "vacuum-infall-custom.json")
        v, potential = scenario.vector_field, parse("t*r + sin(a)", scenario.coords)
        keys = [(scenario.metric, tuple(point), scenario.numerics) for point in GRID_SEED1]
        block = block_geometries(keys)[0].block
        assert len(block) == len(keys)
        fluids = [FluidValues(0.1 * k, 0.2, 1.0, -0.3 * k) for k in range(len(keys))]
        alone = [_row_outcomes(PointGeometry(*key), v, potential, fluid) for key, fluid in zip(keys, fluids)]
        for name, outcome in _row_outcomes(block, v, potential, fluids).items():
            assert outcome == [point[name] for point in alone], name
        fits = fluid_from_ricci(block.ricci, block.g, block.field(v).value, 1.0, [fluid.lam for fluid in fluids])
        geos = [PointGeometry(*key) for key in keys]
        alone = [
            fluid_from_ricci(geo.ricci, geo.g, geo.field(v).value, 1.0, fluid.lam) for geo, fluid in zip(geos, fluids)
        ]
        assert _bits(fits) == _bits(alone)


class _PerKey:
    """A ReferenceGeometry quantity, cached in its coordinate's entry by the first object to read it."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        entry = obj.lattice.setdefault(obj.point, {})
        if self.name not in entry:
            entry[self.name] = self.fn(obj)
        return entry[self.name]


class ReferenceGeometry:
    """The per-coordinate evaluation the batched layers replaced, kept as their reference.

    Each quantity is computed lazily at one coordinate, from the same
    quantity of its neighbours, with the formulas PointGeometry used before
    its layers were batched.  Neighbours share one lattice keyed by their
    exact coordinates; a quantity is computed once per key, at the float
    coordinates of the first neighbour object that reads it, which is how a
    neighbour reached as ``-0.0 + h - h`` can give a key its ``+0.0``.
    """

    def __init__(self, metric, point, numerics, lattice=None):
        self.metric = metric
        self.point = tuple(point)
        self.numerics = numerics
        self.lattice = {} if lattice is None else lattice

    def shifted(self, axis, delta):
        p = self.point
        there = p[:axis] + (p[axis] + delta,) + p[axis + 1 :]
        return ReferenceGeometry(self.metric, there, self.numerics, self.lattice)

    def grad(self, fn):
        if isinstance(fn, str):
            fn = attrgetter(fn)
        h = self.numerics.h
        steps = (h, -h, h / 2, -h / 2) if self.numerics.richardson else (h, -h)
        values = [[] for _ in steps]
        for axis in range(len(self.point)):
            for side, delta in zip(values, steps):
                side.append(fn(self.shifted(axis, delta)))
        plus, minus, *half = (np.array(side, dtype=float) for side in values)
        d = (plus - minus) / (2 * h)
        if half:
            d = (4.0 * ((half[0] - half[1]) / h) - d) / 3.0
        return d

    def corners(self):
        """g at the corners the 3-jet reads: one step of size s along each of three distinct axes the metric reads."""
        h = self.numerics.h
        for triple in itertools.combinations(self.metric.read_axes, 3):
            for size in (h, h / 2) if self.numerics.richardson else (h,):
                for signs in itertools.product((1.0, -1.0), repeat=3):
                    corner = self
                    for axis, sign in zip(triple, signs):
                        corner = corner.shifted(axis, sign * size)
                    corner.g

    @_PerKey
    def g(self):
        return _matrix(self.metric, self.point)

    @_PerKey
    def g_inv(self):
        return np.linalg.inv(self.g)

    @_PerKey
    def dg(self):
        return self.grad(lambda n: n.g)

    @_PerKey
    def gamma(self):
        dg = self.dg
        lowered = 0.5 * (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg)
        return np.einsum("kl,lij->kij", self.g_inv, lowered)

    @_PerKey
    def riemann(self):
        gamma = self.gamma
        dgamma = self.grad(lambda n: n.gamma)
        return (
            np.einsum("iljk->lkij", dgamma)
            - np.einsum("jlik->lkij", dgamma)
            + np.einsum("lim,mjk->lkij", gamma, gamma)
            - np.einsum("ljm,mik->lkij", gamma, gamma)
        )

    @_PerKey
    def ricci_raw(self):
        return np.einsum("lbla->ab", self.riemann)

    @_PerKey
    def ricci(self):
        return 0.5 * (self.ricci_raw + self.ricci_raw.T)

    @_PerKey
    def ricci_asymmetry(self):
        return max_abs(self.ricci_raw - self.ricci_raw.T)

    @_PerKey
    def scalar(self):
        return float(np.einsum("ij,ij->", self.g_inv, self.ricci))

    @_PerKey
    def einstein(self):
        return self.ricci - 0.5 * self.scalar * self.g

    def field(self, spec):
        return _ReferenceField(self, spec)


class _PerKeyField:
    """A _ReferenceField quantity, cached under its spec in its coordinate's entry by the first object to read it."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        entry = obj.geo.lattice.setdefault(obj.geo.point, {})
        key = (obj.spec, self.name)
        if key not in entry:
            entry[key] = self.fn(obj)
        return entry[key]


class _ReferenceField:
    """The per-coordinate vector-field formulas the field lattice replaced, kept as its reference.

    Each quantity at a coordinate is computed from the same quantity of the
    neighbours ReferenceGeometry.shifted builds, and kept in the coordinate's
    lattice entry, so a field is evaluated once per key, at the floats of the
    first neighbour object that reads it.
    """

    def __init__(self, geo, spec):
        self.geo = geo
        self.spec = spec

    def at(self, n):
        return n.field(self.spec)

    @_PerKeyField
    def potential(self):
        return self.spec.potential_at(self.geo.point)

    @_PerKeyField
    def dpotential(self):
        return self.geo.grad(lambda n: self.at(n).potential)

    @_PerKeyField
    def value(self):
        if self.spec.is_gradient:
            return self.geo.g_inv @ self.dpotential
        return np.array(self.spec.components_at(self.geo.point))

    @_PerKeyField
    def omega(self):
        return self.geo.g @ self.value

    @_PerKeyField
    def nabla(self):
        dv = self.geo.grad(lambda n: self.at(n).value)
        return dv.T + np.einsum("kjm,m->kj", self.geo.gamma, self.value)

    @_PerKeyField
    def lie(self):
        a = self.geo.g @ self.nabla
        return a + a.T

    @_PerKeyField
    def omega_grad(self):
        return self.geo.grad(lambda n: self.at(n).omega)

    @_PerKeyField
    def d_omega(self):
        return 0.5 * (self.omega_grad - self.omega_grad.T)

    @_PerKeyField
    def f_mixed(self):
        return self.geo.g_inv @ self.d_omega

    @_PerKeyField
    def norm_sq(self):
        return float(self.value @ self.geo.g @ self.value)

    @_PerKeyField
    def nabla_f(self):
        df = self.geo.grad(lambda n: self.at(n).f_mixed)
        gamma = self.geo.gamma
        f0 = self.f_mixed
        return df + np.einsum("kim,mj->ikj", gamma, f0) - np.einsum("mij,km->ikj", gamma, f0)

    @_PerKeyField
    def d_norm_sq(self):
        return self.geo.grad(lambda n: self.at(n).norm_sq)

    @_PerKeyField
    def hessian(self):
        geo, scalar = self.geo, lambda n: self.at(n).potential
        h = geo.numerics.h

        def same(axis, step):
            return (scalar(geo.shifted(axis, step)) - 2.0 * f0 + scalar(geo.shifted(axis, -step))) / (step * step)

        def cross(ax1, ax2, step):
            pp = scalar(geo.shifted(ax1, step).shifted(ax2, step))
            pm = scalar(geo.shifted(ax1, step).shifted(ax2, -step))
            mp = scalar(geo.shifted(ax1, -step).shifted(ax2, step))
            mm = scalar(geo.shifted(ax1, -step).shifted(ax2, -step))
            return (pp - pm - mp + mm) / (4.0 * step * step)

        def richardson(stencil):
            d = stencil(h)
            return (4.0 * stencil(h / 2) - d) / 3.0 if geo.numerics.richardson else d

        f0 = scalar(geo)
        dim = len(geo.point)
        d2 = np.empty((dim, dim))
        for i in range(dim):
            d2[i, i] = richardson(lambda step: same(i, step))
            for j in range(i):
                d2[i, j] = d2[j, i] = richardson(lambda step: cross(i, j, step))
        hess = d2 - np.einsum("kij,k->ij", geo.gamma, self.dpotential)
        return 0.5 * (hess + hess.T)


INFALL = MetricSpec.from_grid(
    [
        ["1/r - 1", "r^(-1/2)", "0", "0"],
        ["r^(-1/2)", "1", "0", "0"],
        ["0", "0", "r^2", "0"],
        ["0", "0", "0", "r^2*sin(a)^2"],
    ],
    ("t", "r", "a", "b"),
)
SHEAR = MetricSpec.from_grid(
    [["0.36*t^2 - 1", "0.6*t", "0", "0"], ["0.6*t", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    COORDS,
)
REFERENCE_CASES = {
    "minkowski": (catalog_metric("minkowski"), (0.7, 0.3, -0.45, 0.2)),
    "de_sitter": (catalog_metric("de_sitter", hubble=1.0), (0.6, 0.2, -0.4, 0.1)),
    "grw_flat": (catalog_metric("grw_flat", scale_factor="t^(1/2)"), (0.8, 0.1, 0.2, 0.3)),
    "infall": (INFALL, (0.7, 3.5, 1.1, 0.4)),
    "shear": (SHEAR, (0.9, 0.2, -0.3, 0.4)),
    # read a strict subset of the coordinates, with -0.0 and 0.0 among those
    # read and a component that keeps the sign of a zero: the geometry reads
    # every -0.0 as 0.0
    "signed_shift": (
        MetricSpec.from_grid(
            [["-1 - 0.1*t^2", "x", "0", "0"], ["x", "1 + 0.2*t", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            COORDS,
        ),
        (0.6, -0.0, 0.0, 0.2),
    ),
    "signed_yz": (
        MetricSpec.from_grid(
            [["-1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1 + z^2/5", "y"], ["0", "0", "y", "1 + y^2/10"]],
            COORDS,
        ),
        (0.3, 0.5, -0.0, 0.0),
    ),
    # a -0.0 in t, which g_tx reads
    "signed_t": (
        MetricSpec.from_grid(
            [["-1 - 0.1*x^2", "t", "0", "0"], ["t", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            COORDS,
        ),
        (-0.0, 0.2, 0.0, 0.4),
    ),
    # zeros on the one axis read: t = 0, and t = -h, whose stencil reaches
    # -h + h = +0.0 in t
    "de_sitter_t0": (catalog_metric("de_sitter", hubble=1.0), (0.0, 0.2, -0.4, 0.1)),
    "de_sitter_t_minus_h": (catalog_metric("de_sitter", hubble=1.0), (-1.3e-3, 0.2, -0.4, 0.1)),
    # a -0.0 on a coordinate no component reads
    "infall_signed_b": (INFALL, (0.7, 3.5, 1.1, -0.0)),
}
LAYERS = ("g", "g_inv", "dg", "gamma", "riemann", "ricci", "ricci_asymmetry", "scalar", "einstein")


def _read_as_the_reference(metric, point, richardson, first):
    """A fresh geometry, and a reference at its point, each read in the same order; the layers checked, per layer.

    Every coordinate of the reference's lattice, folded onto the axes the
    store walks, is a coordinate of the store, and every store coordinate is
    one of those.  Each layer the reference holds there, the store holds,
    bitwise, down to the sign of a zero.  The reference is evaluated at the
    geometry's point, whose zeros are canonical.
    """
    # one layer at the point, then the contracted Bianchi identity (Riemann
    # at the point, Gamma and dg over S^1, g over S^2 and, for three read
    # axes, at the corners of the 3-jet) and the rest
    cfg = NumericsConfig(h=1.3e-3, richardson=richardson)
    geo = PointGeometry(metric, point, cfg)
    getattr(geo, first)
    contracted_bianchi_residual(geo)
    geo.ricci, geo.scalar, geo.ricci_asymmetry
    metric_compatibility_residual(geo)
    reference = ReferenceGeometry(metric, geo.point, cfg)
    getattr(reference, first)
    reference.einstein, reference.gamma, reference.g_inv, reference.corners()
    reference.ricci, reference.scalar, reference.ricci_asymmetry
    reference.dg, reference.gamma, reference.g
    checked = Counter()
    store = geo.block.store
    keys = list(reference.lattice)
    numbers = store.number(store.project(np.array(keys)), add=False)
    assert sorted(set(numbers.tolist())) == list(range(store.size))
    for u, key in zip(numbers, keys):
        there = reference.lattice[key]
        for layer in LAYERS:
            if layer in there:
                assert store.held(layer, np.array([u]))[0], (layer, key)
                value, expected = store.get(layer, np.array([u]))[0], there[layer]
                assert np.array_equal(value, expected), (layer, key)
                assert np.array_equal(np.signbit(value), np.signbit(expected)), (layer, key)
                checked[layer] += 1
    return geo, reference, checked


class TestBatchedLayers:
    @staticmethod
    def check_against_the_reference(case, richardson, first):
        metric, point = REFERENCE_CASES[case]
        geo, _, checked = _read_as_the_reference(metric, point, richardson, first)
        assert geo.block.store.axes == metric.read_axes
        steps = 4 if richardson else 2
        assert checked["einstein"] == 1
        assert checked["dg"] == 1 + 4 * steps
        assert checked["gamma"] > checked["einstein"]
        assert checked["g"] > checked["gamma"]
        assert set(checked) == set(LAYERS)

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_every_lattice_coordinate_equals_the_per_coordinate_reference(self, case, richardson):
        # batching, evaluating the metric once per distinct value of the
        # coordinates it reads, and walking only the axes it reads change no
        # arithmetic: every layer the reference holds, at every coordinate,
        # is bitwise the store's row there, down to the sign of a zero
        self.check_against_the_reference(case, richardson, "ricci")

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_every_lattice_coordinate_equals_the_reference_after_the_plan_point_check(self, case, richardson):
        # as a report reads it: g at the point first, so the contracted
        # Bianchi identity walks the neighbours' curvature on a lattice
        # holding nothing else
        self.check_against_the_reference(case, richardson, "g")

    @settings(max_examples=15, deadline=None)
    @given(
        read=st.sets(st.integers(0, 3)),
        point=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0), min_size=4, max_size=4),
        richardson=st.booleans(),
        first=st.sampled_from(["g", "ricci"]),
    )
    def test_the_store_walks_the_axes_the_metric_reads(self, read, point, richardson, first):
        # a metric reading any subset of the coordinates, none included, with
        # a component that keeps the sign of a zero, at a point with zeros of
        # either sign: the store walks the axes the metric reads, and every
        # layer the reference holds is bitwise the store's row
        names = [COORDS[axis] for axis in sorted(read)]
        tt = "-1" + "".join(f" - 0.1*{c}^2" for c in names)
        tx = f"0.1*{names[0]}" if names else "0"
        xx = "1" + "".join(f" + 0.2*{c}" for c in names)
        grid = [[tt, tx, "0", "0"], [tx, xx, "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
        metric = MetricSpec.from_grid(grid, COORDS)
        assert metric.read_axes == tuple(sorted(read))
        geo, _, checked = _read_as_the_reference(metric, point, richardson, first)
        coords = geo.block.store.coords[: geo.block.store.size]
        assert geo.block.store.axes == metric.read_axes
        assert not np.signbit(coords[coords == 0.0]).any()  # canonical zeros
        assert set(checked) == set(LAYERS)

    def test_each_plan_point_numbers_one_coordinate_per_read_pattern(self, monkeypatch):
        # at every plan point of the shipped scenarios and of the infall
        # grid, the store holds one coordinate per distinct bit pattern of
        # the coordinates the metric reads: one for a metric reading none
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        points = _recorded_geometries(monkeypatch)
        data = Path(__file__).resolve().parent / "data"
        for path in [*sorted(SCENARIO_DIR.glob("*.json")), data / "infall-grid.json"]:
            run_suite(load_scenario(path))
        assert len(points) == 19 + 6
        for geo in points:
            store, read = geo.block.store, list(geo.metric.read_axes)
            patterns = {row.tobytes() for row in store.coords[: store.size, read]}
            assert len(patterns) == store.size, geo.point
            if not read:
                assert store.size == 1
        assert any(not geo.metric.read_axes for geo in points)


def _field_specs(coords):
    """A constant, the Euler, a mixed-component and a gradient field in the chart ``coords``."""
    t, x, y, z = coords
    return {
        "constant": VectorFieldSpec.from_components(["1", "0", "0.5", "0"], coords),
        "euler": VectorFieldSpec.from_components(list(coords), coords),
        "mixed": VectorFieldSpec.from_components([f"{x}*{t}", f"sin({y}) + {z}", f"exp({z})*{t}", f"{x}^2 - {y}"], coords),
        "gradient": VectorFieldSpec.gradient_of(f"{t}^2 + {x}*{y} - 0.5*{z}*{t} + {y}*{z}^2", coords),
    }


# V, omega, nabla V, Lie_V g, d omega, F, |V|^2, df, Hess f, nabla F, d|V|^2
FIELD_QUANTITIES = (
    "value", "omega", "nabla", "lie", "omega_grad", "d_omega", "f_mixed", "norm_sq",
    "dpotential", "hessian", "nabla_f", "d_norm_sq",
)
GRADIENT_ONLY = ("dpotential", "hessian")


class TestFieldTree:
    @pytest.mark.parametrize("order", ["report", "deepest_first"])
    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_every_field_quantity_equals_the_per_coordinate_reference(self, case, richardson, order):
        # the field quantities over the field lattice are bitwise the
        # per-coordinate ones at the geometry's point, down to the sign of a
        # zero: read as a report reads them, after the curvature, or on a
        # fresh point deepest first
        metric, point = REFERENCE_CASES[case]
        cfg = NumericsConfig(h=1.3e-3, richardson=richardson)
        for kind, spec in _field_specs(metric.coords).items():
            names = [n for n in FIELD_QUANTITIES if spec.is_gradient or n not in GRADIENT_ONLY]
            if order == "deepest_first":
                names = [n for n in ("nabla_f", "d_norm_sq", "hessian") if n in names] + names
            geo = PointGeometry(metric, point, cfg)
            reference = ReferenceGeometry(metric, geo.point, cfg)
            if order == "report":
                for g in (geo, reference):
                    g.g, g.ricci, g.scalar, g.ricci_asymmetry
                contracted_bianchi_residual(geo)
                reference.einstein, reference.gamma, reference.g_inv
                metric_compatibility_residual(geo)
                reference.dg
            for name in names:
                value, expected = np.asarray(getattr(geo.field(spec), name)), np.asarray(getattr(reference.field(spec), name))
                assert np.array_equal(value, expected), (kind, name)
                assert np.array_equal(np.signbit(value), np.signbit(expected)), (kind, name)

    @pytest.mark.parametrize("order", ["report", "deepest_first"])
    @pytest.mark.parametrize("richardson", [True, False])
    def test_a_block_tree_equals_each_point_alone(self, richardson, order):
        # every reference point in one block, each field given as two objects
        # equal by value, as the scenarios of a sweep give it: the points on
        # one store share one lattice per field, and every quantity is bitwise
        # that of the point alone and of the per-coordinate reference, down
        # to the sign of a zero
        cfg = NumericsConfig(h=1.3e-3, richardson=richardson)
        geos = block_geometries([(metric, point, cfg) for metric, point in REFERENCE_CASES.values()])
        alone = [PointGeometry(geo.metric, geo.point, cfg) for geo in geos]
        references = [ReferenceGeometry(geo.metric, geo.point, cfg) for geo in geos]
        if order == "report":
            for g in geos + alone + references:
                g.g, g.ricci, g.scalar, g.ricci_asymmetry
            for geo in geos + alone:
                contracted_bianchi_residual(geo)
                metric_compatibility_residual(geo)
            for reference in references:
                reference.einstein, reference.gamma, reference.g_inv, reference.dg
        for kind in ("constant", "euler", "mixed", "gradient"):
            for i, (geo, lone, reference) in enumerate(zip(geos, alone, references)):
                spec = _field_specs(geo.metric.coords)[kind]  # a new object at each point
                names = [n for n in FIELD_QUANTITIES if spec.is_gradient or n not in GRADIENT_ONLY]
                if order == "deepest_first":
                    names = [n for n in ("nabla_f", "d_norm_sq", "hessian") if n in names] + names
                for name in names:
                    value = np.asarray(getattr(geo.field(spec), name))
                    for expected in (getattr(lone.field(spec), name), getattr(reference.field(spec), name)):
                        assert np.array_equal(value, expected), (kind, i, name)
                        assert np.array_equal(np.signbit(value), np.signbit(expected)), (kind, i, name)
            # the points of one metric share one lattice: de Sitter at t = 0.6, 0
            # and -h, and infall at b = 0.4 and b = -0.0
            sharing = Counter(geo.metric for geo in geos)
            assert sorted(sharing.values()) == [1] * 6 + [2, 3]
            for geo in geos:
                tree = geo.field(spec)._tree
                assert len(tree.numbers) == sharing[geo.metric], kind
                assert all(other.field(spec)._tree is tree for other in geos if other.metric == geo.metric), kind


def _grid(tt="-1", xx="1", yy="1"):
    return [[tt, "0", "0", "0"], ["0", xx, "0", "0"], ["0", "0", yy, "0"], ["0", "0", "0", "1"]]


# metric, plan points, the point errors of a run, and the error of the
# contracted Bianchi identity alone on a fresh geometry at the first point
# (None: it evaluates); each string names the first failing coordinate of
# the store's own walk, with canonical zeros and the point's own floats on
# the axes not read
ERROR_CASES = {
    # g_xx vanishes two steps below x = 1
    "degenerate_neighbour": (
        _grid(xx="1e6*(x - 0.998)^2"),
        [[0.5, 1.0, 0.0, 0.0], [0.5, 1.5, 0.0, 0.0]],
        ["metric degenerate at (0.5, 0.998, 0.0, 0.0) (eigenvalue ratio 0.000e+00 / 1.000e+00)", None],
        "metric degenerate at (0.5, 0.998, 0.0, 0.0) (eigenvalue ratio 0.000e+00 / 1.000e+00)",
    ),
    # undefined two steps below x = 1 (S^2), fine one step below
    "domain_error_s2": (
        _grid(xx="1 + (x - 0.9983)^(1/2)"),
        [[0.5, 1.0, 0.0, 0.0], [0.5, 1.5, 0.0, 0.0]],
        ["metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error", None],
        "metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error",
    ),
    # undefined only three steps below x = 1 (S^3), which no read reaches:
    # the contracted Bianchi identity reads the 3-jet of g, over S^2
    "domain_error_s3": (
        _grid(xx="1 + (x - 0.9973)^(1/2)"),
        [[0.5, 1.0, 0.0, 0.0], [0.5, 1.5, 0.0, 0.0]],
        [None, None],
        None,
    ),
    # reads t, x and y: undefined only at the corner one step below along
    # all three, which the 3-jet alone reads, after the walk of the curvature
    "domain_error_corner": (
        _grid(xx="1 + (t + x + y - 0.9975)^(1/2)"),
        [[0.2, 0.5, 0.3, 0.0], [0.5, 0.5, 0.5, 0.0]],
        ["metric components undefined at (0.199, 0.499, 0.299, 0.0): math domain error", None],
        "metric components undefined at (0.199, 0.499, 0.299, 0.0): math domain error",
    ),
    # reads x and z only: undefined two steps below x = 1, the plan point's
    # -0.0 in z read as 0.0
    "domain_error_two_axes": (
        _grid(xx="1 + (x - 0.9983 + 0.1*z)^(1/2)"),
        [[0.5, 1.0, 0.0, -0.0], [0.5, 1.5, 0.0, 0.0]],
        ["metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error", None],
        "metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error",
    ),
    # a plan point with -0.0 coordinates, named with canonical zeros
    "negative_zero": (
        _grid(tt="-1 - (t - 0.9983)^(1/2)"),
        [[1.0, -0.0, 0.0, -0.0]],
        ["metric components undefined at (0.998, 0.0, 0.0, 0.0): math domain error"],
        "metric components undefined at (0.998, 0.0, 0.0, 0.0): math domain error",
    ),
    # reads y only, with the plan point's -0.0 on the unread x: undefined two
    # steps below y = 1, named with the point's own x, read as 0.0
    "unread_negative_zero": (
        _grid(yy="1 + (y - 0.9983)^(1/2)"),
        [[0.5, -0.0, 1.0, 0.0], [0.5, 0.0, 1.5, 0.0]],
        ["metric components undefined at (0.5, 0.0, 0.998, 0.0): math domain error", None],
        "metric components undefined at (0.5, 0.0, 0.998, 0.0): math domain error",
    ),
    # reads x only, undefined below x = 0.9985 and above x = 1.0025: the
    # point's neighbours along t, y and z are the point itself, so it is the
    # walk's first root, and the ring of x - h meets 0.998 before any root
    # reaches 1.003
    "two_regions": (
        _grid(xx="1 + ((x - 0.9985)*(1.0025 - x))^(1/2)"),
        [[0.5, 1.0, 0.0, 0.0], [0.5, 1.0005, 0.0, 0.0]],
        [
            "metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error",
            "metric components undefined at (0.5, 0.9984999999999999, 0.0, 0.0): math domain error",
        ],
        "metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error",
    ),
    # as two_regions, degenerate at x = 0.998 and undefined above x = 1.0025:
    # the degenerate coordinate comes first in the walk
    "domain_and_degenerate": (
        _grid(tt="-1 - (1.0025 - x)^(1/2)", xx="1e6*(x - 0.998)^2"),
        [[0.5, 1.0, 0.0, 0.0], [0.5, 1.5, 0.0, 0.0]],
        [
            "metric degenerate at (0.5, 0.998, 0.0, 0.0) (eigenvalue ratio 0.000e+00 / 1.067e+00)",
            "metric components undefined at (0.5, 1.5, 0.0, 0.0): math domain error",
        ],
        "metric degenerate at (0.5, 0.998, 0.0, 0.0) (eigenvalue ratio 0.000e+00 / 1.067e+00)",
    ),
    # the other way round: undefined below x = 0.9985, degenerate at x = 1.003,
    # so the domain error comes first in the walk
    "degenerate_and_domain": (
        _grid(tt="-1 - (x - 0.9985)^(1/2)", xx="1e6*(x - 1.003)^2"),
        [[0.5, 1.0, 0.0, 0.0], [0.5, 1.5, 0.0, 0.0]],
        ["metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error", None],
        "metric components undefined at (0.5, 0.998, 0.0, 0.0): math domain error",
    ),
}


class TestErrorAttribution:
    """A failure names the first failing coordinate of the store's own walk, with canonical zeros."""

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_point_errors(self, case):
        components, points, expected, _ = ERROR_CASES[case]
        doc = {
            "schema_version": 1,
            "name": case,
            "description": "error attribution",
            "coordinates": list(COORDS),
            "metric": {"components": components},
            "points": points,
        }
        assert [rec.error for rec in run_suite(scenario_from_dict(doc), solve=False).points] == expected

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_contracted_bianchi_on_a_fresh_geometry(self, case):
        # the row reads the walk of the point's own curvature, two rounds out
        components, points, _, expected = ERROR_CASES[case]
        geo = PointGeometry(MetricSpec.from_grid(components, COORDS), points[0])
        if expected is None:
            assert contracted_bianchi_residual(geo) <= DEFAULT_TOLERANCES["bianchi_contracted"]
            return
        with pytest.raises((EvalDomainError, GeometryError)) as caught:
            contracted_bianchi_residual(geo)
        assert str(caught.value) == expected

    @settings(max_examples=15, deadline=None)
    @given(
        axes=st.lists(st.sampled_from(COORDS), min_size=2, max_size=2),
        region=st.tuples(st.sampled_from([0.997, 0.9983, 0.9985]), st.sampled_from([1.0015, 1.0025, 1.003])),
        degenerate=st.sampled_from([None, 0.998, 1.002, 1.003]),
        point=st.lists(st.sampled_from([1.0, 0.5, 0.0, -0.0]), min_size=4, max_size=4),
        first=st.sampled_from([None, "g", "dg"]),
    )
    def test_the_named_coordinate_is_the_first_failing_one_of_the_walk(self, axes, region, degenerate, point, first):
        # a metric undefined outside a window of one coordinate, perhaps
        # degenerate at a value of another, read as ``first`` and then by the
        # contracted Bianchi identity: the coordinate a failure names is
        # checked against the metric evaluated alone, along the walk order
        # docs/conventions.md gives
        (a, b), (lo, hi) = axes, region
        point[COORDS.index(a)] = 1.0  # inside the window, which the stencil leaves
        xx = "1" if degenerate is None else f"1e6*({b} - {degenerate})^2"
        metric = MetricSpec.from_grid(_grid(tt=f"-1 - (({a} - {lo})*({hi} - {a}))^(1/2)", xx=xx), COORDS)
        geo = PointGeometry(metric, point)
        failure = None
        for layer, rounds in ([(first, {"g": 0, "dg": 1}[first])] if first else []) + [(None, 2)]:
            try:
                getattr(geo, layer) if layer else contracted_bianchi_residual(geo)
            except (EvalDomainError, GeometryError) as exc:
                failure = str(exc)
                break
        walk = _documented_walk(metric, geo.point, first)
        if failure is None:
            assert not any(_fails_alone(metric, c) for c in walk)
            return
        named = tuple(float(v) for v in re.search(r" at \(([^)]*)\)", failure).group(1).split(", "))
        read = metric.read_axes
        # within the read's stencil rounds of the point along the axes read, the point itself on the others
        assert sum(abs(named[i] - geo.point[i]) for i in read) <= rounds * DEFAULT_NUMERICS.h + 1e-12
        assert all(named[i] == geo.point[i] for i in range(4) if i not in read)
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in named)
        # it fails alone, as the message says
        assert _fails_alone(metric, named) == ("undefined" if failure.startswith("metric components") else "degenerate")
        # and no coordinate the walk reaches before it fails
        assert named in walk
        assert not any(_fails_alone(metric, c) for c in walk[: walk.index(named)])


def _fails_alone(metric, point):
    """How ``metric`` fails evaluated at ``point`` alone: "undefined", "degenerate", or None."""
    try:
        g = _matrix(metric, point)
    except EvalDomainError:
        return "undefined"
    if not np.isfinite(g).all():
        return "undefined"
    spectrum = np.sort(np.abs(np.linalg.eigvalsh(g)))
    good = spectrum[-1] != 0.0 and spectrum[0] > DEFAULT_NUMERICS.degeneracy_threshold * spectrum[-1]
    return None if good else "degenerate"


def _documented_walk(metric, point, first):
    """The coordinates whose metric a fresh geometry at ``point`` reads, in the order its reads pull them (docs/conventions.md).

    The reads are ``first`` ("g", "dg" or None), then the contracted Bianchi
    identity.  A neighbour moves one step along an axis the metric reads;
    along any other axis the point is its own neighbour.
    """
    read, dim = metric.read_axes, len(point)
    steps = (DEFAULT_NUMERICS.h, -DEFAULT_NUMERICS.h, DEFAULT_NUMERICS.h / 2, -DEFAULT_NUMERICS.h / 2)

    def ring(q, axes):
        return [q[:axis] + (q[axis] + step,) + q[axis + 1 :] for axis in axes for step in steps]

    walk = []
    if first == "g":
        walk.append(point)
    elif first == "dg":  # one round, the point itself only when it is some neighbour of its own
        walk += ([point] if len(read) < dim else []) + ring(point, read)
    # the Einstein tensor at the point, two rounds: the point, its ring, then the ring of each ring
    # coordinate; the 3-jet then reads dg there, and g at the corners for three axes read
    walk += [point, *ring(point, read)]
    for q in ring(point, read):
        walk += ring(q, read)
    for triple in itertools.combinations(read, 3):
        for size in steps[::2]:
            for signs in itertools.product((1.0, -1.0), repeat=3):
                corner = list(point)
                for axis, sign in zip(triple, signs):
                    corner[axis] += sign * size
                walk.append(tuple(corner))
    return walk


_SOLITON = {
    "fluid": {"sigma": 0.0, "rho": 0.0, "kappa": 1.0, "cosmological_constant": 0.0},
    "soliton": {"family": "ricci", "lambda": 0.0},
}
# metric, vector field, whether the run checks the soliton identities, plan
# points, the point errors of a run, and the error of
# potential_field_identities alone on a fresh geometry at the first point.
# Each field is undefined at or some stencil steps below x = 1; each string
# names the first failing coordinate in the order the reads pull the field
# lattice, with canonical zeros
FIELD_ERROR_CASES = {
    # a gradient potential undefined at the point itself (S^0): the metric and
    # the potential read x alone, so along t, y and z the point is its own
    # neighbour and the first coordinate evaluated
    "gradient_s0": (
        _grid(xx="1 + 0.1*x^2"),
        {"gradient": "(x - 1.0005)^(1/2)"},
        False,
        [[0.5, 1.0, 0.25, 0.0], [0.5, 1.5, 0.25, 0.0]],
        ["gradient potential undefined at (0.5, 1.0, 0.25, 0.0): (x-1.0005)^(1.0/2.0): math domain error", None],
        "gradient potential undefined at (0.5, 1.0, 0.25, 0.0): (x-1.0005)^(1.0/2.0): math domain error",
    ),
    # a component undefined one step below x = 1 (S^1)
    "component_s1": (
        _grid(tt="-1 - 0.1*t^2"),
        {"components": ["1", "(x - 0.9992)^(1/2)", "0", "0"]},
        False,
        [[0.5, 1.0, 0.0, -0.0], [0.5, 1.5, 0.0, 0.0]],
        ["vector field components undefined at (0.5, 0.999, 0.0, 0.0): (x-0.9992)^(1.0/2.0): math domain error", None],
        "vector field components undefined at (0.501, 0.999, 0.0, 0.0): (x-0.9992)^(1.0/2.0): math domain error",
    ),
    # a component undefined two steps below (S^2), which only nabla F reaches;
    # the metric reads the plan point's -0.0 in y, read as 0.0
    "component_s2": (
        _grid(tt="-1 - 0.1*t^2", yy="1 + 0.1*y^2"),
        {"components": ["1", "(x - 0.9983)^(1/2)", "y", "0"]},
        True,
        [[0.5, 1.0, -0.0, 0.0], [0.5, 1.5, 0.0, 0.0]],
        ["vector field components undefined at (0.5, 0.998, 0.0, 0.0): (x-0.9983)^(1.0/2.0): math domain error", None],
        "vector field components undefined at (0.5, 0.998, 0.0, 0.0): (x-0.9983)^(1.0/2.0): math domain error",
    ),
    # a gradient potential undefined two steps below (S^2), which nabla V reaches
    "gradient_s2": (
        _grid(tt="-1 - 0.1*t^2"),
        {"gradient": "t + (x - 0.9983)^(1/2)"},
        False,
        [[0.5, 1.0, 0.0, -0.0], [0.5, 1.5, 0.0, 0.0]],
        ["gradient potential undefined at (0.5, 0.998, 0.0, 0.0): t+(x-0.9983)^(1.0/2.0): math domain error", None],
        "gradient potential undefined at (0.501, 0.998, 0.0, 0.0): t+(x-0.9983)^(1.0/2.0): math domain error",
    ),
    # a gradient potential undefined three steps below (S^3), which only the
    # nabla F of potential_field_identities reaches
    "gradient_s3": (
        _grid(tt="-1 - 0.1*t^2", yy="1 + 0.1*y^2"),
        {"gradient": "t + (x - 0.9973)^(1/2)"},
        True,
        [[0.5, 1.0, -0.0, 0.0], [-0.0, 1.0, 0.0, -0.0], [0.5, 1.5, 0.0, 0.0]],
        [
            "gradient potential undefined at (0.5, 0.997, 0.0, 0.0): t+(x-0.9973)^(1.0/2.0): math domain error",
            "gradient potential undefined at (0.0, 0.997, 0.0, 0.0): t+(x-0.9973)^(1.0/2.0): math domain error",
            None,
        ],
        "gradient potential undefined at (0.5, 0.997, 0.0, 0.0): t+(x-0.9973)^(1.0/2.0): math domain error",
    ),
}


class TestFieldErrorAttribution:
    """A vector field undefined at a stencil coordinate is named as the per-coordinate evaluation named it."""

    @staticmethod
    def spec(field):
        if "gradient" in field:
            return VectorFieldSpec.gradient_of(field["gradient"], COORDS)
        return VectorFieldSpec.from_components(field["components"], COORDS)

    @pytest.mark.parametrize("case", sorted(FIELD_ERROR_CASES))
    def test_point_errors(self, case):
        components, field, soliton, points, expected, _ = FIELD_ERROR_CASES[case]
        doc = {
            "schema_version": 1,
            "name": case,
            "description": "field error attribution",
            "coordinates": list(COORDS),
            "metric": {"components": components},
            "vector_field": field,
            "points": points,
            **(_SOLITON if soliton else {}),
        }
        assert [rec.error for rec in run_suite(scenario_from_dict(doc)).points] == expected

    @pytest.mark.parametrize("case", sorted(FIELD_ERROR_CASES))
    def test_potential_identities_on_a_fresh_geometry(self, case):
        # nabla F reads the neighbours' F, so two steps out before one
        from solitonlab.solitons import SolitonParams, potential_field_identities, potential_field_terms
        from solitonlab.spacetimes import FluidValues

        components, field, _, points, _, expected = FIELD_ERROR_CASES[case]
        geo = PointGeometry(MetricSpec.from_grid(components, COORDS), points[0])
        with pytest.raises(EvalDomainError) as caught:
            terms = potential_field_terms(geo, self.spec(field))
            potential_field_identities(terms, FluidValues(0.0, 0.0, 1.0, 0.0), SolitonParams("ricci", lam=0.0))
        assert str(caught.value) == expected

    def test_the_hessian_reads_no_second_step_along_one_axis(self, monkeypatch):
        # the potential is undefined two steps below x = 1: the Hessian reads
        # the point, its neighbours and the cross pairs, each once, and none
        # of them there
        metric = MetricSpec.from_grid(_grid(tt="-1 - 0.1*t^2"), COORDS)
        _, field_seen = _count_evaluations(monkeypatch)
        spec = VectorFieldSpec.gradient_of(parse("t*y + (x - 0.9985)^(1/2)", COORDS), COORDS)
        hess = PointGeometry(metric, (0.5, 1.0, 0.0, -0.0)).field(spec).hessian
        expected = [[0.0, 0.0, 1.000000000001, 0.0], [0.0, -4249.835070115005, 0.0, 0.0], [1.000000000001, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        assert hess.tobytes() == np.array(expected).tobytes()
        assert len(field_seen) == len(set(field_seen)) == 1 + 3 * 4 + 3 * 8
        assert min(q[1] for _, q in field_seen) > 0.9985


INFALL_GRID = Path(__file__).resolve().parent / "data" / "infall-grid.json"
# points of the infall grid's box (t in [-2, 2], r in [3, 8], a in [0.5, pi - 0.5], b in [0, 2 pi])
INFALL_POINTS = [
    *json.loads(INFALL_GRID.read_text(encoding="utf-8"))["points"],
    [1.2, 4.8, 1.4, 0.9],
    [-0.8, 3.9, 2.0, 5.9],
    [0.35, 7.1, 0.75, 3.3],
    [-1.6, 5.2, 1.25, 2.1],
]


def _case_run(case, points):
    """The scenario of the ERROR_CASES or FIELD_ERROR_CASES entry ``case`` over ``points``, and whether its run solves."""
    if case in ERROR_CASES:
        components, field, soliton = ERROR_CASES[case][0], None, False
    else:
        components, field, soliton = FIELD_ERROR_CASES[case][:3]
    doc = {
        "schema_version": 1,
        "name": case,
        "description": "plan blocks",
        "coordinates": list(COORDS),
        "metric": {"components": components},
        "points": points,
        **({"vector_field": field} if field else {}),
        **(_SOLITON if soliton else {}),
    }
    return scenario_from_dict(doc), field is not None


def _metric_rows(metric, coords) -> np.ndarray:
    """``MetricSpec.matrix`` at each row of ``coords``, one coordinate at a time, as [n, i, j] arrays."""
    return np.array([_matrix(metric, q) for q in coords.tolist()])


def _held_g(store) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of ``store`` that hold a row of g, and those rows."""
    held = np.flatnonzero(store.layer("g").slot[: store.size] >= 0)
    return store.coords[held], store.get("g", held)


def _held_raw(tree) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of a field lattice that hold the field's components (or potential), and those rows."""
    name = "potential" if tree.spec.is_gradient else "value"
    held = np.flatnonzero(tree.held(name, np.arange(tree.size)))
    return tree.coords[held], tree.get(name, held) if held.size else np.empty(0)


def _field_rows(spec, keys) -> np.ndarray:
    """The field's components, or potential, at each row of ``keys``, one coordinate at a time."""
    raw = spec.potential_at if spec.is_gradient else spec.components_at
    return np.array([raw(tuple(q)) for q in keys.tolist()], dtype=float)


class TestBatchEvaluation:
    """The store stacks the per-coordinate metric tuples into its rows of g, and a field lattice its raw rows, bit for bit."""

    def test_every_row_is_the_per_coordinate_evaluation(self, monkeypatch):
        # every store and field lattice a run of each shipped scenario and of
        # the infall grid fills, including a failing point's block of its own;
        # a field lattice moves off its points only along the axes the metric
        # or the field reads, and evaluates the field once per row it holds
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        _, field_seen = _count_evaluations(monkeypatch)
        for path in [*sorted(SCENARIO_DIR.glob("*.json")), INFALL_GRID]:
            geos = _recorded_geometries(monkeypatch)
            field_seen.clear()
            run_suite(load_scenario(path))
            calls, held = len(field_seen), 0
            blocks = {id(geo.block): geo.block for geo in geos}.values()
            assert blocks, path.name
            for block in blocks:
                coords, rows = _held_g(block.store)
                assert len(coords), path.name
                expected = _metric_rows(block.metric, coords)
                assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64)), path.name
                for spec, tree in block.trees.items():
                    coords, rows = _held_raw(tree)
                    assert np.array_equal(rows.view(np.uint64), _field_rows(spec, coords).view(np.uint64)), path.name
                    held += len(rows)
                    other = [axis for axis in range(block.metric.dim) if axis not in tree.axes]
                    points = tree.coords[tree.numbers][:, other]
                    lattice = tree.coords[: tree.size, other]
                    assert (lattice[:, None] == points[None]).all(axis=2).any(axis=1).all(), path.name
            assert calls == held, path.name

    @pytest.mark.parametrize(
        "case", sorted(c for c, entry in ERROR_CASES.items() if (entry[3] or "").startswith("metric components undefined"))
    )
    def test_a_failing_walk_keeps_the_rows_before_it(self, case, monkeypatch):
        # a component raises partway through the walk: the store holds g at
        # exactly the coordinates the walk reaches before the failing one,
        # each the per-coordinate tuple, and the message names that coordinate
        components, points, _, message = ERROR_CASES[case]
        metric = MetricSpec.from_grid(components, COORDS)
        metric_seen, _ = _count_evaluations(monkeypatch)
        geo = PointGeometry(metric, points[0])
        with pytest.raises(EvalDomainError) as caught:
            contracted_bianchi_residual(geo)
        assert str(caught.value) == message
        named = tuple(float(v) for v in re.search(r" at \(([^)]*)\)", message).group(1).split(", "))
        assert metric_seen[-1] == named
        coords, rows = _held_g(geo.block.store)
        walk = _documented_walk(metric, geo.point, None)
        assert set(map(tuple, coords.tolist())) == set(walk[: walk.index(named)])
        assert np.array_equal(rows.view(np.uint64), _metric_rows(metric, coords).view(np.uint64))

    def test_a_point_failing_on_its_own_coordinate_numbers_no_stencil(self):
        # the metric fails at the point itself, the first coordinate the
        # Einstein tensor pulls: no stencil ring is numbered past it
        geo = PointGeometry(INFALL, (0.7, 0.0, 1.1, 0.4))
        with pytest.raises(EvalDomainError) as caught:
            geo.einstein
        assert str(caught.value) == "metric components undefined at (0.7, 0.0, 1.1, 0.4): float division by zero"
        assert geo.block.store.size == 1

    @pytest.mark.parametrize("case", sorted(FIELD_ERROR_CASES))
    def test_a_failing_field_read_keeps_the_rows_before_it(self, case, monkeypatch):
        # a component or the potential raises partway through a read: the
        # lattice holds rows only for coordinates evaluated before the failing
        # one, each the per-coordinate evaluation, and none for it; a failure
        # at the point itself is the first evaluation, with none before it
        from solitonlab.solitons import SolitonParams, potential_field_identities, potential_field_terms

        components, field, _, points, _, message = FIELD_ERROR_CASES[case]
        spec = TestFieldErrorAttribution.spec(field)
        _, field_seen = _count_evaluations(monkeypatch)
        geo = PointGeometry(MetricSpec.from_grid(components, COORDS), points[0])
        with pytest.raises(EvalDomainError) as caught:
            terms = potential_field_terms(geo, spec)
            potential_field_identities(terms, FluidValues(0.0, 0.0, 1.0, 0.0), SolitonParams("ricci", lam=0.0))
        assert str(caught.value) == message
        named = tuple(float(v) for v in re.search(r" at \(([^)]*)\)", message).group(1).split(", "))
        assert field_seen[-1][1] == named
        keys, rows = _held_raw(geo.field(spec)._tree)
        done = set(map(tuple, keys.tolist()))
        assert bool(len(keys)) == (named != geo.point) and named not in done
        assert done <= {q for _, q in field_seen[:-1]}
        assert np.array_equal(rows.view(np.uint64), _field_rows(spec, keys).view(np.uint64))


class TestPlanBlocks:
    """Plan points walked a block at a time, sharing a store, each get the record they get alone."""

    @settings(max_examples=12, deadline=None)
    @given(
        case=st.sampled_from(sorted(ERROR_CASES) + sorted(FIELD_ERROR_CASES)),
        good=st.integers(7, len(INFALL_POINTS)),
        data=st.data(),
    )
    def test_each_point_gets_the_record_it_gets_alone(self, case, good, data):
        # good infall points, read as coordinates of the case's chart, and the
        # case's own points, failing ones among them, in a random order after a
        # good one: 8 to 13 points, one block, and more than two blocks of four
        # when the block is four.  At either size, each point's record, byte
        # for byte, and its warning are those of a run of it alone
        from solitonlab import report as report_module

        points = ERROR_CASES[case][1] if case in ERROR_CASES else FIELD_ERROR_CASES[case][3]
        plan = [INFALL_POINTS[0], *data.draw(st.permutations(INFALL_POINTS[1:good] + points))]
        scenario, solve = _case_run(case, plan)
        records, warnings = [], []
        for i, point in enumerate(plan):
            alone = run_suite(_case_run(case, [point])[0], solve=solve).to_dict(include_timestamp=False)
            records.append(json.dumps(alone["points"][0]))
            warnings += [w.replace("plan point 0 ", f"plan point {i} ", 1) for w in alone["warnings"]]
        for block in (report_module._BLOCK, 4):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(report_module, "_BLOCK", block)
                report = run_suite(scenario, solve=solve).to_dict(include_timestamp=False)
            assert [json.dumps(rec) for rec in report["points"]] == records, block
            assert report["warnings"] == warnings, block

    @pytest.mark.parametrize("case", sorted(FIELD_ERROR_CASES))
    def test_a_field_failure_in_a_block_tree_leaves_each_point_its_record(self, case):
        # the case's points with +0.0 for each -0.0, so they share the block's
        # field lattice with a good point read first: a read of it fails at
        # a point of the case, and each point's record, byte for byte, is the
        # one it gets alone
        plan = [INFALL_POINTS[1], *([abs(x) for x in point] for point in FIELD_ERROR_CASES[case][3])]
        scenario, solve = _case_run(case, plan)
        with pytest.MonkeyPatch.context() as patch:
            geos = _recorded_geometries(patch)
            report = run_suite(scenario, solve=solve).to_dict(include_timestamp=False)
        assert len({id(geo.block) for geo in geos}) == 1
        assert report["points"][0]["error"] is None and any(rec["error"] for rec in report["points"])
        for i, point in enumerate(plan):
            alone = run_suite(_case_run(case, [point])[0], solve=solve).to_dict(include_timestamp=False)
            assert json.dumps(report["points"][i]) == json.dumps(alone["points"][0]), (i, point)

    def test_every_layer_row_of_a_block_store_equals_the_reference(self, monkeypatch):
        # a run of the infall grid: every layer row held by a store its points
        # share is bitwise the per-coordinate reference at that coordinate, down
        # to the sign of a zero
        from solitonlab.scenario import load_scenario

        geos = _recorded_geometries(monkeypatch)
        run_suite(load_scenario(INFALL_GRID))
        stores = {id(geo.block.store): geo.block.store for geo in geos}
        assert len(geos) == 6 and len(stores) < len(geos)
        checked = Counter()
        for store in stores.values():
            reference, every = {}, np.arange(store.size)
            for name in store.layers:
                for u in every[store.held(name, every)]:
                    there = ReferenceGeometry(store.metric, tuple(store.coords[u].tolist()), store.numerics, reference)
                    value, expected = store.get(name, np.array([u]))[0], getattr(there, name)
                    assert np.array_equal(value, expected), (name, u)
                    assert np.array_equal(np.signbit(value), np.signbit(expected)), (name, u)
                    checked[name] += 1
        assert set(checked) == {*LAYERS, "ricci_raw"}

    def test_a_minus_zero_point_and_its_twin_share_a_store_a_tree_and_a_record(self):
        # a plan point with -0.0 on an axis the metric reads (x) and on one it
        # does not (z), and its twin with +0.0: the geometry reads every -0.0
        # as +0.0, so the two share one store and one field lattice in a block,
        # and each gets the same record, byte for byte; the report's scenario
        # still echoes the plan as written
        signed, twin = [0.6, -0.0, 0.0, -0.0], [0.6, 0.0, 0.0, 0.0]
        doc = {
            "schema_version": 1,
            "name": "canonical zeros",
            "description": "a -0.0 plan point and its twin",
            "coordinates": list(COORDS),
            "metric": {"components": [["-1 - 0.1*t^2", "x", "0", "0"], ["x", "1 + 0.2*t", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
            "vector_field": {"components": ["t", "x", "y", "z"]},
            "points": [signed, twin],
            **_SOLITON,
        }
        with pytest.MonkeyPatch.context() as patch:
            geos = _recorded_geometries(patch)
            report = run_suite(scenario_from_dict(doc)).to_dict(include_timestamp=False)
        assert geos[0].metric.read_axes == (0, 1) and geos[0].point == geos[1].point == tuple(twin)
        assert geos[0].block.store is geos[1].block.store and geos[0].block is geos[1].block
        (field,), (twin_field,) = geos[0].block._fields.values(), geos[1].block._fields.values()
        assert field._tree is twin_field._tree
        assert json.dumps(report["points"][0]) == json.dumps(report["points"][1])
        assert json.dumps(report["scenario"]["points"][0]) == json.dumps(signed)

    def test_a_failing_point_leaves_the_batch_to_the_others(self):
        # three infall points and one where the metric fails, at the point
        # (r = 0) or two stencil steps out (r = 1.5e-3), in each place of the
        # block: the good points still share one store, filled in one batch,
        # and the failing point keeps a store of its own, untouched until its
        # own reads meet the failure as they do alone
        from solitonlab.scenario import load_scenario

        grid = load_scenario(INFALL_GRID)
        good = [(grid.metric, tuple(p), grid.numerics) for p in grid.points[:3]]
        errors = {}
        for bad in [(0.7, 0.0, 1.1, 0.4), (0.7, 1.5e-3, 1.1, 0.4)]:
            with pytest.raises(EvalDomainError) as alone:
                PointGeometry(grid.metric, bad, grid.numerics).einstein
            errors[bad] = str(alone.value)
        left = []
        for bad in errors:
            for place in range(4):
                geos = block_geometries(good[:place] + [(grid.metric, bad, grid.numerics)] + good[place:])
                left.append(geos.pop(place))
                store = geos[0].block.store
                assert all(geo.block.store is store for geo in geos) and left[-1].block.store.size == 0
                for geo in geos:  # the row's reads are indexes: G at the point, dg over its ring
                    number = geo.block.numbers[geo.row : geo.row + 1]
                    assert store.held("einstein", number).all() and store.held("dg", store.kids[number].ravel()).all()
        for geo in left:
            with pytest.raises(EvalDomainError) as raised:
                geo.einstein
            assert str(raised.value) == errors[geo.point]

    def test_a_block_is_one_store_and_the_next_block_another(self, monkeypatch):
        # verify of the seed-1 grid (run_suite without the solve): its ten
        # points are one block, one call of block_geometries, all on one store;
        # a plan of seventeen points is two blocks, of sixteen and of one
        from solitonlab import report
        from solitonlab.scenario import load_scenario

        from conftest import SCENARIO_DIR

        calls = []

        def recorded(keys):
            made = block_geometries(keys)
            calls.append(made)
            return made

        monkeypatch.setattr(report, "block_geometries", recorded)
        doc = load_scenario(SCENARIO_DIR / "vacuum-infall-custom.json").to_dict()
        run_suite(scenario_from_dict({**doc, "points": GRID_SEED1}), solve=False)
        assert [len(geos) for geos in calls] == [len(GRID_SEED1)]
        assert len({id(geo.block.store) for geo in calls[0]}) == 1
        calls.clear()
        plan = GRID_SEED1 + [[t, r + 0.25, a, b] for t, r, a, b in GRID_SEED1[:7]]
        run_suite(scenario_from_dict({**doc, "points": plan}), solve=False)
        assert [len(geos) for geos in calls] == [16, 1]
        assert [len({id(geo.block.store) for geo in geos}) for geos in calls] == [1, 1]

    def test_a_lone_failing_point_runs_its_shared_rows_once(self, monkeypatch):
        # a one-point plan whose field read fails: its block of one owns its
        # field lattices, so the failure is the record it gets, with no rerun
        from solitonlab import report as report_module

        from conftest import SCENARIO_DIR

        calls, shared_rows = [], report_module._shared_rows

        def counted(*args, **kwargs):
            calls.append(args[1])
            return shared_rows(*args, **kwargs)

        monkeypatch.setattr(report_module, "_shared_rows", counted)
        from solitonlab.scenario import load_scenario

        doc = load_scenario(SCENARIO_DIR / "de-sitter-soliton.json").to_dict()
        doc = {**doc, "vector_field": {"components": ["1", "1/t", "0", "0"]}, "points": [[0.0, 0.0, 0.0, 0.0]]}
        report = run_suite(scenario_from_dict(doc))
        assert len(calls) == 1 and not calls[0].is_take
        assert report.points[0].error == "vector field components undefined at (0.0, 0.0, 0.0, 0.0): 1.0/t: float division by zero"

    def test_a_failing_corner_leaves_the_batch_to_the_others(self, monkeypatch):
        # a good point first, so the store's root has z = 0.4, then the
        # domain_error_corner point, whose 3-jet alone meets a failure, and
        # six more good ones: the failing point leaves the batch, as a failing
        # walk does, and names its corner with its own z; the others stay one
        # block, so the shared rows run twice, not once per point
        from solitonlab import report as report_module

        calls, shared_rows = [], report_module._shared_rows

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return shared_rows(*args, **kwargs)

        monkeypatch.setattr(report_module, "_shared_rows", counted)
        failing = ERROR_CASES["domain_error_corner"][1][0]
        plan = [[0.5, 0.5, 0.5, 0.4], failing, *([0.5, 0.5, 0.5 + 0.1 * k, 0.0] for k in range(1, 7))]
        scenario, solve = _case_run("domain_error_corner", plan)
        report = run_suite(scenario, solve=solve)
        assert sorted(calls) == [1, 7]
        assert [rec.error for rec in report.points] == [None, ERROR_CASES["domain_error_corner"][2][0]] + [None] * 6

    def test_memory_is_bounded_by_a_block_not_by_the_plan(self, monkeypatch):
        # a block's stores are dropped before the next block: over what the
        # run keeps, its report, whose records grow with the plan, four
        # blocks of infall points peak at most a quarter above one block;
        # and no store is kept by the report, whose size the peak discounts
        import tracemalloc
        import weakref

        from solitonlab.report import _BLOCK
        from solitonlab.scenario import load_scenario

        rng = np.random.default_rng(5)
        box = np.array([(-2.0, 2.0), (3.0, 8.0), (0.5, math.pi - 0.5), (0.0, 2.0 * math.pi)])
        points = rng.uniform(box[:, 0], box[:, 1], size=(4 * _BLOCK, 4)).round(6).tolist()
        doc = load_scenario(INFALL_GRID).to_dict()
        stores, init = [], lattice.Store.__init__

        def tracked(store, *args, **kwargs):
            init(store, *args, **kwargs)
            stores.append(weakref.ref(store))

        def peak(plan):
            scenario = scenario_from_dict({**doc, "points": plan})
            run_suite(scenario)  # compiles the grids outside the trace
            stores.clear()
            tracemalloc.start()
            try:
                report = run_suite(scenario)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.points and len(stores) >= len(plan) // _BLOCK
            assert [ref() for ref in stores if ref() is not None] == []
            return peak - kept

        monkeypatch.setattr(lattice.Store, "__init__", tracked)
        assert peak(points) <= 1.25 * peak(points[:_BLOCK])

    def test_a_programming_error_in_the_batched_fill_propagates(self, monkeypatch):
        # a ValueError in the block's batch, the first Riemann computed (at
        # each point of the block), is not taken for a numerical failure that
        # only ends the batch: the run stops
        from solitonlab.report import _BLOCK
        from solitonlab.scenario import load_scenario

        computed, riemann = [], lattice.Store._riemann

        def broken(store, u):
            computed.append(len(u))
            if len(computed) == 1:
                raise ValueError("operands could not be broadcast together")
            return riemann(store, u)

        monkeypatch.setattr(lattice.Store, "_riemann", broken)
        scenario = load_scenario(INFALL_GRID)
        with pytest.raises(ValueError, match="broadcast"):
            run_suite(scenario)
        assert computed == [min(_BLOCK, len(scenario.points))]


class TestDistinct:
    """``lattice._distinct`` numbers rows by value, in order of first appearance."""

    ROWS = np.array([[1.0, -0.0], [2.0, 0.5], [1.0, 0.0], [2.0, 0.5], [3.0, 0.0], [1.0, -0.0]])

    def test_numbered_by_first_appearance(self):
        first, group = _distinct(self.ROWS[[1, 3, 4, 1]])
        assert first.tolist() == [0, 2]
        assert group.tolist() == [0, 0, 1, 0]

    def test_keys_equate_zeros(self):
        first, group = _distinct(self.ROWS)
        assert first.tolist() == [0, 1, 4]
        assert group.tolist() == [0, 1, 0, 1, 2, 0]

    def test_no_axes_is_one_group(self):
        first, group = _distinct(np.empty((5, 0)))
        assert first.tolist() == [0]
        assert group.tolist() == [0] * 5

    def test_the_store_numbers_exactly_when_every_hash_collides(self, monkeypatch):
        # the store finds and numbers coordinates, and groups the metric's read
        # patterns, with _distinct: sorted exactly, it holds the same rows
        def walked(case):
            geo = PointGeometry(*REFERENCE_CASES[case])
            geo.g
            contracted_bianchi_residual(geo)
            store = geo.block.store
            every = np.arange(store.size)
            return store.coords[: store.size].tobytes(), {
                name: store.get(name, every[store.held(name, every)]).tobytes()
                for name, layer in store.layers.items()
                if layer.count
            }

        expected = {case: walked(case) for case in ("signed_t", "minkowski")}
        monkeypatch.setattr(lattice, "_hash_weights", lambda dim: np.zeros(dim, dtype=np.uint64))
        assert {case: walked(case) for case in expected} == expected

    def test_sorted_exactly_when_every_hash_collides(self, monkeypatch):
        expected = _distinct(self.ROWS)
        monkeypatch.setattr(lattice, "_hash_weights", lambda dim: np.zeros(dim, dtype=np.uint64))
        got = _distinct(self.ROWS)
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]
