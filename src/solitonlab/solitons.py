"""Soliton residual evaluators, projection solves, and closed-form constants.

Every soliton family is evaluated as the left-hand side of its defining
equation, so a vanishing sample means the scenario satisfies that family
exactly.  The constants (the soliton coefficient, and the vertical
coefficient mu for the eta families) are solved from projections of the
actual numerical tensors -- the closed forms are kept as independent
oracles, not the other way around.

Two classification conventions circulate for the sign of the soliton
constant; both are implemented (``positive_expands``, the default used by
the classification results here, and its mirror ``positive_shrinks``) and
the tag is carried in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import Expr, evaluate
from .geometry import (
    BlockGeometry,
    GeometryError,
    TensorSample,
    VectorFieldSpec,
    max_abs,
    over_block,
)
from .spacetimes import FluidValues, UnitNormError, ricci_from_fluid

__all__ = [
    "FAMILIES",
    "ETA_FAMILIES",
    "CONFORMAL_FAMILIES",
    "SolitonParams",
    "PointSamples",
    "ClassificationResult",
    "CKVAnalysis",
    "EtaSolitonSolve",
    "TorseResiduals",
    "PotentialTerms",
    "PotentialIdentityResult",
    "soliton_residual",
    "gradient_soliton_residual",
    "lambda_from_projection",
    "lambda_closed_form",
    "classify",
    "ckv_fit",
    "einstein_fit_point",
    "einstein_conformal_factor",
    "nabla_decomposition_check",
    "rotation_skew_residual",
    "potential_field_terms",
    "potential_field_identities",
    "eta_projection_solve",
    "eta_closed_forms",
    "torse_forming_residual",
    "torse_consequence_residuals",
    "torse_lie_residual",
]

FAMILIES = (
    "ricci",
    "conformal_ricci",
    "conformal_eta_ricci",
    "yamabe",
    "ricci_yamabe",
    "gradient_ricci_yamabe",
    "conformal_ricci_yamabe",
    "conformal_eta_ricci_yamabe",
)
ETA_FAMILIES = frozenset({"conformal_eta_ricci", "conformal_eta_ricci_yamabe"})
CONFORMAL_FAMILIES = frozenset(
    {"conformal_ricci", "conformal_eta_ricci", "conformal_ricci_yamabe", "conformal_eta_ricci_yamabe"}
)


@dataclass(frozen=True)
class SolitonParams:
    """Which soliton family is under test, and with which constants.

    ``lam`` (the soliton constant) and ``mu`` (the vertical coefficient of
    the eta families) may be left None and solved for by the projection
    routines.  ``p`` is the conformal pressure scalar, possibly a
    time-dependent expression.
    """

    family: str
    alpha: float = 1.0
    beta: float = 0.0
    lam: float | None = None
    mu: float | None = None
    p: float | Expr = -0.5
    n: int = 4

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown soliton family {self.family!r}")
        if self.mu is not None and self.family not in ETA_FAMILIES:
            raise ValueError(f"mu only applies to eta families, not {self.family!r}")
        if self.family in CONFORMAL_FAMILIES and self.n != 4:
            raise ValueError("the conformal pressure term is defined here for dimension 4")

    def p_at(self, point: Sequence[float] | None, coords: Sequence[str] | None) -> float:
        if isinstance(self.p, Expr):
            if point is None or coords is None:
                raise ValueError("p is an expression; a coordinate point is required")
            return evaluate(self.p, dict(zip(coords, point)))
        return float(self.p)


@dataclass(frozen=True)
class PointSamples:
    """Numerical tensors entering the soliton equations at one point.

    Built either from actual geometry (finite differences on a metric) or
    synthetically from fluid parameters, which is how the closed forms are
    cross-validated against the projection solves.
    """

    g: np.ndarray
    g_inv: np.ndarray
    lie_vg: np.ndarray
    ricci: np.ndarray
    scalar: float
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None
    div_xi: float | None = None
    point: tuple[float, ...] | None = None
    coords: tuple[str, ...] | None = None

    @classmethod
    @over_block
    def from_geometry(cls, block: BlockGeometry, v: VectorFieldSpec) -> list[PointSamples]:
        """Samples from the chart: Lie derivative along ``v``, curvature of the metric.

        ``v`` is also the reference timelike field of the projections: the
        potential field is the fluid velocity.  Over a block, one per point;
        each sample's curvature rows are rows of the block's arrays, which
        are copies, never views of the store.
        """
        field = block.field(v)
        g, g_inv, lie, ricci, scalar = block.g, block.g_inv, field.lie, block.ricci, block.scalar.tolist()
        xi, eta = field.value, field.omega
        div_xi = np.trace(field.nabla, axis1=-2, axis2=-1).tolist()
        coords = block.metric.coords
        return [
            cls(g[k], g_inv[k], lie[k], ricci[k], scalar[k], xi[k], eta[k], div_xi[k], point, coords)
            for k, point in enumerate(block.points)
        ]

    @classmethod
    def from_fluid(cls, values: FluidValues, g: np.ndarray, xi: np.ndarray) -> "PointSamples":
        """Synthetic samples of a perfect-fluid geometry seen along a
        torse-forming unit timelike field (Lie derivative 2[g + eta (x) eta])."""
        g = np.asarray(g, dtype=float)
        xi = np.asarray(xi, dtype=float)
        norm = float(xi @ g @ xi)
        if abs(norm + 1.0) > 1e-9:
            raise UnitNormError(f"synthetic samples need a unit timelike field, g(xi,xi) = {norm!r}")
        g_inv = np.linalg.inv(g)
        eta = g @ xi
        lie = 2.0 * (g + np.outer(eta, eta))
        s = ricci_from_fluid(values, g, eta)
        r = 4.0 * values.lam + values.kappa * (values.sigma - 3.0 * values.rho)
        return cls(
            g=g,
            g_inv=g_inv,
            lie_vg=lie,
            ricci=s,
            scalar=r,
            xi=xi,
            eta=eta,
            div_xi=0.5 * float(np.einsum("ij,ij->", g_inv, lie)),
        )


# -- residual evaluators ------------------------------------------------------


def _residual_matrix(samples: PointSamples, params: SolitonParams, lam: float, mu: float | None) -> np.ndarray:
    g, lie, s, r = samples.g, samples.lie_vg, samples.ricci, samples.scalar
    fam = params.family
    p_val = params.p_at(samples.point, samples.coords) if fam in CONFORMAL_FAMILIES else 0.0
    pressure = p_val + 2.0 / params.n
    if fam == "ricci":
        return lie + 2.0 * s + 2.0 * lam * g
    if fam == "conformal_ricci":
        return lie + 2.0 * s + (2.0 * lam - pressure) * g
    if fam == "yamabe":
        # own signed form, not an (alpha, beta) substitution
        return 0.5 * lie - (r - lam) * g
    if fam == "ricci_yamabe":
        return lie + 2.0 * params.alpha * s - (2.0 * lam - params.beta * r) * g
    if fam == "conformal_ricci_yamabe":
        return lie + 2.0 * params.alpha * s + (2.0 * lam - params.beta * r - pressure) * g
    if fam in ETA_FAMILIES:
        if samples.eta is None:
            raise ValueError("eta families need a reference timelike field in the samples")
        if mu is None:
            raise ValueError("eta families need mu")
        vertical = 2.0 * mu * np.outer(samples.eta, samples.eta)
        if fam == "conformal_eta_ricci":
            return lie + 2.0 * s + (2.0 * lam - pressure) * g + vertical
        return lie + 2.0 * params.alpha * s + (2.0 * lam - params.beta * r - pressure) * g + vertical
    raise ValueError(f"{fam!r} has no pointwise residual; use gradient_soliton_residual")


def soliton_residual(samples: PointSamples, params: SolitonParams) -> TensorSample:
    """Left-hand tensor of the family's defining equation at one point.

    The display for each family is listed under "Soliton residual displays"
    in ``docs/conventions.md``.
    """
    if params.lam is None:
        raise ValueError("soliton residual needs the soliton constant lam")
    if params.family in ETA_FAMILIES and params.mu is None:
        raise ValueError("eta families need mu")
    res = _residual_matrix(samples, params, params.lam, params.mu)
    return TensorSample("tensor02", res, samples.point or (), symmetric=True)


def gradient_soliton_residual(samples: PointSamples, hessian: np.ndarray, params: SolitonParams) -> TensorSample:
    """Hess f + alpha S - [lam - beta r / 2] g for the gradient family; ``hessian`` is Hess f at the samples' point."""
    if params.lam is None:
        raise ValueError("gradient soliton residual needs lam")
    res = hessian + params.alpha * samples.ricci - (params.lam - 0.5 * params.beta * samples.scalar) * samples.g
    return TensorSample("tensor02", res, samples.point or (), symmetric=True)


# -- projections and closed forms ---------------------------------------------


def lambda_from_projection(samples: PointSamples, params: SolitonParams) -> float:
    """The unique soliton constant zeroing the xi-xi component of the residual.

    Solved from the actual numerical samples (the residual is affine in the
    constant), never from the closed form.
    """
    if params.family in ETA_FAMILIES:
        raise ValueError("eta families have two constants; use eta_projection_solve")
    if samples.xi is None:
        raise ValueError("projection needs the reference field in the samples")
    xi = samples.xi

    def proj(lam: float) -> float:
        return float(xi @ _residual_matrix(samples, params, lam, None) @ xi)

    c0 = proj(0.0)
    slope = proj(1.0) - c0
    if abs(slope) < 1e-12 * max(1.0, abs(c0)):
        raise GeometryError("xi-xi projection is insensitive to the soliton constant (null field?)")
    return -c0 / slope


def lambda_closed_form(values: FluidValues, alpha: float, beta: float, p: float) -> float:
    """Closed form of the projected soliton constant for a perfect fluid."""
    return (
        values.kappa / 2.0 * ((alpha + beta) * values.sigma + 3.0 * (alpha - beta) * values.rho)
        + (2.0 * beta - alpha) * values.lam
        + 0.5 * (p + 0.5)
    )


@dataclass(frozen=True)
class ClassificationResult:
    lam: float
    category: str  # expanding | steady | shrinking
    convention: str  # positive_expands | positive_shrinks
    tolerance: float


def classify(lam: float, convention: str = "positive_expands", tolerance: float = 1e-9) -> ClassificationResult:
    """Sign classification of the soliton constant under a chosen convention."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    if convention not in ("positive_expands", "positive_shrinks"):
        raise ValueError(f"unknown convention {convention!r}")
    if abs(lam) <= tolerance:
        category = "steady"
    elif (lam > 0) == (convention == "positive_expands"):
        category = "expanding"
    else:
        category = "shrinking"
    return ClassificationResult(float(lam), category, convention, tolerance)


# -- conformal Killing analysis -------------------------------------------------


@dataclass(frozen=True)
class CKVAnalysis:
    phis: tuple[float, ...]  # fitted conformal factor per point
    residual: float  # worst deviation of Lie_V g from 2 Phi g
    category: str  # proper | homothetic | killing | not_ckv
    tolerance: float
    theta: float | None = None  # Einstein fit constant, when supplied
    psi: float | None = None  # predicted conformal factor in the Einstein case


def ckv_fit(
    samples: Sequence[PointSamples],
    tolerance: float = 1e-6,
    params: SolitonParams | None = None,
) -> CKVAnalysis:
    """Fit Lie_V g = 2 Phi g over the samples of a point set and categorise the field.

    not_ckv if the fit residual exceeds tolerance anywhere; killing if the
    factor vanishes everywhere; homothetic if it is constant; proper
    otherwise.  When soliton params with a constant are supplied and the
    spacetime fits the Einstein form, the predicted factor psi is attached.
    """
    if len(samples) < 2:
        raise ValueError("conformal fit needs at least two sample points")
    first = samples[0]
    n = first.g.shape[0]
    phis: list[float] = []
    residuals: list[float] = []
    thetas: list[float] = []
    theta_residuals: list[float] = []
    for sample in samples:
        g, lie = sample.g, sample.lie_vg
        phi = float(np.einsum("ij,ij->", sample.g_inv, lie)) / (2.0 * n)
        phis.append(phi)
        residuals.append(max_abs(lie - 2.0 * phi * g))
        theta, theta_res = einstein_fit_point(sample.ricci, g)
        thetas.append(theta)
        theta_residuals.append(theta_res)
    residual = max(residuals)
    if residual > tolerance:
        category = "not_ckv"
    elif all(abs(phi) <= tolerance for phi in phis):
        category = "killing"
    elif max(phis) - min(phis) <= tolerance:
        category = "homothetic"
    else:
        category = "proper"
    theta = psi = None
    if max(theta_residuals) <= tolerance:
        theta = float(np.mean(thetas))
        if params is not None and params.lam is not None:
            p_val = params.p_at(first.point, first.coords) if params.family in CONFORMAL_FAMILIES else 0.0
            psi = einstein_conformal_factor(theta, first.scalar, params.alpha, params.beta, p_val, params.lam)
    return CKVAnalysis(tuple(phis), residual, category, tolerance, theta, psi)


def einstein_fit_point(s: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Best constant theta with S = theta g at one point, and the misfit."""
    n = g.shape[0]
    theta = float(np.einsum("ij,ij->", np.linalg.inv(g), s)) / n
    return theta, max_abs(s - theta * g)


def einstein_conformal_factor(theta: float, r: float, alpha: float, beta: float, p: float, lam: float) -> float:
    """Predicted conformal factor of the potential field on an Einstein space."""
    return -(lam + alpha * theta - 0.5 * beta * r - 0.5 * (p + 0.5))


# -- rotation two-form machinery -------------------------------------------------
#
# omega(X) = g(X, V) is the metric dual of V, (d omega)_ij = (d_i omega_j -
# d_j omega_i) / 2, and the (1,1) field F with (d omega)(X, Y) = g(X, F Y) is
# skew self-adjoint; geo.field(v) holds omega, d_omega and f_mixed = F.


@over_block
def rotation_skew_residual(block: BlockGeometry, v: VectorFieldSpec) -> list[float]:
    """max |g F + (g F)^T|, the violation of F's skew self-adjointness."""
    gf = block.g @ block.field(v).f_mixed
    return block.residuals(gf + np.swapaxes(gf, -1, -2), 2)


@over_block
def nabla_decomposition_check(block: BlockGeometry, v: VectorFieldSpec) -> list[float]:
    """Residual of g(nabla_X V, Y) = (Lie_V g)(X,Y)/2 - g(FX, Y).

    This split into symmetric and antisymmetric parts is unconditional; the
    residual is pure stencil noise for every field.
    """
    g = block.g
    field = block.field(v)
    a = np.swapaxes(g @ field.nabla, -1, -2)  # a[n,i,j] = (nabla_i V)_j
    gf = g @ field.f_mixed
    return block.residuals(a - 0.5 * field.lie + np.swapaxes(gf, -1, -2), 2)


@dataclass(frozen=True)
class PotentialTerms:
    """The parts of the potential-field identities at one point that read no soliton constant.

    The curvature identity compares R(., .)V (``curvature_lhs``) with the
    antisymmetrised nabla F (``curvature_field``) plus the matter
    coefficient times the eye (x) eta difference (``curvature_matter``);
    the divergence identity compares div F with fluid terms in eta and
    eta(V); the norm identity reads no constant at all.
    """

    curvature_lhs: np.ndarray
    curvature_field: np.ndarray
    curvature_matter: np.ndarray
    div_f: np.ndarray
    eta: np.ndarray
    eta_v: float
    norm_gradient_identity: float


@dataclass(frozen=True)
class PotentialIdentityResult:
    """Residuals of the three curvature/divergence consequences of the soliton equation."""

    curvature_identity: float
    divergence_identity: float
    norm_gradient_identity: float


@over_block
def potential_field_terms(block: BlockGeometry, v: VectorFieldSpec) -> list[PotentialTerms]:
    """The terms of potential_field_identities that read no soliton constant, V being also the reference flow."""
    riem = block.riemann
    field = block.field(v)
    vv = field.value
    eta = field.omega
    cov_f = field.nabla_f  # [n,a,k,j] = (nabla_a F)^k_j
    eye = np.eye(block.metric.dim)
    lhs = np.einsum("...lkij,...k->...lij", riem, vv)
    antisym = np.einsum("...jli->...lij", cov_f) - np.einsum("...ilj->...lij", cov_f)
    matter = np.einsum("lj,...i->...lij", eye, eta) - np.einsum("li,...j->...lij", eye, eta)
    div_f = np.einsum("...kkj->...j", cov_f)
    eta_v = (eta[:, None, :] @ vv[:, :, None])[:, 0, 0].tolist()
    # gradient of |V|^2 against the Lie derivative and rotation terms
    norm = field.d_norm_sq + 2.0 * (np.swapaxes(field.f_mixed, -1, -2) @ eta[:, :, None])[:, :, 0]
    norm = norm - (field.lie @ vv[:, :, None])[:, :, 0]
    norm_res = np.abs(norm).max(axis=1).tolist()
    return [
        PotentialTerms(lhs[k], antisym[k], matter[k], div_f[k], eta[k], eta_v[k], norm_res[k])
        for k in range(len(block))
    ]


def potential_field_identities(
    terms: PotentialTerms,
    values: FluidValues,
    params: SolitonParams,
) -> PotentialIdentityResult:
    """Check the consequences the soliton equation forces on V and its dual.

    ``terms`` are potential_field_terms at the point; only the matter
    coefficient alpha kappa (sigma + rho) and the fluid terms are computed
    here.  The three identities are derived under hypotheses the caller
    decides: the full soliton equation holds at the point, the fluid
    parameters describe the Ricci tensor there, and -- whenever the matter
    coefficient is nonzero -- V is unit timelike and torse-forming (its
    derivative structure enters the curvature identity).  Here the residuals
    are only computed.
    """
    coeff = params.alpha * values.kappa * (values.sigma + values.rho)
    # curvature acting on V vs the antisymmetrised derivative of F
    curvature_res = max_abs(terms.curvature_lhs - (terms.curvature_field + coeff * terms.curvature_matter))
    # divergence of F, (nabla_k F)^k_j, against the fluid terms
    eta = terms.eta
    rhs_div = (
        -values.kappa * (values.sigma + values.rho) * (3.0 * params.alpha + terms.eta_v) * eta
        - (values.lam + values.kappa * (values.sigma - values.rho) / 2.0) * eta
    )
    divergence_res = max_abs(terms.div_f - rhs_div)
    return PotentialIdentityResult(curvature_res, divergence_res, terms.norm_gradient_identity)


# -- eta-family projection system -------------------------------------------------


@dataclass(frozen=True)
class EtaSolitonSolve:
    """Solution of the two projection equations of the eta-family system."""

    lam: float
    mu: float
    div_xi: float
    matrix: tuple[tuple[float, float], tuple[float, float]]
    rhs: tuple[float, float]
    back_substitution: float  # residual of the projections at the solution


def eta_projection_solve(
    samples: PointSamples,
    alpha: float,
    beta: float,
    p: float,
    unit_timelike: float = 1e-6,
) -> EtaSolitonSolve:
    """Solve for (lam, mu) from the frame trace and xi-xi projections.

    Both projection equations are built from the actual numerical samples
    (trace weighted by the frame signs equals the g-trace).  The linear
    system has determinant 3 g(xi, xi)^2 in magnitude, so it reads off how
    far the reference field is from unit; a field off by more than
    ``unit_timelike`` (the report's tolerance of that name, whose default
    this is) raises GeometryError.
    """
    if samples.xi is None or samples.eta is None:
        raise ValueError("eta projections need the reference timelike field")
    base = SolitonParams("conformal_eta_ricci_yamabe", alpha=alpha, beta=beta, p=p)
    xi = samples.xi

    def proj(lam: float, mu: float) -> np.ndarray:
        e = _residual_matrix(samples, base, lam, mu)
        trace_row = 0.5 * float(np.einsum("ij,ij->", samples.g_inv, e))
        xi_row = -0.5 * float(xi @ e @ xi)
        return np.array([trace_row, xi_row])

    b = -proj(0.0, 0.0)
    a = np.column_stack([proj(1.0, 0.0) + b, proj(0.0, 1.0) + b])
    det = float(np.linalg.det(a))
    if not abs(math.sqrt(abs(det) / 3.0) - 1.0) <= unit_timelike:
        raise GeometryError(
            f"projection system determinant {det!r}, expected |det| = 3 g(xi, xi)^2 "
            f"with |g(xi, xi)| within {unit_timelike!r} of 1"
        )
    lam, mu = np.linalg.solve(a, b)
    back = max_abs(proj(float(lam), float(mu)))
    return EtaSolitonSolve(
        lam=float(lam),
        mu=float(mu),
        div_xi=float(samples.div_xi) if samples.div_xi is not None else float("nan"),
        matrix=((float(a[0, 0]), float(a[0, 1])), (float(a[1, 0]), float(a[1, 1]))),
        rhs=(float(b[0]), float(b[1])),
        back_substitution=back,
    )


def eta_closed_forms(
    values: FluidValues, alpha: float, beta: float, p: float, div_xi: float
) -> tuple[float, float]:
    """Closed forms of (lam, mu) for the eta family on a perfect fluid.

    These are the exact solution of the projection system (frame trace and
    xi-xi component) and therefore agree with eta_projection_solve to
    rounding; for a radiation fluid they reduce to
    lam = (2b-a) L - k a rho + (p + 1/2)/2 - div(xi)/3 and
    mu = -4 k a rho - div(xi)/3.
    """
    k, sig, rho, lam_c = values.kappa, values.sigma, values.rho, values.lam
    lam = (
        (2.0 * beta - alpha) * lam_c
        + 0.5 * k * ((beta - alpha) * sig + (alpha - 3.0 * beta) * rho)
        + 0.5 * (p + 0.5)
        - div_xi / 3.0
    )
    mu = -alpha * k * (sig + rho) - div_xi / 3.0
    return lam, mu


# -- torse-forming diagnostics -----------------------------------------------------


@dataclass(frozen=True)
class TorseResiduals:
    """Residuals of the four standard consequences of the torse-forming law."""

    geodesic_flow: float  # nabla_xi xi = 0
    eta_derivative: float  # (nabla_X eta)(Y) = g(X,Y) + eta(X) eta(Y)
    curvature_action: float  # R(X,Y) xi = eta(Y) X - eta(X) Y
    eta_curvature: float  # eta(R(X,Y)Z) = eta(X) g(Y,Z) - eta(Y) g(X,Z)


@over_block
def torse_forming_residual(block: BlockGeometry, xi: VectorFieldSpec) -> list[float]:
    """Worst-direction residual of nabla_X xi = X + eta(X) xi."""
    field = block.field(xi)
    # [n,k,j] = delta^k_j + eta_j xi^k
    expected = np.eye(block.metric.dim) + field.value[:, :, None] * field.omega[:, None, :]
    return block.residuals(field.nabla - expected, 2)


@over_block
def torse_consequence_residuals(block: BlockGeometry, xi: VectorFieldSpec) -> list[TorseResiduals]:
    """The four consequences, which follow for a unit timelike torse-forming ``xi``."""
    g = block.g
    field = block.field(xi)
    xi_val = field.value
    eta = field.omega
    geodesic = np.abs((field.nabla @ xi_val[:, :, None])[:, :, 0]).max(axis=1)

    cov_eta = field.omega_grad - np.einsum("...kij,...k->...ij", block.gamma, eta)  # [n,i,j] = (nabla_i eta)_j
    eta_res = np.abs(cov_eta - g - eta[:, :, None] * eta[:, None, :]).max(axis=(1, 2))

    riem = block.riemann
    eye = np.eye(block.metric.dim)
    curv = np.einsum("...lkij,...k->...lij", riem, xi_val) - (
        np.einsum("...j,li->...lij", eta, eye) - np.einsum("...i,lj->...lij", eta, eye)
    )
    curv_res = np.abs(curv).max(axis=(1, 2, 3))

    eta_curv = np.einsum("...lkij,...l->...kij", riem, eta) - (
        np.einsum("...i,...jk->...kij", eta, g) - np.einsum("...j,...ik->...kij", eta, g)
    )
    eta_curv_res = np.abs(eta_curv).max(axis=(1, 2, 3))
    rows = zip(geodesic.tolist(), eta_res.tolist(), curv_res.tolist(), eta_curv_res.tolist())
    return [TorseResiduals(*row) for row in rows]


@over_block
def torse_lie_residual(block: BlockGeometry, xi: VectorFieldSpec) -> list[float]:
    """Residual of (Lie_xi g) = 2 [g + eta (x) eta], the torse-forming Lie form."""
    field = block.field(xi)
    eta = field.omega
    return block.residuals(field.lie - 2.0 * (block.g + eta[:, :, None] * eta[:, None, :]), 2)
