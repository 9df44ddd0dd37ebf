"""Catalog of explicit test spacetimes and the perfect-fluid algebra.

The catalog covers the flat-sliced warped products diag(-1, q(t)^2, q(t)^2,
q(t)^2): Minkowski (q = 1), the exponential slicing (q = exp(H t)), and an
arbitrary user scale factor.  The fluid side implements the stress tensor
of an isotropic fluid, the field-equation residual, the fit of a Ricci
sample to the A g + B eta (x) eta form, and the eigenvalue check of the
mixed field-equation operator.

Pointwise algebra here works on plain ndarrays; the rows that read the
chart (``efe_residual``, ``einstein_eigen_check``) are row functions over a
``geometry.BlockGeometry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import Binary, Const, Expr, Unary, Var, coerce_expr, evaluate, variables
from .geometry import (
    BlockGeometry,
    GeometryError,
    MetricSpec,
    VectorFieldSpec,
    frame_from_matrix,
    over_block,
)

__all__ = [
    "UnitNormError",
    "FluidValues",
    "FluidState",
    "FluidFormFit",
    "EigenCheckResult",
    "catalog_metric",
    "catalog_entries",
    "energy_momentum",
    "efe_residual",
    "ricci_from_fluid",
    "fluid_from_ricci",
    "einstein_eigen_check",
]

DEFAULT_COORDS = ("t", "x", "y", "z")


class UnitNormError(GeometryError):
    """A field required to be unit timelike is not (g(xi, xi) != -1)."""


@dataclass(frozen=True)
class FluidValues:
    """Fluid parameters evaluated to numbers at one instant."""

    sigma: float  # energy density
    rho: float  # isotropic pressure
    kappa: float  # gravitational constant
    lam: float  # cosmological constant


@dataclass(frozen=True)
class FluidState:
    """Fluid parameters; sigma, rho and lam may depend on the time coordinate."""

    sigma: float | Expr
    rho: float | Expr
    kappa: float
    lam: float | Expr

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("gravitational constant kappa must be positive")

    @classmethod
    def radiation(cls, rho: float, kappa: float, lam: float) -> "FluidState":
        """Trace-adjusted fluid with sigma = 3 rho."""
        return cls(sigma=3.0 * rho, rho=rho, kappa=kappa, lam=lam)

    def at(
        self,
        point: Sequence[float] | None = None,
        coords: Sequence[str] | None = None,
    ) -> FluidValues:
        def val(v: float | Expr) -> float:
            if isinstance(v, Expr):
                if point is None or coords is None:
                    raise ValueError("fluid has expression-valued parameters; a point is required")
                return evaluate(v, dict(zip(coords, point)))
            return float(v)

        return FluidValues(val(self.sigma), val(self.rho), float(self.kappa), val(self.lam))


@dataclass(frozen=True)
class FluidFormFit:
    """Least-structure fit of a Ricci sample to A g + B eta (x) eta."""

    a: float
    b: float
    residual: float
    isotropy_spread: float
    perfect_fluid: bool
    tolerance: float


@dataclass(frozen=True)
class EigenCheckResult:
    """Eigenvalues of the mixed field-equation operator vs the fluid multiset."""

    eigenvalues: tuple[float, ...]  # sorted ascending
    expected: tuple[float, ...]
    max_deviation: float


# -- catalog ---------------------------------------------------------------


def catalog_metric(
    name: str,
    *,
    hubble: float = 1.0,
    scale_factor: Expr | str | None = None,
    coords: Sequence[str] = DEFAULT_COORDS,
) -> MetricSpec:
    """Build a catalog spacetime: diag(-1, q^2, q^2, q^2) with flat slices.

    ``minkowski`` has q = 1, ``de_sitter`` has q = exp(hubble * t), and
    ``grw_flat`` takes an arbitrary scale factor expression q(t) > 0.
    """
    coords = tuple(coords)
    tname = coords[0]
    if name == "minkowski":
        q2: Expr = Const(1.0)
    elif name == "de_sitter":
        q2 = Unary("exp", Binary("mul", Const(2.0 * float(hubble)), Var(tname)))
    elif name == "grw_flat":
        if scale_factor is None:
            raise ValueError("grw_flat requires a scale_factor expression")
        q = coerce_expr(scale_factor, coords)
        extra = variables(q) - {tname}
        if extra:
            raise ValueError(f"scale factor may depend on {tname!r} only, found {sorted(extra)}")
        q2 = Binary("pow", q, Const(2.0))
    else:
        raise ValueError(f"unknown catalog metric {name!r}")
    return MetricSpec.diagonal([Const(-1.0), q2, q2, q2], coords)


def catalog_entries() -> list[dict]:
    return [
        {"name": "minkowski", "parameters": {}, "description": "flat spacetime diag(-1, 1, 1, 1)"},
        {
            "name": "de_sitter",
            "parameters": {"hubble": "expansion rate H (default 1.0)"},
            "description": "exponential flat slicing diag(-1, e^{2Ht}, e^{2Ht}, e^{2Ht})",
        },
        {
            "name": "grw_flat",
            "parameters": {"scale_factor": "expression q(t) > 0"},
            "description": "flat-sliced warped product diag(-1, q^2, q^2, q^2)",
        },
    ]


# -- pointwise fluid algebra -------------------------------------------------


def _outer(eta: np.ndarray) -> np.ndarray:
    """eta_i eta_j, at each point of any leading axes."""
    return eta[..., :, None] * eta[..., None, :]


def _stacked(values: FluidValues | Sequence[FluidValues]) -> FluidValues:
    """The fluid values of a block's points (or of one), each field an array that broadcasts over its (n, 4, 4) rows."""
    rows = [values] if isinstance(values, FluidValues) else values
    return FluidValues(*np.array([[v.sigma, v.rho, v.kappa, v.lam] for v in rows]).T[:, :, None, None])


def energy_momentum(values: FluidValues, g: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """T_ij = rho g_ij + (sigma + rho) eta_i eta_j; the fluid form for a unit timelike eta."""
    g = np.asarray(g, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return values.rho * g + (values.sigma + values.rho) * _outer(eta)


def ricci_from_fluid(values: FluidValues, g: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Synthetic Ricci tensor of an isotropic fluid with these parameters."""
    g = np.asarray(g, dtype=float)
    eta = np.asarray(eta, dtype=float)
    coeff = values.lam + values.kappa * (values.sigma - values.rho) / 2.0
    return coeff * g + values.kappa * (values.sigma + values.rho) * _outer(eta)


@over_block
def efe_residual(block: BlockGeometry, values: FluidValues | Sequence[FluidValues], xi: VectorFieldSpec) -> np.ndarray:
    """S_ij + (lam - r/2) g_ij - kappa T_ij; zero iff the fluid solves the field equation.

    T is the fluid form along the flow ``xi``, which means something only
    when ``xi`` is unit timelike; the caller decides that.  Over a block,
    ``values`` holds each point's fluid values, and the result is one
    ``[point, i, j]`` array.
    """
    fluid = _stacked(values)
    g = block.g
    t = energy_momentum(fluid, g, block.field(xi).omega)
    return block.ricci + (fluid.lam - block.scalar[:, None, None] / 2.0) * g - fluid.kappa * t


def fluid_from_ricci(
    s: np.ndarray,
    g: np.ndarray,
    xi: np.ndarray,
    kappa: float | Sequence[float],
    lam: float | Sequence[float],
    tolerance: float = 1e-5,
) -> tuple[FluidValues, FluidFormFit] | list[tuple[FluidValues, FluidFormFit]]:
    """Invert the fluid form of the Ricci tensor from one sample.

    A is the average of S(e,e) over the three spatial frame directions (their
    spread measures isotropy violation), B = S(xi,xi) + A; a large residual is
    data, not an error -- the sample simply is not of perfect-fluid form.
    The inversion assumes a unit timelike ``xi``; the caller decides that.
    A leading axis of ``s``, ``g`` and ``xi`` (and of ``kappa`` and ``lam``,
    or one value for all) is a block of points: one fit each, in a list.
    """
    s = np.asarray(s, dtype=float)
    lone = s.ndim == 2
    s = s.reshape((-1,) + s.shape[-2:])
    g = np.asarray(g, dtype=float).reshape(s.shape)
    xi = np.asarray(xi, dtype=float).reshape(s.shape[:2])
    kappa, lam = (np.full(len(s), float(c)) if np.ndim(c) == 0 else np.asarray(c, dtype=float) for c in (kappa, lam))
    frame = frame_from_matrix(g, timelike_hint=xi)
    spatial = frame.vectors[:, 1:4]
    a_vals = (spatial[:, :, None, :] @ s[:, None] @ spatial[:, :, :, None])[:, :, 0, 0]
    a = a_vals.mean(axis=1)
    spread = a_vals.max(axis=1) - a_vals.min(axis=1)
    b = (xi[:, None, :] @ s @ xi[:, :, None])[:, 0, 0] + a
    eta = (g @ xi[:, :, None])[:, :, 0]
    residual = np.abs(s - a[:, None, None] * g - b[:, None, None] * _outer(eta)).max(axis=(1, 2))
    sigma = (b + 2.0 * (a - lam)) / (2.0 * kappa)
    rho = (b - 2.0 * (a - lam)) / (2.0 * kappa)
    fits = [
        (
            FluidValues(sig, rh, k, lm),
            FluidFormFit(ak, bk, res, spr, perfect_fluid=res < tolerance and spr < tolerance, tolerance=tolerance),
        )
        for sig, rh, k, lm, ak, bk, res, spr in zip(
            *(col.tolist() for col in (sigma, rho, kappa, lam, a, b, residual, spread))
        )
    ]
    return fits[0] if lone else fits


@over_block
def einstein_eigen_check(block: BlockGeometry, values: FluidValues | Sequence[FluidValues]) -> list[EigenCheckResult]:
    """Eigenvalues of the mixed (S - r/2 g + lam g)^i_j against {-k sigma, k rho x3}.

    The multiset comparison only means something when the fluid actually
    solves the field equation at the point; the caller decides that from
    efe_residual.  Over a block, ``values`` holds each point's fluid values.
    """
    fluid = _stacked(values)
    g = block.g
    mixed = block.g_inv @ (block.ricci - 0.5 * block.scalar[:, None, None] * g + fluid.lam * g)
    eig_sorted = np.sort_complex(np.linalg.eigvals(mixed))
    kappa, sigma, rho = fluid.kappa[:, 0, 0], fluid.sigma[:, 0, 0], fluid.rho[:, 0, 0]
    expected = np.sort(np.stack([-kappa * sigma] + [kappa * rho] * 3, axis=1), axis=1)
    deviation = np.abs(eig_sorted - expected).max(axis=1)
    return [
        EigenCheckResult(eigenvalues=tuple(eig), expected=tuple(exp), max_deviation=dev)
        for eig, exp, dev in zip(eig_sorted.real.tolist(), expected.tolist(), deviation.tolist())
    ]
