"""Pointwise pseudo-Riemannian tensor calculus on explicit metrics.

All curvature quantities are assembled from central finite differences of
the metric component functions (one Richardson extrapolation level by
default, giving effectively fourth-order stencils).  Conventions, pinned so
the constant-curvature anchors in the test suite hold:

* curvature operator  R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
  - nabla_[X,Y] Z, stored as R[l,k,i,j] meaning R(e_i,e_j)e_k = R^l_kij e_l;
* Ricci contraction over the first slot, S(X,Y) = sum_i eps_i g(R(e_i,X)Y, e_i),
  i.e. S_ab = R^l_bla in coordinates.

See docs/conventions.md for the full sign table.

Every quantity is read from a PointGeometry, one per (metric, point,
numerics).  It and the stencil neighbours it reaches share one
``lattice.Store``: each coordinate is numbered once, and each curvature
layer (the metric, its inverse and derivatives, the connection, the
curvature and its contractions) is one row array indexed by number.  The
lattice spans only the coordinates the metric reads: every layer is
constant along the others, so a neighbour along one of them is numbered as
the point itself, while ``shifted`` keeps its true coordinates for the
vector fields.  Reading a layer at a point computes it, and each layer
below it, at every coordinate the read needs and lacks, one numpy call per
layer; reading a layer held there is an index, with no numpy call.  The
metric components are evaluated by ``MetricSpec.matrix`` once per point for
each distinct bit pattern of the coordinates the grid reads, however many
reads need it, and a failing coordinate is named as evaluating point by
point along every axis would name it (docs/conventions.md).

Vector fields keep a dict per coordinate in the store: ``geo.field(spec)``
is a FieldGeometry whose quantities (V, the dual one-form gV and its
derivatives, nabla V, Lie_V g, the rotation map F = g^-1 d(gV), |V|^2, and
for a gradient its potential and the potential's derivatives) are cached
there under the VectorFieldSpec.  Specs are keyed by value, so two equal
specs share every entry, and a field's components are evaluated at most
once per coordinate.

The store lives as long as the objects that reach it and is not locked:
each PointGeometry belongs to one point and one thread.  Nothing is cached
at module level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .expressions import (
    Const,
    EvalDomainError,
    Expr,
    coerce_expr,
    compile_expr,
    differentiate,
    variables,
)
from .lattice import (
    GeometryError,
    SingularMetricError,
    Store,
    christoffel_from_dg,
    neighbours,
    stencil_derivative,
    stencil_steps,
)

__all__ = [
    "GeometryError",
    "SingularMetricError",
    "SignatureError",
    "NumericsConfig",
    "DEFAULT_NUMERICS",
    "MetricSpec",
    "TensorSample",
    "ChristoffelSample",
    "VectorFieldSpec",
    "FramePack",
    "PointGeometry",
    "FieldGeometry",
    "metric_at",
    "christoffel",
    "riemann",
    "ricci",
    "einstein_tensor",
    "hessian_scalar",
    "divergence_vector",
    "laplacian_routes",
    "frame_from_matrix",
    "cov_deriv_tensor11",
    "riemann_antisymmetry_residual",
    "bianchi_first_residual",
    "contracted_bianchi_residual",
    "metric_compatibility_residual",
    "christoffel_exact",
    "fd_convergence_ratio",
    "max_abs",
]


class SignatureError(GeometryError):
    """Diagonalised metric does not have Lorentzian signature (-,+,+,+)."""


@dataclass(frozen=True)
class NumericsConfig:
    """Finite-difference step, Richardson switch, and degeneracy threshold.

    The degeneracy test is scale-aware: a point aborts when the smallest
    metric eigenvalue magnitude drops below ``degeneracy_threshold`` times
    the largest, so uniformly small (still invertible) metrics pass while
    genuinely degenerate ones error out instead of extrapolating garbage.
    """

    h: float = 1e-3
    richardson: bool = True
    degeneracy_threshold: float = 1e-12

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("finite-difference step h must be positive")
        if self.degeneracy_threshold <= 0:
            raise ValueError("degeneracy threshold must be positive")


DEFAULT_NUMERICS = NumericsConfig()


def max_abs(a: np.ndarray | float) -> float:
    """Sup norm over components; the residual norm used throughout."""
    return float(np.max(np.abs(a)))


def _frozen(components: Any) -> np.ndarray:
    """A read-only float array of ``components``; a caller's writeable array is copied, never frozen in place."""
    comp = np.asarray(components, dtype=float)
    if comp.flags.writeable and (comp is components or comp.base is not None):
        comp = comp.copy()
    comp.setflags(write=False)
    return comp


@dataclass(frozen=True)
class TensorSample:
    """Components of one tensor evaluated at one coordinate point."""

    kind: str  # scalar | vector | oneform | tensor02 | tensor11 | tensor13
    components: np.ndarray
    point: tuple[float, ...]
    symmetric: bool = False
    symmetry_defect: float | None = None

    def __post_init__(self) -> None:
        comp = _frozen(self.components)
        object.__setattr__(self, "components", comp)
        rank = {"scalar": 0, "vector": 1, "oneform": 1, "tensor02": 2, "tensor11": 2, "tensor13": 4}
        if self.kind not in rank:
            raise ValueError(f"unknown tensor kind {self.kind!r}")
        if comp.ndim != rank[self.kind]:
            raise ValueError(f"{self.kind} sample must have rank {rank[self.kind]}, got shape {comp.shape}")
        if self.symmetric and comp.ndim == 2 and not np.array_equal(comp, comp.T, equal_nan=True):
            raise ValueError("sample flagged symmetric but storage is not")


@dataclass(frozen=True)
class ChristoffelSample:
    """Connection coefficients G[k,i,j] = Gamma^k_ij at one point."""

    components: np.ndarray
    point: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", _frozen(self.components))


@dataclass(frozen=True)
class FramePack:
    """Orthonormal frame vectors (rows) and their signs eps_i."""

    vectors: np.ndarray  # vectors[i] = components of e_i
    signs: tuple[int, ...]
    point: tuple[float, ...]


@dataclass(frozen=True)
class MetricSpec:
    """Symmetric grid of component expressions defining g in one chart."""

    coords: tuple[str, ...]
    components: tuple[tuple[Expr, ...], ...]
    signature: str = "lorentzian"

    def __post_init__(self) -> None:
        n = len(self.coords)
        if n < 2:
            raise ValueError("metric needs dimension >= 2")
        if len(set(self.coords)) != n:
            raise ValueError("coordinate names must be unique")
        if len(self.components) != n or any(len(row) != n for row in self.components):
            raise ValueError("component grid must be n x n")
        for i in range(n):
            for j in range(i):
                if self.components[i][j] != self.components[j][i]:
                    raise ValueError(f"component grid is not symmetric at ({i},{j})")
        for row in self.components:
            for e in row:
                unknown = variables(e) - set(self.coords)
                if unknown:
                    raise ValueError(f"metric component uses undeclared coordinates {sorted(unknown)}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def from_grid(
        cls,
        grid: Sequence[Sequence[Expr | str | float]],
        coords: Sequence[str],
        signature: str = "lorentzian",
    ) -> "MetricSpec":
        comps = tuple(tuple(coerce_expr(v, coords) for v in row) for row in grid)
        return cls(tuple(coords), comps, signature)

    @classmethod
    def diagonal(
        cls,
        entries: Sequence[Expr | str | float],
        coords: Sequence[str],
        signature: str = "lorentzian",
    ) -> "MetricSpec":
        n = len(entries)
        grid = [[Const(0.0)] * n for _ in range(n)]
        for i, e in enumerate(entries):
            grid[i][i] = coerce_expr(e, coords)
        return cls(tuple(coords), tuple(tuple(row) for row in grid), signature)

    def _compiled(self, exprs: Iterable[Expr]) -> Callable[..., tuple]:
        """One callable of the coordinates' floats returning the value of each of ``exprs``, in order."""
        from .expressions import _py_source  # shared codegen

        names = {c: f"c{i}" for i, c in enumerate(self.coords)}
        entries = ", ".join(_py_source(e, names) for e in exprs)
        src = f"lambda {', '.join(names.values())}: ({entries},)"
        return eval(src, {"_m": math})  # noqa: S307 - generated from the closed grammar

    @cached_property
    def _matrix_fn(self) -> Callable[..., tuple]:
        # one compiled callable returning the full grid, row by row, keeps
        # stencil evaluation cheap; cached_property is safe on this frozen
        # type (a benign duplicate compile under races returns identical code)
        return self._compiled(e for row in self.components for e in row)

    @cached_property
    def _derivative_fn(self) -> Callable[..., tuple]:
        # every d_k g_ij, k-major, in one compiled call; each component is
        # differentiated once, for (i,j) and (j,i) alike
        n = self.dim
        upper = {
            (k, i, j): differentiate(self.components[i][j], self.coords[k])
            for k in range(n)
            for i in range(n)
            for j in range(i, n)
        }
        return self._compiled(upper[k, min(i, j), max(i, j)] for k in range(n) for i in range(n) for j in range(n))

    @cached_property
    def read_axes(self) -> tuple[int, ...]:
        """The axes of the coordinates some component reads, in coordinate order.

        A coordinate no component reads never changes a component, so two
        points that agree bit for bit on these axes have bitwise equal metrics.
        """
        read = set().union(*(variables(e) for row in self.components for e in row))
        return tuple(i for i, c in enumerate(self.coords) if c in read)

    def matrix(self, point: tuple[float, ...]) -> np.ndarray:
        """Raw component matrix g_ij(P) at a tuple of ``dim`` floats; no degeneracy check."""
        try:
            vals = self._matrix_fn(*point)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(f"metric components undefined at {tuple(point)}: {exc}") from None
        return np.array(vals, dtype=float).reshape(len(point), -1)

    def derivatives(self, point: tuple[float, ...]) -> np.ndarray:
        """Exact dg[k,i,j] = d_k g_ij at a tuple of ``dim`` floats, from the symbolic derivatives."""
        try:
            vals = self._derivative_fn(*point)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(f"metric derivatives undefined at {tuple(point)}: {exc}") from None
        return np.array(vals, dtype=float).reshape((len(point),) * 3)


# -- the per-point geometry ------------------------------------------------


class _PerCoordinate:
    """A FieldGeometry attribute computed at most once per (lattice coordinate, field).

    The value is stored in the field's dict of the coordinate's dict in the
    shared store, so every object at those coordinates sees it.  An array is
    stored read-only, so no caller can change what every later reader of the
    store gets.  A computation that raises stores nothing.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, geo: Any, owner: type | None = None) -> Any:
        if geo is None:
            return self
        cache = geo._cache
        if self.name not in cache:
            value = self.fn(geo)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            cache[self.name] = value
        return cache[self.name]


def _layer_property(name: str, doc: str) -> property:
    """A curvature layer of PointGeometry, read from its store; the point's number is kept once known."""

    def read(geo: PointGeometry) -> Any:
        geo._number, value = geo._store.at(name, geo.point, geo._number)
        return value

    return property(read, doc=doc)


class PointGeometry:
    """Geometry of one metric at one point, evaluated on demand on a stencil lattice.

    ``g`` (degeneracy-checked), ``g_inv``, ``dg``, ``gamma``, ``riemann``,
    ``ricci``, ``ricci_asymmetry``, ``scalar`` and ``einstein`` are the
    curvature layers.  Reading one computes it, and each layer below it, at
    every lattice coordinate the read needs and lacks, one numpy call per
    layer, so each is computed at most once per coordinate.  ``shifted``
    gives a stencil neighbour on the same store, numbered from this point's
    stencil when a walk has reached it (as this point along a coordinate the
    metric does not read), ``grad`` differentiates a layer or
    any quantity of the neighbours and ``field`` gives a vector field's
    cached quantities here.  Not thread-safe: one object, one thread.
    """

    __slots__ = ("metric", "point", "numerics", "_store", "_number", "_cache")

    def __init__(
        self,
        metric: MetricSpec,
        point: Sequence[float],
        numerics: NumericsConfig = DEFAULT_NUMERICS,
    ) -> None:
        p = tuple(float(v) for v in point)
        if len(p) != metric.dim:
            raise ValueError(f"point has {len(p)} coordinates, metric has {metric.dim}")
        self._bind(Store(metric, numerics, p), p, -1)

    def _bind(self, store: Store, point: tuple[float, ...], number: int) -> None:
        self.metric, self.numerics, self.point = store.metric, store.numerics, point
        self._store, self._number = store, number  # the point's number in the store; -1 until known
        self._cache = store.fields.setdefault(point, {})

    def shifted(self, axis: int, delta: float) -> "PointGeometry":
        """The neighbour at this point moved by ``delta`` along coordinate ``axis``."""
        p = self.point
        neighbour = object.__new__(PointGeometry)
        there = p[:axis] + (p[axis] + delta,) + p[axis + 1 :]
        neighbour._bind(self._store, there, self._store.kid(self._number, axis, delta))
        return neighbour

    def grad(self, fn: str | Callable[["PointGeometry"], np.ndarray | float]) -> np.ndarray:
        """Central first derivatives of ``fn(neighbour)``, Richardson-extrapolated.

        ``fn`` is a callable, or the name of a curvature layer, which is then
        computed at all the neighbours, and at this point, in one batch.  The
        leading axis of the result is the derivative index.
        """
        if isinstance(fn, str):
            store, point = self._store, np.array([self.point])
            around = neighbours(point, store.steps).reshape(-1, point.shape[1])
            # the point last, as a caller reading it after would; once walked round, its kids number the neighbours
            known = np.append(store.kids[self._number].ravel(), self._number)
            numbers = store.fill(fn, np.concatenate([around, point]), known)
            values = store.get(fn, numbers[:-1])
            return stencil_derivative(values.reshape((1, point.shape[1], -1) + values.shape[1:]), self.numerics.h)[0]
        steps = stencil_steps(self.numerics)
        # neighbours in the order axis by axis, so the first failing one raises
        values = [[fn(self.shifted(axis, delta)) for delta in steps] for axis in range(len(self.point))]
        return stencil_derivative(np.array([values], dtype=float), self.numerics.h)[0]

    def field(self, spec: "VectorFieldSpec") -> "FieldGeometry":
        """The quantities of the vector field ``spec`` at this point."""
        return FieldGeometry(self, spec)

    g = _layer_property("g", "Symmetric matrix g_ij; errors if the matrix is not finite or degenerate.")
    g_inv = _layer_property("g_inv", "Contravariant inverse; g . g^-1 stays within 1e-12 of identity.")
    dg = _layer_property("dg", "dg[k,i,j] = d_k g_ij by central differences.")
    gamma = _layer_property("gamma", "Levi-Civita gamma[k,i,j] = Gamma^k_ij; symmetric in (i,j) by construction.")
    riemann = _layer_property("riemann", "Curvature components R[l,k,i,j] = R^l_kij (see module docstring).")
    ricci = _layer_property("ricci", "Ricci tensor, symmetrised.")
    ricci_asymmetry = _layer_property("ricci_asymmetry", "Largest asymmetry of the raw Ricci contraction.")
    scalar = _layer_property("scalar", "r = g^ij S_ij.")
    einstein = _layer_property("einstein", "G_ij = S_ij - (r/2) g_ij.")


# -- views for callers holding (metric, point, numerics) ----------------------


def metric_at(m: MetricSpec, point, cfg: NumericsConfig | None = None) -> TensorSample:
    """Symmetric matrix g_ij(P); errors if the matrix is degenerate."""
    geo = PointGeometry(m, point, cfg or DEFAULT_NUMERICS)
    return TensorSample("tensor02", geo.g, geo.point, symmetric=True)


def christoffel(m: MetricSpec, point, cfg: NumericsConfig | None = None) -> ChristoffelSample:
    """Levi-Civita coefficients Gamma^k_ij; symmetric in (i,j) by construction."""
    geo = PointGeometry(m, point, cfg or DEFAULT_NUMERICS)
    return ChristoffelSample(geo.gamma, geo.point)


def riemann(m: MetricSpec, point, cfg: NumericsConfig | None = None) -> TensorSample:
    """Curvature components R[l,k,i,j] = R^l_kij (see module docstring)."""
    geo = PointGeometry(m, point, cfg or DEFAULT_NUMERICS)
    return TensorSample("tensor13", geo.riemann, geo.point)


def ricci(m: MetricSpec, point, cfg: NumericsConfig | None = None) -> TensorSample:
    """Ricci tensor, symmetrised; the raw asymmetry is kept as a diagnostic."""
    geo = PointGeometry(m, point, cfg or DEFAULT_NUMERICS)
    return TensorSample("tensor02", geo.ricci, geo.point, symmetric=True, symmetry_defect=geo.ricci_asymmetry)


def einstein_tensor(m: MetricSpec, point, cfg: NumericsConfig | None = None) -> TensorSample:
    """G_ij = S_ij - (r/2) g_ij."""
    geo = PointGeometry(m, point, cfg or DEFAULT_NUMERICS)
    return TensorSample("tensor02", geo.einstein, geo.point, symmetric=True)


# -- vector fields --------------------------------------------------------


@dataclass(frozen=True)
class VectorFieldSpec:
    """Contravariant components, or a scalar potential tagged as a gradient."""

    coords: tuple[str, ...]
    components: tuple[Expr, ...] | None = None
    potential: Expr | None = None

    def __post_init__(self) -> None:
        if (self.components is None) == (self.potential is None):
            raise ValueError("give either components or a gradient potential")
        if self.components is not None and len(self.components) != len(self.coords):
            raise ValueError("component count must match the coordinate count")

    @classmethod
    def from_components(cls, entries: Sequence[Expr | str | float], coords: Sequence[str]) -> "VectorFieldSpec":
        return cls(tuple(coords), components=tuple(coerce_expr(e, coords) for e in entries))

    @classmethod
    def gradient_of(cls, potential: Expr | str, coords: Sequence[str]) -> "VectorFieldSpec":
        return cls(tuple(coords), potential=coerce_expr(potential, coords))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # a field's quantities are cached per coordinate under the spec, so
        # it is hashed at every neighbour: hash its expression trees once
        return hash((self.coords, self.components, self.potential))

    @property
    def is_gradient(self) -> bool:
        return self.potential is not None

    @cached_property
    def _component_fns(self) -> tuple[Callable[..., float], ...] | None:
        if self.components is None:
            return None
        return tuple(compile_expr(e, self.coords) for e in self.components)

    @cached_property
    def _potential_fn(self) -> Callable[..., float] | None:
        if self.potential is None:
            return None
        return compile_expr(self.potential, self.coords)

    def components_at(self, point: tuple[float, ...]) -> np.ndarray:
        """Raw contravariant components at a tuple of ``dim`` floats; component fields only."""
        try:
            return np.array([fn(*point) for fn in self._component_fns])
        except EvalDomainError as exc:
            raise EvalDomainError(f"vector field components undefined at {point}: {exc}") from None

    def potential_at(self, point: tuple[float, ...]) -> float:
        """Raw value of the potential at a tuple of ``dim`` floats; gradient fields only."""
        try:
            return self._potential_fn(*point)
        except EvalDomainError as exc:
            raise EvalDomainError(f"gradient potential undefined at {point}: {exc}") from None

    def value(self, geo: PointGeometry) -> np.ndarray:
        """Contravariant components at one point (raised df for gradients)."""
        return geo.field(self).value


class FieldGeometry:
    """One vector field at one point of a PointGeometry's lattice.

    Each quantity is computed at most once per (lattice coordinate, field),
    in the coordinate's entry under the spec.  Components and potentials are
    evaluated on the coordinates' Python floats, so a domain violation
    raises EvalDomainError naming the coordinate instead of giving inf/NaN.
    """

    __slots__ = ("geo", "spec", "_cache")

    def __init__(self, geo: PointGeometry, spec: VectorFieldSpec) -> None:
        self.geo = geo
        self.spec = spec
        self._cache = geo._cache.setdefault(spec, {})

    @_PerCoordinate
    def potential(self) -> float:
        """f, for a gradient field."""
        return self.spec.potential_at(self.geo.point)

    @_PerCoordinate
    def dpotential(self) -> np.ndarray:
        """d_k f, for a gradient field."""
        return self.geo.grad(lambda n: n.field(self.spec).potential)

    @_PerCoordinate
    def value(self) -> np.ndarray:
        """V^k; the raised df for a gradient field."""
        if self.spec.is_gradient:
            return self.geo.g_inv @ self.dpotential
        return self.spec.components_at(self.geo.point)

    @_PerCoordinate
    def omega(self) -> np.ndarray:
        """The metric dual one-form omega_i = g_ij V^j."""
        return self.geo.g @ self.value

    @_PerCoordinate
    def nabla(self) -> np.ndarray:
        """nabla[k,j] = (nabla_j V)^k = d_j V^k + Gamma^k_jm V^m."""
        dv = self.geo.grad(lambda n: n.field(self.spec).value)  # dv[j,k] = d_j V^k
        return dv.T + np.einsum("kjm,m->kj", self.geo.gamma, self.value)

    @_PerCoordinate
    def lie(self) -> np.ndarray:
        """(Lie_V g)_ij = g(nabla_i V, e_j) + g(nabla_j V, e_i)."""
        a = self.geo.g @ self.nabla  # a[i,j] = (nabla_j V)_i
        return a + a.T

    @_PerCoordinate
    def omega_grad(self) -> np.ndarray:
        """omega_grad[i,j] = d_i omega_j, plain coordinate derivatives."""
        return self.geo.grad(lambda n: n.field(self.spec).omega)

    @_PerCoordinate
    def d_omega(self) -> np.ndarray:
        """(d omega)_ij = (d_i omega_j - d_j omega_i) / 2."""
        return 0.5 * (self.omega_grad - self.omega_grad.T)

    @_PerCoordinate
    def f_mixed(self) -> np.ndarray:
        """The (1,1) rotation field F = g^-1 d omega."""
        return self.geo.g_inv @ self.d_omega

    @_PerCoordinate
    def norm_sq(self) -> float:
        """g(V, V)."""
        return float(self.value @ self.geo.g @ self.value)


def _d2_same(fn: Callable[[PointGeometry], float], geo: PointGeometry, axis: int) -> float:
    f0 = fn(geo)

    def stencil(h: float) -> float:
        return (fn(geo.shifted(axis, h)) - 2.0 * f0 + fn(geo.shifted(axis, -h))) / (h * h)

    d = stencil(geo.numerics.h)
    if geo.numerics.richardson:
        d = (4.0 * stencil(geo.numerics.h / 2) - d) / 3.0
    return d


def _d2_cross(fn: Callable[[PointGeometry], float], geo: PointGeometry, ax1: int, ax2: int) -> float:
    def stencil(h: float) -> float:
        pp = fn(geo.shifted(ax1, h).shifted(ax2, h))
        pm = fn(geo.shifted(ax1, h).shifted(ax2, -h))
        mp = fn(geo.shifted(ax1, -h).shifted(ax2, h))
        mm = fn(geo.shifted(ax1, -h).shifted(ax2, -h))
        return (pp - pm - mp + mm) / (4.0 * h * h)

    d = stencil(geo.numerics.h)
    if geo.numerics.richardson:
        d = (4.0 * stencil(geo.numerics.h / 2) - d) / 3.0
    return d


def hessian_scalar(geo: PointGeometry, f: Expr) -> TensorSample:
    """(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    spec = VectorFieldSpec.gradient_of(f, geo.metric.coords)
    scalar = lambda n: n.field(spec).potential  # noqa: E731
    dim = len(geo.point)
    d2 = np.empty((dim, dim))
    for i in range(dim):
        d2[i, i] = _d2_same(scalar, geo, i)
        for j in range(i):
            d2[i, j] = d2[j, i] = _d2_cross(scalar, geo, i, j)
    hess = d2 - np.einsum("kij,k->ij", geo.gamma, geo.field(spec).dpotential)
    hess = 0.5 * (hess + hess.T)
    return TensorSample("tensor02", hess, geo.point, symmetric=True)


def divergence_vector(geo: PointGeometry, v: VectorFieldSpec) -> float:
    """div V = (nabla_k V)^k."""
    return float(np.trace(geo.field(v).nabla))


def laplacian_routes(geo: PointGeometry, f: Expr) -> tuple[float, float]:
    """(div grad f, trace of Hess f) -- two independent Laplacian routes."""
    grad_field = VectorFieldSpec.gradient_of(f, geo.metric.coords)
    div_route = divergence_vector(geo, grad_field)
    trace_route = float(np.einsum("ij,ij->", geo.g_inv, hessian_scalar(geo, f).components))
    return div_route, trace_route


# -- frames ----------------------------------------------------------------


def frame_from_matrix(
    g: np.ndarray,
    timelike_hint: np.ndarray | None = None,
    point: tuple[float, ...] = (),
) -> FramePack:
    """Gram-Schmidt an orthonormal frame out of the coordinate basis.

    The candidate list is seeded with ``timelike_hint`` when given.  The
    result is reordered to signs (-1, +1, ..., +1); any other sign pattern
    raises SignatureError.
    """
    n = g.shape[0]
    candidates: list[np.ndarray] = []
    if timelike_hint is not None:
        candidates.append(np.asarray(timelike_hint, dtype=float))
    candidates.extend(np.eye(n))
    scale = max_abs(g)
    vectors: list[np.ndarray] = []
    signs: list[int] = []
    for cand in candidates:
        if len(vectors) == n:
            break
        b = cand.astype(float)
        for e, s in zip(vectors, signs):
            b = b - s * float(b @ g @ e) * e
        norm2 = float(b @ g @ b)
        if abs(norm2) < 1e-10 * scale * max(1.0, float(b @ b)):
            continue  # candidate is (numerically) dependent or null
        vectors.append(b / math.sqrt(abs(norm2)))
        signs.append(1 if norm2 > 0 else -1)
    if len(vectors) != n:
        raise SignatureError("could not complete an orthonormal frame (degenerate directions)")
    if signs.count(-1) != 1:
        raise SignatureError(f"expected exactly one timelike direction, found signs {tuple(signs)}")
    order = sorted(range(n), key=lambda i: (signs[i], i))  # timelike first, stable
    return FramePack(np.array([vectors[i] for i in order]), tuple(signs[i] for i in order), tuple(point))


# -- (1,1) tensor fields ----------------------------------------------------


def cov_deriv_tensor11(geo: PointGeometry, f_field: Callable[[PointGeometry], np.ndarray]) -> np.ndarray:
    """covF[i,k,j] = (nabla_i F)^k_j for a componentwise (1,1) field."""
    df = geo.grad(f_field)  # df[i,k,j] = d_i F^k_j
    gamma = geo.gamma
    f0 = np.asarray(f_field(geo), dtype=float)
    return df + np.einsum("kim,mj->ikj", gamma, f0) - np.einsum("mij,km->ikj", gamma, f0)


# -- health checks -----------------------------------------------------------


def riemann_antisymmetry_residual(geo: PointGeometry) -> float:
    """max |R^l_kij + R^l_kji|."""
    r = geo.riemann
    return max_abs(r + np.einsum("lkij->lkji", r))


def bianchi_first_residual(geo: PointGeometry) -> float:
    """Cyclic sum over the lowered last three slots of the curvature."""
    low = np.einsum("lm,mkij->lkij", geo.g, geo.riemann)
    cyc = low + np.einsum("lkij->lijk", low) + np.einsum("lkij->ljki", low)
    return max_abs(cyc)


def contracted_bianchi_residual(geo: PointGeometry) -> float:
    """max |nabla^i G_ij|; vanishes for exact geometry by the Bianchi identity."""
    dg_field = geo.grad("einstein")  # [k,i,j] = d_k G_ij
    gamma = geo.gamma
    g0 = geo.einstein
    cov = (
        dg_field
        - np.einsum("mki,mj->kij", gamma, g0)
        - np.einsum("mkj,im->kij", gamma, g0)
    )
    div = np.einsum("ki,kij->j", geo.g_inv, cov)
    return max_abs(div)


def metric_compatibility_residual(geo: PointGeometry) -> float:
    """max |nabla_k g_ij| with the same stencils that built Gamma."""
    dg = geo.dg
    gamma = geo.gamma
    g0 = geo.g
    cov = dg - np.einsum("mki,mj->kij", gamma, g0) - np.einsum("mkj,im->kij", gamma, g0)
    return max_abs(cov)


def christoffel_exact(geo: PointGeometry) -> np.ndarray:
    """Gamma from symbolic component derivatives; oracle for the stencils.

    Only g itself comes from the lattice; every derivative is the compiled
    symbolic derivative of a metric component, so it shares no stencil with
    the engine it checks.
    """
    dg = geo.metric.derivatives(geo.point)
    return christoffel_from_dg(geo.g_inv, dg)


def fd_convergence_ratio(geo: PointGeometry) -> float | None:
    """Error ratio of plain second-order stencils when h is halved.

    Measured on the connection coefficients against the symbolic-derivative
    oracle with Richardson off; ~4 for healthy second-order stencils.  None
    when the error is at roundoff level (flat metrics).  The plain stencils
    read the metric at the same +-h and +-h/2 neighbours as ``geo.grad``, in
    one indexed read of the store: the +-h pairs axis by axis, then the +-h/2.
    """
    exact, store, dim = christoffel_exact(geo), geo._store, len(geo.point)
    halvings = (geo.numerics.h, geo.numerics.h / 2)
    around = np.concatenate([neighbours(np.array([geo.point]), (h, -h)).reshape(-1, dim) for h in halvings])
    known = np.array([store.kid(geo._number, axis, s) for h in halvings for axis in range(dim) for s in (h, -h)])
    g = store.get("g", store.fill("g", around, known)).reshape(2, dim, 2, *geo.g.shape)
    errs = [max_abs(christoffel_from_dg(geo.g_inv, (s[:, 0] - s[:, 1]) / (2 * h)) - exact) for h, s in zip(halvings, g)]
    if errs[1] < 1e-11 * max(1.0, max_abs(exact)):
        return None
    return errs[0] / errs[1]
