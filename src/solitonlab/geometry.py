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
numerics), whose point has canonical zeros: a -0.0 is read as +0.0, which
no expression of the grammar tells apart but by the sign of a zero result.
Its curvature layers (the metric, its inverse and derivatives, the
connection, the curvature and its contractions) live in one
``lattice.Store``: each stencil coordinate is numbered once, and each layer
is one row array indexed by number.  The lattice spans only the coordinates
the metric reads: every layer is constant along the others.  Reading a
layer at a point computes it, and each layer below it, at every coordinate
the read needs and lacks, one numpy call per layer; reading a layer held
there is an index, with no numpy call.  ``block_geometries`` gives a block
of points one store, filled in one batch, each reading it by its number
there.  The metric components are evaluated by ``MetricSpec.matrix`` once
per store for each distinct value of the coordinates the grid reads,
however many reads need it, and a failure names the first failing
coordinate of the store's walk (docs/conventions.md).

A vector field may read coordinates the metric does not, so its quantities
live on stencil trees at true coordinates instead.  ``geo.field(spec)`` is
the one FieldGeometry of the VectorFieldSpec at the point (specs compare
by value): the point's row of one field tree, which ``block_geometries``
has the points on one store share.  The tree holds each quantity (V, the
dual one-form gV and its derivatives, nabla V, Lie_V g, the rotation map
F = g^-1 d(gV) and nabla F, |V|^2 and its derivative, and for a gradient
the potential, its derivatives and Hessian) as one array over one depth of
the trees of all its points, one numpy call per quantity and depth, the
metric layers there read from the store.  The components, or the potential,
are evaluated once per coordinate, the components of a field in one
compiled call.  Should a read of a shared tree meet a numerical failure,
each of its points goes on with a tree of its own, so every point gets the
values and the failure it gets alone.

The identity rows read the points of one store together: a BlockGeometry
over them holds each layer and field quantity with a leading point axis,
and each row function of this module, ``spacetimes`` and ``solitons`` is
one computation over it, which a lone PointGeometry runs as a block of one
(docs/conventions.md, "Rows over a block").

A FieldGeometry and its tree live as long as the PointGeometry objects that
read them, and a store as long as the PointGeometry objects on it.  None is
locked: each belongs to one thread.  Nothing is cached at module level.
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
    _py_source,
    coerce_expr,
    compile_expr,
    differentiate,
    variables,
)
from .lattice import (
    GeometryError,
    SingularMetricError,
    Store,
    _distinct,
    christoffel_from_dg,
    neighbours,
    stencil_derivative,
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
    "BlockGeometry",
    "FieldGeometry",
    "block_geometries",
    "metric_at",
    "christoffel",
    "riemann",
    "ricci",
    "einstein_tensor",
    "hessian_scalar",
    "divergence_vector",
    "laplacian_routes",
    "frame_from_matrix",
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


def _compiled(exprs: Iterable[Expr], coords: Sequence[str]) -> Callable[..., tuple]:
    """One callable of the coordinates' floats returning the value of each of ``exprs``, in order."""
    names = {c: f"c{i}" for i, c in enumerate(coords)}
    entries = ", ".join(_py_source(e, names) for e in exprs)
    src = f"lambda {', '.join(names.values())}: ({entries},)"
    return eval(src, {"_m": math})  # noqa: S307 - generated from the closed grammar


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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once: it walks every expression tree
        return hash((self.coords, self.components, self.signature))

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

    @cached_property
    def _matrix_fn(self) -> Callable[..., tuple]:
        # one compiled callable returning the full grid, row by row, keeps
        # stencil evaluation cheap; cached_property is safe on this frozen
        # type (a benign duplicate compile under races returns identical code)
        return _compiled((e for row in self.components for e in row), self.coords)

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
        return _compiled((upper[k, min(i, j), max(i, j)] for k in range(n) for i in range(n) for j in range(n)), self.coords)

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

# the numerical failures a point records; any other exception is a programming error
_FAILURES = (EvalDomainError, GeometryError, np.linalg.LinAlgError)


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
    layer, so each is computed at most once per coordinate.  ``grad``
    differentiates a layer and ``field`` gives the quantities of a vector
    field here.  Not thread-safe: one object, one thread.

    ``point`` is the point given, with every -0.0 made +0.0.  Its lattice
    lives in a store of its own, unless ``block_geometries`` moves it onto
    one shared with other points, and its fields live on field trees of its
    own unless ``block_geometries`` has it share those of the other points
    on that store.
    """

    __slots__ = ("metric", "point", "numerics", "_store", "_number", "_block", "_row", "_fields")

    def __init__(
        self,
        metric: MetricSpec,
        point: Sequence[float],
        numerics: NumericsConfig = DEFAULT_NUMERICS,
    ) -> None:
        p = tuple(float(v) + 0.0 for v in point)  # -0.0 + 0.0 is +0.0
        if len(p) != metric.dim:
            raise ValueError(f"point has {len(p)} coordinates, metric has {metric.dim}")
        self.metric, self.numerics, self.point = metric, numerics, p
        self._store, self._number = Store(metric, numerics, p), -1  # the point's number in the store; -1 until known
        # the points whose field trees this point shares, itself row ``_row`` there; made at its first field read if alone
        self._block: _Block | None = None
        self._row = 0
        self._fields: dict[VectorFieldSpec, FieldGeometry] = {}

    def grad(self, name: str) -> np.ndarray:
        """Central first derivatives of the curvature layer ``name``, Richardson-extrapolated.

        The layer is computed at all the neighbours, and at this point, in
        one batch.  The leading axis of the result is the derivative index.
        """
        return _grad(self._store, np.array([self.point]), np.array([self._number]), name)[0]

    def field(self, spec: "VectorFieldSpec") -> "FieldGeometry":
        """The quantities of the vector field ``spec`` at this point; one FieldGeometry per spec."""
        field = self._fields.get(spec)
        if field is None:
            if self._block is None:  # a point alone: a block of one
                self._block = _Block(self._store, np.array([self.point]), np.array([self._number]))
            field = self._fields[spec] = FieldGeometry(self._block.tree(spec), self._row)
        return field

    g = _layer_property("g", "Symmetric matrix g_ij; errors if the matrix is not finite or degenerate.")
    g_inv = _layer_property("g_inv", "Contravariant inverse; g . g^-1 stays within 1e-12 of identity.")
    dg = _layer_property("dg", "dg[k,i,j] = d_k g_ij by central differences.")
    gamma = _layer_property("gamma", "Levi-Civita gamma[k,i,j] = Gamma^k_ij; symmetric in (i,j) by construction.")
    riemann = _layer_property("riemann", "Curvature components R[l,k,i,j] = R^l_kij (see module docstring).")
    ricci = _layer_property("ricci", "Ricci tensor, symmetrised.")
    ricci_asymmetry = _layer_property("ricci_asymmetry", "Largest asymmetry of the raw Ricci contraction.")
    scalar = _layer_property("scalar", "r = g^ij S_ij.")
    einstein = _layer_property("einstein", "G_ij = S_ij - (r/2) g_ij.")


def _grad(store: Store, points: np.ndarray, numbers: np.ndarray, name: str) -> np.ndarray:
    """Central first derivatives of layer ``name`` at ``points`` (numbers ``numbers``; -1: unknown), one batch.

    The layer is computed at all their neighbours, and at the points, in
    one ``Store.fill``; the result is ``[point, derivative index, ...]``.
    """
    dim = points.shape[1]
    around = neighbours(points, store.steps).reshape(-1, dim)
    # the points last, as a caller reading them after would; once walked round, their kids number the neighbours
    known = np.concatenate([store.kids[numbers].reshape(-1), numbers])
    numbers = store.fill(name, np.concatenate([around, points]), known)
    values = store.get(name, numbers[: len(around)])
    return stencil_derivative(values.reshape((len(points), dim, -1) + values.shape[1:]), store.numerics.h)


def _block_layer(name: str) -> property:
    """A curvature layer of BlockGeometry, one row per point, read once."""

    def read(block: BlockGeometry) -> np.ndarray:
        rows = block._layers.get(name)
        if rows is None:
            if len(block.geos) == 1:  # read as the point reads it alone; a copy, as a row keeps its layer alive
                rows = np.array(getattr(block.geos[0], name))[None]
            else:  # held at every point since block_geometries filled the store
                rows = block.geos[0]._store.get(name, block._numbers)
            rows.flags.writeable = False
            block._layers[name] = rows
        return rows

    return property(read, doc=f"Layer {name!r} at each point of the block.")


class BlockGeometry:
    """Points of one store read together: each curvature layer, derivative and field quantity with a leading point axis.

    The points are those ``block_geometries`` put on one store, where it
    filled every layer at them, or one PointGeometry, read as it reads
    alone: a lone point is a block of one.  A layer is one indexed read of
    the store at the points, ``grad`` one ``Store.fill`` for all of them,
    and a field quantity their rows of the depth-0 array of the field tree
    they share (or, once a read of that tree has failed, of each point's
    own tree: FieldGeometry).

    The row functions of this module, ``spacetimes`` and ``solitons`` take a
    block or a PointGeometry (``of``): each computes its row once over the
    block, and returns a list with each point's result (``unpack``), or the
    lone point's result.  Each layer is read once per block and kept.  Not
    thread-safe.
    """

    __slots__ = ("geos", "metric", "numerics", "points", "_numbers", "_lone", "_layers", "_fields")

    def __init__(self, geos: Sequence[PointGeometry]) -> None:
        first = geos[0]
        if len(geos) > 1 and any(geo._block is None or geo._block is not first._block for geo in geos):
            raise ValueError("the points of a block must share one store and its field trees")
        self.geos = tuple(geos)
        self.metric, self.numerics = first.metric, first.numerics
        self.points = [geo.point for geo in geos]
        self._numbers = np.array([geo._number for geo in geos])  # in the store; a lone point's is -1 until known
        self._lone = False
        self._layers: dict[str, np.ndarray] = {}
        self._fields: dict[VectorFieldSpec, FieldGeometry] = {}

    @classmethod
    def of(cls, geo: PointGeometry | BlockGeometry) -> BlockGeometry:
        """``geo`` if a block, else the block of one whose ``unpack`` gives the point's result alone."""
        if isinstance(geo, BlockGeometry):
            return geo
        block = cls([geo])
        block._lone = True
        return block

    def __len__(self) -> int:
        return len(self.geos)

    def unpack(self, results: list) -> Any:
        """``results``, one per point; the one result when the block stands for a lone PointGeometry."""
        return results[0] if self._lone else results

    def residuals(self, a: np.ndarray, rank: int) -> Any:
        """max |a| over its last ``rank`` axes at each point, unpacked: the residual norm of a row."""
        return self.unpack(np.abs(a).max(axis=tuple(range(-rank, 0))).tolist())

    def grad(self, name: str) -> np.ndarray:
        """``PointGeometry.grad`` at every point: ``[point, derivative index, ...]``."""
        return _grad(self.geos[0]._store, np.array(self.points), self._numbers, name)

    def field(self, spec: VectorFieldSpec) -> FieldGeometry:
        """The vector field ``spec`` at every point: a FieldGeometry over their rows of its tree."""
        field = self._fields.get(spec)
        if field is None:
            tree = self.geos[0].field(spec)._tree  # a lone point's tree is made at its first field read
            rows = [geo._row for geo in self.geos]
            if rows == list(range(len(tree.points))):
                rows = slice(None)  # all of the tree: its arrays, not copies
            field = self._fields[spec] = FieldGeometry(tree, rows)
        return field

    g = _block_layer("g")
    g_inv = _block_layer("g_inv")
    dg = _block_layer("dg")
    gamma = _block_layer("gamma")
    riemann = _block_layer("riemann")
    ricci = _block_layer("ricci")
    ricci_asymmetry = _block_layer("ricci_asymmetry")
    scalar = _block_layer("scalar")
    einstein = _block_layer("einstein")


def block_geometries(keys: Sequence[tuple[MetricSpec, Sequence[float], NumericsConfig]]) -> list[PointGeometry]:
    """A PointGeometry for each (metric, point, numerics) of ``keys``, those of one (metric, numerics) on one store.

    Before any identity reads them, one batch fills the shared store with
    what a suite reads: the Einstein tensor, and each layer below it, at the
    points and their stencil neighbours (so the metric over S^3 around each
    point), and the Ricci asymmetry at the points.  Each point takes its
    number from the batch, so its reads are indexes, and a suite read there
    meets no metric failure.  The first point whose walk meets a numerical
    failure keeps a store of its own, where its reads meet it as they would
    alone (docs/conventions.md), and the batch is made again without it.
    The points left on one store share a field tree per vector field
    (FieldGeometry).
    """
    geos = [PointGeometry(*key) for key in keys]
    shared: dict[tuple, list[PointGeometry]] = {}
    for geo in geos:
        shared.setdefault((geo.metric, geo.numerics), []).append(geo)
    for members in shared.values():
        _fill_block(members)
    return geos


def _fill_block(members: list[PointGeometry]) -> None:
    """Move ``members`` onto one store, filled in one batch, and one block, all but those whose walk fails there."""
    store = Store(members[0].metric, members[0].numerics, members[0].point)
    while members:
        points = np.array([geo.point for geo in members])
        ring = neighbours(points, store.steps, store.axes).reshape(len(points), -1, points.shape[1])
        # each point, then its neighbours: the walk, and its metric evaluation, go point by point
        rows = np.concatenate([points[:, None], ring], axis=1).reshape(-1, points.shape[1])
        try:
            numbers = store.fill("einstein", rows)[:: 1 + ring.shape[1]]
        except (EvalDomainError, SingularMetricError) as exc:
            members.pop(exc.root // (1 + ring.shape[1]))  # the point whose walk met the failure
            continue
        store.get("ricci_asymmetry", numbers)
        block = _Block(store, points, numbers)
        for row, (geo, u) in enumerate(zip(members, numbers.tolist())):
            geo._store, geo._number, geo._block, geo._row = store, u, block, row
        return


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
        if self.components is not None:
            if len(self.components) != len(self.coords):
                raise ValueError("component count must match the coordinate count")
            unknown = set().union(*(variables(e) for e in self.components)) - set(self.coords)
            if unknown:
                raise ValueError(f"vector field component uses undeclared coordinates {sorted(unknown)}")

    @classmethod
    def from_components(cls, entries: Sequence[Expr | str | float], coords: Sequence[str]) -> "VectorFieldSpec":
        return cls(tuple(coords), components=tuple(coerce_expr(e, coords) for e in entries))

    @classmethod
    def gradient_of(cls, potential: Expr | str, coords: Sequence[str]) -> "VectorFieldSpec":
        return cls(tuple(coords), potential=coerce_expr(potential, coords))

    @property
    def is_gradient(self) -> bool:
        return self.potential is not None

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once, as MetricSpec's
        return hash((self.coords, self.components, self.potential))

    @cached_property
    def _components_fn(self) -> Callable[..., tuple]:
        # every component in one compiled call, like MetricSpec._matrix_fn
        return _compiled(self.components, self.coords)

    @cached_property
    def _potential_fn(self) -> Callable[..., float] | None:
        if self.potential is None:
            return None
        return compile_expr(self.potential, self.coords)

    def components_at(self, point: tuple[float, ...]) -> np.ndarray:
        """Raw contravariant components at a tuple of ``dim`` floats; component fields only."""
        try:
            return np.array(self._components_fn(*point))
        except (ZeroDivisionError, ValueError, OverflowError):
            # evaluated one by one, in order, the first component that fails names its source
            for e in self.components:
                try:
                    compile_expr(e, self.coords)(*point)
                except EvalDomainError as exc:
                    raise EvalDomainError(f"vector field components undefined at {point}: {exc}") from None
            raise

    def potential_at(self, point: tuple[float, ...]) -> float:
        """Raw value of the potential at a tuple of ``dim`` floats; gradient fields only."""
        try:
            return self._potential_fn(*point)
        except EvalDomainError as exc:
            raise EvalDomainError(f"gradient potential undefined at {point}: {exc}") from None

    def value(self, geo: PointGeometry) -> np.ndarray:
        """Contravariant components at one point (raised df for gradients)."""
        return geo.field(self).value


def _at_point(name: str, doc: str) -> property:
    """A FieldGeometry quantity at its point: the point's row of the tree's depth-0 array (a float for a scalar)."""

    def read(field: FieldGeometry) -> Any:
        row = field._at(name)
        return row if row.ndim else float(row)

    return property(read, doc=doc)


class FieldGeometry:
    """One vector field at one point: the point's row of the field tree its block shares.

    Each quantity is read from a ``_FieldTree`` over the point and the other
    points of its block on the same store (``block_geometries``), or over
    the point alone.  Should a read of the shared tree meet a numerical
    failure, at this point or another, each point of the block goes on with
    a tree of its own, built afresh, so a point's values, and the failure it
    records, are those it gets alone.  Over several rows of the tree (a
    BlockGeometry's field), each quantity has a leading point axis.  Not
    thread-safe.
    """

    __slots__ = ("spec", "_tree", "_row")

    def __init__(self, tree: _FieldTree, row: int | slice | list[int]) -> None:
        self.spec, self._tree, self._row = tree.spec, tree, row

    potential = _at_point("potential", "f, for a gradient field.")
    dpotential = _at_point("dpotential", "d_k f, for a gradient field.")
    value = _at_point("value", "V^k; the raised df for a gradient field.")
    omega = _at_point("omega", "The metric dual one-form omega_i = g_ij V^j.")
    nabla = _at_point("nabla", "nabla[k,j] = (nabla_j V)^k = d_j V^k + Gamma^k_jm V^m.")
    lie = _at_point("lie", "(Lie_V g)_ij = g(nabla_i V, e_j) + g(nabla_j V, e_i).")
    omega_grad = _at_point("omega_grad", "omega_grad[i,j] = d_i omega_j, plain coordinate derivatives.")
    d_omega = _at_point("d_omega", "(d omega)_ij = (d_i omega_j - d_j omega_i) / 2.")
    f_mixed = _at_point("f_mixed", "The (1,1) rotation field F = g^-1 d omega.")
    nabla_f = _at_point("nabla_f", "nabla_f[i,k,j] = (nabla_i F)^k_j.")
    norm_sq = _at_point("norm_sq", "g(V, V).")
    d_norm_sq = _at_point("d_norm_sq", "d_k g(V, V).")
    hessian = _at_point("hessian", "(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f, for a gradient field; symmetrised.")

    def _at(self, name: str) -> np.ndarray:
        """Quantity ``name`` at this point: its row of the tree's depth-0 array (its rows, over several)."""
        return self._tree.read(name, self._row)


class _Block:
    """Points of one store that share their field trees: their coordinates and numbers there, and a tree per spec."""

    __slots__ = ("store", "points", "numbers", "trees")

    def __init__(self, store: Store, points: np.ndarray, numbers: np.ndarray) -> None:
        self.store, self.points, self.numbers = store, points, numbers
        self.trees: dict[VectorFieldSpec, _FieldTree] = {}

    def tree(self, spec: VectorFieldSpec) -> _FieldTree:
        tree = self.trees.get(spec)
        if tree is None:
            tree = self.trees[spec] = _FieldTree(spec, self.store, self.points, self.numbers)
        return tree


# quantities that are the stencil derivative of another
_DERIVATIVES = {"dpotential": "potential", "omega_grad": "omega", "d_norm_sq": "norm_sq"}


class _FieldTree:
    """One vector field over the stencil trees of a block's points, each quantity one array over a depth.

    Depth 0 is the points and depth d + 1 the stencil neighbours of each node
    of depth d, parent by parent (``lattice.neighbours``), at their true
    coordinates: a field may read coordinates the metric does not.  A
    quantity at a depth is computed for every point at once on first read
    and kept read-only; a derivative is ``stencil_derivative`` over the next
    depth.  The metric layers at a depth are the store's rows, numbered
    through ``Store.kids`` where its walks linked them.  The nodes of a
    depth are numbered by coordinate in one ``lattice._distinct`` pass, with
    those of the depths numbered before.  The components, or the potential,
    are evaluated on a node's Python floats once per coordinate, in tree
    order and only at the nodes a quantity reads, the floats first evaluated
    kept, so a domain violation raises EvalDomainError naming the
    coordinate.  The tree holds the store, not the points' PointGeometry
    objects: no cycle keeps a lattice alive.
    """

    # weakly referable, so a caller can see it dropped with its block
    __slots__ = ("spec", "store", "numbers", "alone", "_depths", "_arrays", "_keys", "_ids", "_raw", "_done", "__weakref__")

    def __init__(self, spec: VectorFieldSpec, store: Store, points: np.ndarray, numbers: np.ndarray) -> None:
        dim = points.shape[1]
        self.spec, self.store, self.numbers = spec, store, numbers.copy()  # the points' numbers; -1 until known
        self.alone: list[_FieldTree] | None = None  # a tree per point, once a read of this one has failed
        self._depths = [points]  # the nodes of each depth built so far
        self._arrays: dict[tuple[str, int], np.ndarray] = {}  # (quantity, depth) -> one row per node
        self._keys = np.empty((0, dim))  # a row of each coordinate numbered, in number order
        self._ids: list[np.ndarray] = []  # the coordinate number of each node, per depth numbered
        self._raw = np.empty((0,) if spec.is_gradient else (0, dim))  # the value at each coordinate evaluated
        self._done = np.zeros(0, dtype=bool)  # which coordinates are evaluated

    @property
    def points(self) -> np.ndarray:
        return self._depths[0]

    def read(self, name: str, rows: int | slice | list[int]) -> np.ndarray:
        """Quantity ``name`` at the points ``rows``: their rows of the depth-0 array.

        Should that read meet a numerical failure, at these points or another,
        each point goes on with a tree of its own, built afresh (``alone``),
        so a point's values, and the failure it records, are those it gets
        alone.
        """
        if self.alone is None:
            try:
                return self._at(name, 0)[rows]
            except _FAILURES:
                if len(self.points) == 1:
                    raise
                self.alone = [
                    _FieldTree(self.spec, self.store, self.points[i : i + 1], self.numbers[i : i + 1])
                    for i in range(len(self.points))
                ]
        if isinstance(rows, int):
            return self.alone[rows]._at(name, 0)[0]
        trees = self.alone[rows] if isinstance(rows, slice) else [self.alone[r] for r in rows]
        return np.stack([tree._at(name, 0)[0] for tree in trees])

    def _at(self, name: str, depth: int) -> np.ndarray:
        """Quantity ``name`` at every node of ``depth``, computed on first read."""
        rows = self._arrays.get((name, depth))
        if rows is None:
            if name in _DERIVATIVES:
                rows = self._derivative(_DERIVATIVES[name], depth)
            else:
                rows = getattr(self, "_" + name)(depth)
            rows.flags.writeable = False
            self._arrays[name, depth] = rows
        return rows

    def _nodes(self, depth: int) -> np.ndarray:
        while len(self._depths) <= depth:
            around = neighbours(self._depths[-1], self.store.steps)
            self._depths.append(around.reshape(-1, self.points.shape[1]))
        return self._depths[depth]

    def _derivative(self, name: str, depth: int) -> np.ndarray:
        """d_k of quantity ``name`` at the nodes of ``depth``, from its rows at their children."""
        rows = self._at(name, depth + 1)
        shape = (len(self._nodes(depth)), self.points.shape[1], -1) + rows.shape[1:]
        return stencil_derivative(rows.reshape(shape), self.store.numerics.h)

    def _layer(self, name: str, depth: int) -> np.ndarray:
        """The store's curvature layer ``name`` at the nodes of ``depth``."""
        store, known = self.store, self.numbers
        for _ in range(depth):  # -1 where no walk linked the kids
            kids = store.kids[np.maximum(known, 0)]
            kids[known < 0] = -1
            known = kids.reshape(-1)
        numbers = store.fill(name, self._nodes(depth), known)
        if depth == 0:  # the points' numbers, known from now on
            self.numbers = numbers
        return store.get(name, numbers)

    def _coordinates(self, depth: int) -> np.ndarray:
        """The coordinate number of each node of ``depth``, numbering the depths up to it first."""
        while len(self._ids) <= depth:
            nodes, known = self._nodes(len(self._ids)), len(self._keys)
            first, group = _distinct(np.concatenate([self._keys, nodes]))  # the keys are distinct, numbered in order
            new = first[known:] - known
            self._keys = np.concatenate([self._keys, nodes[new]])
            self._raw = np.concatenate([self._raw, np.empty((len(new),) + self._raw.shape[1:])])
            self._done = np.concatenate([self._done, np.zeros(len(new), dtype=bool)])
            self._ids.append(group[known:])
        return self._ids[depth]

    def _evaluate(self, depth: int, pick: np.ndarray | None = None) -> np.ndarray:
        """The components, or the potential, at the nodes ``pick`` (all) of ``depth``.

        Each coordinate not evaluated before is evaluated at the first of
        these nodes with it, in order.
        """
        nodes, ids = self._nodes(depth), self._coordinates(depth)
        if pick is not None:
            nodes, ids = nodes[pick], ids[pick]
        lacking = np.flatnonzero(~self._done[ids])
        if lacking.size:
            first = lacking[np.sort(np.unique(ids[lacking], return_index=True)[1])]
            raw = self.spec.potential_at if self.spec.is_gradient else self.spec.components_at
            values = [raw(point) for point in map(tuple, nodes[first].tolist())]
            new = ids[first]
            self._raw[new] = values
            self._done[new] = True
        return self._raw[ids]

    def _potential(self, depth: int) -> np.ndarray:
        return self._evaluate(depth)

    def _value(self, depth: int) -> np.ndarray:
        if not self.spec.is_gradient:
            return self._evaluate(depth)
        g_inv = self._layer("g_inv", depth)
        return (g_inv @ self._at("dpotential", depth)[:, :, None])[:, :, 0]

    def _omega(self, depth: int) -> np.ndarray:
        g = self._layer("g", depth)
        return (g @ self._at("value", depth)[:, :, None])[:, :, 0]

    def _nabla(self, depth: int) -> np.ndarray:
        dv = self._derivative("value", depth)  # dv[n,j,k] = d_j V^k
        gamma = self._layer("gamma", depth)
        return dv.transpose(0, 2, 1) + np.einsum("nkjm,nm->nkj", gamma, self._at("value", depth))

    def _lie(self, depth: int) -> np.ndarray:
        a = self._layer("g", depth) @ self._at("nabla", depth)  # a[n,i,j] = (nabla_j V)_i
        return a + a.transpose(0, 2, 1)

    def _d_omega(self, depth: int) -> np.ndarray:
        grad = self._at("omega_grad", depth)
        return 0.5 * (grad - grad.transpose(0, 2, 1))

    def _f_mixed(self, depth: int) -> np.ndarray:
        g_inv = self._layer("g_inv", depth)
        return g_inv @ self._at("d_omega", depth)

    def _nabla_f(self, depth: int) -> np.ndarray:
        df = self._derivative("f_mixed", depth)  # df[n,i,k,j] = d_i F^k_j
        gamma = self._layer("gamma", depth)
        f = self._at("f_mixed", depth)
        return df + np.einsum("nkim,nmj->nikj", gamma, f) - np.einsum("nmij,nkm->nikj", gamma, f)

    def _norm_sq(self, depth: int) -> np.ndarray:
        v = self._at("value", depth)[:, None, :]
        return (v @ self._layer("g", depth) @ v.transpose(0, 2, 1))[:, 0, 0]

    def _hessian(self, depth: int) -> np.ndarray:
        # second differences of f along each axis and across each pair of axes
        # a > b, at +-h and, with Richardson, +-h/2; f2[n, a, s, b, t] is f
        # after step s along a, then t along b, evaluated only at those pairs
        n, dim, size = len(self._nodes(depth)), self.points.shape[1], len(self.store.steps)
        f0 = self._at("potential", depth)[:, None]
        f1 = self._at("potential", depth + 1).reshape(n, dim, size)
        a, s, b, t = np.ix_(range(dim), range(size), range(dim), range(size))
        pairs = (a > b) & (s // 2 == t // 2)
        nodes = np.arange(n * (dim * size) ** 2).reshape(n, dim, size, dim, size)
        f2 = np.full((n, dim, size, dim, size), np.nan)
        f2[:, pairs] = self._evaluate(depth + 2, nodes[:, pairs].ravel()).reshape(n, -1)

        def same(p: int, m: int, step: float) -> np.ndarray:
            return (f1[:, :, p] - 2.0 * f0 + f1[:, :, m]) / (step * step)

        def cross(p: int, m: int, step: float) -> np.ndarray:
            return (f2[:, :, p, :, p] - f2[:, :, p, :, m] - f2[:, :, m, :, p] + f2[:, :, m, :, m]) / (4.0 * step * step)

        h = self.store.numerics.h
        diagonal, off = same(0, 1, h), cross(0, 1, h)
        if size == 4:
            diagonal = (4.0 * same(2, 3, h / 2) - diagonal) / 3.0
            off = (4.0 * cross(2, 3, h / 2) - off) / 3.0
        d2 = np.where(np.tri(dim, k=-1, dtype=bool), off, off.transpose(0, 2, 1))
        d2[:, range(dim), range(dim)] = diagonal
        hess = d2 - np.einsum("nkij,nk->nij", self._layer("gamma", depth), self._at("dpotential", depth))
        return 0.5 * (hess + hess.transpose(0, 2, 1))


def hessian_scalar(geo: PointGeometry, f: Expr) -> TensorSample:
    """(Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f."""
    spec = VectorFieldSpec.gradient_of(f, geo.metric.coords)
    return TensorSample("tensor02", geo.field(spec).hessian, geo.point, symmetric=True)


def divergence_vector(geo: PointGeometry | BlockGeometry, v: VectorFieldSpec) -> float | list[float]:
    """div V = (nabla_k V)^k."""
    block = BlockGeometry.of(geo)
    return block.unpack(np.trace(block.field(v).nabla, axis1=-2, axis2=-1).tolist())


def laplacian_routes(geo: PointGeometry | BlockGeometry, f: Expr) -> tuple[float, float] | list[tuple[float, float]]:
    """(div grad f, trace of Hess f) -- two independent Laplacian routes."""
    block = BlockGeometry.of(geo)
    field = block.field(VectorFieldSpec.gradient_of(f, block.metric.coords))
    div_route = np.trace(field.nabla, axis1=-2, axis2=-1).tolist()
    trace_route = np.einsum("...ij,...ij->...", block.g_inv, field.hessian).tolist()
    return block.unpack(list(zip(div_route, trace_route)))


# -- frames ----------------------------------------------------------------


def frame_from_matrix(
    g: np.ndarray,
    timelike_hint: np.ndarray | None = None,
    point: tuple[float, ...] = (),
) -> FramePack:
    """Gram-Schmidt an orthonormal frame out of the coordinate basis.

    The candidate list is seeded with ``timelike_hint`` when given.  The
    result is reordered to signs (-1, +1, ..., +1); any other sign pattern
    raises SignatureError.  A leading axis of ``g`` and the hint is a block
    of points: each point's frame is built from its own candidates, as alone,
    the vectors stacked, and the first point whose frame fails raises.
    """
    g = np.asarray(g, dtype=float)
    stacked = g if g.ndim == 3 else g[None]
    size, n = stacked.shape[0], stacked.shape[-1]
    candidates = [] if timelike_hint is None else [np.asarray(timelike_hint, dtype=float).reshape(-1, n)]
    candidates.extend(np.eye(n)[:, None])
    threshold = 1e-10 * np.abs(stacked).max(axis=(1, 2))
    vectors, signs, count = np.zeros((size, n, n)), np.zeros((size, n)), np.zeros(size, dtype=int)
    low = high = 0  # the fewest and the most vectors a point has
    for cand in candidates:
        if low == n:
            break
        b = cand
        for j in range(high):  # each point's vectors in order; b @ g @ e as a stacked @
            e = vectors[:, j]
            step = b - (signs[:, j] * (b[:, None, :] @ stacked @ e[:, :, None])[:, 0, 0])[:, None] * e
            b = step if j < low else np.where((count > j)[:, None], step, b)
        norm2 = (b[:, None, :] @ stacked @ b[:, :, None])[:, 0, 0]
        # a (numerically) dependent or null candidate is skipped
        keep = ~(np.abs(norm2) < threshold * np.maximum(1.0, (b[:, None, :] @ b[:, :, None])[:, 0, 0]))
        if low == high and keep.all():  # every point takes it
            vectors[:, low] = b / np.sqrt(np.abs(norm2))[:, None]
            signs[:, low] = np.where(norm2 > 0, 1.0, -1.0)
            count += 1
        else:
            rows = (keep & (count < n)).nonzero()[0]
            vectors[rows, count[rows]] = b[rows] / np.sqrt(np.abs(norm2[rows]))[:, None]
            signs[rows, count[rows]] = np.where(norm2[rows] > 0, 1.0, -1.0)
            count[rows] += 1
        low, high = int(count.min()), int(count.max())
    for k in range(size):
        if count[k] != n:
            raise SignatureError("could not complete an orthonormal frame (degenerate directions)")
        if (signs[k] == -1).sum() != 1:
            found = tuple(signs[k].astype(int).tolist())
            raise SignatureError(f"expected exactly one timelike direction, found signs {found}")
    order = np.argsort(signs, axis=1, kind="stable")  # timelike first, stable
    vectors = np.take_along_axis(vectors, order[:, :, None], axis=1)
    ordered = tuple(signs[0, order[0]].astype(int).tolist())
    return FramePack(vectors if g.ndim == 3 else vectors[0], ordered, tuple(point))


# -- health checks -----------------------------------------------------------


def riemann_antisymmetry_residual(geo: PointGeometry | BlockGeometry) -> float | list[float]:
    """max |R^l_kij + R^l_kji|."""
    block = BlockGeometry.of(geo)
    r = block.riemann
    return block.residuals(r + np.swapaxes(r, -1, -2), 4)


def bianchi_first_residual(geo: PointGeometry | BlockGeometry) -> float | list[float]:
    """Cyclic sum over the lowered last three slots of the curvature."""
    block = BlockGeometry.of(geo)
    low = np.einsum("...lm,...mkij->...lkij", block.g, block.riemann)
    cyc = low + np.einsum("...lkij->...lijk", low) + np.einsum("...lkij->...ljki", low)
    return block.residuals(cyc, 4)


def contracted_bianchi_residual(geo: PointGeometry | BlockGeometry) -> float | list[float]:
    """max |nabla^i G_ij|; vanishes for exact geometry by the Bianchi identity."""
    block = BlockGeometry.of(geo)
    dg_field = block.grad("einstein")  # [n,k,i,j] = d_k G_ij
    gamma = block.gamma
    g0 = block.einstein
    cov = (
        dg_field
        - np.einsum("...mki,...mj->...kij", gamma, g0)
        - np.einsum("...mkj,...im->...kij", gamma, g0)
    )
    div = np.einsum("...ki,...kij->...j", block.g_inv, cov)
    return block.residuals(div, 1)


def metric_compatibility_residual(geo: PointGeometry | BlockGeometry) -> float | list[float]:
    """max |nabla_k g_ij| with the same stencils that built Gamma."""
    block = BlockGeometry.of(geo)
    dg = block.dg
    gamma = block.gamma
    g0 = block.g
    cov = dg - np.einsum("...mki,...mj->...kij", gamma, g0) - np.einsum("...mkj,...im->...kij", gamma, g0)
    return block.residuals(cov, 3)


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
    known = np.full((2, dim, 2), -1)  # [halving, axis, sign]; no walk reaches +-h/2 without Richardson
    known[: len(store.steps) // 2] = store.kids[geo._number].reshape(dim, -1, 2).transpose(1, 0, 2)
    g = store.get("g", store.fill("g", around, known.ravel())).reshape(2, dim, 2, *geo.g.shape)
    errs = [max_abs(christoffel_from_dg(geo.g_inv, (s[:, 0] - s[:, 1]) / (2 * h)) - exact) for h, s in zip(halvings, g)]
    if errs[1] < 1e-11 * max(1.0, max_abs(exact)):
        return None
    return errs[0] / errs[1]
