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

A batch of points of one metric and numerics is a BlockGeometry.  It owns
their ``lattice.Store``, the points' numbers there, a field lattice per
vector field and each layer it has read, with a leading point axis.  A
PointGeometry is one point of a block, a (block, row) handle: its layers
and field quantities are its row of the block's.  ``PointGeometry(metric,
point)`` is a block of one; ``block_geometries`` puts the points of one
(metric, numerics) in one block, whose store one batch fills; and
``block.take(rows)`` is a block of some of those points on the same store
and field lattices.  A point has canonical zeros: a -0.0 is read as +0.0,
which no expression of the grammar tells apart but by the sign of a zero
result.

The curvature layers (the metric, its inverse and derivatives, the
connection, the curvature and its contractions) live in the store: each
stencil coordinate is numbered once, and each layer is one row array
indexed by number.  The lattice spans only the coordinates the metric
reads: every layer is constant along the others.  A block's read of a
layer the store holds at each of its points is an index, with no numpy
call but the take; else ``Store.fill`` numbers the points, and the read
pulls the layer, and each layer below it, at every coordinate it needs and
lacks, one numpy call per layer.  The metric components are evaluated by
``MetricSpec.matrix`` once per store for each distinct value of the
coordinates the grid reads (one lattice coordinate), however many reads
need it, and a failure names the first failing coordinate the reads pull
(docs/conventions.md).  ``matrix`` returns
the compiled grid's flat tuple, and the store builds one array of g per
batch, so the per-coordinate call that the benchmark and the tests count
is the compiled grid alone.

A vector field may read coordinates the metric does not, so its quantities
live on a second stencil lattice (``lattice.Lattice``) at true coordinates,
one per spec (specs compare by value) over the points of a block, spanning
the axes the metric or the field reads.  Each quantity (V, the dual
one-form gV and its derivatives, nabla V, Lie_V g, the rotation map F =
g^-1 d(gV) and nabla F, |V|^2 and its derivative, and for a gradient the
potential, its derivatives and Hessian) is a layer, pulled on demand as
the store's are; each metric layer is the store's row at the coordinate's
number there.  The components, or the potential, are evaluated once per
coordinate, the components of a field in one compiled call.  A read of a
shared field lattice computes at every point of the block, so it meets a
numerical failure at any of them; the report reruns such a block's points
each on a block of its own.

Each row function of this module, ``spacetimes`` and ``solitons`` is one
computation over a block, returning each point's result; ``over_block``
lets it take a PointGeometry, run as its block of one, and return the one
result (docs/conventions.md, "Rows over a block").

A store and its field lattices live as long as the blocks, and the
PointGeometry objects, that read them; a take holds the block it was taken
from, and no block holds itself.  None is locked: each belongs to one
thread.  Nothing is cached at module level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
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
    evaluate,
    variables,
)
from .lattice import (
    GeometryError,
    Lattice,
    SingularMetricError,
    Store,
    _room,
    christoffel_from_dg,
    einstein_gradient,
    neighbours,
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
    "NUMERICAL_FAILURES",
    "block_geometries",
    "over_block",
    "metric_at",
    "christoffel",
    "riemann",
    "ricci",
    "einstein_tensor",
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


def _read_axes(coords: Sequence[str], exprs: Iterable[Expr]) -> tuple[int, ...]:
    """The axes of the coordinates some of ``exprs`` reads, in coordinate order."""
    read = set().union(*map(variables, exprs))
    return tuple(i for i, c in enumerate(coords) if c in read)


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
    def read_axes(self) -> tuple[int, ...]:
        """The axes of the coordinates some component reads, in coordinate order.

        A coordinate no component reads never changes a component, so two
        points that agree bit for bit on these axes have bitwise equal metrics.
        """
        return _read_axes(self.coords, (e for row in self.components for e in row))

    def matrix(self, point: tuple[float, ...]) -> tuple[float, ...]:
        """Raw components g_ij(P) at a tuple of ``dim`` floats, the ``dim**2`` values row by row; no degeneracy check.

        The compiled grid's own tuple: ``lattice.Store`` stacks a batch of
        them into one array.
        """
        try:
            return self._matrix_fn(*point)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalDomainError(f"metric components undefined at {tuple(point)}: {exc}") from None

    def derivatives(self, point: tuple[float, ...]) -> np.ndarray:
        """Exact dg[k,i,j] = d_k g_ij at a tuple of ``dim`` floats, from the symbolic derivatives.

        Each component's derivative tree is evaluated at the point once, for
        (i,j) and (j,i) alike.
        """
        n, at = self.dim, dict(zip(self.coords, point, strict=True))
        dg = np.empty((n, n, n))
        try:
            for k, name in enumerate(self.coords):
                for i in range(n):
                    for j in range(i, n):
                        dg[k, i, j] = dg[k, j, i] = evaluate(differentiate(self.components[i][j], name), at)
        except EvalDomainError as exc:
            raise EvalDomainError(f"metric derivatives undefined at {tuple(point)}: {exc}") from None
        return dg


# -- the geometry of a block of points ------------------------------------------

# the numerical failures a point records; any other exception is a programming error
NUMERICAL_FAILURES = (EvalDomainError, GeometryError, np.linalg.LinAlgError)


def _canonical(metric: MetricSpec, point: Sequence[float]) -> tuple[float, ...]:
    """``point`` as a tuple of floats, every -0.0 made +0.0, with as many coordinates as the metric."""
    p = tuple(float(v) + 0.0 for v in point)  # -0.0 + 0.0 is +0.0
    if len(p) != metric.dim:
        raise ValueError(f"point has {len(p)} coordinates, metric has {metric.dim}")
    return p


def _block_layer(name: str) -> property:
    """A curvature layer of BlockGeometry, one row per point, read once; an index where the store holds it at each."""

    def read(block: BlockGeometry) -> np.ndarray:
        rows = block._layers.get(name)
        if rows is None:
            store = block.store
            if not store.held(name, block.numbers).all():
                block.numbers = store.fill(name, np.array(block.points), block.numbers)
            rows = block._layers[name] = store.get(name, block.numbers)
            rows.flags.writeable = False
        return rows

    return property(read, doc=f"Layer {name!r} at each point of the block.")


class BlockGeometry:
    """Points of one metric and numerics on one store, read together: each quantity with a leading point axis.

    The block owns the batch: the ``lattice.Store`` its points share, their
    ``numbers`` there (-1 until known), a field lattice per vector field
    (``trees``) and each layer it has read.  A layer is read once: an index
    where the store holds it at every point, as ``block_geometries`` leaves
    it, else one ``Store.fill`` for all the points, and a field quantity is
    their rows of their field lattice's read at its points.  ``points`` are
    tuples of floats with canonical zeros.

    ``take`` gives some of the points, in any order, as a block on the same
    store and field lattices, which holds the block it was taken from
    (``is_take``);
    ``block[row]`` is the PointGeometry of one point.  The row functions of
    this module, ``spacetimes`` and ``solitons`` compute their row once over
    a block and return a list with each point's result (``over_block``).
    Not thread-safe.
    """

    __slots__ = ("metric", "numerics", "store", "points", "numbers", "trees", "_base", "_rows", "_layers", "_fields")

    def __init__(self, store: Store, points: Sequence[tuple[float, ...]], numbers: np.ndarray | None = None) -> None:
        self.metric, self.numerics, self.store = store.metric, store.numerics, store
        self.points = list(points)
        self.numbers = np.full(len(self.points), -1) if numbers is None else numbers
        self.trees: dict[VectorFieldSpec, _FieldLattice] = {}
        # for a take: the block taken from, whose points the field lattices span, and the points' rows there
        self._base: BlockGeometry | None = None
        self._rows: list[int] | None = None
        self._layers: dict[str, np.ndarray] = {}
        self._fields: dict[VectorFieldSpec, FieldGeometry] = {}

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, row: int) -> PointGeometry:
        """The PointGeometry of point ``row``: its row of each layer and field quantity of the block."""
        geo = object.__new__(PointGeometry)
        geo.metric, geo.point, geo.numerics = self.metric, self.points[row], self.numerics
        geo.block, geo.row = self, row
        return geo

    def take(self, rows: Sequence[int]) -> BlockGeometry:
        """The points ``rows``, in order, as a block on the same store and field lattices; all of them is this block."""
        rows = list(rows)
        if rows == list(range(len(self.points))):
            return self
        sub = BlockGeometry(self.store, [self.points[r] for r in rows], self.numbers[rows])
        sub.trees, sub._base = self.trees, self if self._base is None else self._base
        sub._rows = rows if self._rows is None else [self._rows[r] for r in rows]
        return sub

    def residuals(self, a: np.ndarray, rank: int) -> list[float]:
        """max |a| over its last ``rank`` axes at each point: the residual norm of a row."""
        return np.abs(a).max(axis=tuple(range(-rank, 0))).tolist()

    @property
    def is_take(self) -> bool:
        """Whether the block was taken from another (``take``), so that its field lattices span that block's points."""
        return self._base is not None

    def field(self, spec: VectorFieldSpec) -> FieldGeometry:
        """The vector field ``spec`` at every point: a FieldGeometry over their rows of its lattice."""
        field = self._fields.get(spec)
        if field is None:
            rows = slice(None) if self._rows is None else self._rows
            field = self._fields[spec] = FieldGeometry(self._tree(spec), rows)
        return field

    def _tree(self, spec: VectorFieldSpec) -> _FieldLattice:
        """The field lattice of ``spec`` over the points of the block taken from (this one, if none), made once."""
        tree = self.trees.get(spec)
        if tree is None:
            base = self if self._base is None else self._base
            tree = self.trees[spec] = _FieldLattice(spec, self.store, np.array(base.points), base.numbers)
        return tree

    g = _block_layer("g")
    g_inv = _block_layer("g_inv")
    dg = _block_layer("dg")
    gamma = _block_layer("gamma")
    riemann = _block_layer("riemann")
    ricci = _block_layer("ricci")
    ricci_asymmetry = _block_layer("ricci_asymmetry")
    scalar = _block_layer("scalar")
    einstein = _block_layer("einstein")


def _point_layer(name: str, doc: str) -> property:
    """A curvature layer of PointGeometry: its row of the block's layer (a float for a scalar)."""

    def read(geo: PointGeometry) -> Any:
        row = getattr(geo.block, name)[geo.row]
        return row if row.ndim else float(row)

    return property(read, doc=doc)


class PointGeometry:
    """Geometry of one metric at one point: row ``row`` of a BlockGeometry, evaluated on demand on a stencil lattice.

    ``g`` (degeneracy-checked), ``g_inv``, ``dg``, ``gamma``, ``riemann``,
    ``ricci``, ``ricci_asymmetry``, ``scalar`` and ``einstein`` are the
    curvature layers, each the point's row of the block's layer, and
    ``field`` gives the quantities of a vector field here.
    ``PointGeometry(metric, point)`` is a block of one, whose store computes
    a layer on first read, and each layer below it, at every
    lattice coordinate the read needs and lacks, one numpy call per layer,
    so each is computed at most once per coordinate; ``block_geometries``
    gives the points of a block that one batch filled.  ``point`` is the
    point given, with every -0.0 made +0.0.  Not thread-safe: one object,
    one thread.
    """

    __slots__ = ("metric", "point", "numerics", "block", "row")

    def __init__(
        self,
        metric: MetricSpec,
        point: Sequence[float],
        numerics: NumericsConfig = DEFAULT_NUMERICS,
    ) -> None:
        p = _canonical(metric, point)
        self.metric, self.point, self.numerics = metric, p, numerics
        self.block, self.row = BlockGeometry(Store(metric, numerics, p), [p]), 0

    def field(self, spec: VectorFieldSpec) -> FieldGeometry:
        """The quantities of the vector field ``spec`` at this point: its row of the block's field lattice.

        The lattice spans every point of the block, so in a block of several
        a read meets a numerical failure at any of them.
        """
        block = self.block
        return FieldGeometry(block._tree(spec), self.row if block._rows is None else block._rows[self.row])

    g = _point_layer("g", "Symmetric matrix g_ij; errors if the matrix is not finite or degenerate.")
    g_inv = _point_layer("g_inv", "Contravariant inverse; g . g^-1 stays within 1e-12 of identity.")
    dg = _point_layer("dg", "dg[k,i,j] = d_k g_ij by central differences.")
    gamma = _point_layer("gamma", "Levi-Civita gamma[k,i,j] = Gamma^k_ij; symmetric in (i,j) by construction.")
    riemann = _point_layer("riemann", "Curvature components R[l,k,i,j] = R^l_kij (see module docstring).")
    ricci = _point_layer("ricci", "Ricci tensor, symmetrised.")
    ricci_asymmetry = _point_layer("ricci_asymmetry", "Largest asymmetry of the raw Ricci contraction.")
    scalar = _point_layer("scalar", "r = g^ij S_ij.")
    einstein = _point_layer("einstein", "G_ij = S_ij - (r/2) g_ij.")


def over_block(rows: Callable[..., list]) -> Callable[..., Any]:
    """A row function of a BlockGeometry that also takes a PointGeometry: over its block of one, the one result.

    The geometry is the function's first argument, or the one after the
    class for a classmethod.  Given a block, the function returns its list
    of each point's result.
    """

    @wraps(rows)
    def run(*args: Any, **kwargs: Any) -> Any:
        at = int(isinstance(args[0], type))
        geo = args[at]
        if isinstance(geo, PointGeometry):
            return rows(*args[:at], geo.block.take([geo.row]), *args[at + 1 :], **kwargs)[0]
        return rows(*args, **kwargs)

    return run


def block_geometries(keys: Sequence[tuple[MetricSpec, Sequence[float], NumericsConfig]]) -> list[PointGeometry]:
    """A PointGeometry for each (metric, point, numerics) of ``keys``, those of one (metric, numerics) in one block.

    Before any identity reads them, one batch fills the block's store with
    what a suite reads: the Einstein tensor, and each layer below it, at the
    points only (so the metric over S^2 around each point, and dg over S^1,
    which the contracted Bianchi identity's 3-jet reads), the metric at the
    corners of the 3-jet, which only a metric reading three axes has
    (``Store.fill_corners``), and the Ricci asymmetry at the points.  Each
    point takes its number from the batch, so the block's reads are
    indexes, and a suite read there meets no metric failure.  A numerical
    failure of the batch carries the point whose read first numbered the
    failing coordinate (``Store.origin``): that point is a block of one of
    its own, untouched, where its reads meet the failure as they would
    alone (docs/conventions.md), and the batch is made again without it, on
    a fresh store.  The points of one block share a field lattice per
    vector field (FieldGeometry).
    """
    geos: list[PointGeometry | None] = [None] * len(keys)
    members: dict[tuple, list[int]] = {}
    for n, (metric, _, numerics) in enumerate(keys):
        members.setdefault((metric, numerics), []).append(n)
    for (metric, numerics), ns in members.items():
        points = [_canonical(metric, keys[n][1]) for n in ns]
        while ns:
            store = Store(metric, numerics, points[0])
            try:
                numbers = store.fill("einstein", np.array(points))
                if len(store.axes) >= 3:
                    store.fill_corners(numbers)
            except (EvalDomainError, SingularMetricError) as exc:
                points.pop(exc.root)  # the point whose read first numbered the failing coordinate
                n = ns.pop(exc.root)
                geos[n] = PointGeometry(*keys[n])
                continue
            store.get("ricci_asymmetry", numbers)
            block = BlockGeometry(store, points, numbers)
            for row, n in enumerate(ns):
                geos[n] = block[row]
            break
    return geos


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
    def read_axes(self) -> tuple[int, ...]:
        """The axes of the coordinates the components, or the potential, read, as ``MetricSpec.read_axes``."""
        return _read_axes(self.coords, self.components or (self.potential,))

    @cached_property
    def _components_fn(self) -> Callable[..., tuple]:
        # every component in one compiled call, like MetricSpec._matrix_fn
        return _compiled(self.components, self.coords)

    @cached_property
    def _potential_fn(self) -> Callable[..., float] | None:
        if self.potential is None:
            return None
        return compile_expr(self.potential, self.coords)

    def components_at(self, point: tuple[float, ...]) -> tuple[float, ...]:
        """Raw contravariant components at a tuple of ``dim`` floats, the compiled tuple; component fields only."""
        try:
            return self._components_fn(*point)
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


def _at_point(name: str, doc: str) -> property:
    """A FieldGeometry quantity at its point: the point's row of the lattice's read (a float for a scalar)."""

    def read(field: FieldGeometry) -> Any:
        row = field._tree.at(name)[field._row]  # its rows, over several
        return row if row.ndim else float(row)

    return property(read, doc=doc)


class FieldGeometry:
    """One vector field at the points of a block, or at one point: their rows of the field lattice the block shares.

    Each quantity is read from a ``_FieldLattice`` over the points of the
    block (``BlockGeometry._tree``), so a read meets a numerical failure at
    any point of the lattice, not only at these.  Over several rows (a
    BlockGeometry's field), each quantity has a leading point axis.  Not
    thread-safe.
    """

    __slots__ = ("spec", "_tree", "_row")

    def __init__(self, tree: _FieldLattice, row: int | slice | list[int]) -> None:
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


class _FieldLattice(Lattice):
    """One vector field over the stencil lattice of a block's points, each quantity a layer.

    The lattice spans the axes the metric or the field reads, at true coordinates: a field may read
    coordinates the metric does not.  ``numbers`` are the points' numbers, and ``under[u]`` the
    store's number for coordinate ``u``, set for the points here and for each ring through the
    store's own (``link``), so every metric layer is the store's row there.  The components, or the
    potential, are evaluated on a coordinate's Python floats once, in the order the reads pull
    them, so a domain violation raises EvalDomainError naming the coordinate, at whichever point
    of the lattice holds it.  The lattice holds the store, not the points' PointGeometry objects:
    no cycle keeps a lattice alive.
    """

    def __init__(self, spec: VectorFieldSpec, store: Store, points: np.ndarray, numbers: np.ndarray) -> None:
        super().__init__(points.shape[1], store.numerics, sorted({*store.axes, *spec.read_axes}))
        self.spec, self.store, self.numbers = spec, store, self.number(points)
        if (numbers < 0).any():
            numbers = store.number(store.project(points), origin=np.arange(len(points)))
        self.under = np.full(len(self.coords), -1)
        self.under[self.numbers] = numbers
        self._reads: dict[str, np.ndarray] = {}

    def at(self, name: str) -> np.ndarray:
        """Quantity ``name`` at every point, computed on first read and kept read-only."""
        rows = self._reads.get(name)
        if rows is None:
            rows = self._reads[name] = self.get(name, self.numbers)
            rows.flags.writeable = False
        return rows

    def link(self, numbers: np.ndarray) -> np.ndarray:
        """``Lattice.link``; a coordinate it numbers takes its ``under`` from its parent's store ring (``Store.link``)."""
        start = self.size
        kids = super().link(numbers)
        fresh = kids >= start
        if fresh.any():  # the store's numbers of the coordinates new here: their parents' store ring
            rows = fresh.any(axis=(1, 2)).nonzero()[0]
            fresh = fresh[rows]
            self.under = _room(self.under, len(self.coords), -1)
            self.under[kids[rows][fresh]] = self.store.link(self.under[numbers[rows]])[fresh]
        return kids

    def _metric(self, name: str, u: np.ndarray) -> np.ndarray:
        """The store's layer ``name`` at ``u``."""
        return self.store.get(name, self.under.take(u))

    def _raw(self, u: np.ndarray) -> np.ndarray:
        raw = self.spec.potential_at if self.spec.is_gradient else self.spec.components_at
        return np.array([raw(point) for point in map(tuple, self.coords.take(u, axis=0).tolist())], dtype=float)

    def _potential(self, u: np.ndarray) -> np.ndarray:
        return self._raw(u)

    def _dpotential(self, u: np.ndarray) -> np.ndarray:
        return self.derivative("potential", u)

    def _value(self, u: np.ndarray) -> np.ndarray:
        if not self.spec.is_gradient:
            return self._raw(u)
        g_inv = self._metric("g_inv", u)
        return (g_inv @ self.get("dpotential", u)[:, :, None])[:, :, 0]

    def _omega(self, u: np.ndarray) -> np.ndarray:
        g = self._metric("g", u)
        return (g @ self.get("value", u)[:, :, None])[:, :, 0]

    def _omega_grad(self, u: np.ndarray) -> np.ndarray:
        return self.derivative("omega", u)

    def _nabla(self, u: np.ndarray) -> np.ndarray:
        dv = self.derivative("value", u)  # dv[n,j,k] = d_j V^k
        gamma = self._metric("gamma", u)
        return dv.transpose(0, 2, 1) + np.einsum("nkjm,nm->nkj", gamma, self.get("value", u))

    def _lie(self, u: np.ndarray) -> np.ndarray:
        a = self._metric("g", u) @ self.get("nabla", u)  # a[n,i,j] = (nabla_j V)_i
        return a + a.transpose(0, 2, 1)

    def _d_omega(self, u: np.ndarray) -> np.ndarray:
        grad = self.get("omega_grad", u)
        return 0.5 * (grad - grad.transpose(0, 2, 1))

    def _f_mixed(self, u: np.ndarray) -> np.ndarray:
        g_inv = self._metric("g_inv", u)
        return g_inv @ self.get("d_omega", u)

    def _nabla_f(self, u: np.ndarray) -> np.ndarray:
        df = self.derivative("f_mixed", u)  # df[n,i,k,j] = d_i F^k_j
        gamma = self._metric("gamma", u)
        f = self.get("f_mixed", u)
        return df + np.einsum("nkim,nmj->nikj", gamma, f) - np.einsum("nmij,nkm->nikj", gamma, f)

    def _norm_sq(self, u: np.ndarray) -> np.ndarray:
        v = self.get("value", u)[:, None, :]
        return (v @ self._metric("g", u) @ v.transpose(0, 2, 1))[:, 0, 0]

    def _d_norm_sq(self, u: np.ndarray) -> np.ndarray:
        return self.derivative("norm_sq", u)

    def _hessian(self, u: np.ndarray) -> np.ndarray:
        # second differences of f along each axis and across each pair of axes
        # a > b, at +-h and, with Richardson, +-h/2; f2[n, a, s, b, t] is f
        # after step s along a, then t along b, read only at those pairs
        n, dim, size = len(u), self.coords.shape[1], len(self.steps)
        f0 = self.get("potential", u)[:, None]
        ring = self.link(u)
        f1 = self.get("potential", ring)
        a, s, b, t = np.ix_(range(dim), range(size), range(dim), range(size))
        pairs = (a > b) & (s // 2 == t // 2)
        f2 = np.full((n, dim, size, dim, size), np.nan)
        f2[:, pairs] = self.get("potential", self.link(ring.ravel()).reshape(f2.shape)[:, pairs])

        def same(p: int, m: int, step: float) -> np.ndarray:
            return (f1[:, :, p] - 2.0 * f0 + f1[:, :, m]) / (step * step)

        def cross(p: int, m: int, step: float) -> np.ndarray:
            return (f2[:, :, p, :, p] - f2[:, :, p, :, m] - f2[:, :, m, :, p] + f2[:, :, m, :, m]) / (4.0 * step * step)

        h = self.numerics.h
        diagonal, off = same(0, 1, h), cross(0, 1, h)
        if size == 4:
            diagonal = (4.0 * same(2, 3, h / 2) - diagonal) / 3.0
            off = (4.0 * cross(2, 3, h / 2) - off) / 3.0
        d2 = np.where(np.tri(dim, k=-1, dtype=bool), off, off.transpose(0, 2, 1))
        d2[:, range(dim), range(dim)] = diagonal
        hess = d2 - np.einsum("nkij,nk->nij", self._metric("gamma", u), self.get("dpotential", u))
        return 0.5 * (hess + hess.transpose(0, 2, 1))


@over_block
def laplacian_routes(block: BlockGeometry, f: Expr) -> list[tuple[float, float]]:
    """(div grad f, trace of Hess f) -- two independent Laplacian routes."""
    field = block.field(VectorFieldSpec.gradient_of(f, block.metric.coords))
    div_route = np.trace(field.nabla, axis1=-2, axis2=-1).tolist()
    trace_route = np.einsum("...ij,...ij->...", block.g_inv, field.hessian).tolist()
    return list(zip(div_route, trace_route))


# -- frames ----------------------------------------------------------------


def frame_from_matrix(g: np.ndarray, timelike_hint: np.ndarray | None = None) -> FramePack:
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
    return FramePack(vectors if g.ndim == 3 else vectors[0], ordered)


# -- health checks -----------------------------------------------------------


@over_block
def riemann_antisymmetry_residual(block: BlockGeometry) -> list[float]:
    """max |R^l_kij + R^l_kji|."""
    r = block.riemann
    return block.residuals(r + np.swapaxes(r, -1, -2), 4)


@over_block
def bianchi_first_residual(block: BlockGeometry) -> list[float]:
    """Cyclic sum over the lowered last three slots of the curvature."""
    low = np.einsum("...lm,...mkij->...lkij", block.g, block.riemann)
    cyc = low + np.einsum("...lkij->...lijk", low) + np.einsum("...lkij->...ljki", low)
    return block.residuals(cyc, 4)


@over_block
def contracted_bianchi_residual(block: BlockGeometry) -> list[float]:
    """max |nabla^i G_ij|; vanishes for exact geometry by the Bianchi identity.

    d_k G_ij is assembled from the 3-jet of g at each point
    (``lattice.einstein_gradient`` of ``Store.jet``), read off the lattice
    that the point's own Riemann tensor pulls; Gamma, G and g^-1 are the
    store's layers, so the row checks the engine's curvature against an
    independent assembly from the metric.  Along an axis the metric does not
    read, d_k G is an exact 0.
    """
    g0 = block.einstein
    store, axes = block.store, list(block.store.axes)
    d_einstein = np.zeros((len(block), block.metric.dim) + g0.shape[1:])  # [n,k,i,j] = d_k G_ij
    if axes:
        d_einstein[:, axes] = einstein_gradient(*store.jet(block.numbers), axes)
    gamma = block.gamma
    cov = (
        d_einstein
        - np.einsum("...mki,...mj->...kij", gamma, g0)
        - np.einsum("...mkj,...im->...kij", gamma, g0)
    )
    div = np.einsum("...ki,...kij->...j", block.g_inv, cov)
    return block.residuals(div, 1)


@over_block
def metric_compatibility_residual(block: BlockGeometry) -> list[float]:
    """max |nabla_k g_ij| with the same stencils that built Gamma."""
    dg = block.dg
    gamma = block.gamma
    g0 = block.g
    cov = dg - np.einsum("...mki,...mj->...kij", gamma, g0) - np.einsum("...mkj,...im->...kij", gamma, g0)
    return block.residuals(cov, 3)


def christoffel_exact(geo: PointGeometry) -> np.ndarray:
    """Gamma from symbolic component derivatives; oracle for the stencils.

    Only g itself comes from the lattice; every derivative is the symbolic
    derivative of a metric component evaluated at the point, so it shares no
    stencil with the engine it checks.
    """
    dg = geo.metric.derivatives(geo.point)
    return christoffel_from_dg(geo.g_inv, dg)


def fd_convergence_ratio(geo: PointGeometry) -> float | None:
    """Error ratio of plain second-order stencils when h is halved.

    Measured on the connection coefficients against the symbolic-derivative
    oracle with Richardson off; ~4 for healthy second-order stencils.  None
    when the error is at roundoff level (flat metrics).  The plain stencils
    read the metric at the point's +-h and +-h/2 neighbours, the stencil ring
    its curvature pulls, in one indexed read of the store: the +-h pairs axis
    by axis, then the +-h/2.
    """
    exact, store, dim = christoffel_exact(geo), geo.block.store, len(geo.point)
    halvings = (geo.numerics.h, geo.numerics.h / 2)
    around = np.concatenate([neighbours(np.array([geo.point]), (h, -h)).reshape(-1, dim) for h in halvings])
    known = np.full((2, dim, 2), -1)  # [halving, axis, sign]; no read links +-h/2 without Richardson
    known[: len(store.steps) // 2] = store.kids[geo.block.numbers[geo.row]].reshape(dim, -1, 2).transpose(1, 0, 2)
    g = store.get("g", store.fill("g", around, known.ravel())).reshape(2, dim, 2, *geo.g.shape)
    errs = [max_abs(christoffel_from_dg(geo.g_inv, (s[:, 0] - s[:, 1]) / (2 * h)) - exact) for h, s in zip(halvings, g)]
    if errs[1] < 1e-11 * max(1.0, max_abs(exact)):
        return None
    return errs[0] / errs[1]
