"""Stencil lattices: the store of metric rows behind ``geometry.BlockGeometry``, and its base class.

A ``Lattice`` numbers stencil coordinates once, comparing them by value,
and holds one row array per layer over the numbers, grown by capacity
doubling, with a slot array over the numbers, so a read of held rows is an
index.  Each layer is pulled on demand: ``Lattice.get`` computes the rows a
read lacks by the layer's method, from the layers below it, and a
derivative numbers and links a coordinate's stencil ring the first time it
reads it (``Lattice.link``).  So a lattice numbers each coordinate once, in
the order the reads first reach it, keeping the floats first built for it.
No coordinate is ``-0.0``: a block's points have canonical zeros, a stencil
sum with a nonzero step is never ``-0.0``, and every other coordinate is a
copy.  A lattice spans some ``axes``: along any other axis a coordinate's
stencil neighbour is itself, so a difference across it is an exact +0.0.

The metric's lattice is a ``Store``.  A BlockGeometry owns one: its points,
of one metric and numerics, and their stencil neighbours share it.  It
spans only the axes the metric reads (``MetricSpec.read_axes``): along any
other axis, a Killing direction of the chart, every coordinate keeps the
root point's float, so the store has one coordinate per read pattern, and
the per-coordinate stencil gives the same +0.0 across such an axis (both
its neighbours share the point's read pattern).  ``Store.fill`` numbers a
set of points, then reads a layer there, one numpy call per layer.  The
metric is evaluated by ``MetricSpec.matrix`` once per coordinate, in the
order the reads pull them (``Store._g``), and a failure names the first
failing coordinate of that order.  Each call returns the compiled grid's
flat tuple, stacked into one array of g per batch, so the per-coordinate
call, which the benchmark and the tests count, is the compiled grid alone.
Every batched contraction is the per-coordinate ``np.einsum`` with a
leading batch axis, so each row is bitwise the per-coordinate result.

No layer is differentiated past the Riemann tensor, so no point pulls a
third stencil ring.  ``Store.jet`` reads the 3-jet of g at points holding
the Riemann tensor: its second and third derivatives come from dg at the
point and its ring, which the Riemann tensor's reads already hold, and for
a metric reading three axes or more from g at the corners of each point,
one step along each of three axes.  ``einstein_gradient`` assembles d G
from that jet alone, for the contracted Bianchi identity.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .expressions import EvalDomainError

if TYPE_CHECKING:
    from .geometry import MetricSpec, NumericsConfig


class GeometryError(RuntimeError):
    """Base class for numerical-geometry failures."""


class SingularMetricError(GeometryError):
    """Metric determinant below the degeneracy threshold at a point."""


def christoffel_from_dg(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij from g^-1 and dg[k,i,j] = d_k g_ij; any leading axes are a batch."""
    return np.einsum("...kl,...lij->...kij", g_inv, _lowered(dg))


def _lowered(dg: np.ndarray) -> np.ndarray:
    """Gamma_lij = (d_i g_lj + d_j g_li - d_l g_ij) / 2 from dg[..., k, i, j] = d_k g_ij."""
    return 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)


def einstein_gradient(
    g: np.ndarray, dg: np.ndarray, d2g: np.ndarray, d3g: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """d_a G_ij along each of ``axes`` from the 3-jet of g at a batch of points: ``[n, a, i, j]``.

    ``g`` is ``[n, i, j]``, ``dg[n, k, i, j] = d_k g_ij``, ``d2g[n, a, k, i, j]
    = d_a d_k g_ij`` and ``d3g[n, a, b, k, i, j] = d_a d_b d_k g_ij``, with a
    and b running over ``axes`` and k over every coordinate (0 off ``axes``).
    The chain is Gamma, d Gamma, dd Gamma, then the Ricci tensor of the
    engine's convention (S_ij = R^l_jli, symmetrised) and its derivative, r
    and d r, and d G = d S - (d r g + r d g) / 2; a derivative index off
    ``axes`` contributes 0.
    """
    axes = list(axes)
    g_inv = np.linalg.inv(g)
    # Gamma_lij, d_a Gamma_lij and d_a d_b Gamma_lij
    low, d_low, dd_low = _lowered(dg), _lowered(d2g), _lowered(d3g)
    # d_a g^-1 = -g^-1 d_a g g^-1, and d_b d_a g^-1 = -(d_b g^-1 d_a g g^-1 + (a <-> b) + g^-1 d_a d_b g g^-1)
    dg_a, d2g_ab = dg[:, axes], d2g[:, :, axes]
    right = np.einsum("napq,nql->napl", dg_a, g_inv)  # d_a g g^-1
    d_inv = -np.einsum("nkp,napl->nakl", g_inv, right)
    once = np.einsum("nbkp,napl->nabkl", d_inv, right)
    inner = np.einsum("nkp,nabpl->nabkl", g_inv, np.einsum("nabpq,nql->nabpl", d2g_ab, g_inv))
    dd_inv = -(once + once.transpose(0, 2, 1, 3, 4) + inner)
    # Gamma^k_ij = g^kl Gamma_lij, and its first and second derivatives by the product rule
    gamma = np.einsum("nkl,nlij->nkij", g_inv, low)
    d_gamma = np.einsum("nakl,nlij->nakij", d_inv, low) + np.einsum("nkl,nalij->nakij", g_inv, d_low)
    dd_gamma = (
        np.einsum("nabkl,nlij->nabkij", dd_inv, low)
        + np.einsum("nakl,nblij->nabkij", d_inv, d_low)
        + np.einsum("nbkl,nalij->nabkij", d_inv, d_low)
        + np.einsum("nkl,nablij->nabkij", g_inv, dd_low)
    )
    # S_ij = d_l Gamma^l_ij - d_i Gamma^l_lj + Gamma^l_lm Gamma^m_ij - Gamma^l_im Gamma^m_lj, with l of the
    # derivative and i of d_i on axes only
    ricci = np.einsum("naaij->nij", d_gamma[:, :, axes])
    ricci[:, axes] -= np.einsum("nallj->naj", d_gamma)
    ricci += np.einsum("nllm,nmij->nij", gamma, gamma) - np.einsum("nlim,nmlj->nij", gamma, gamma)
    # d_c S_ij, term by term
    d_ricci = np.einsum("ncaaij->ncij", dd_gamma[:, :, :, axes])
    d_ricci[:, :, axes] -= np.einsum("ncallj->ncaj", dd_gamma)
    d_ricci += np.einsum("ncllm,nmij->ncij", d_gamma, gamma) + np.einsum("nllm,ncmij->ncij", gamma, d_gamma)
    d_ricci -= np.einsum("nclim,nmlj->ncij", d_gamma, gamma) + np.einsum("nlim,ncmlj->ncij", gamma, d_gamma)
    ricci = 0.5 * (ricci + ricci.transpose(0, 2, 1))
    d_ricci = 0.5 * (d_ricci + d_ricci.transpose(0, 1, 3, 2))
    # r = g^ij S_ij and d_c r, then d_c G_ij = d_c S_ij - (d_c r g_ij + r d_c g_ij) / 2
    scalar = np.einsum("nij,nij->n", g_inv, ricci)
    d_scalar = np.einsum("ncij,nij->nc", d_inv, ricci) + np.einsum("nij,ncij->nc", g_inv, d_ricci)
    return d_ricci - 0.5 * (d_scalar[:, :, None, None] * g[:, None] + scalar[:, None, None, None] * dg_a)


def stencil_steps(numerics: NumericsConfig) -> tuple[float, ...]:
    """The stencil steps along each axis, in the order the neighbours are visited."""
    h = numerics.h
    return (h, -h, h / 2, -h / 2) if numerics.richardson else (h, -h)


def stencil_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Central first derivatives from ``values[n, axis, step, ...]`` at the steps of ``stencil_steps``.

    Two steps (+h, -h) give the plain central difference; four
    (+h, -h, +h/2, -h/2) add one Richardson level.  The result is
    ``[n, axis, ...]``: the derivative index follows the batch axis.
    """
    # in place, in the order of (+h - -h) / 2h and (4 (+h/2 - -h/2) / h - d) / 3
    d = values[:, :, 0] - values[:, :, 1]
    d /= 2 * h
    if values.shape[2] == 4:
        half = values[:, :, 2] - values[:, :, 3]
        half /= h
        half *= 4.0
        half -= d
        half /= 3.0
        d = half
    return d


def neighbours(points: np.ndarray, steps: tuple[float, ...], axes: Sequence[int] | None = None) -> np.ndarray:
    """The stencil neighbours of each row of ``points`` along ``axes`` (all), shape (n, len(axes), len(steps), dim).

    Neighbour [i, a, s] is row i moved by ``steps[s]`` along ``axes[a]``: its
    coordinate on that axis is the float sum x + steps[s], and the others are
    copied.  With a nonzero step the sum is never -0.0, so rows without a
    -0.0 give neighbours without one.
    """
    n, dim = points.shape
    axes = range(dim) if axes is None else axes
    out = np.empty((n, len(axes), len(steps), dim))
    out[...] = points[:, None, None, :]
    shifts = np.array(steps)
    for a, axis in enumerate(axes):
        out[:, a, :, axis] = points[:, axis, None] + shifts
    return out


def _hash_weights(dim: int) -> np.ndarray:
    """The multipliers that mix a row's ``dim`` 64-bit words into one hash."""
    return np.array([pow(0x9E3779B97F4A7C15, dim - 1 - i, 1 << 64) for i in range(dim)], dtype=np.uint64)


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct coordinates among ``rows``, numbered in order of first appearance.

    Returns the index of each one's first row and, for every row, the
    number of its coordinate.  Rows compare by value, -0.0 equal to 0.0.
    They are grouped by a hash of their bits (each word folded first: with
    odd weights alone, (x, -y) and (-x, y) would collide), checked, and
    sorted exactly should two coordinates share a hash.
    """
    if len(rows) < 2:
        return np.arange(len(rows)), np.zeros(len(rows), dtype=int)
    canon = np.ascontiguousarray(rows + 0.0).view(np.uint64)  # -0.0 + 0.0 is +0.0
    mixed = (canon ^ (canon >> np.uint64(32))) @ _hash_weights(rows.shape[1])
    order = mixed.argsort()
    mixed = mixed[order]
    new = np.ones(len(rows), dtype=bool)
    np.not_equal(mixed[1:], mixed[:-1], out=new[1:])
    if (_changes(canon.take(order, axis=0)) > new[1:]).any():  # two coordinates share a hash
        order = np.lexsort(canon.T[::-1])
        new[1:] = _changes(canon[order])
    group = np.empty(len(rows), dtype=int)
    group[order] = new.cumsum() - 1
    first = np.minimum.reduceat(order, new.nonzero()[0])
    by_appearance = first.argsort()
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(first))
    return first[by_appearance], rank.take(group)


def _changes(rows: np.ndarray) -> np.ndarray:
    """Whether each row of ``rows`` after the first differs from the one before it."""
    changed = np.zeros(max(len(rows) - 1, 0), dtype=bool)
    for column in rows.T:
        changed |= column[1:] != column[:-1]
    return changed


def _room(a: np.ndarray, n: int, pad: int = 0) -> np.ndarray:
    """``a``, or, when it has fewer than ``n`` rows, a copy padded with ``pad`` to ``n`` rows or twice its own."""
    if n <= len(a):
        return a
    grown = np.empty((max(n, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    grown[: len(a)] = a
    grown[len(a) :] = pad
    return grown


def _metric_faults(
    g: np.ndarray, points: list[tuple[float, ...]], threshold: float
) -> tuple[np.ndarray, Exception | None]:
    """Which of the stacked metrics ``g`` pass the degeneracy test, and the error of the first that fails.

    Gershgorin's discs clear a row without the eigensolver: every eigenvalue
    lies in a disc about a diagonal entry, of radius the row's other
    magnitudes, so when no disc reaches zero all |eigenvalues| lie between
    the least ``|a_ii| - r_i`` and the largest ``|a_ii| + r_i``.  The 1e-10
    margin is far above the rounding of these sums and of the eigensolver,
    so a row cleared here passes the eigenvalue test too; anything closer,
    or not finite, is left to that test.
    """
    a = np.abs(g)
    with np.errstate(invalid="ignore", over="ignore"):
        total = a.sum(axis=2)
        low = (2 * a.diagonal(axis1=1, axis2=2) - total).min(axis=1)
        high = total.max(axis=1)  # inf or nan when a row is not finite
        good = (high < math.inf) & (low > (threshold + 1e-10) * high)
    if good.all():
        return good, None
    left = np.flatnonzero(~good)
    finite = left[np.isfinite(g[left]).all(axis=(1, 2))]
    if finite.size:
        spectra = np.sort(np.abs(np.linalg.eigvalsh(g[finite])), axis=1)
        good[finite] = (spectra[:, -1] != 0.0) & (spectra[:, 0] > threshold * spectra[:, -1])
    if good.all():
        return good, None
    first = int(np.argmin(good))
    point = points[first]
    if not np.isfinite(g[first]).all():  # a component overflowed without raising
        return good, EvalDomainError(f"metric components not finite at {point}")
    spectrum = np.sort(np.abs(np.linalg.eigvalsh(g[first])))
    return good, SingularMetricError(
        f"metric degenerate at {point} (eigenvalue ratio {spectrum[0]:.3e} / {spectrum[-1]:.3e})"
    )


# the signs of the three steps to each corner of the 3-jet, in lexical order
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))


class _Layer:
    """One layer's rows, grown by capacity doubling, and the row of each coordinate number (-1: none)."""

    __slots__ = ("slot", "rows", "count")

    def __init__(self, capacity: int) -> None:
        self.slot = np.full(capacity, -1)
        self.rows, self.count = None, 0

    def append(self, values: np.ndarray) -> np.ndarray:
        """Store ``values`` after the rows held; return their row indices."""
        start, self.count = self.count, self.count + len(values)
        if self.rows is None or self.count > len(self.rows):
            self.rows = _room(np.empty((0,) + values.shape[1:]) if self.rows is None else self.rows, self.count)
        self.rows[start : self.count] = values
        return np.arange(start, self.count)


class Lattice:
    """A stencil lattice: its coordinates, numbered once, and a row array per layer, pulled on demand.

    The lattice spans ``axes``: along any other axis a coordinate's stencil neighbour is itself.
    ``coords[u]`` holds the floats of number ``u``, ``kids[u, axis, s]`` its stencil neighbours'
    numbers once a derivative has read them (``link``), and ``origin[u]`` the origin given where it
    was first numbered (``number``; a ring takes its point's).  Layer ``name`` is computed by the
    method ``_<name>`` at the numbers that lack it (``get``).  Not thread-safe.
    """

    def __init__(self, dim: int, numerics: NumericsConfig, axes: Sequence[int]) -> None:
        self.numerics, self.axes = numerics, tuple(axes)
        self.steps, self.size = stencil_steps(numerics), 0
        # one placeholder row, so a -1 indexes: the first numbering past it sizes the arrays to what it numbers
        self.coords = np.empty((1, dim))
        self.kids = np.full((1, dim, len(self.steps)), -1)
        self.origin = np.full(1, -1)
        self.layers: dict[str, _Layer] = {}

    def layer(self, name: str) -> _Layer:
        if name not in self.layers:
            self.layers[name] = _Layer(len(self.coords))
        return self.layers[name]

    def held(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """Which of ``numbers`` (-1: a coordinate not numbered) hold layer ``name``."""
        return (numbers >= 0) & (self.layer(name).slot.take(numbers) >= 0)

    def number(self, rows: np.ndarray, add: bool = True, origin: np.ndarray | None = None) -> np.ndarray:
        """The number of each of ``rows``; a coordinate the lattice lacks gets the next, in order of first appearance, when ``add``, else -1.

        A coordinate numbered here records ``origin`` at its first row.  The rows go to ``_distinct``
        first, the lattice's own coordinates after them.
        """
        first, group = _distinct(np.concatenate([rows, self.coords[: self.size]]))
        numbers, seen = np.full(len(first), -1), int((first < len(rows)).sum())
        numbers[group[len(rows) :]] = np.arange(self.size)
        new = (numbers[:seen] < 0).nonzero()[0]
        if add and new.size:
            end = self.size + len(new)
            if end > len(self.coords):
                self.coords = _room(self.coords, end)
                self.kids = _room(self.kids, end, -1)
                self.origin = _room(self.origin, end, -1)
                for layer in self.layers.values():
                    layer.slot = _room(layer.slot, end, -1)
            self.coords[self.size : end] = rows.take(first[new], axis=0)
            self.origin[self.size : end] = -1 if origin is None else origin.take(first[new])
            numbers[new] = np.arange(self.size, end)
            self.size = end
        return numbers.take(group[: len(rows)])

    def link(self, numbers: np.ndarray) -> np.ndarray:
        """The stencil neighbours of ``numbers``, ``[n, axis, step]``, numbered and linked the first time one is read.

        Along ``axes`` they are numbered point by point, axis by axis, step by step
        (``neighbours``), each recording its point's ``origin``; along any other axis a point is
        its own neighbour.
        """
        kids = self.kids.take(numbers, axis=0)
        new = numbers[kids[:, 0, 0] < 0]
        if new.size:
            shape = (len(new), len(self.axes), len(self.steps))
            ring = neighbours(self.coords.take(new, axis=0), self.steps, self.axes).reshape(-1, self.coords.shape[1])
            ring = self.number(ring, origin=self.origin.take(new).repeat(shape[1] * shape[2]))
            kids = np.empty((len(new),) + self.kids.shape[1:], dtype=int)
            kids[...] = new[:, None, None]
            kids[:, list(self.axes)] = ring.reshape(shape)
            self.kids[new] = kids
            kids = self.kids.take(numbers, axis=0)
        return kids

    def get(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """Layer ``name`` at ``numbers`` (any shape), computing in one batch the rows not held yet, in the order first read."""
        layer = self.layer(name)
        slot = layer.slot.take(numbers)
        missing = slot < 0
        if missing.any():
            need = numbers[missing]
            need = need[np.sort(np.unique(need, return_index=True)[1])]
            layer.slot[need] = layer.append(getattr(self, "_" + name)(need))
            slot = layer.slot.take(numbers)
        return layer.rows.take(slot, axis=0)

    def derivative(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """d_k of layer ``name`` at ``numbers``, from the layer at their stencil neighbours (``link``)."""
        return stencil_derivative(self.get(name, self.link(numbers)), self.numerics.h)


class Store(Lattice):
    """The stencil lattice of the metric at one or more points, with the curvature layers.

    The lattice spans the ``axes`` the metric reads.  Along any other axis a coordinate keeps the
    root's float, and its stencil neighbour is itself; any point projects onto the lattice
    (``project``), so points of one metric and numerics can share the store.
    """

    def __init__(self, metric: MetricSpec, numerics: NumericsConfig, root: tuple[float, ...]) -> None:
        super().__init__(metric.dim, numerics, metric.read_axes)
        self.metric, self.root = metric, root
        self.fixed = [axis for axis in range(metric.dim) if axis not in self.axes]

    def project(self, points: np.ndarray) -> np.ndarray:
        """``points`` on the lattice: the root's float along every axis not read."""
        if not self.fixed:
            return points
        points = points.copy()
        points[:, self.fixed] = [self.root[axis] for axis in self.fixed]
        return points

    def fill(self, name: str, points: np.ndarray, numbers: np.ndarray | None = None) -> np.ndarray:
        """Number ``points``, then compute layer ``name`` where they lack it (``get``); return their numbers (given, if all known).

        A row of ``points`` is a true coordinate and stands for its lattice coordinate (``project``);
        a coordinate it numbers records the row as its ``origin``.  A metric failure names the first
        failing coordinate the reads pull, and carries ``root``: that coordinate's origin.
        """
        if numbers is None or (numbers < 0).any():
            numbers = self.number(self.project(points), origin=np.arange(len(points)))
        self.get(name, numbers)
        return numbers

    def _g(self, todo: np.ndarray) -> np.ndarray:
        """g at ``todo``, coordinates lacking it, evaluated in order; on a failure, keep each good row and raise the first.

        A domain error stops the evaluation.  The failure is the first degenerate coordinate
        evaluated, else the domain error, and carries ``root``: the ``origin`` of its coordinate.
        """
        points, values = list(map(tuple, self.coords.take(todo, axis=0).tolist())), []
        failure = None
        for point in points:
            try:
                values.append(self.metric.matrix(point))
            except EvalDomainError as exc:
                failure = exc
                break
        at = done = len(values)
        g = np.array(values, dtype=float).reshape(done, self.metric.dim, self.metric.dim)
        good = np.ones(done, dtype=bool)
        if done:
            good, fault = _metric_faults(g, points[:done], self.numerics.degeneracy_threshold)
            if fault is not None:
                failure, at = fault, int(np.argmin(good))
        if failure is None:
            return g
        layer = self.layer("g")
        layer.slot[todo[:done][good]] = layer.append(g[good])
        failure.root = int(self.origin[todo[at]])
        raise failure

    def jet(self, numbers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """g, dg, d2g and d3g at ``numbers``, points holding the Riemann tensor, as ``einstein_gradient`` takes them.

        The derivative indices a, b run over ``axes``.  d2g[n, a] = d_a dg is
        ``derivative("dg")`` along them, and d3g[n, a, a] the second
        difference of dg along a, Richardson-extrapolated as d2g is; both
        read dg at the point and its stencil ring, which the point's Riemann
        tensor already holds, and d_a d_a d_b g fills d3g[n, a, b] too.  For
        three distinct axes, d_a d_b d_c g is the sum of g at the corners
        p + s (+-e_a +-e_b +-e_c) weighted by the signs' product over 8 s^3,
        s = h and, extrapolated, h/2; the corners are filled in one batch,
        point by point, triple by triple, s, then the signs in lexical order.
        """
        axes, h, dim = np.array(self.axes, dtype=int), self.numerics.h, self.metric.dim
        m, n = len(axes), len(numbers)
        kids = self.link(numbers)[:, axes]
        dg, ring = self.get("dg", numbers), self.get("dg", kids)  # ring[n, a, step, k, i, j]

        def same(p: int, q: int, step: float) -> np.ndarray:
            return (ring[:, :, p] - 2.0 * dg[:, None] + ring[:, :, q]) / (step * step)

        second = same(0, 1, h)  # second[n, a, k] = d_a d_a d_k g
        if len(self.steps) == 4:
            second = (4.0 * same(2, 3, h / 2) - second) / 3.0
        d3g = np.zeros((n, m, m, dim, dim, dim))
        every = np.arange(m)
        d3g[:, every, every] = second
        a, b = (every[:, None] != every).nonzero()  # d_a d_b d_a g = d_b d_a d_a g = d_a d_a d_b g
        d3g[:, a, b, axes[a]] = second[:, a, axes[b]]
        d3g[:, b, a, axes[a]] = second[:, a, axes[b]]
        if m >= 3:
            self._corners(numbers, d3g)
        return self.get("g", numbers), dg, stencil_derivative(ring, h), d3g

    def fill_corners(self, numbers: np.ndarray) -> np.ndarray:
        """Fill g at the 3-jet corners of each of ``numbers`` (``jet``); their numbers, ``[n, triple, s, signs]``.

        Only a metric reading three axes or more has corners.  A metric
        failure carries ``root``: the index in ``numbers`` of the point whose
        corner met it.
        """
        axes, h, dim = self.axes, self.numerics.h, self.metric.dim
        triples = list(itertools.combinations(range(len(axes)), 3))
        sizes = (h, h / 2) if len(self.steps) == 4 else (h,)
        points = self.coords.take(numbers, axis=0)
        corners = np.empty((len(numbers), len(triples), len(sizes), len(_SIGNS), dim))
        corners[...] = points[:, None, None, None]
        for t, triple in enumerate(triples):
            for s, size in enumerate(sizes):
                for c, a in enumerate(triple):
                    corners[:, t, s, :, axes[a]] = points[:, axes[a], None] + _SIGNS[:, c] * size
        try:
            return self.fill("g", corners.reshape(-1, dim)).reshape(corners.shape[:-1])
        except (EvalDomainError, SingularMetricError) as exc:
            exc.root //= len(triples) * len(sizes) * len(_SIGNS)
            raise

    def _corners(self, numbers: np.ndarray, d3g: np.ndarray) -> None:
        """Fill d3g[n, a, b, c] for every three distinct axes from g at the corners of each point (``jet``)."""
        axes, h = self.axes, self.numerics.h
        triples = list(itertools.combinations(range(len(axes)), 3))
        sizes = (h, h / 2) if len(self.steps) == 4 else (h,)
        g = self.get("g", self.fill_corners(numbers))
        weights = _SIGNS.prod(axis=1)
        cubes = [np.einsum("c,ntcij->ntij", weights, g[:, :, s]) / (8.0 * size**3) for s, size in enumerate(sizes)]
        third = cubes[0] if len(cubes) == 1 else (4.0 * cubes[1] - cubes[0]) / 3.0
        for t, triple in enumerate(triples):
            for a, b, c in itertools.permutations(triple):
                d3g[:, a, b, axes[c]] = third[:, t]

    def _g_inv(self, u: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.get("g", u))

    def _dg(self, u: np.ndarray) -> np.ndarray:
        if self.fixed:  # the point is its own neighbour along an unread axis: its g is read first
            self.get("g", u)
        return self.derivative("g", u)

    def _gamma(self, u: np.ndarray) -> np.ndarray:
        return christoffel_from_dg(self.get("g_inv", u), self.get("dg", u))

    def _riemann(self, u: np.ndarray) -> np.ndarray:
        # derivative of the assembled Gamma rather than third metric derivatives;
        # dgamma[n,a,b,c,d] = d_a Gamma^b_cd
        gamma = self.get("gamma", u)
        dgamma = self.derivative("gamma", u)
        return (
            np.einsum("niljk->nlkij", dgamma)
            - np.einsum("njlik->nlkij", dgamma)
            + np.einsum("nlim,nmjk->nlkij", gamma, gamma)
            - np.einsum("nljm,nmik->nlkij", gamma, gamma)
        )

    def _ricci_raw(self, u: np.ndarray) -> np.ndarray:
        return np.einsum("nlbla->nab", self.get("riemann", u))

    def _ricci(self, u: np.ndarray) -> np.ndarray:
        raw = self.get("ricci_raw", u)
        return 0.5 * (raw + raw.transpose(0, 2, 1))

    def _ricci_asymmetry(self, u: np.ndarray) -> np.ndarray:
        raw = self.get("ricci_raw", u)
        return np.max(np.abs(raw - raw.transpose(0, 2, 1)), axis=(1, 2))

    def _scalar(self, u: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nij->n", self.get("g_inv", u), self.get("ricci", u))

    def _einstein(self, u: np.ndarray) -> np.ndarray:
        ricci = self.get("ricci", u)
        return ricci - (0.5 * self.get("scalar", u))[:, None, None] * self.get("g", u)
