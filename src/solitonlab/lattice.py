"""The store of stencil-lattice rows behind ``geometry.BlockGeometry``.

A BlockGeometry owns one ``Store``: its points, of one metric and numerics,
and their stencil neighbours share it, each point reading its rows by its
number there.  A lone PointGeometry is a block of one, with a store of its
own.  The store numbers each coordinate once, in the order a walk point by
point first reaches it (``Store._walk``), keeping the floats first built
for it.  No coordinate is ``-0.0``: a block's points have canonical zeros, a
stencil sum with a nonzero step is never ``-0.0``, and every other
coordinate is a copy.  The walk goes only along the axes the metric reads
(``MetricSpec.read_axes``): along any other axis, a Killing direction of the
chart, every coordinate keeps the root point's float and its stencil
neighbour is itself, so the lattice has one coordinate per read pattern,
and a difference across such an axis is an exact +0.0, as the
per-coordinate stencil gives it (both its neighbours share the point's read
pattern).  Each curvature layer is one row array, grown by capacity
doubling, with a slot array over the numbers, so a read of held rows
(``Store.get``) is an index.  ``Store.fill`` computes a layer at a set of
points, with each layer below it where the request needs and lacks it, one
numpy call per layer.  The metric is evaluated by ``MetricSpec.matrix`` once
per store for each distinct value of the coordinates it reads, at the first
coordinate in walk order with that value, and a failure names the first
failing coordinate of that walk.  Each call returns the compiled grid's
flat tuple; ``Store._evaluate`` stacks a batch's tuples into one array of
g, so the per-coordinate call, which the benchmark and the tests count, is
the compiled grid alone.  Every batched contraction is the
per-coordinate ``np.einsum`` with a leading batch axis, so each row is
bitwise the per-coordinate result.
"""

from __future__ import annotations

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
    lowered = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", g_inv, lowered)


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


# stencil rounds a layer reads beyond its point: none for the metric and its
# inverse, one for dg and Gamma, two (Gamma at the neighbours) for the rest
_ROUNDS = {"g": 0, "g_inv": 0, "dg": 1, "gamma": 1}
# the layer whose row at a coordinate gives a layer there point by point
_POINTWISE = {"g_inv": "g", **dict.fromkeys(("ricci_raw", "ricci", "ricci_asymmetry", "scalar", "einstein"), "riemann")}


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


class Store:
    """The stencil lattice of one or more points: its coordinates, numbered once, and a row array per layer.

    The lattice spans the ``axes`` the metric reads.  Along any other axis a coordinate keeps the
    root's float, and its stencil neighbour is itself; any point projects onto the lattice
    (``project``), so points of one metric and numerics can share the store.  ``coords[u]`` holds the
    floats of number ``u`` and ``kids[u, axis, s]`` its stencil neighbours' numbers once a walk has
    gone round it.  Not thread-safe.
    """

    def __init__(self, metric: MetricSpec, numerics: NumericsConfig, root: tuple[float, ...]) -> None:
        self.metric, self.numerics = metric, numerics
        self.steps, self.size = stencil_steps(numerics), 0
        self.axes, self.root = metric.read_axes, root
        self.fixed = [axis for axis in range(metric.dim) if axis not in self.axes]
        # one placeholder row, so a -1 indexes: the first numbering past it sizes the arrays to what it numbers
        self.coords = np.empty((1, metric.dim))
        self.kids = np.full((1, metric.dim, len(self.steps)), -1)
        self.read = np.array(self.axes, dtype=int)
        self.patterns = np.empty((0, len(self.read)))  # the read coordinates of each row of g
        self.layers: dict[str, _Layer] = {}

    def layer(self, name: str) -> _Layer:
        if name not in self.layers:
            self.layers[name] = _Layer(len(self.coords))
        return self.layers[name]

    def held(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """Which of ``numbers`` (-1: a coordinate not numbered) hold layer ``name``."""
        return (numbers >= 0) & (self.layer(name).slot.take(numbers) >= 0)

    def project(self, points: np.ndarray) -> np.ndarray:
        """``points`` on the lattice: the root's float along every axis not walked."""
        if not self.fixed:
            return points
        points = points.copy()
        points[:, self.fixed] = [self.root[axis] for axis in self.fixed]
        return points

    def number(self, rows: np.ndarray, add: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The numbers of ``rows``; of the coordinates among them, in order of first appearance; and their first rows.

        A coordinate the store lacks gets the next number when ``add``, else -1.  The rows go to
        ``_distinct`` first, the store's own coordinates after them.
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
                for layer in self.layers.values():
                    layer.slot = _room(layer.slot, end, -1)
            self.coords[self.size : end] = rows.take(first[new], axis=0)
            numbers[new] = np.arange(self.size, end)
            self.size = end
        return numbers.take(group[: len(rows)]), numbers[:seen], first[:seen]

    def fill(self, name: str, points: np.ndarray, numbers: np.ndarray | None = None) -> np.ndarray:
        """Compute layer ``name`` at each row of ``points`` lacking it; return their numbers (given, if all known).

        A row of ``points`` is a true coordinate and stands for its lattice coordinate (``project``).
        A metric failure names the first failing coordinate of the walk, and carries ``root``: the
        row of ``points`` whose walk met it.
        """
        lattice = self.project(points)
        if numbers is None or (numbers < 0).any():
            numbers = self.number(lattice, add=False)[0] if self.size else np.full(len(points), -1)
        lacking = (~self.held(name, numbers)).nonzero()[0]
        if lacking.size:
            first, group = _distinct(lattice[lacking])
            roots = numbers[lacking[first]]
            rounds = _ROUNDS.get(name, 2)
            if name in _POINTWISE and self.held(_POINTWISE[name], roots).all():
                rounds = 0  # derived point by point: no stencil to walk
            # the points' own metric is read by dg there when some stencil neighbour is the point itself
            at_points = name != "dg" or bool(self.fixed)
            try:
                roots = self._walk(lattice[lacking[first]], roots, rounds, at_points)
            except (EvalDomainError, SingularMetricError) as exc:
                exc.root = int(lacking[first[exc.root]])
                raise
            self.get(name, roots)
            numbers[lacking] = roots[group]
        return numbers

    def _walk(self, points: np.ndarray, roots: np.ndarray, rounds: int, at_points: bool) -> np.ndarray:
        """Number the walk of ``rounds`` rounds of neighbours around ``points``, evaluate its metric; their numbers.

        ``roots`` are the points' numbers, -1 where none.  Round 0 is the points, round 1 their
        neighbours along the walked axes, round 2 those of the round-1 points lacking the connection,
        visited root by root, round by round, as ``grad`` visits them.  Unless ``at_points`` (``dg``),
        the points come last and their own metric is not evaluated.  A metric failure carries
        ``root``: the index of the point whose walk met it.
        """
        n, dim = points.shape
        if rounds == 0:  # the points alone, already distinct: no stencil
            roots = self.number(points)[0] if (roots < 0).any() else roots
            walk, owner, todo = roots, np.arange(n), roots
        else:
            size = len(self.axes) * len(self.steps)
            ring = neighbours(points, self.steps, self.axes).reshape(-1, dim)
            outer = np.zeros(0, dtype=int)  # ring positions walked again
            if rounds == 2:
                # a ring point is walked again at its first visit, if it lacks the connection
                blocks = np.concatenate([points[:, None], ring.reshape(n, size, dim)], axis=1).reshape(-1, dim)
                _, known, visit = self.number(blocks, add=False)
                visit = visit[(visit % (1 + size) != 0) & ~self.held("gamma", known)]
                outer = (visit // (1 + size)) * size + visit % (1 + size) - 1
            rows = np.concatenate([points, ring, neighbours(ring[outer], self.steps, self.axes).reshape(-1, dim)])
            levels = np.repeat(np.arange(3), [n, n * size, len(outer) * size])  # round of each row
            owner = np.concatenate([np.arange(n), np.arange(n * size) // size, np.repeat(outer // size, size)])
            order = np.lexsort((levels, owner))  # root by root, round by round
            if not at_points:
                order = np.concatenate([order[levels[order] != 0], order[levels[order] == 0]])
            walk, distinct, first = self.number(rows[order])
            number = np.empty(len(order), dtype=int)
            number[order] = walk
            self._link(number[:n], number[n : n + n * size])
            self._link(number[n + outer], number[n + n * size :])
            owner, roots = owner[order], number[:n]
            todo = distinct[first < len(order) - (0 if at_points else n)]
        try:
            self._metric(todo)
        except (EvalDomainError, SingularMetricError) as exc:
            # every coordinate the walk reaches before the failing one holds g
            exc.root = int(owner[self.held("g", walk).argmin()])
            raise
        return roots

    def _link(self, numbers: np.ndarray, ring: np.ndarray) -> None:
        """Set the stencil neighbours of ``numbers``: ``ring`` along the walked axes, itself along the others."""
        kids = np.empty((len(numbers),) + self.kids.shape[1:], dtype=int)
        kids[...] = numbers[:, None, None]
        kids[:, list(self.axes)] = ring.reshape(len(numbers), len(self.axes), len(self.steps))
        self.kids[numbers] = kids

    def _metric(self, walked: np.ndarray) -> None:
        # the walk's coordinates lacking g take the row of their read pattern; a failure is
        # raised once those before it have rows
        g = self.layer("g")
        todo = walked[g.slot.take(walked) < 0]
        if not todo.size:
            return
        row, error = self._evaluate(self.coords.take(todo, axis=0))
        todo = todo[: len(row)]
        g.slot[todo[row >= 0]] = row[row >= 0]
        if error:
            raise error

    def _evaluate(self, coords: np.ndarray) -> tuple[np.ndarray, Exception | None]:
        """The row of g for the read pattern of each of ``coords``, and the first failure.

        A pattern the store lacks is evaluated at its first coordinate, in order, and kept when good;
        a degenerate one has row -1.  A domain error stops the evaluation, and the rows stop before
        its coordinate.  The failure is the first degenerate coordinate evaluated, else the domain error.
        """
        pattern = coords.take(self.read, axis=1)
        known = len(self.patterns)
        # the store's patterns are distinct and come first: group p < known is row p of g
        first, row = _distinct(np.concatenate([self.patterns, pattern]))
        first, row = first[known:] - known, row[known:]
        failure = fault = None
        if first.size:
            points, values = list(map(tuple, coords.take(first, axis=0).tolist())), []
            for point in points:
                try:
                    values.append(self.metric.matrix(point))
                except EvalDomainError as exc:
                    failure = exc
                    break
            done, ids, dim = len(values), np.full(len(points), -1), coords.shape[1]
            if done:
                g = np.array(values, dtype=float).reshape(done, dim, dim)
                good, fault = _metric_faults(g, points[:done], self.numerics.degeneracy_threshold)
                ids[:done][good] = self.layer("g").append(g[good])  # one row of g per pattern
                self.patterns = np.concatenate([self.patterns, pattern[first[:done][good]]])
            new = row >= known
            row[new] = ids[row[new] - known]
            if failure is not None:  # the failing coordinate starts its group
                row = row[: first[done]]
        return row, fault or failure

    def get(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """Layer ``name`` at ``numbers`` (any shape), computing in one batch the rows not held yet."""
        layer = self.layer(name)
        slot = layer.slot.take(numbers)
        missing = slot < 0
        if missing.any():
            if name == "g":
                raise RuntimeError("metric read outside the walk")
            mark = np.zeros(self.size, dtype=bool)
            mark[numbers[missing]] = True
            need = mark.nonzero()[0]
            layer.slot[need] = layer.append(getattr(self, "_" + name)(need))
            slot = layer.slot.take(numbers)
        return layer.rows.take(slot, axis=0)

    def derivative(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """d_k of layer ``name`` at ``numbers``, from the layer at their stencil neighbours."""
        kids = self.kids.take(numbers, axis=0)
        if (kids < 0).any():
            raise RuntimeError("stencil neighbours outside the walk")
        return stencil_derivative(self.get(name, kids), self.numerics.h)

    def _g_inv(self, u: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.get("g", u))

    def _dg(self, u: np.ndarray) -> np.ndarray:
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
