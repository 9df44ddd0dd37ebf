"""The batched curvature layers behind ``geometry.PointGeometry``.

A PointGeometry's lattice maps exact float coordinates to an entry dict of
the quantities computed there.  ``fill`` computes one curvature layer (the
metric, its inverse and derivatives, the connection, the curvature and its
contractions) at a set of points, with each layer below it at every
lattice coordinate the request needs and lacks, each in one numpy call, and
stores the rows in the lattice as read-only views.  The metric itself is
evaluated by ``MetricSpec.matrix``, one call per distinct bit pattern of the
coordinates its grid reads (``MetricSpec.read_axes``), at the first
coordinate with that pattern in the order a walk point by point would reach
the coordinates (see ``_Walk``), so a failing coordinate is named as that
walk would name it.  Every batched
contraction is the per-coordinate ``np.einsum`` with a leading batch axis,
which leaves each row bitwise equal to the per-coordinate result.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

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


def neighbours(points: np.ndarray, steps: tuple[float, ...]) -> np.ndarray:
    """The stencil neighbours of each row of ``points``, shape (n, dim, len(steps), dim).

    Neighbour [i, axis, s] is row i moved by ``steps[s]`` along ``axis``: its
    coordinate on that axis is the float sum ``PointGeometry.shifted`` makes,
    and the others are copied, never computed as x + 0.0 (which would turn a
    -0.0 into +0.0).
    """
    n, dim = points.shape
    out = np.empty((n, dim, len(steps), dim))
    out[...] = points[:, None, None, :]
    shifts = np.array(steps)
    for axis in range(dim):
        out[:, axis, :, axis] = points[:, axis, None] + shifts
    return out


def _keys(points: np.ndarray) -> list[tuple[float, ...]]:
    """The exact float coordinates of each row of ``points``, as lattice keys."""
    return list(map(tuple, points.tolist()))


def _hash_weights(dim: int) -> np.ndarray:
    """The multipliers that mix a row's ``dim`` 64-bit words into one hash."""
    return np.array([pow(0x9E3779B97F4A7C15, dim - 1 - i, 1 << 64) for i in range(dim)], dtype=np.uint64)


def _distinct(rows: np.ndarray, exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The distinct coordinates among ``rows``, numbered in order of first appearance.

    Returns the index of each one's first row and, for every row, the
    number of its coordinate.  Rows compare as lattice keys do, by value
    with -0.0 equal to 0.0, or, when ``exact``, by their bits, which keeps
    -0.0 and 0.0 apart.  They are grouped by a hash of their bits, checked,
    and sorted exactly should two coordinates share a hash.
    """
    canon = np.ascontiguousarray(rows).view(np.uint64) if exact else rows + 0.0  # -0.0 + 0.0 is +0.0
    mixed = (canon if exact else canon.view(np.uint64)) @ _hash_weights(rows.shape[1])
    order = np.argsort(mixed)
    new = np.ones(len(rows), dtype=bool)
    np.not_equal(mixed[order][1:], mixed[order][:-1], out=new[1:])
    group = np.empty(len(rows), dtype=int)
    group[order] = np.cumsum(new) - 1
    if not np.array_equal(canon[order[new]][group], canon):  # two coordinates share a hash
        order = np.lexsort(canon.T[::-1])
        ordered = canon[order]
        np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
        group[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_appearance = np.argsort(first)
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(first))
    return first[by_appearance], rank[group]


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
        low = (2 * np.diagonal(a, axis1=1, axis2=2) - total).min(axis=1)
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


def fill(metric: MetricSpec, numerics: NumericsConfig, lattice: dict, name: str, points: np.ndarray) -> list[dict]:
    """Compute layer ``name`` at each row of ``points`` that lacks it; return the rows' lattice entries."""
    keys = _keys(points)
    entries = [lattice.setdefault(key, {}) for key in keys]
    first: dict[int, int] = {}
    for i, entry in enumerate(entries):
        if name not in entry:
            first.setdefault(id(entry), i)
    if first:
        rows = list(first.values())
        rounds = _ROUNDS.get(name, 2)
        if rounds == 2 and all("riemann" in entries[i] for i in rows):
            rounds = 0  # derived from the curvature point by point: no stencil to walk
        _Walk(metric, numerics, lattice, points[rows], rounds, name != "dg").layer(name)
    return entries


class _Walk:
    """The lattice coordinates one batched evaluation reaches, in the order a walk point by point demands their metric.

    Round 0 is the points the layer is asked for, round 1 their stencil
    neighbours, round 2 the neighbours of the round-1 points whose
    connection is still missing; a point whose layer is already held, or
    was reached before, is not walked again, as the walk would find it
    cached.  Every distinct coordinate gets one number, in the order that
    walk (as ``grad`` visits neighbours) first demands its metric, and keeps
    the float coordinates that walk first built for it, so the metric is
    evaluated where, and in the order, evaluating point by point would,
    skipping a coordinate whose read coordinates match, bit for bit, one
    evaluated before it in the same batch.
    Each layer is then computed for every number that lacks it in one numpy
    call, kept in a table over the numbers and stored in the lattice.
    """

    def __init__(
        self,
        metric: MetricSpec,
        numerics: NumericsConfig,
        lattice: dict,
        points: np.ndarray,
        rounds: int,
        at_points: bool,
    ) -> None:
        """Number the walk of ``rounds`` rounds of neighbours around ``points``.

        ``at_points`` is whether the layer reads the metric at the points
        themselves (``dg`` alone does not).
        """
        self.metric = metric
        self.numerics = numerics
        self.tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        n, dim = points.shape
        if rounds == 0:  # the points alone, already distinct: no stencil
            self.coords = points
            self.keys = _keys(points)
            self.entries = [lattice.setdefault(key, {}) for key in self.keys]
            self.walked = n
            self.roots = np.arange(n)
            self.kids = None
            return
        steps = stencil_steps(numerics)
        size = dim * len(steps)
        ring = neighbours(points, steps).reshape(-1, dim)
        rows, roots = [points, ring], [np.arange(n), np.repeat(np.arange(n), size)]
        levels = [np.zeros(n, dtype=int), np.ones(n * size, dtype=int)]  # round of each row
        outer = np.zeros(0, dtype=int)  # ring positions walked again
        if rounds == 2:
            # a ring point is walked again at its first visit, if it lacks the connection
            block = 1 + size
            first, _ = _distinct(np.concatenate([points[:, None], ring.reshape(n, size, dim)], axis=1).reshape(-1, dim))
            first = first[first % block != 0]
            first = (first // block) * size + first % block - 1
            lacking = ["gamma" not in lattice.get(key, ()) for key in _keys(ring[first])]
            outer = first[np.array(lacking, dtype=bool)]
            rows.append(neighbours(ring[outer], steps).reshape(-1, dim))
            roots.append(np.repeat(outer // size, size))
            levels.append(np.full(len(outer) * size, 2))
        rows, roots, levels = np.concatenate(rows), np.concatenate(roots), np.concatenate(levels)
        order = np.lexsort((levels, roots))  # root by root, round by round
        if not at_points:  # d_k g alone never reads g at the point itself
            order = np.concatenate([order[levels[order] != 0], order[levels[order] == 0]])
        first, numbers = _distinct(rows[order])
        self.walked = int(np.count_nonzero(first < len(order) - (0 if at_points else n)))
        self.coords = rows[order][first]
        self.keys = _keys(self.coords)
        self.entries = [lattice.setdefault(key, {}) for key in self.keys]
        number = np.empty(len(order), dtype=int)
        number[order] = numbers
        self.roots = number[:n]
        ring_numbers = number[n : n + n * size]
        self.kids = np.full((len(self.keys), size), -1)
        self.kids[self.roots] = ring_numbers.reshape(n, size)
        self.kids[ring_numbers[outer]] = number[n + n * size :].reshape(len(outer), size)

    def layer(self, name: str) -> None:
        """Compute ``name`` at the points asked for, the metric of the whole walk first."""
        self._metric()
        self.get(name, self.roots)

    def _metric(self) -> None:
        # one MetricSpec.matrix call per distinct bit pattern of the
        # coordinates the metric reads, at its first coordinate in walk
        # order; as the walk point by point would, a call that fails is
        # raised once the coordinates before it are checked and stored
        entries = self.entries
        todo = np.array([u for u in range(self.walked) if "g" not in entries[u]], dtype=int)
        if not todo.size:
            return
        first, group = _distinct(self.coords[todo][:, self.metric.read_axes], exact=True)
        evaluated = todo[first].tolist()
        dim = self.coords.shape[1]
        g = np.empty((len(first), dim, dim))
        done, failure = 0, None
        matrix, keys = self.metric.matrix, self.keys
        for u in evaluated:
            try:
                g[done] = matrix(keys[u])
            except EvalDomainError as exc:
                failure = exc
                break
            done += 1
        if done:
            threshold = self.numerics.degeneracy_threshold
            good, fault = _metric_faults(g[:done], [keys[u] for u in evaluated[:done]], threshold)
            reached = todo.size if failure is None else first[done]  # the failing coordinate starts its group
            group = group[:reached]
            keep = good[group]
            self._put("g", todo[:reached][keep], g[:done], group[keep])
            if fault is not None:
                raise fault
        if failure is not None:
            raise failure

    def _add(self, name: str, numbers: np.ndarray, rows: np.ndarray, at: np.ndarray | None = None) -> None:
        """Append ``rows`` to the table of layer ``name``: ``numbers[i]`` gets row ``at[i]``, by default row ``i``."""
        at = np.arange(len(numbers)) if at is None else at
        if name in self.tables:
            slot, values = self.tables[name]
            slot[numbers] = len(values) + at
            self.tables[name] = (slot, np.concatenate([values, rows]))
        else:
            slot = np.full(len(self.keys), -1)
            slot[numbers] = at
            self.tables[name] = (slot, rows)

    def _put(self, name: str, numbers: np.ndarray, rows: np.ndarray, at: np.ndarray | None = None) -> None:
        """Store computed rows in the table and, as read-only rows, in the lattice; ``at`` as for ``_add``."""
        self._add(name, numbers, rows, at)
        entries = self.entries
        if rows.ndim == 1:
            for u, value in zip(numbers.tolist(), rows.tolist()):
                entries[u][name] = value
            return
        rows.setflags(write=False)
        views = list(rows)
        if at is not None:  # coordinates that share a row share its view
            views = [views[i] for i in at.tolist()]
        for u, row in zip(numbers.tolist(), views):
            entries[u][name] = row

    def get(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """Layer ``name`` at ``numbers`` (any shape), computing in one batch the rows no entry holds yet."""
        need = numbers[self.tables[name][0][numbers] < 0] if name in self.tables else numbers.ravel()
        if need.size:
            held, held_rows, missing = [], [], []
            for u in dict.fromkeys(need.tolist()):
                value = self.entries[u].get(name)
                if value is None:
                    missing.append(u)
                else:
                    held.append(u)
                    held_rows.append(value)
            if held:
                self._add(name, np.array(held), np.array(held_rows))
            if missing:
                if name == "g":
                    raise RuntimeError("metric read outside the walk")
                build = np.array(missing)
                self._put(name, build, getattr(self, "_" + name)(build))
        slot, values = self.tables[name]
        return values[slot[numbers]]

    def derivative(self, name: str, numbers: np.ndarray) -> np.ndarray:
        """d_k of layer ``name`` at ``numbers``, from the layer at their stencil neighbours."""
        kids = None if self.kids is None else self.kids[numbers]
        if kids is None or (kids < 0).any():
            raise RuntimeError("stencil neighbours outside the walk")
        values = self.get(name, kids)
        shape = (len(numbers), len(self.keys[0]), -1) + values.shape[2:]
        return stencil_derivative(values.reshape(shape), self.numerics.h)

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
