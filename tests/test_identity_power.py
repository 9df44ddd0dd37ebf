"""The power of the asserted ``bianchi_contracted`` row against convention mutants.

Each mutant changes one convention of the engine, applied with
``monkeypatch`` for the test alone:

- ``einstein_trace``: G = S - (r/4) g in ``lattice.Store._einstein``;
- ``riemann_sign``: ``lattice.Store._riemann`` returns -R;
- ``ricci_slot``: the Ricci contraction over the first two slots of R
  (``"nllab"``) in ``lattice.Store._ricci_raw``;
- ``richardson_weight``: ``lattice.stencil_derivative`` extrapolates as for a
  first-order error, 2 D(h/2) - D(h), not (4 D(h/2) - D(h)) / 3.

The inputs are the shipped scenarios, ``tests/data/infall-grid.json`` and
``tests/data/exp-closed-slices.json``, the k = 1 chart, whose scalar curvature
is not constant.  A row catches a (mutant, input) pair when its residual
exceeds the row's tolerance at some plan point of the input.  The row
(``geometry.contracted_bianchi_residual``) takes d_k G_ij from the 3-jet of g
at each point; the ring route it replaced, d_k G_ij from G over each point's
stencil ring (``conftest.ring_bianchi_residual``), stays here as the
reference, and the row must catch every pair that route catches.
"""

import numpy as np
import pytest

from solitonlab import lattice
from solitonlab.geometry import contracted_bianchi_residual
from solitonlab.report import DEFAULT_TOLERANCES

from conftest import CURVATURE_INPUTS, plan_blocks, ring_bianchi_residual

TOLERANCE = DEFAULT_TOLERANCES["bianchi_contracted"]

_riemann = lattice.Store._riemann


def _trace_quarter(store, u):
    return store.get("ricci", u) - (0.25 * store.get("scalar", u))[:, None, None] * store.get("g", u)


def _first_order_richardson(values, h):
    d = (values[:, :, 0] - values[:, :, 1]) / (2 * h)
    if values.shape[2] == 4:
        d = 2.0 * (values[:, :, 2] - values[:, :, 3]) / h - d
    return d


MUTANTS = {
    "einstein_trace": (lattice.Store, "_einstein", _trace_quarter),
    "riemann_sign": (lattice.Store, "_riemann", lambda store, u: -_riemann(store, u)),
    "ricci_slot": (lattice.Store, "_ricci_raw", lambda store, u: np.einsum("nllab->nab", store.get("riemann", u))),
    "richardson_weight": (lattice, "stencil_derivative", _first_order_richardson),
}

# the inputs each route catches, per mutant
CAUGHT_BY_THE_ROW = {
    "einstein_trace": {"exp-closed-slices"},
    "riemann_sign": {"frw-radiation", "exp-closed-slices"},
    "ricci_slot": {"frw-radiation", "exp-closed-slices"},
    "richardson_weight": {"exp-closed-slices"},
}
CAUGHT_BY_THE_RING_ROUTE = {
    "einstein_trace": {"exp-closed-slices"},
    "riemann_sign": set(),
    "ricci_slot": set(),
    "richardson_weight": set(),
}


def _caught(row) -> set[str]:
    """The inputs at some plan point of which ``row`` exceeds the tolerance, each on fresh geometries."""
    return {path.stem for path in CURVATURE_INPUTS if max(max(row(block)) for block in plan_blocks(path)) > TOLERANCE}


def test_no_input_is_caught_without_a_mutant():
    assert _caught(contracted_bianchi_residual) == set()
    assert _caught(ring_bianchi_residual) == set()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_row_catches_every_pair_the_ring_route_catches(mutant, monkeypatch):
    owner, name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    row, ring = _caught(contracted_bianchi_residual), _caught(ring_bianchi_residual)
    assert ring <= row
    assert row == CAUGHT_BY_THE_ROW[mutant]
    assert ring == CAUGHT_BY_THE_RING_ROUTE[mutant]
