from pathlib import Path

import numpy as np
import pytest

from solitonlab.geometry import PointGeometry, VectorFieldSpec, block_geometries
from solitonlab.lattice import neighbours, stencil_derivative
from solitonlab.scenario import load_scenario
from solitonlab.solitons import PointSamples
from solitonlab.spacetimes import catalog_metric

COORDS = ("t", "x", "y", "z")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"
# every shipped scenario, the infall grid and the k = 1 chart, the one that reads three axes
CURVATURE_INPUTS = [*sorted(SCENARIO_DIR.glob("*.json")), DATA_DIR / "infall-grid.json", DATA_DIR / "exp-closed-slices.json"]


@pytest.fixture(scope="session")
def minkowski():
    return catalog_metric("minkowski")


@pytest.fixture(scope="session")
def de_sitter():
    return catalog_metric("de_sitter", hubble=1.0)


@pytest.fixture(scope="session")
def frw_sqrt():
    return catalog_metric("grw_flat", scale_factor="t^(1/2)")


@pytest.fixture(scope="session")
def coordinate_time():
    return VectorFieldSpec.from_components([1, 0, 0, 0], COORDS)


@pytest.fixture(scope="session")
def euler_field():
    return VectorFieldSpec.from_components(["t", "x", "y", "z"], COORDS)


@pytest.fixture(scope="session")
def rotation_field():
    return VectorFieldSpec.from_components(["0", "-y", "x", "0"], COORDS)


def random_points(n: int, seed: int, t_range=(0.4, 1.4), space_range=(-1.0, 1.0)):
    """Deterministic chart points, kept away from catalog singularities."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(*t_range, size=n)
    xyz = rng.uniform(*space_range, size=(n, 3))
    return [(float(ts[i]), *(float(v) for v in xyz[i])) for i in range(n)]


def field_samples(metric, field, points):
    """PointSamples of ``field`` at each point, as ``ckv_fit`` takes them."""
    return [PointSamples.from_geometry(PointGeometry(metric, p), field) for p in points]


def random_lorentzian(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned metric of signature (-,+,+,+) and a unit timelike vector."""
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    basis = np.eye(4) + 0.25 * rng.uniform(-1.0, 1.0, (4, 4))
    g = basis.T @ eta @ basis
    boost = rng.uniform(-0.6, 0.6, 3)
    u = np.array([np.sqrt(1.0 + boost @ boost), *boost])
    xi = np.linalg.solve(basis, u)
    return g, xi


def plan_blocks(path: Path) -> list:
    """The blocks ``block_geometries`` makes of the plan of the scenario at ``path``."""
    scenario = load_scenario(path)
    geos = block_geometries([(scenario.metric, tuple(point), scenario.numerics) for point in scenario.points])
    return list({id(geo.block): geo.block for geo in geos}.values())


def ring_grad(block, name: str) -> np.ndarray:
    """Central first derivatives of the curvature layer ``name`` at every point of ``block``, Richardson-extrapolated.

    The reference route to d_k G_ij: the layer is computed at every stencil
    neighbour of each point, along every axis, and at the points, in one
    ``Store.fill``, so the Einstein tensor walks a third ring of the metric;
    the result is ``[point, derivative index, ...]``.
    """
    store, points = block.store, np.array(block.points)
    dim = points.shape[1]
    around = neighbours(points, store.steps).reshape(-1, dim)
    # the points last, as a caller reading them after would; once walked round, their kids number the neighbours
    known = np.concatenate([store.kids[block.numbers].reshape(-1), block.numbers])
    numbers = store.fill(name, np.concatenate([around, points]), known)
    values = store.get(name, numbers[: len(around)])
    return stencil_derivative(values.reshape((len(points), dim, -1) + values.shape[1:]), store.numerics.h)


def ring_bianchi_residual(block) -> list[float]:
    """max |nabla^i G_ij| at each point of ``block`` with d_k G_ij from ``ring_grad``: the ring route of the row."""
    gamma, einstein = block.gamma, block.einstein
    cov = (
        ring_grad(block, "einstein")
        - np.einsum("...mki,...mj->...kij", gamma, einstein)
        - np.einsum("...mkj,...im->...kij", gamma, einstein)
    )
    return block.residuals(np.einsum("...ki,...kij->...j", block.g_inv, cov), 1)
