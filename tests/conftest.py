from pathlib import Path

import numpy as np
import pytest

from solitonlab.geometry import PointGeometry, VectorFieldSpec
from solitonlab.solitons import PointSamples
from solitonlab.spacetimes import catalog_metric

COORDS = ("t", "x", "y", "z")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
