#!/usr/bin/env python3
"""Stencil convergence table for the connection coefficients.

Measures the worst error against the exact symbolic derivative of the
metric components on the exponential slicing, for a ladder of steps, with
and without Richardson extrapolation.  Plain central differences should
show ratio ~4 per halving, the extrapolated column ~16.
"""

import sys
from pathlib import Path

try:
    import solitonlab  # noqa: F401
except ModuleNotFoundError:  # run from a source checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from solitonlab.geometry import NumericsConfig, PointGeometry, christoffel, christoffel_exact, max_abs  # noqa: E402
from solitonlab.spacetimes import catalog_metric  # noqa: E402


def main() -> None:
    m = catalog_metric("de_sitter", hubble=1.0)
    point = (0.5, 0.0, 0.0, 0.0)
    exact = christoffel_exact(PointGeometry(m, point))
    print(f"{'h':>10s} {'plain error':>14s} {'ratio':>7s} {'richardson':>14s} {'ratio':>7s}")
    prev = {}
    h = 4e-2
    for _ in range(6):
        row = [f"{h:10.1e}"]
        for richardson in (False, True):
            cfg = NumericsConfig(h=h, richardson=richardson)
            err = max_abs(christoffel(m, point, cfg).components - exact)
            ratio = prev.get(richardson, 0.0) / err if err > 1e-15 else float("nan")
            row.append(f"{err:14.3e} {ratio:7.2f}" if richardson in prev else f"{err:14.3e}    -- ")
            prev[richardson] = err
        print(" ".join(row))
        h /= 2


if __name__ == "__main__":
    main()
