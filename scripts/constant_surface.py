#!/usr/bin/env python3
"""Map the solved soliton constant over the (alpha, beta) plane.

Uses synthetic perfect-fluid samples (no chart needed) for a radiation
fluid seen along a torse-forming unit flow, prints the solved constant and
its classification on a small grid, and cross-checks the closed form at
every node: a node where the two disagree by 1e-9 or more is named on
stderr, and the script exits 1.
"""

import sys
from pathlib import Path

import numpy as np

try:
    import solitonlab  # noqa: F401
except ModuleNotFoundError:  # run from a source checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from solitonlab.solitons import (  # noqa: E402
    PointSamples,
    SolitonParams,
    classify,
    lambda_closed_form,
    lambda_from_projection,
)
from solitonlab.spacetimes import FluidValues  # noqa: E402


def main() -> int:
    vals = FluidValues(sigma=0.75, rho=0.25, kappa=1.0, lam=0.2)
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    xi = np.array([1.0, 0.0, 0.0, 0.0])
    samples = PointSamples.from_fluid(vals, g, xi)
    alphas = np.linspace(-1.0, 1.0, 5)
    betas = np.linspace(-1.0, 1.0, 5)
    print("solved constant over (alpha, beta), radiation fluid, p = -1/2")
    print(f"{'':>8s}" + "".join(f" beta={b:+.1f}" for b in betas))
    for a in alphas:
        cells = []
        for b in betas:
            params = SolitonParams("conformal_ricci_yamabe", alpha=float(a), beta=float(b), p=-0.5)
            lam = lambda_from_projection(samples, params)
            closed = lambda_closed_form(vals, float(a), float(b), -0.5)
            if not abs(lam - closed) < 1e-9:
                node = f"alpha={a:+.1f}, beta={b:+.1f}"
                print(f"{node}: solved constant {lam!r}, closed form {closed!r}", file=sys.stderr)
                return 1
            cells.append(f"{lam:+9.4f}")
        print(f"alpha={a:+.1f}" + "".join(cells))
    lam0 = lambda_from_projection(samples, SolitonParams("conformal_ricci_yamabe", alpha=1.0, beta=0.0, p=-0.5))
    print(f"\nexample alpha=1, beta=0: constant={lam0:+.6f} -> {classify(lam0).category}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
