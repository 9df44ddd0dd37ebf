"""Numerical Lorentzian-geometry engine for perfect fluid spacetimes.

Evaluates curvature tensors on explicit four-dimensional metrics by finite
differences, checks the perfect-fluid and soliton identity suite on them,
and solves the soliton constants from tensor projections with closed forms
as independent oracles.  See README.md for the CLI and scenario format.
"""

__version__ = "0.1.0"

from .expressions import (  # noqa: F401
    EvalDomainError,
    Expr,
    ParseError,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from .geometry import (  # noqa: F401
    DEFAULT_NUMERICS,
    ChristoffelSample,
    FramePack,
    GeometryError,
    MetricSpec,
    NumericsConfig,
    PointGeometry,
    SignatureError,
    SingularMetricError,
    TensorSample,
    VectorFieldSpec,
)
from .scenario import Scenario, SchemaError, load_scenario, scenario_from_dict  # noqa: F401
from .solitons import (  # noqa: F401
    ClassificationResult,
    EtaSolitonSolve,
    PointSamples,
    SolitonParams,
    classify,
    eta_closed_forms,
    eta_projection_solve,
    lambda_closed_form,
    lambda_from_projection,
)
from .spacetimes import (  # noqa: F401
    FluidState,
    FluidValues,
    UnitNormError,
    catalog_metric,
)
from .report import IdentityReport, emit_report, run_suite  # noqa: F401
