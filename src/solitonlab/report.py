"""Identity-suite orchestration over scenario point plans, and report emission.

run_suite walks every plan point, evaluates each applicable identity with
its resolved tolerance, gathers derived constants (curvature scalar, solved
soliton constants, conformal factors, fitted fluid parameters) with their
spread across points, and assembles a deterministic report.  Identities are
either *asserted* (they decide the verdict) or merely *reported*;
conditional identities additionally carry an ``applicable`` flag and only
count toward the verdict when their hypothesis holds.

run_suites does the same for several scenarios at once, as ``sweep``
needs.  It walks the plan point-outer: at each plan index, the scenarios
that agree on the metric, the numerics and the point share one
PointGeometry, so that point's geometry is evaluated once for all of them,
and those that also agree on every input but the soliton constants share
the point's rows that read none of those constants.  It takes the plan a
block of indices at a time: the block's points that agree on the metric
and the numerics share one store, filled in one batch, the rows that read
no soliton constant are one call each over those points
(``geometry.BlockGeometry``), and the block's stores are dropped before
the next block, so memory is bounded by a block, not by the plan.  Each
report equals the one run_suite gives for its scenario alone; run_suite is
run_suites of one scenario.

The JSON document is stable: identical scenarios yield byte-identical
reports when the timestamp is suppressed.  One emitter writes it, and the
sweep document around several reports, in a single pass (see "Report
serialisation" in docs/conventions.md).
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .expressions import EvalDomainError
from .geometry import (
    NUMERICAL_FAILURES,
    BlockGeometry,
    GeometryError,
    PointGeometry,
    bianchi_first_residual,
    block_geometries,
    contracted_bianchi_residual,
    fd_convergence_ratio,
    laplacian_routes,
    max_abs,
    metric_compatibility_residual,
    riemann_antisymmetry_residual,
)
from .scenario import Scenario, SchemaError
from .solitons import (
    ETA_FAMILIES,
    PointSamples,
    ckv_fit,
    classify,
    eta_closed_forms,
    eta_projection_solve,
    gradient_soliton_residual,
    lambda_closed_form,
    lambda_from_projection,
    nabla_decomposition_check,
    potential_field_identities,
    potential_field_terms,
    rotation_skew_residual,
    soliton_residual,
    torse_consequence_residuals,
    torse_forming_residual,
    torse_lie_residual,
)
from .spacetimes import (
    FluidValues,
    efe_residual,
    einstein_eigen_check,
    fluid_from_ricci,
    ricci_from_fluid,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "TOLERANCE_ENV_VAR",
    "IdentityReport",
    "resolve_tolerances",
    "run_suite",
    "run_suites",
    "emit_report",
    "emit_sweep",
    "exit_code_for",
]

TOLERANCE_ENV_VAR = "SOLITONLAB_TOL"

_GENERIC_DEFAULT = 1e-5

# plan indices walked together, their points sharing a store per (metric, numerics);
# each identity row is one numpy call per block, so a larger block pays that
# call less often, and 16 keeps the live lattices of a block to a few MB
_BLOCK = 16

# every identity row and its built-in tolerance, in the report's emission order
_ROWS: dict[str, float] = {
    "riemann_antisymmetry": 1e-6,
    "bianchi_first": 1e-5,
    "bianchi_contracted": 1e-4,
    "metric_compatibility": 1e-5,
    "efe_residual": 1e-5,
    "scalar_curvature_relation": 1e-5,
    "perfect_fluid_fit": 1e-5,
    "einstein_eigen_multiset": 1e-5,
    "ricci_operator_bilinear": 1e-9,
    "nabla_decomposition": 1e-5,
    "f_skew_adjoint": 1e-9,
    "torse_forming": 1e-5,
    "torse_geodesic_flow": 1e-5,
    "torse_eta_derivative": 1e-5,
    "torse_curvature_action": 1e-5,
    "torse_eta_curvature": 1e-5,
    "torse_lie_form": 1e-5,
    "soliton_residual": 1e-9,
    "potential_curvature_identity": 1e-5,
    "rotation_divergence_identity": 1e-5,
    "potential_norm_identity": 1e-5,
    "eta_backsubstitution": 1e-9,
    "eta_vs_closed_form": 1e-5,
    "lambda_projection_vs_closed_form": 1e-5,
    "laplacian_two_route": 1e-6,
}

# the rows, plus the generic default and the tolerances of the hypotheses and the summary
DEFAULT_TOLERANCES: dict[str, float] = {
    "default": _GENERIC_DEFAULT,
    **_ROWS,
    "applicability": 1e-6,
    "unit_timelike": 1e-6,
    "steady_classification": 1e-9,
    "ckv_fit": 1e-6,
}


def resolve_tolerances(overrides: dict[str, float] | None = None) -> dict[str, float]:
    """Built-in defaults, then the environment override, then scenario values.

    Setting SOLITONLAB_TOL replaces the generic default tolerance; identities
    whose built-in tolerance equals that generic value follow it.  Scenario
    overrides always win.  A SOLITONLAB_TOL that is not a finite positive
    number is unusable input: SchemaError, located at the variable's name;
    so is an override of a name that is not a built-in tolerance, located at
    ``/tolerances/<name>``.
    """
    tols = dict(DEFAULT_TOLERANCES)
    env = os.environ.get(TOLERANCE_ENV_VAR)
    if env:
        try:
            value = float(env)
        except ValueError:
            value = math.nan  # rejected below
        if not 0 < value < math.inf:
            raise SchemaError(f"must be a positive number, got {env!r}", TOLERANCE_ENV_VAR)
        for key, tol in DEFAULT_TOLERANCES.items():
            if tol == _GENERIC_DEFAULT:
                tols[key] = value
        tols["default"] = value
    if overrides:
        for key in overrides:
            if key not in DEFAULT_TOLERANCES:
                raise SchemaError("unknown tolerance name", f"/tolerances/{key}")
        tols.update(overrides)
    return tols


@dataclass
class _PointRecord:
    coordinates: tuple[float, ...]
    tolerances: dict[str, float] = field(default_factory=dict)  # resolved, by identity name
    identities: dict[str, dict] = field(default_factory=dict)
    derived: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    def add(self, name: str, residual: float | None, asserted: bool, applicable: bool = True) -> None:
        tolerance = self.tolerances[name]
        passed = None if residual is None else bool(residual <= tolerance)
        self.identities[name] = {
            "residual": residual,
            "tolerance": tolerance,
            "passed": passed,
            "asserted": asserted,
            "applicable": applicable,
        }


@dataclass
class IdentityReport:
    """Suite outcome: per-point residuals, derived constants, verdict."""

    scenario: Scenario
    tolerances: dict[str, float]
    points: list[_PointRecord]
    summary: dict
    warnings: list[str]

    @property
    def verdict(self) -> str:
        return self.summary["verdict"]

    def to_dict(self, include_timestamp: bool = True) -> dict:
        """The report document, laid out as "Report serialisation" in
        docs/conventions.md describes.

        Values are returned as the suite computed them: a non-finite float
        stays non-finite and a numpy scalar stays numpy; only the emitter
        writes them as JSON.  The identities and the summary are the
        report's own objects, not copies.
        """
        doc: dict[str, Any] = {
            "schema_version": "1.0",
            "tool": {"name": "solitonlab", "version": __version__},
        }
        if include_timestamp:
            doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        doc["scenario"] = self.scenario.to_dict()
        doc["tolerances"] = {k: self.tolerances[k] for k in sorted(self.tolerances)}
        doc["warnings"] = list(self.warnings)
        doc["points"] = [
            {
                "coordinates": list(rec.coordinates),
                "error": rec.error,
                "identities": {
                    name: rec.identities[name]
                    for name in _ROWS
                    if name in rec.identities
                },
                "derived": {k: rec.derived[k] for k in sorted(rec.derived)},
            }
            for rec in self.points
        ]
        doc["summary"] = self.summary
        return doc

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario.name}", f"verdict: {self.verdict.upper()}"]
        n_err = sum(1 for rec in self.points if rec.error)
        lines.append(f"points: {len(self.points)} planned, {len(self.points) - n_err} evaluated, {n_err} errors")
        worst: dict[str, dict] = {}
        for rec in self.points:
            for name, info in rec.identities.items():
                if info["residual"] is None:
                    continue
                if name not in worst or info["residual"] > worst[name]["residual"]:
                    worst[name] = info
        if worst:
            lines.append("identities (worst over points):")
            for name in _ROWS:
                if name not in worst:
                    continue
                info = worst[name]
                status = "pass" if info["passed"] else "FAIL"
                tag = "asserted" if info["asserted"] else ("reported" if info["applicable"] else "inapplicable")
                lines.append(
                    f"  {name:34s} {info['residual']:10.3e} <= {info['tolerance']:8.1e}  {status}  [{tag}]"
                )
        derived = self.summary.get("derived", {})
        if derived:
            lines.append("derived constants:")
            for name in sorted(derived):
                stats = derived[name]
                lines.append(f"  {name:26s} mean={stats['mean']:+.9g} spread={stats['spread']:.3e}")
        cls = self.summary.get("classification")
        if cls:
            lines.append(
                f"classification: {cls['category']} (constant={cls['value']:+.9g}, convention={cls['convention']})"
            )
        ckv = self.summary.get("ckv")
        if ckv:
            extra = "" if ckv.get("theta") is None else f", einstein theta={ckv['theta']:+.6g}"
            lines.append(f"conformal fit: {ckv['category']} (residual={ckv['residual']:.3e}{extra})")
        health = self.summary.get("numerics_health", {})
        if health:
            ratio = health.get("fd_convergence_ratio")
            ratio_txt = "n/a (flat)" if ratio is None else f"{ratio:.3f}"
            lines.append(
                f"numerics: ricci asymmetry max={health.get('ricci_asymmetry_max', 0.0):.3e}, "
                f"fd convergence ratio={ratio_txt}"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for f_ in self.summary.get("failures", []):
            lines.append(
                f"failure: point {f_['point']} {f_['identity']} residual {f_['residual']:.3e} > {f_['tolerance']:.1e}"
            )
        for e in self.summary.get("errors", []):
            lines.append(f"error: point {e['point']}: {e['message']}")
        return "\n".join(lines) + "\n"


def _effective_constants(scenario: Scenario, rec: _PointRecord) -> tuple[float | None, float | None]:
    params = scenario.soliton
    if params is None:
        return None, None
    lam = params.lam
    mu = params.mu
    if lam is None:
        lam = rec.derived.get("eta_lambda" if params.family in ETA_FAMILIES else "lambda_projection")
    if mu is None and params.family in ETA_FAMILIES:
        mu = rec.derived.get("eta_mu")
    return lam, mu


class _Deferred:
    """A row over a block, run at its first read, as ``_each_point`` runs it: each point's result or failure."""

    def __init__(self, row: Callable[[BlockGeometry], list], block: BlockGeometry) -> None:
        self.row, self.block = row, block
        self.results: list | None = None

    def at(self, k: int) -> Any:
        """Point ``k``'s result; its numerical failure is raised."""
        if self.results is None:
            self.results = _each_point(self.row, self.block)
        result = self.results[k]
        if isinstance(result, Exception):
            raise result
        return result


@dataclass
class _SharedRows:
    """The rows of one plan point that read no soliton constant, and what the soliton block reads of them.

    ``potential`` holds the constant-free terms of the potential identities
    over the block the rows ran on, computed at their first use by a run;
    ``row`` is the point's row there.
    """

    rec: _PointRecord
    samples: PointSamples | None
    unit_timelike: bool
    fluid_values: FluidValues | None
    efe_ok: bool
    torse_res: float | None
    lie_xi_xi: float | None
    hessian: np.ndarray | None
    potential: _Deferred | None
    row: int


def _add(recs: list[_PointRecord], name: str, residuals: list, asserted, applicable=True) -> None:
    """Row ``name`` on each record; ``asserted`` and ``applicable`` are one flag for all, or one per record."""
    asserted = asserted if isinstance(asserted, list) else [asserted] * len(recs)
    applicable = applicable if isinstance(applicable, list) else [applicable] * len(recs)
    for rec, residual, flag, applies in zip(recs, residuals, asserted, applicable):
        rec.add(name, residual, flag, applies)


def _shared_rows(scenario: Scenario, block: BlockGeometry, tols: dict[str, float], solve: bool) -> list[_SharedRows]:
    """Every row before the soliton block at each point of ``block``, and what the soliton block reads of the geometry.

    When solving with a field, that is the point's samples, Hess f for a
    gradient field, and the potential terms, deferred.  Each row is one
    call over the block.  Of the scenario it reads the
    vector field, the fluid, the fluid-fit and field-equation flags and the
    assertions, besides ``tols`` and ``solve`` and the coordinates the
    metric fixes; never a soliton constant, so the runs of a sweep over one
    share it (run_suites).  Every hypothesis of a conditional identity is
    decided here or in ``_soliton_rows``, once, from the resolved
    tolerances; the identity functions only compute residuals.
    """
    points = block.points
    size = len(points)
    recs = [_PointRecord(point, tols) for point in points]
    coords = scenario.coords
    v = scenario.vector_field

    g = block.g
    g_inv = block.g_inv
    s = block.ricci
    r = block.scalar.tolist()
    for rec, scalar, asymmetry in zip(recs, r, block.ricci_asymmetry.tolist()):
        rec.derived["scalar_curvature"] = scalar
        rec.derived["ricci_asymmetry"] = asymmetry

    _add(recs, "riemann_antisymmetry", riemann_antisymmetry_residual(block), True)
    _add(recs, "bianchi_first", bianchi_first_residual(block), True)
    _add(recs, "bianchi_contracted", contracted_bianchi_residual(block), True)
    _add(recs, "metric_compatibility", metric_compatibility_residual(block), True)

    v_val = None
    unit_timelike = [False] * size
    if v is not None:
        field = block.field(v)
        v_val = field.value
        unit_timelike = [abs(norm + 1.0) <= tols["unit_timelike"] for norm in field.norm_sq.tolist()]

    # fluid block
    fluid_values: list[FluidValues | None] = [None] * size
    efe_ok = [False] * size
    if scenario.fluid is not None:
        bases = [scenario.fluid.at(point, coords) for point in points]
        fitted = [k for k in range(size) if unit_timelike[k]]
        fits = iter(
            fluid_from_ricci(
                s[fitted],
                g[fitted],
                v_val[fitted],
                [bases[k].kappa for k in fitted],
                [bases[k].lam for k in fitted],
                tols["perfect_fluid_fit"],
            )
            if fitted
            else ()
        )
        for k, (rec, base) in enumerate(zip(recs, bases)):
            if unit_timelike[k]:
                values, fit = next(fits)
                rec.derived["sigma_fit"] = values.sigma
                rec.derived["rho_fit"] = values.rho
                rec.add("perfect_fluid_fit", max(fit.residual, fit.isotropy_spread), scenario.fluid_fit_requested)
                fluid_values[k] = values if scenario.fluid_fit_requested else base
            else:
                rec.add("perfect_fluid_fit", None, False, applicable=False)
                fluid_values[k] = None if scenario.fluid_fit_requested else base

        fluid_rows = [k for k in range(size) if fluid_values[k] is not None]
        if fluid_rows:
            bilinear = block.residuals(g @ (g_inv @ s) - s, 2)
            for k in fluid_rows:
                values = fluid_values[k]
                relation = abs(r[k] - (4.0 * values.lam + values.kappa * (values.sigma - 3.0 * values.rho)))
                recs[k].add("scalar_curvature_relation", relation, scenario.assert_field_equation)
                recs[k].add("ricci_operator_bilinear", bilinear[k], True)
        efe_rows = [k for k in fluid_rows if unit_timelike[k]]
        if efe_rows:
            sub = block.take(efe_rows)
            values = [fluid_values[k] for k in efe_rows]
            efe_norms = sub.residuals(efe_residual(sub, values, v), 2)
            eigs = einstein_eigen_check(sub, values)
            for k, efe_norm, eig in zip(efe_rows, efe_norms, eigs):
                efe_ok[k] = efe_norm <= tols["applicability"]
                recs[k].add("efe_residual", efe_norm, scenario.assert_field_equation)
                recs[k].add("einstein_eigen_multiset", eig.max_deviation, efe_ok[k], applicable=efe_ok[k])

    # vector-field block: unconditional decomposition and skewness
    torse_res = lie_xi_xi = hessians = [None] * size
    samples: list[PointSamples | None] = [None] * size
    potential = None
    if v is not None:
        _add(recs, "nabla_decomposition", nabla_decomposition_check(block, v), True)
        _add(recs, "f_skew_adjoint", rotation_skew_residual(block, v), True)

        torse = "torse" in scenario.assertions
        asserted = [torse and unit for unit in unit_timelike]
        torse_res = torse_forming_residual(block, v)
        tc = torse_consequence_residuals(block, v)
        for name, residuals in (
            ("torse_forming", torse_res),
            ("torse_geodesic_flow", [c.geodesic_flow for c in tc]),
            ("torse_eta_derivative", [c.eta_derivative for c in tc]),
            ("torse_curvature_action", [c.curvature_action for c in tc]),
            ("torse_eta_curvature", [c.eta_curvature for c in tc]),
            ("torse_lie_form", torse_lie_residual(block, v)),
        ):
            _add(recs, name, residuals, asserted, unit_timelike)

        if v.is_gradient:
            for rec, (div, trace) in zip(recs, laplacian_routes(block, v.potential)):
                rec.derived["laplacian"] = trace
                rec.add("laplacian_two_route", abs(div - trace), True)

        if solve:
            samples = PointSamples.from_geometry(block, v)
            lie_xi_xi = np.abs((v_val[:, None, :] @ field.lie @ v_val[:, :, None])[:, 0, 0]).tolist()
            if v.is_gradient:
                hessians = field.hessian
            potential = _Deferred(lambda block: potential_field_terms(block, v), block)
    return [
        _SharedRows(
            recs[k],
            samples[k],
            unit_timelike[k],
            fluid_values[k],
            efe_ok[k],
            torse_res[k],
            lie_xi_xi[k],
            hessians[k],
            potential,
            k,
        )
        for k in range(size)
    ]


def _soliton_rows(scenario: Scenario, tols: dict[str, float], shared: _SharedRows) -> _PointRecord:
    """The record of one plan point: a copy of the shared rows' record, with the scenario's soliton block added.

    It reads no geometry: only the shared rows' samples, Hessian and
    potential terms, the soliton constants and the tolerances.
    """
    point = shared.rec.coordinates
    rec = _PointRecord(point, tols, dict(shared.rec.identities), dict(shared.rec.derived))
    samples = shared.samples
    params = scenario.soliton
    if samples is None or params is None:
        return rec
    coords = scenario.coords
    unit_timelike = shared.unit_timelike
    fluid_values = shared.fluid_values
    efe_ok = shared.efe_ok

    lie_xi_xi = shared.lie_xi_xi
    projection_valid = unit_timelike and lie_xi_xi is not None and lie_xi_xi <= tols["applicability"]

    if params.family in ETA_FAMILIES:
        if unit_timelike:
            sol = eta_projection_solve(
                samples, params.alpha, params.beta, params.p_at(point, coords), tols["unit_timelike"]
            )
            rec.derived["eta_lambda"] = sol.lam
            rec.derived["eta_mu"] = sol.mu
            rec.derived["div_xi"] = sol.div_xi
            rec.add("eta_backsubstitution", sol.back_substitution, True)
            if fluid_values is not None:
                cf_lam, cf_mu = eta_closed_forms(
                    fluid_values, params.alpha, params.beta, params.p_at(point, coords), sol.div_xi
                )
                deviation = max(abs(sol.lam - cf_lam), abs(sol.mu - cf_mu))
                applicable = efe_ok and projection_valid
                rec.add("eta_vs_closed_form", deviation, applicable, applicable=applicable)
    elif params.family != "gradient_ricci_yamabe":
        lam_proj = lambda_from_projection(samples, params)
        rec.derived["lambda_projection"] = lam_proj
        if fluid_values is not None:
            closed = lambda_closed_form(fluid_values, params.alpha, params.beta, params.p_at(point, coords))
            applicable = efe_ok and projection_valid
            rec.add("lambda_projection_vs_closed_form", abs(lam_proj - closed), applicable, applicable=applicable)

    lam_eff, mu_eff = _effective_constants(scenario, rec)
    if params.family == "gradient_ricci_yamabe":
        if shared.hessian is not None and lam_eff is not None:
            res = gradient_soliton_residual(samples, shared.hessian, dataclasses.replace(params, lam=lam_eff))
            rec.add("soliton_residual", max_abs(res.components), scenario.assert_soliton_residual)
    elif lam_eff is not None and (params.family not in ETA_FAMILIES or mu_eff is not None):
        eff = dataclasses.replace(params, lam=float(lam_eff), mu=None if mu_eff is None else float(mu_eff))
        res_norm = max_abs(soliton_residual(samples, eff).components)
        rec.add("soliton_residual", res_norm, scenario.assert_soliton_residual)
        # the three consequence identities are derived from the plain
        # (non-eta) soliton equation; the vertical term changes the
        # covariant-derivative split, so they do not carry over
        if fluid_values is not None and params.family not in ETA_FAMILIES:
            terms = shared.potential.at(shared.row)
            fluid_gap = max_abs(samples.ricci - ricci_from_fluid(fluid_values, samples.g, samples.eta))
            ident = potential_field_identities(terms, fluid_values, eff)
            # hypotheses: the full soliton equation holds, the fluid
            # describes the Ricci tensor, and a nonzero matter coefficient
            # needs a unit timelike torse-forming flow
            coeff = params.alpha * fluid_values.kappa * (fluid_values.sigma + fluid_values.rho)
            applicable = (
                res_norm <= tols["applicability"]
                and fluid_gap <= tols["applicability"] * (1.0 + abs(fluid_values.lam) + abs(coeff))
                and (coeff == 0.0 or (unit_timelike and shared.torse_res <= tols["applicability"]))
            )
            rec.add("potential_curvature_identity", ident.curvature_identity, applicable, applicable=applicable)
            rec.add("rotation_divergence_identity", ident.divergence_identity, applicable, applicable=applicable)
            rec.add("potential_norm_identity", ident.norm_gradient_identity, applicable, applicable=applicable)
    return rec


@dataclass
class _SuiteRun:
    """One scenario's report while run_suites walks the plan.

    ``shared`` numbers the run's key of the inputs ``_shared_rows`` reads:
    runs with equal keys, at the plan points of a block whose geometry they
    share, share those points' shared rows.
    """

    scenario: Scenario
    tols: dict[str, float]
    shared: int
    warnings: list[str] = field(default_factory=list)
    records: list[_PointRecord] = field(default_factory=list)
    samples: list[PointSamples] = field(default_factory=list)
    fd_health: dict[str, float | None] = field(default_factory=dict)


def run_suites(scenarios: Sequence[Scenario], solve: bool = True) -> list[IdentityReport]:
    """One report per scenario, each as run_suite would give it.

    The plan is walked point-outer: at each plan index, the scenarios that
    agree on (metric, point, numerics) share one PointGeometry, so a sweep
    over a soliton or fluid constant evaluates the geometry, the plan-point
    check and the FD convergence ratio once per point, not once per value.
    Of those, the scenarios that also agree on the key of the shared part,
    ``_shared_rows`` (vector field, fluid, fluid-fit and field-equation
    flags, assertions and resolved tolerances; ``solve`` is one per call),
    share its rows too: the curvature, fluid, vector-field, torse and
    Laplacian rows, the point's samples, and the terms of the potential
    identities that read no soliton constant.  Only the soliton part,
    ``_soliton_rows``, runs once per scenario, so a sweep over a soliton
    constant evaluates the rest once per point.
    The indices go ``_BLOCK`` (16) at a time: the block's points that agree
    on (metric, numerics) share one store, its curvature filled in one batch
    (``geometry.block_geometries``), and the shared part runs once per key
    over them, each row one numpy call (``_run_block``).  So a plan of up to
    16 points of one (metric, numerics) is one store, one batch and one call
    per row.  The block's stores are dropped before the next block, so only
    one block's lattices are ever live.
    """
    keys: dict[tuple, int] = {}
    runs = []
    for scenario in scenarios:
        tols = resolve_tolerances(scenario.tolerances)
        key = (
            scenario.vector_field,
            scenario.fluid,
            scenario.fluid_fit_requested,
            scenario.assert_field_equation,
            scenario.assertions,
            tuple(sorted(tols.items())),
        )
        runs.append(_SuiteRun(scenario, tols, keys.setdefault(key, len(keys))))
    plan = max((len(run.scenario.points) for run in runs), default=0)
    for start in range(0, plan, _BLOCK):
        block: list[tuple[int, tuple, list[_SuiteRun]]] = []
        for i in range(start, min(start + _BLOCK, plan)):
            groups: dict[tuple, list[_SuiteRun]] = {}
            for run in runs:
                scenario = run.scenario
                if i < len(scenario.points):
                    groups.setdefault((scenario.metric, scenario.points[i], scenario.numerics), []).append(run)
            block += [(i, key, group) for key, group in groups.items()]
        _run_block(block, solve)

    return [
        IdentityReport(
            run.scenario,
            run.tols,
            run.records,
            _summarize(run.scenario, run.records, run.samples, run.fd_health, run.tols, solve),
            run.warnings,
        )
        for run in runs
    ]


def _run_block(block: list[tuple[int, tuple, list[_SuiteRun]]], solve: bool) -> None:
    """Each (plan index, (metric, point, numerics), runs) of ``block``; its stores live until this returns.

    The shared rows run once per shared key (``_SuiteRun.shared``) over the
    points of each BlockGeometry that a run of that key reads (``take``),
    through ``_each_point``; then each point's runs take their records from
    them, in plan order.
    """
    geos = block_geometries([key for _, key, _ in block])
    failed: dict[int, Exception] = {}
    for n, geo in enumerate(geos):
        try:
            geo.g
        except (EvalDomainError, GeometryError) as exc:
            failed[n] = exc
    parts: dict[tuple[int, BlockGeometry], list[int]] = {}  # (shared key, block) -> the entries a run reads there
    readers: dict[int, _SuiteRun] = {}  # shared key -> a run of it
    for n, (_, _, group) in enumerate(block):
        if n not in failed:
            for run in group:
                entries = parts.setdefault((run.shared, geos[n].block), [])
                if n not in entries:
                    entries.append(n)
                readers.setdefault(run.shared, run)
    shared: dict[tuple[int, int], _SharedRows | Exception] = {}  # (entry, shared key) -> its rows
    for (key, owner), entries in parts.items():
        run = readers[key]
        sub = owner.take([geos[n].row for n in entries])
        rows = _each_point(lambda block: _shared_rows(run.scenario, block, run.tols, solve), sub)
        shared.update(((n, key), row) for n, row in zip(entries, rows))
    for n, ((i, _, group), geo) in enumerate(zip(block, geos)):
        _run_point(group, i, geo, failed.get(n), {run.shared: shared.get((n, run.shared)) for run in group}, solve)


def _each_point(row: Callable[[BlockGeometry], list], block: BlockGeometry) -> list:
    """``row(block)``, the list of each point's result, or, should it meet a numerical failure, each point's alone.

    On a failure, each point runs ``row`` again on a block of one of its
    own, on the same store with fresh field trees, so its result, or the
    failure it records in the list, is that of a run of its own.  A block of
    one that is not a take already is that run: its failure is its record.
    This is the report's one per-point fallback.
    """
    try:
        return row(block)
    except NUMERICAL_FAILURES as exc:
        if len(block) == 1 and not block.is_take:
            return [exc]
    results = []
    for k in range(len(block)):
        try:
            results.append(row(BlockGeometry(block.store, block.points[k : k + 1], block.numbers[k : k + 1]))[0])
        except NUMERICAL_FAILURES as exc:
            results.append(exc)
    return results


def _run_point(
    group: list[_SuiteRun],
    i: int,
    geo: PointGeometry,
    error: Exception | None,
    shared: dict[int, _SharedRows | Exception | None],
    solve: bool,
) -> None:
    """Plan point ``i`` of every run in ``group``, all on the one geometry ``geo``.

    ``error`` is the point's metric failure, if any; ``shared`` the shared
    rows of each key among the group.  A numerical failure of the shared
    rows is recorded on every run of their key, as each would record it
    alone; one of the soliton block, run once per run, only on its own run.
    """
    if error is not None:
        for run in group:
            run.warnings.append(f"plan point {i} {list(geo.point)}: metric not evaluable there ({error})")
            run.records.append(_PointRecord(geo.point, error=str(error)))
        return
    first_good = []
    for run in group:
        rows = shared[run.shared]
        if isinstance(rows, Exception):
            run.records.append(_PointRecord(geo.point, error=str(rows)))
            continue
        try:
            rec = _soliton_rows(run.scenario, run.tols, rows)
        except NUMERICAL_FAILURES as exc:
            run.records.append(_PointRecord(geo.point, error=str(exc)))
            continue
        run.records.append(rec)
        if rows.samples is not None:
            run.samples.append(rows.samples)
        if not run.fd_health:
            first_good.append(run)
    if first_good:
        try:
            ratio = fd_convergence_ratio(geo)
        except (EvalDomainError, GeometryError):
            ratio = None
        for run in first_good:
            run.fd_health["fd_convergence_ratio"] = ratio


def run_suite(scenario: Scenario, solve: bool = True) -> IdentityReport:
    """Evaluate every applicable identity at every plan point.

    Per-point numerical failures are recorded in the report rather than
    raised; the suite only fails outright when no point is evaluable.  No
    lattice outlives its block of plan points (run_suites): the numerics
    health is measured on the first good point before its lattice is
    dropped, and the conformal fit reads the points' small PointSamples.
    """
    return run_suites([scenario], solve)[0]


def _summarize(
    scenario: Scenario,
    records: list[_PointRecord],
    samples: list[PointSamples],
    fd_health: dict[str, float | None],
    tols: dict[str, float],
    solve: bool,
) -> dict:
    derived: dict[str, dict] = {}
    keys = sorted({k for rec in records for k in rec.derived})
    for key in keys:
        values = [rec.derived[key] for rec in records if key in rec.derived]
        derived[key] = {
            "values": values,
            "mean": float(np.mean(values)),
            "spread": float(max(values) - min(values)),
        }

    failures = []
    for i, rec in enumerate(records):
        for name in _ROWS:
            info = rec.identities.get(name)
            if info and info["asserted"] and info["applicable"] and info["passed"] is False:
                failures.append(
                    {
                        "point": i,
                        "identity": name,
                        "residual": info["residual"],
                        "tolerance": info["tolerance"],
                    }
                )
    errors = [{"point": i, "message": rec.error} for i, rec in enumerate(records) if rec.error]
    all_failed = len(errors) == len(records) and records

    classification = None
    if solve and scenario.soliton is not None:
        lam_key = "eta_lambda" if scenario.soliton.family in ETA_FAMILIES else "lambda_projection"
        lam_value = scenario.soliton.lam
        source = "explicit"
        if lam_value is None and lam_key in derived:
            lam_value = derived[lam_key]["mean"]
            source = lam_key
        if lam_value is not None:
            result = classify(lam_value, tolerance=tols["steady_classification"])
            classification = {
                "value": result.lam,
                "category": result.category,
                "convention": result.convention,
                "tolerance": result.tolerance,
                "source": source,
                "spread": derived.get(lam_key, {}).get("spread", 0.0),
            }

    ckv_summary = None
    if len(samples) >= 2:
        try:
            analysis = ckv_fit(samples, tolerance=tols["ckv_fit"], params=scenario.soliton)
            ckv_summary = {
                "category": analysis.category,
                "phis": list(analysis.phis),
                "residual": analysis.residual,
                "theta": analysis.theta,
                "psi": analysis.psi,
            }
        except EvalDomainError:  # a pressure scalar undefined at the first point
            ckv_summary = None

    health: dict[str, Any] = {}
    asym = [rec.derived.get("ricci_asymmetry") for rec in records if "ricci_asymmetry" in rec.derived]
    if asym:
        health["ricci_asymmetry_max"] = float(max(asym))
    health.update(fd_health)

    verdict = "fail" if (failures or all_failed) else "pass"
    return {
        "derived": derived,
        "classification": classification,
        "ckv": ckv_summary,
        "numerics_health": health,
        "failures": failures,
        "errors": errors,
        "verdict": verdict,
    }


def emit_report(report: IdentityReport, fmt: str = "json", include_timestamp: bool = True) -> str:
    """Serialise; json is the stable machine format (see "Report
    serialisation" in docs/conventions.md), text a human summary."""
    if fmt == "json":
        return _json_text(report.to_dict(include_timestamp=include_timestamp))
    if fmt == "text":
        return report.to_text()
    raise ValueError(f"unknown report format {fmt!r}")


def emit_sweep(
    parameter: str,
    results: Iterable[tuple[Any, IdentityReport]],
    fmt: str = "json",
    include_timestamp: bool = True,
) -> str:
    """Serialise a sweep's (value, report) pairs, each report as emit_report writes it.

    json is a list of ``{"parameter", "value", "report"}`` objects; text
    heads each report's summary with ``== parameter = value``.
    """
    if fmt == "text":
        return "\n".join(f"== {parameter} = {value!r}\n{emit_report(report, fmt)}" for value, report in results)
    entries = [
        {
            "parameter": parameter,
            "value": value,
            "report": _Written(emit_report(report, fmt, include_timestamp)[:-1]),
        }
        for value, report in results
    ]
    return _json_text(entries)


class _Written(str):
    """JSON text already written at the top level; the emitter indents it in place."""


def _json_text(obj: Any) -> str:
    """``obj`` as indented JSON text ending in a newline, written in one pass.

    The bytes are those of ``json.dumps(obj, indent=2) + "\n"``, except that a
    non-finite float is written ``null`` and numpy booleans and integers as
    the Python values they hold.  Any other type raises TypeError.
    """
    out: list[str] = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj: Any, out: list[str], newline: str) -> None:
    """Append ``obj`` to ``out``; ``newline`` is a line break and the indentation of obj's line."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is float:
        out.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(head + _quote(key) + ": ")
            _write_json(value, out, inner)
            head = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for value in obj:
            out.append(head)
            _write_json(value, out, inner)
            head = "," + inner
        out.append(newline + "]")
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False or kind is np.bool_:
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, float):
        _write_json(float(obj), out, newline)
    elif kind is _Written:
        out.append(obj.replace("\n", newline))
    else:
        raise TypeError(f"{kind.__name__} is not a report value: {obj!r}")


def exit_code_for(report: IdentityReport) -> int:
    """0 for a passing report, 1 for any asserted identity failure."""
    return 0 if report.verdict == "pass" else 1
