"""Scenario files: strict loading and validation of analysis inputs.

A scenario bundles a metric (catalog or custom component grid), an optional
vector field, fluid state, soliton parameters, an evaluation plan, and
numerics settings into one JSON document; docs/scenario-schema.md and
schemas/scenario.schema.json describe the format.  Validation is strict:
unknown keys are rejected, and every error carries a JSON-pointer-style
location plus, for expression problems, the parser offset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .expressions import Expr, ParseError, parse, variables
from .geometry import MetricSpec, NumericsConfig, VectorFieldSpec
from .solitons import FAMILIES, SolitonParams
from .spacetimes import FluidState, catalog_metric

__all__ = ["SchemaError", "Scenario", "load_scenario", "scenario_from_dict"]

SCENARIO_SCHEMA_VERSION = 1
DEFAULT_COORDINATES = ("t", "x", "y", "z")
ASSERTION_GROUPS = ("torse",)


class SchemaError(ValueError):
    """Unusable input; ``location`` is a JSON pointer into the scenario, or an environment variable's name."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location or '/'}: {message}")
        self.message = message
        self.location = location


def _check_keys(obj: Mapping, allowed: Sequence[str], required: Sequence[str], loc: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", loc)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}", loc)
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"missing required keys {missing}", loc)


def _number(obj: Any, loc: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"expected a number, got {obj!r}", loc)
    value = float(obj)
    if not math.isfinite(value):
        raise SchemaError(f"expected a finite number, got {value!r}", loc)
    return value


def _boolean(obj: Any, loc: str) -> bool:
    if not isinstance(obj, bool):
        raise SchemaError(f"expected a boolean, got {obj!r}", loc)
    return obj


def _string(obj: Any, loc: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(f"expected a string, got {obj!r}", loc)
    return obj


def _expr(obj: Any, coords: Sequence[str], loc: str, time_only: bool = False) -> Expr:
    if isinstance(obj, bool):
        raise SchemaError(f"expected an expression or number, got {obj!r}", loc)
    if isinstance(obj, (int, float)):
        from .expressions import Const

        return Const(float(obj))
    if not isinstance(obj, str):
        raise SchemaError(f"expected an expression or number, got {obj!r}", loc)
    try:
        e = parse(obj, coords)
    except ParseError as exc:
        raise SchemaError(f"expression {obj!r}: {exc.message} at offset {exc.offset}", loc) from exc
    if time_only:
        extra = variables(e) - {coords[0]}
        if extra:
            raise SchemaError(
                f"expression may depend on {coords[0]!r} only, found {sorted(extra)}", loc
            )
    return e


@dataclass(frozen=True)
class Scenario:
    """Validated analysis scenario; ``data`` echoes the normalised document."""

    name: str
    coords: tuple[str, ...]
    metric: MetricSpec
    vector_field: VectorFieldSpec | None
    fluid: FluidState | None
    fluid_fit_requested: bool
    assert_field_equation: bool
    soliton: SolitonParams | None
    assert_soliton_residual: bool
    points: tuple[tuple[float, ...], ...]
    numerics: NumericsConfig
    tolerances: dict[str, float]
    assertions: frozenset[str]
    data: dict = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        """Normalised document; feeding it back to scenario_from_dict round-trips."""
        return json.loads(json.dumps(self.data))


def _parse_metric(obj: Any, coords: tuple[str, ...]) -> tuple[MetricSpec, dict]:
    loc = "/metric"
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", loc)
    if "catalog" in obj:
        name = _string(obj.get("catalog"), loc + "/catalog")
        if name == "minkowski":
            _check_keys(obj, ["catalog"], ["catalog"], loc)
            return catalog_metric("minkowski", coords=coords), {"catalog": "minkowski"}
        if name == "de_sitter":
            _check_keys(obj, ["catalog", "hubble"], ["catalog"], loc)
            hubble = _number(obj.get("hubble", 1.0), loc + "/hubble")
            return (
                catalog_metric("de_sitter", hubble=hubble, coords=coords),
                {"catalog": "de_sitter", "hubble": hubble},
            )
        if name == "grw_flat":
            _check_keys(obj, ["catalog", "scale_factor"], ["catalog", "scale_factor"], loc)
            sf = _string(obj["scale_factor"], loc + "/scale_factor")
            _expr(sf, coords, loc + "/scale_factor", time_only=True)
            return (
                catalog_metric("grw_flat", scale_factor=sf, coords=coords),
                {"catalog": "grw_flat", "scale_factor": sf},
            )
        raise SchemaError(f"unknown catalog metric {name!r}", loc + "/catalog")
    _check_keys(obj, ["components"], ["components"], loc)
    rows = obj["components"]
    if not isinstance(rows, list) or len(rows) != len(coords):
        raise SchemaError(f"components must be a {len(coords)}x{len(coords)} grid", loc + "/components")
    grid = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(coords):
            raise SchemaError(f"row must have {len(coords)} entries", f"{loc}/components/{i}")
        grid.append([_expr(v, coords, f"{loc}/components/{i}/{j}") for j, v in enumerate(row)])
    try:
        spec = MetricSpec(tuple(coords), tuple(tuple(r) for r in grid))
    except ValueError as exc:
        raise SchemaError(str(exc), loc + "/components") from exc
    return spec, {"components": rows}


def _parse_vector(obj: Any, coords: tuple[str, ...]) -> tuple[VectorFieldSpec, dict]:
    loc = "/vector_field"
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", loc)
    if "gradient" in obj:
        _check_keys(obj, ["gradient"], ["gradient"], loc)
        pot = obj["gradient"]
        e = _expr(pot, coords, loc + "/gradient")
        return VectorFieldSpec(coords, potential=e), {"gradient": pot}
    _check_keys(obj, ["components"], ["components"], loc)
    comps = obj["components"]
    if not isinstance(comps, list) or len(comps) != len(coords):
        raise SchemaError(f"components must have {len(coords)} entries", loc + "/components")
    exprs = tuple(_expr(v, coords, f"{loc}/components/{i}") for i, v in enumerate(comps))
    return VectorFieldSpec(coords, components=exprs), {"components": comps}


def _parse_fluid(obj: Any, coords: tuple[str, ...]) -> tuple[FluidState | None, bool, bool, dict]:
    loc = "/fluid"
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", loc)
    if "fit_from_ricci" in obj:
        _check_keys(obj, ["fit_from_ricci"], ["fit_from_ricci"], loc)
        inner = obj["fit_from_ricci"]
        _check_keys(inner, ["kappa", "cosmological_constant"], ["kappa", "cosmological_constant"], loc + "/fit_from_ricci")
        kappa = _number(inner["kappa"], loc + "/fit_from_ricci/kappa")
        lam = _number(inner["cosmological_constant"], loc + "/fit_from_ricci/cosmological_constant")
        if kappa <= 0:
            raise SchemaError("kappa must be positive", loc + "/fit_from_ricci/kappa")
        fluid = FluidState(sigma=0.0, rho=0.0, kappa=kappa, lam=lam)
        echo = {"fit_from_ricci": {"kappa": kappa, "cosmological_constant": lam}}
        return fluid, True, False, echo
    allowed = ["sigma", "rho", "kappa", "cosmological_constant", "assert_field_equation"]
    _check_keys(obj, allowed, ["sigma", "rho", "kappa", "cosmological_constant"], loc)
    kappa = _number(obj["kappa"], loc + "/kappa")
    if kappa <= 0:
        raise SchemaError("kappa must be positive", loc + "/kappa")

    def num_or_expr(key: str) -> float | Expr:
        v = obj[key]
        if isinstance(v, str):
            return _expr(v, coords, f"{loc}/{key}", time_only=True)
        return _number(v, f"{loc}/{key}")

    fluid = FluidState(
        sigma=num_or_expr("sigma"),
        rho=num_or_expr("rho"),
        kappa=kappa,
        lam=num_or_expr("cosmological_constant"),
    )
    assert_efe = _boolean(obj.get("assert_field_equation", True), loc + "/assert_field_equation")
    echo = {
        "sigma": obj["sigma"],
        "rho": obj["rho"],
        "kappa": kappa,
        "cosmological_constant": obj["cosmological_constant"],
        "assert_field_equation": assert_efe,
    }
    return fluid, False, assert_efe, echo


def _parse_soliton(obj: Any, coords: tuple[str, ...]) -> tuple[SolitonParams, bool, dict]:
    loc = "/soliton"
    allowed = ["family", "alpha", "beta", "p", "lambda", "mu", "assert_residual"]
    _check_keys(obj, allowed, ["family"], loc)
    family = _string(obj["family"], loc + "/family")
    if family not in FAMILIES:
        raise SchemaError(f"unknown family {family!r}; one of {list(FAMILIES)}", loc + "/family")
    alpha = _number(obj.get("alpha", 1.0), loc + "/alpha")
    beta = _number(obj.get("beta", 0.0), loc + "/beta")
    p_raw = obj.get("p", -0.5)
    p: float | Expr
    if isinstance(p_raw, str):
        p = _expr(p_raw, coords, loc + "/p", time_only=True)
    else:
        p = _number(p_raw, loc + "/p")
    lam = obj.get("lambda")
    lam_val = None if lam is None else _number(lam, loc + "/lambda")
    mu = obj.get("mu")
    mu_val = None if mu is None else _number(mu, loc + "/mu")
    assert_res = _boolean(obj.get("assert_residual", False), loc + "/assert_residual")
    if assert_res and lam_val is None:
        raise SchemaError("assert_residual requires an explicit lambda", loc)
    if assert_res and family in ("conformal_eta_ricci", "conformal_eta_ricci_yamabe") and mu_val is None:
        raise SchemaError("assert_residual on an eta family requires an explicit mu", loc)
    try:
        params = SolitonParams(family=family, alpha=alpha, beta=beta, lam=lam_val, mu=mu_val, p=p)
    except ValueError as exc:
        raise SchemaError(str(exc), loc) from exc
    echo = {
        "family": family,
        "alpha": alpha,
        "beta": beta,
        "p": p_raw,
        "lambda": lam_val,
        "mu": mu_val,
        "assert_residual": assert_res,
    }
    return params, assert_res, echo


def _parse_plan(points_obj: Any, grid_obj: Any, coords: tuple[str, ...]) -> tuple[tuple[float, ...], ...]:
    points: list[tuple[float, ...]] = []
    if points_obj is not None:
        if not isinstance(points_obj, list):
            raise SchemaError("expected a list of points", "/points")
        for i, pt in enumerate(points_obj):
            if not isinstance(pt, list) or len(pt) != len(coords):
                raise SchemaError(f"point must have {len(coords)} coordinates", f"/points/{i}")
            points.append(tuple(_number(v, f"/points/{i}/{j}") for j, v in enumerate(pt)))
    if grid_obj is not None:
        if not isinstance(grid_obj, dict):
            raise SchemaError("expected an object keyed by coordinate name", "/grid")
        axes: list[list[float]] = []
        for c in coords:
            spec = grid_obj.get(c)
            if spec is None:
                axes.append([0.0])
                continue
            loc = f"/grid/{c}"
            if isinstance(spec, list):
                axes.append([_number(v, f"{loc}/{i}") for i, v in enumerate(spec)])
            elif isinstance(spec, dict):
                _check_keys(spec, ["start", "stop", "count"], ["start", "stop", "count"], loc)
                count = spec["count"]
                if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                    raise SchemaError("count must be a positive integer", loc + "/count")
                axes.append(
                    [float(v) for v in np.linspace(_number(spec["start"], loc + "/start"),
                                                   _number(spec["stop"], loc + "/stop"), count)]
                )
            else:
                raise SchemaError("expected a list of values or start/stop/count", loc)
        unknown = set(grid_obj) - set(coords)
        if unknown:
            raise SchemaError(f"unknown coordinates {sorted(unknown)}", "/grid")
        mesh = [[]]
        for axis in axes:
            mesh = [prefix + [v] for prefix in mesh for v in axis]
        points.extend(tuple(pt) for pt in mesh)
    if not points:
        raise SchemaError("evaluation plan needs at least one point (points and/or grid)", "/points")
    return tuple(points)


def scenario_from_dict(obj: Any) -> Scenario:
    """Validate a scenario document; unknown keys anywhere are rejected."""
    top_allowed = [
        "schema_version",
        "name",
        "description",
        "coordinates",
        "metric",
        "vector_field",
        "fluid",
        "soliton",
        "points",
        "grid",
        "numerics",
        "tolerances",
        "assertions",
    ]
    _check_keys(obj, top_allowed, ["metric"], "")
    version = obj.get("schema_version", SCENARIO_SCHEMA_VERSION)
    if version != SCENARIO_SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}", "/schema_version")
    name = _string(obj.get("name", "scenario"), "/name")
    description = _string(obj.get("description", ""), "/description")

    coords_raw = obj.get("coordinates", list(DEFAULT_COORDINATES))
    if not isinstance(coords_raw, list) or len(coords_raw) != 4:
        raise SchemaError("exactly four coordinate names are required", "/coordinates")
    coords = tuple(_string(c, f"/coordinates/{i}") for i, c in enumerate(coords_raw))
    if len(set(coords)) != 4:
        raise SchemaError("coordinate names must be unique", "/coordinates")

    metric, metric_echo = _parse_metric(obj["metric"], coords)

    vector = vector_echo = None
    if "vector_field" in obj:
        vector, vector_echo = _parse_vector(obj["vector_field"], coords)

    fluid: FluidState | None = None
    fit_requested = False
    assert_efe = False
    fluid_echo = None
    if "fluid" in obj:
        fluid, fit_requested, assert_efe, fluid_echo = _parse_fluid(obj["fluid"], coords)

    soliton = None
    assert_soliton = False
    soliton_echo = None
    if "soliton" in obj:
        soliton, assert_soliton, soliton_echo = _parse_soliton(obj["soliton"], coords)

    if fit_requested and vector is None:
        raise SchemaError("fit_from_ricci needs a vector_field (the unit timelike flow)", "/fluid")
    if soliton is not None and vector is None:
        raise SchemaError("soliton analysis needs a vector_field (the potential field)", "/soliton")
    if soliton is not None and soliton.family == "gradient_ricci_yamabe" and not vector.is_gradient:
        raise SchemaError("the gradient family needs a gradient-type vector_field", "/soliton/family")

    points = _parse_plan(obj.get("points"), obj.get("grid"), coords)

    numerics_obj = obj.get("numerics", {})
    _check_keys(numerics_obj, ["h", "richardson", "degeneracy_threshold"], [], "/numerics")
    try:
        numerics = NumericsConfig(
            h=_number(numerics_obj.get("h", 1e-3), "/numerics/h"),
            richardson=_boolean(numerics_obj.get("richardson", True), "/numerics/richardson"),
            degeneracy_threshold=_number(
                numerics_obj.get("degeneracy_threshold", 1e-12), "/numerics/degeneracy_threshold"
            ),
        )
    except ValueError as exc:
        raise SchemaError(str(exc), "/numerics") from exc

    tol_obj = obj.get("tolerances", {})
    if not isinstance(tol_obj, dict):
        raise SchemaError("expected an object of identity tolerances", "/tolerances")
    tolerances = {k: _number(v, f"/tolerances/{k}") for k, v in tol_obj.items()}
    for k, v in tolerances.items():
        if v <= 0:
            raise SchemaError(f"tolerance must be positive, got {v!r}", f"/tolerances/{k}")

    assertions_obj = obj.get("assertions", [])
    if not isinstance(assertions_obj, list):
        raise SchemaError("expected a list of assertion group names", "/assertions")
    for i, a in enumerate(assertions_obj):
        if a not in ASSERTION_GROUPS:
            raise SchemaError(f"unknown assertion group {a!r}; one of {list(ASSERTION_GROUPS)}", f"/assertions/{i}")

    data = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": name,
        "description": description,
        "coordinates": list(coords),
        "metric": metric_echo,
    }
    if vector_echo is not None:
        data["vector_field"] = vector_echo
    if fluid_echo is not None:
        data["fluid"] = fluid_echo
    if soliton_echo is not None:
        data["soliton"] = soliton_echo
    data["points"] = [list(p) for p in points]
    data["numerics"] = {
        "h": numerics.h,
        "richardson": numerics.richardson,
        "degeneracy_threshold": numerics.degeneracy_threshold,
    }
    data["tolerances"] = dict(sorted(tolerances.items()))
    data["assertions"] = sorted(assertions_obj)

    return Scenario(
        name=name,
        coords=coords,
        metric=metric,
        vector_field=vector,
        fluid=fluid,
        fluid_fit_requested=fit_requested,
        assert_field_equation=assert_efe,
        soliton=soliton,
        assert_soliton_residual=assert_soliton,
        points=points,
        numerics=numerics,
        tolerances=tolerances,
        assertions=frozenset(assertions_obj),
        data=data,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {p}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(obj)
