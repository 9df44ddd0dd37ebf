"""In-memory spans around calls into solitonlab's public functions.

The tracer swaps each traced function for a wrapper in every solitonlab
module that binds it (modules import functions by name, so patching the
defining module alone would miss most calls), and puts the originals back
on ``uninstall``.  A span is ``[name, start, end, parent, child_s,
matrix_calls, round]``; a span's self time is its duration minus
``child_s``, the time its direct child spans and metric evaluations cover.

``MetricSpec.matrix`` runs thousands of times per point, so it is not a
span: each call adds its count and time to the open span and to the
tracer's totals, and its point to the round's set of distinct points.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

# layer -> public entry points, as "module:qualname"
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("cli:main",),
    "scenario.load": ("scenario:load_scenario", "scenario:scenario_from_dict"),
    "report.suite": ("report:run_suite",),
    "report.emit": ("report:emit_report", "report:IdentityReport.to_dict"),
    "geometry.suite_curvature": ("geometry:metric_at", "geometry:ricci"),
    "geometry.riemann_antisymmetry": ("geometry:riemann_antisymmetry_residual",),
    "geometry.bianchi_first": ("geometry:bianchi_first_residual",),
    "geometry.bianchi_contracted": ("geometry:contracted_bianchi_residual",),
    "geometry.metric_compatibility": ("geometry:metric_compatibility_residual",),
    "geometry.laplacian_routes": ("geometry:laplacian_routes",),
    "geometry.fd_convergence": ("geometry:fd_convergence_ratio",),
    "spacetimes.efe_residual": ("spacetimes:efe_residual",),
    "spacetimes.eigen_check": ("spacetimes:einstein_eigen_check",),
    "spacetimes.fluid_fit": ("spacetimes:fluid_from_ricci",),
    "solitons.rotation": ("solitons:nabla_decomposition_check", "solitons:two_form_pack"),
    "solitons.torse": (
        "solitons:torse_forming_residual",
        "solitons:torse_consequence_residuals",
        "solitons:torse_lie_residual",
    ),
    "solitons.samples": ("solitons:PointSamples.from_geometry",),
    "solitons.potential_identities": ("solitons:potential_field_identities",),
    "solitons.projection_solve": (
        "solitons:lambda_from_projection",
        "solitons:eta_projection_solve",
        "solitons:soliton_residual",
        "solitons:gradient_soliton_residual",
        "solitons:laplacian_identity_check",
    ),
    "solitons.ckv_fit": ("solitons:ckv_fit",),
}
MATRIX = "geometry:MetricSpec.matrix"

NAME, START, END, PARENT, CHILD, MCALLS, ROUND = range(7)


def _resolve(target: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, raw value) of a target, or None when it is gone."""
    module_name, qualname = target.split(":")
    owner = sys.modules.get(f"solitonlab.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Records spans and metric-evaluation counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.round = -1
        self.matrix_calls = 0
        self.matrix_s = 0.0
        self.round_points: set[tuple] = set()
        self.unique_points = 0  # distinct (metric, point) pairs summed over finished rounds
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._metric_ids: dict[int, int] = {}
        self._metric_index: dict[Any, int] = {}
        self._metrics_alive: list[Any] = []  # keeps ids in _metric_ids from being reused

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for targets in LAYERS.values():
            for target in targets:
                self._patch(target, self._span_wrapper(target.replace(":", ".")))
        self._patch(MATRIX, self._matrix_wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        found = _resolve(target)
        if found is None:
            self.missing.append("solitonlab." + target.replace(":", "."))
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        if isinstance(owner, type):
            self._set(owner, attr, raw, new)
            return
        for name, module in list(sys.modules.items()):
            if name == "solitonlab" or name.startswith("solitonlab."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, raw, new)

    def _set(self, owner: Any, attr: str, raw: Any, new: Any) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    # -- recording ----------------------------------------------------------

    def begin_round(self, index: int) -> None:
        self.round = index

    def end_round(self) -> None:
        self.unique_points += len(self.round_points)
        self.round_points = set()

    def _span_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                parent = stack[-1] if stack else -1
                rec = [name, clock(), 0.0, parent, 0.0, 0, self.round]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[END] = end = clock()
                    stack.pop()
                    if parent >= 0:
                        spans[parent][CHILD] += end - rec[START]

            return traced

        return make

    def _metric_key(self, spec: Any) -> int:
        key = self._metric_ids.get(id(spec))
        if key is None:
            key = self._metric_index.setdefault(spec, len(self._metric_index))
            self._metric_ids[id(spec)] = key
            self._metrics_alive.append(spec)
        return key

    def _matrix_wrapper(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def matrix(spec, point):
            start = clock()
            try:
                return fn(spec, point)
            finally:
                took = clock() - start
                self.matrix_calls += 1
                self.matrix_s += took
                if stack:
                    rec = spans[stack[-1]]
                    rec[CHILD] += took
                    rec[MCALLS] += 1
                self.round_points.add((self._metric_key(spec), *map(float, point)))

        return matrix


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls and inclusive seconds of its outermost spans, and self seconds of all."""
    layer_of = {t.replace(":", "."): layer for layer, targets in LAYERS.items() for t in targets}
    out = {layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for rec in spans:
        layer = layer_of[rec[NAME]]
        stats = out[layer]
        duration = rec[END] - rec[START]
        stats["self_s"] += duration - rec[CHILD]
        parent = rec[PARENT]
        while parent >= 0 and layer_of[spans[parent][NAME]] != layer:
            parent = spans[parent][PARENT]
        if parent < 0:
            stats["calls"] += 1
            stats["incl_s"] += duration
    return out
