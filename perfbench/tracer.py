"""Outside-in per-layer tracing of the ``repro`` layers.

:class:`Tracer` times calls into each layer's public functions without
touching ``src/``: it rebinds every function listed in :data:`LAYERS` where
it is defined *and* in every ``repro`` module that imported it by name (the
batch engine imports ``rk4_plant_batch``, ``nearest_per_row`` and the
scheduler kernels directly).  Each call records a span ``(name, start, end,
parent, run)`` in memory; :meth:`Tracer.write` saves them when the run ends.
A span's self time is its duration minus the time its child spans cover.

Only ``--trace 1`` runs import this module, so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections.abc import Callable
from pathlib import Path
from time import perf_counter
from typing import Any

#: ``(module under repro, label, attributes)``: the metric prefix is
#: ``<module>.<label>``; several attributes under one label are aggregated.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("runtime.batch", "run_batch", ("run_batch",)),
    ("runtime.sweep", "SweepRunner.run", ("SweepRunner.run",)),
    ("runtime.workunit", "WorkUnit.key", ("WorkUnit.key",)),
    ("runtime.cache", "LookupTableCache.get_or_build", ("LookupTableCache.get_or_build",)),
    ("core.framework", "SEOFramework.__init__", ("SEOFramework.__init__",)),
    ("core.framework", "SEOFramework.run_episode", ("SEOFramework.run_episode",)),
    ("core.lookup", "DeadlineLookupTable.build", ("DeadlineLookupTable.build",)),
    ("core.lookup", "DeadlineLookupTable.query_batch", ("DeadlineLookupTable.query_batch",)),
    ("core.intervals", "SafeIntervalEstimator.estimate_batch",
     ("SafeIntervalEstimator.estimate_batch",)),
    ("core.scheduler", "kernels", (
        "discretized_deadline_kernel",
        "begin_interval_kernel",
        "natural_slot_kernel",
        "full_slot_kernel",
        "deadline_done_kernel",
        "finish_period_kernel",
    )),
    ("core.scheduler", "SafeRuntimeScheduler.step", ("SafeRuntimeScheduler.step",)),
    ("core.safety", "BrakingDistanceBarrier.evaluate_batch",
     ("BrakingDistanceBarrier.evaluate_batch",)),
    ("core.shield", "SteeringShield.filter_batch", ("SteeringShield.filter_batch",)),
    ("control.heuristic", "ObstacleAvoidanceController.act_batch",
     ("ObstacleAvoidanceController.act_batch",)),
    ("perception.detector", "DetectorModel.detect_batch", ("DetectorModel.detect_batch",)),
    ("perception.detector", "DetectorModel.infer", ("DetectorModel.infer",)),
    ("perception.detector", "group_scan_rows", ("group_scan_rows",)),
    ("perception.detections", "nearest_per_row", ("nearest_per_row",)),
    ("sim.world", "World.nearest_obstacle_view_batch", ("World.nearest_obstacle_view_batch",)),
    ("sim.world", "World.step", ("World.step",)),
    ("sim.world", "World.status", ("World.status",)),
    ("sim.road", "Centerline.project_batch", ("Centerline.project_batch",)),
    ("sim.road", "Centerline.heading_at_batch", ("Centerline.heading_at_batch",)),
    ("sim.road", "Centerline.curvature_at_batch", ("Centerline.curvature_at_batch",)),
    ("sim.observation", "RangeScanner.scan", ("RangeScanner.scan",)),
    ("sim.scenario", "build_world", ("build_world",)),
    ("dynamics.bicycle", "rk4_plant_batch", ("rk4_plant_batch",)),
    ("comm.offload", "OffloadPlanner.sample", ("OffloadPlanner.sample",)),
    ("analysis.metrics", "aggregate_reports", ("aggregate_reports",)),
    ("analysis.tables", "format_table", ("format_table",)),
)

#: Imported before wrapping so every by-name import already exists to rebind.
_ENTRY_MODULES = ("repro.cli", "repro.runtime.batch")


#: Layers made of ``@kernel_contract`` kernels: they also report ``elems``,
#: the leading dim of the first declared array argument.
KERNELS = frozenset({
    "core.lookup.DeadlineLookupTable.query_batch",
    "core.intervals.SafeIntervalEstimator.estimate_batch",
    "core.scheduler.kernels",
    "core.safety.BrakingDistanceBarrier.evaluate_batch",
    "core.shield.SteeringShield.filter_batch",
    "control.heuristic.ObstacleAvoidanceController.act_batch",
    "perception.detector.DetectorModel.detect_batch",
    "perception.detector.group_scan_rows",
    "perception.detections.nearest_per_row",
    "sim.world.World.nearest_obstacle_view_batch",
    "sim.road.Centerline.project_batch",
    "sim.road.Centerline.heading_at_batch",
    "sim.road.Centerline.curvature_at_batch",
    "dynamics.bicycle.rk4_plant_batch",
})


def layer_names() -> list[str]:
    return [f"{module}.{label}" for module, label, _ in LAYERS]


def _leading_dim(value: Any) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    return len(value) if isinstance(value, (list, tuple)) else 1


class Tracer:
    """Wraps the :data:`LAYERS` functions and records one span per call."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent index, run id, elems)``; elems is -1
        #: for functions without a kernel contract.
        self.spans: list[Any] = []
        self.run = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        position, param = -1, ""
        if name in KERNELS:
            contract = getattr(fn, "__kernel_contract__", None)
            if contract is None or not contract.params:
                raise RuntimeError(f"{name}: no kernel contract to count elems by")
            param = contract.params[0][0]
            position = list(inspect.signature(fn).parameters).index(param)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            elems = -1
            if position >= 0:
                elems = _leading_dim(args[position] if len(args) > position else kwargs[param])
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run, elems)

        return traced

    def install(self) -> None:
        """Import the ``repro`` layers and rebind every listed function."""
        for module in _ENTRY_MODULES:
            importlib.import_module(module)
        rebinds: dict[int, Any] = {}
        for module_name, label, paths in LAYERS:
            name = f"{module_name}.{label}"
            module = importlib.import_module(f"repro.{module_name}")
            for path in paths:
                *parents, attr = path.split(".")
                owner = functools.reduce(getattr, parents, module)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(owner, attr, type(raw)(self._wrap(name, raw.__func__)))
                elif isinstance(raw, functools.cached_property):
                    prop = functools.cached_property(self._wrap(name, raw.func))
                    prop.__set_name__(owner, attr)
                    setattr(owner, attr, prop)
                else:
                    traced = self._wrap(name, raw)
                    setattr(owner, attr, traced)
                    if owner is module:
                        rebinds[id(raw)] = traced
        # Module-level functions imported by name elsewhere in the package.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                traced = rebinds.get(id(value))
                if traced is not None:
                    setattr(mod, attr, traced)

    def aggregate(self, run: int | None = None) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``elems`` and ``self_s`` (optionally one run id)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {name: {"calls": 0, "elems": 0, "self_s": 0.0} for name in layer_names()}
        for index, (name, start, end, _, span_run, elems) in enumerate(self.spans):
            if run is not None and span_run != run:
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["elems"] += max(elems, 0)
            entry["self_s"] += end - start - covered[index]
        return stats

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, run, _ in self.spans:
                handle.write(
                    json.dumps([name, start - origin, end - origin, parent, run]) + "\n"
                )
