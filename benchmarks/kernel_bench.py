"""Kernel micro-bench: microseconds per call of every ``@kernel_contract`` kernel.

Finds every kernel the ``repro`` package declares with
:func:`repro.contracts.kernel_contract`, builds its inputs from the declared
specs at each row count ``N`` and times repeated calls.  It reports
microseconds per call and nanoseconds per element (per row), so the fixed
cost of a kernel at ``N = 1`` and its per-row cost at large ``N`` read off
one table.

Run from the repository root::

    PYTHONPATH=src python benchmarks/kernel_bench.py
    PYTHONPATH=src python benchmarks/kernel_bench.py --sizes 1 --repeat 1 --min-time 0

Inputs, from the spec:

* the *row symbol* (``N``, else ``I``, else ``R``, else the leading dim of
  the first declared array) takes the row count; the other symbols take the
  counts of a default curved-road ``SEOFramework`` and its world (see
  :class:`Inputs`);
* ``float64`` arrays are uniform in ``[0, 1)`` from a fixed seed, ``int64``
  arrays are ones (``indices`` arrays are ``0 .. N - 1``), ``bool`` arrays
  are all ``True``;
* except the range scan's poses and obstacles, which come from the curved-road
  world (see :func:`scan_arrays`): uniform poses would sit inside every
  circle, a case that casts the whole fan and that the engine never meets;
* scalar ``float``/``int`` parameters take ``0.02`` (the paper's ``tau``)
  and ``1``, parameters with defaults keep them, and the receiver and the
  row-state objects (``ModeRows``, ``SchedulerState``, ``EnergyColumns``,
  ``DrawStream``) come from a default curved-road ``SEOFramework``.

A kernel whose inputs cannot be built that way, or that raises on them, is
listed as skipped with the reason.  The process exits non-zero only when
the bench itself fails.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import pkgutil
import sys
import timeit
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

import repro
from repro.comm.offload import OffloadPlanner
from repro.contracts import ArraySpec, KernelContract
from repro.core.framework import SEOConfig, SEOFramework
from repro.core.optimizations import ModeRows
from repro.core.scheduler import EnergyColumns, SchedulerState
from repro.core.shield import SteeringShield
from repro.core.intervals import SafeIntervalEstimator
from repro.core.lookup import DeadlineLookupTable
from repro.perception.detector import DetectorModel
from repro.sim.observation import RangeScanner
from repro.sim.road import Centerline
from repro.sim.scenario import DEFAULT_SUITE, build_world
from repro.sim.world import World
from repro.streams import DrawStream

DEFAULT_SIZES = (1, 64, 1024)
SCALAR_FLOAT = 0.02
SCALAR_INT = 1
_ROW_SYMBOLS = ("N", "I", "R")


def iter_kernels() -> Iterator[tuple[str, Callable[..., Any], type | None]]:
    """``(qualified name, kernel, owner class or None)`` of every declared kernel."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and hasattr(value, "__kernel_contract__"):
                yield f"{module.__name__}.{name}", value, None
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    static = isinstance(member, staticmethod)
                    function = member.__func__ if static else member
                    if hasattr(function, "__kernel_contract__"):
                        owner = None if static else value
                        yield f"{module.__name__}.{name}.{attr}", function, owner


class Inputs:
    """Builds a kernel's arguments from its contract at one row count."""

    def __init__(self) -> None:
        config = SEOConfig(scenario=DEFAULT_SUITE.build("curved-road", seed=0))
        framework = SEOFramework(config)
        world = build_world(config.scenario, rng=np.random.default_rng(0))
        detector = next(iter(framework.detectors.values()))
        models = framework.model_set
        optimizable = len(models.optimizable)
        obstacles = len(world.obstacles)
        draws = framework.offload_planner.draws_per_sample
        #: Sizes of the symbols other than the row symbol: ``M`` counts the
        #: optimizable (Lambda') models, ``K`` every model, ``B`` the beams.
        self.sizes = {"M": optimizable, "K": len(models), "B": detector.scanner.num_beams}
        #: Per kernel, the symbols that count something else there: ``K`` the
        #: obstacles, ``D`` the draws of one offload, or the entries of
        #: another input, which all-True masks and all-one counts tie to the
        #: row count.
        self.kernel_sizes: dict[str, Callable[[int], dict[str, int]]] = {
            "nearest_obstacle_view_batch": lambda rows: {"K": obstacles},
            "scan_batch": lambda rows: {"K": obstacles},
            "status_batch": lambda rows: {"K": obstacles},
            "sample_batch": lambda rows: {"D": draws},
            "offload_arrival_kernel": lambda rows: {"I": rows * optimizable},
            "nearest_per_row": lambda rows: {"D": rows},
        }
        #: Per kernel, arrays that replace the spec-built inputs of those names.
        self.kernel_arrays: dict[str, Callable[[int], dict[str, np.ndarray]]] = {
            "scan_batch": functools.partial(scan_arrays, world, detector.scanner.max_range_m),
        }
        self.receivers: dict[type, Any] = {
            DeadlineLookupTable: framework.lookup_table,
            SafeIntervalEstimator: framework.estimator,
            DetectorModel: detector,
            RangeScanner: detector.scanner,
            OffloadPlanner: framework.offload_planner,
            Centerline: world.road.centerline,
            SteeringShield: SteeringShield(),
        }
        self.row_objects: dict[type, Callable[[int], Any]] = {
            ModeRows: lambda rows: ModeRows.of(["offload"] * rows),
            SchedulerState: lambda rows: SchedulerState.create(rows, optimizable),
            EnergyColumns: lambda rows: EnergyColumns.create(
                [(framework.model_set, rows)], config.tau_s
            ),
            DrawStream: lambda rows: DrawStream([0] * rows, "standard_normal"),
        }

    def receiver(self, owner: type) -> Any:
        return self.receivers[owner] if owner in self.receivers else owner()

    def arguments(
        self, name: str, kernel: Callable[..., Any], owner: type | None, rows: int
    ) -> list[Any]:
        contract: KernelContract = kernel.__kernel_contract__  # type: ignore[attr-defined]
        specs = contract.param_specs
        symbols = dict(self.sizes)
        symbols[_row_symbol(contract)] = rows
        short = name.rsplit(".", 1)[-1]
        sizes = self.kernel_sizes.get(short)
        if sizes is not None:
            symbols.update(sizes(rows))
        arrays = self.kernel_arrays[short](rows) if short in self.kernel_arrays else {}
        rng = np.random.default_rng(0)
        parameters = list(inspect.signature(kernel, eval_str=True).parameters.values())
        args: list[Any] = []
        if owner is not None:
            args.append(self.receiver(owner))
            parameters = parameters[1:]
        for parameter in parameters:
            spec = specs.get(parameter.name)
            if parameter.name in arrays:
                args.append(arrays[parameter.name])
            elif spec is not None:
                args.append(_array(parameter.name, spec, symbols, rng))
            elif parameter.default is not inspect.Parameter.empty:
                args.append(parameter.default)
            elif parameter.annotation is float:
                args.append(SCALAR_FLOAT)
            elif parameter.annotation is int:
                args.append(SCALAR_INT)
            elif parameter.annotation in self.row_objects:
                args.append(self.row_objects[parameter.annotation](rows))
            elif inspect.isclass(parameter.annotation):
                args.append(parameter.annotation())
            else:
                raise TypeError(
                    f"parameter {parameter.name!r} ({parameter.annotation}) has no "
                    "array spec and no default"
                )
        return args


def scan_arrays(world: World, max_range_m: float, rows: int) -> dict[str, np.ndarray]:
    """Range-scan poses and obstacles of ``rows`` rows from ``world``.

    The poses lie on the centreline, evenly spaced along the approach to the
    first obstacle from scanner range to that obstacle's edge, heading along
    the road, so every row has the first obstacle in reach and no pose is
    inside a circle.  Every row scans the world's placed discs.
    """
    centerline = world.road.centerline
    first = min(world.obstacles, key=lambda disc: centerline.to_frenet(disc.x_m, disc.y_m)[0])
    end = centerline.to_frenet(first.x_m, first.y_m)[0] - first.radius_m
    start = max(0.0, end - max_range_m)
    s = start + (np.arange(rows) + 0.5) / rows * (end - start)
    xs, ys = np.array([centerline.from_frenet(value, 0.0) for value in s]).T
    discs = np.array([(disc.x_m, disc.y_m, disc.radius_m) for disc in world.obstacles])
    obs_x, obs_y, obs_r = (np.tile(column, (rows, 1)) for column in discs.T)
    return {
        "xs": xs, "ys": ys, "hs": centerline.heading_at_batch(s),
        "obs_x": obs_x, "obs_y": obs_y, "obs_r": obs_r,
    }


def _row_symbol(contract: KernelContract) -> str:
    declared = {dim for _, spec in contract.params for dim in spec.dims}
    for symbol in _ROW_SYMBOLS:
        if symbol in declared:
            return symbol
    return contract.params[0][1].dims[0]


def _array(
    name: str, spec: ArraySpec, symbols: dict[str, int], rng: np.random.Generator
) -> np.ndarray:
    shape = tuple(symbols.get(dim, 1) for dim in spec.dims)
    if spec.dtype == "float64":
        return rng.random(shape)
    if spec.dtype == "bool":
        return np.ones(shape, dtype=bool)
    if name == "indices":
        return np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    return np.ones(shape, dtype=spec.dtype)


def time_call(call: Callable[[], Any], repeat: int, min_time_s: float) -> float:
    """Best seconds per call over ``repeat`` rounds of at least ``min_time_s``."""
    timer = timeit.Timer(call)
    once = timer.timeit(number=1)
    number = max(1, int(min_time_s / max(once, 1e-9)))
    return min(timer.repeat(repeat=repeat, number=number)) / number


def run(
    sizes: tuple[int, ...] = DEFAULT_SIZES, repeat: int = 3, min_time_s: float = 0.05
) -> dict[str, Any]:
    """Time every kernel at every size; returns ``{"rows": [...], "skipped": {...}}``."""
    inputs = Inputs()
    rows: list[dict[str, Any]] = []
    skipped: dict[str, str] = {}
    for name, kernel, owner in sorted(iter_kernels(), key=lambda item: item[0]):
        for size in sizes:
            try:
                args = inputs.arguments(name, kernel, owner, size)
                kernel(*args)
            except Exception as error:  # noqa: BLE001 - reported as the skip reason
                skipped[f"{name} [N={size}]"] = f"{type(error).__name__}: {error}"
                continue
            seconds = time_call(functools.partial(kernel, *args), repeat, min_time_s)
            rows.append({
                "kernel": name,
                "n": size,
                "us_per_call": seconds * 1e6,
                "ns_per_elem": seconds * 1e9 / size,
            })
    return {"rows": rows, "skipped": skipped}


def render(result: dict[str, Any]) -> str:
    lines = [f"{'kernel':<62} {'N':>6} {'us/call':>10} {'ns/elem':>12}"]
    for row in result["rows"]:
        lines.append(
            f"{row['kernel']:<62} {row['n']:>6} {row['us_per_call']:>10.2f} "
            f"{row['ns_per_elem']:>12.1f}"
        )
    if result["skipped"]:
        lines.append("skipped:")
        lines.extend(f"  {name}: {reason}" for name, reason in result["skipped"].items())
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--min-time", type=float, default=0.05,
        help="seconds per timing round (0: one call per round)",
    )
    args = parser.parse_args(argv)
    print(render(run(tuple(args.sizes), args.repeat, args.min_time)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
