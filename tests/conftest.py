"""Shared fixtures for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.framework import SEOConfig, SEOFramework
from repro.core.intervals import SafeIntervalEstimator
from repro.core.lookup import LookupGrid
from repro.core.models import ModelSet, SensoryModel
from repro.platform.compute import ComputeProfile
from repro.platform.presets import DRIVE_PX2_RESNET152, ZED_CAMERA, ZERO_POWER_SENSOR
from repro.sim.scenario import ScenarioConfig, build_world
from repro.sim.world import World


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_world():
    """A small deterministic world with two obstacles."""
    return build_world(ScenarioConfig(num_obstacles=2, seed=3))


@pytest.fixture
def empty_world():
    """A world without obstacles."""
    return build_world(ScenarioConfig(num_obstacles=0, seed=3))


@pytest.fixture
def obstacle_view():
    """``view(world) -> (surface_distance, bearing, index)``: the nearest
    threat of a world, read the way the engine reads it, from
    :meth:`World.nearest_obstacle_view_batch` on the world's one row.

    A world without obstacles gets one padded slot and reads the
    no-obstacle view (the sentinel distance, bearing 0, index -1).
    """

    def view(world):
        slots = [(o.x_m, o.y_m, o.radius_m) for o in world.obstacles] or [(0.0, 0.0, 0.0)]
        obs_x, obs_y, obs_r = (np.array([column], dtype=float) for column in zip(*slots, strict=True))
        state = world.state
        surface, bearing, index = World.nearest_obstacle_view_batch(
            np.array([state.x_m]),
            np.array([state.y_m]),
            np.array([state.heading_rad]),
            obs_x,
            obs_y,
            obs_r,
            np.full(obs_x.shape, bool(world.obstacles)),
        )
        return float(surface[0]), float(bearing[0]), int(index[0])

    return view


@pytest.fixture
def two_detector_model_set() -> ModelSet:
    """The paper's pipeline: one critical VAE + two detectors (p=tau, p=2tau)."""
    tau = 0.02
    return ModelSet.from_models(
        [
            SensoryModel(
                name="vae",
                period_s=tau,
                compute=ComputeProfile(name="vae", latency_s=0.004, power_w=4.0),
                sensor=ZERO_POWER_SENSOR,
                critical=True,
            ),
            SensoryModel(
                name="det-fast",
                period_s=tau,
                compute=DRIVE_PX2_RESNET152,
                sensor=ZED_CAMERA,
            ),
            SensoryModel(
                name="det-slow",
                period_s=2 * tau,
                compute=DRIVE_PX2_RESNET152,
                sensor=ZED_CAMERA,
            ),
        ]
    )


@pytest.fixture
def sweep_spy(monkeypatch) -> SimpleNamespace:
    """Record the frameworks the sweep task builds and runs in this process.

    ``built`` lists every framework :func:`repro.runtime.sweep.run_ranges`
    constructs, ``calls`` the cell frameworks of each engine call.
    """
    from repro.runtime import sweep as sweep_module

    spy = SimpleNamespace(built=[], calls=[])
    run_cells = sweep_module.run_cells

    def build(config):
        framework = SEOFramework(config)
        spy.built.append(framework)
        return framework

    def record(cells, timings=None):
        spy.calls.append([framework for framework, _ in cells])
        return run_cells(cells, timings)

    monkeypatch.setattr(sweep_module, "SEOFramework", build)
    monkeypatch.setattr(sweep_module, "run_cells", record)
    return spy


@pytest.fixture
def recorded_pools(monkeypatch) -> list:
    """Make the sweep build pools that record their size and stay referenced,
    so only ``shutdown()`` can end their workers; lists the pools built."""
    from repro.runtime import sweep as sweep_module

    pools = []

    class RecordingPool(sweep_module.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.size = max_workers
            pools.append(self)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", RecordingPool)
    return pools


@pytest.fixture
def small_lookup_grid() -> LookupGrid:
    """A coarse grid so lookup-table construction stays fast in tests."""
    return LookupGrid(
        max_distance_m=30.0,
        distance_step_m=5.0,
        num_bearings=5,
        max_speed_mps=12.0,
        speed_step_mps=4.0,
        num_steering_bins=3,
        num_throttle_bins=3,
    )


@pytest.fixture
def fast_estimator() -> SafeIntervalEstimator:
    """An estimator with the default barrier and an 80 ms horizon."""
    return SafeIntervalEstimator(horizon_s=0.08, step_s=0.005)


@pytest.fixture
def fast_seo_config(small_lookup_grid) -> SEOConfig:
    """A small, fast SEO configuration for integration tests."""
    return SEOConfig(
        scenario=ScenarioConfig(num_obstacles=2, road_length_m=60.0, seed=5),
        optimization="offload",
        filtered=True,
        lookup_grid=small_lookup_grid,
        max_steps=500,
        seed=5,
    )
