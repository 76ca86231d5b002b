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
def executor_spy(monkeypatch) -> SimpleNamespace:
    """Record the frameworks the in-process executor builds and runs.

    ``built`` lists every framework :mod:`repro.runtime.executor`
    constructs, ``calls`` the cell frameworks of each engine call.
    """
    from repro.runtime import executor as executor_module

    spy = SimpleNamespace(built=[], calls=[])
    run_cells = executor_module.run_cells

    def build(config):
        framework = SEOFramework(config)
        spy.built.append(framework)
        return framework

    def record(cells, timings=None):
        spy.calls.append([framework for framework, _ in cells])
        return run_cells(cells, timings)

    monkeypatch.setattr(executor_module, "SEOFramework", build)
    monkeypatch.setattr(executor_module, "run_cells", record)
    return spy


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
