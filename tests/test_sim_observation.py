"""Tests for range-scan observations and closed-loop episodes."""

import dataclasses
import math

import pytest

from repro.core.framework import SEOConfig, SEOFramework
from repro.dynamics.state import VehicleState
from repro.experiments.common import ExperimentSettings, standard_config
from repro.experiments.suite import suite_cells
from repro.runtime.batch import run_cells
from repro.runtime.sweep import SweepRunner, sweep_jobs
from repro.sim.obstacles import Obstacle
from repro.sim.observation import RangeScanner
from repro.sim.road import Road
from repro.sim.scenario import DEFAULT_SUITE, ScenarioConfig
from repro.sim.world import World


def _world_with_single_obstacle(distance: float = 10.0) -> World:
    return World(
        road=Road(width_m=60.0),
        obstacles=[Obstacle(x_m=distance, y_m=0.0, radius_m=1.0)],
        state=VehicleState(x_m=0.0, y_m=0.0, heading_rad=0.0, speed_mps=5.0),
    )


class TestRangeScanner:
    def test_scan_length_matches_num_beams(self):
        scanner = RangeScanner(num_beams=16)
        world = _world_with_single_obstacle()
        assert scanner.scan(world).shape == (16,)

    def test_obstacle_ahead_shortens_central_beam(self):
        scanner = RangeScanner(num_beams=31, max_range_m=40.0)
        world = _world_with_single_obstacle(distance=10.0)
        scan = scanner.scan(world)
        central = scan[len(scan) // 2]
        assert central == pytest.approx(9.0, abs=0.2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RangeScanner(num_beams=1)
        with pytest.raises(ValueError):
            RangeScanner(max_range_m=0.0)

    def test_beam_angles_span_fov(self):
        scanner = RangeScanner(num_beams=5, fov_rad=math.radians(90))
        angles = scanner.beam_angles()
        assert angles[0] == pytest.approx(-math.radians(45))
        assert angles[-1] == pytest.approx(math.radians(45))


@pytest.fixture(scope="module")
def shield_episodes():
    """Episode reports per ``(controller, filtered)`` on the standard offload
    configuration at 20 episodes and 1200 steps: one ``run_cells`` call per
    controller, each with an unfiltered and a filtered cell."""
    settings = ExperimentSettings(episodes=20, max_steps=1200, seed=0)
    episodes = {}
    for controller in ("heuristic", "pure_pursuit"):
        cells = [
            (
                SEOFramework(
                    dataclasses.replace(
                        standard_config(settings, "offload", filtered=filtered),
                        controller=controller,
                    )
                ),
                range(settings.episodes),
            )
            for filtered in (False, True)
        ]
        for filtered, reports in zip((False, True), run_cells(cells), strict=True):
            episodes[controller, filtered] = reports
    return episodes


def _collision_rate(reports):
    return sum(report.collided for report in reports) / len(reports)


def _off_road_rate(reports):
    return sum(report.off_road for report in reports) / len(reports)


class TestEpisodeRunner:
    """Closed-loop episodes on the engine: the controllers, the safety
    filter and the episode bounds."""

    def _run(self, small_lookup_grid, **overrides):
        config = SEOConfig(
            scenario=ScenarioConfig(num_obstacles=0, seed=1),
            filtered=False,
            lookup_grid=small_lookup_grid,
            seed=1,
        )
        return SEOFramework(dataclasses.replace(config, **overrides)).run_episode(0)

    def test_empty_road_is_completed(self, small_lookup_grid):
        report = self._run(
            small_lookup_grid, scenario=ScenarioConfig(num_obstacles=0, road_length_m=40.0, seed=1)
        )
        assert report.completed
        assert not report.collided and not report.off_road

    def test_max_steps_bounds_episode_length(self, small_lookup_grid):
        report = self._run(small_lookup_grid, max_steps=10)
        assert report.steps == 10
        assert not report.completed

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="tau_s"):
            SEOConfig(tau_s=0.0)
        with pytest.raises(ValueError, match="max_steps"):
            SEOConfig(max_steps=0)

    def test_obstacle_course_with_heuristic_controller(self, shield_episodes):
        assert _collision_rate(shield_episodes["heuristic", False]) == 0.0

    def test_pure_pursuit_collides_without_filter(self, shield_episodes):
        # The obstacle-blind controller must collide.
        assert _collision_rate(shield_episodes["pure_pursuit", False]) > 0.0

    def test_safety_filter_reduces_collisions_for_blind_controller(self, shield_episodes):
        filtered = shield_episodes["pure_pursuit", True]
        assert _collision_rate(filtered) < _collision_rate(shield_episodes["pure_pursuit", False])
        assert sum(report.shield_interventions for report in filtered) > 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 8: the shield raises the heuristic's collision "
        "rate on this configuration (0.00 unfiltered, 0.50 filtered)",
    )
    def test_shield_never_raises_heuristic_collisions(self, shield_episodes):
        filtered = _collision_rate(shield_episodes["heuristic", True])
        assert filtered <= _collision_rate(shield_episodes["heuristic", False])


#: The families on which the shield raises the heuristic's collision rate
#: (ROADMAP item 8): 0.3-0.5 filtered against 0.0-0.2 unfiltered.
_SHIELD_FAILS_ON = {
    "curved-road",
    "dense-traffic",
    "moving-traffic",
    "obstacle-course",
    "sensor-dropout",
}


@pytest.fixture(scope="module")
def family_episodes():
    """Episode reports per ``(family, filtered)``: every ``DEFAULT_SUITE``
    family under offload with the heuristic controller (the suite's cells),
    10 episodes of up to 1500 steps, both control cases in one sweep."""
    settings = ExperimentSettings(episodes=10, max_steps=1500, seed=0)
    cells = {
        (family, filtered): dataclasses.replace(config, filtered=filtered)
        for family, config in suite_cells(settings).items()
        for filtered in (False, True)
    }
    return SweepRunner().run(sweep_jobs(cells, settings.episodes))


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(
            family,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 8: the shield raises the heuristic's "
                "collision rate on this family",
            ),
        )
        if family in _SHIELD_FAILS_ON
        else family
        for family in DEFAULT_SUITE.names()
    ],
)
def test_shield_never_raises_collisions_or_off_road(family, family_episodes):
    unfiltered = family_episodes[family, False]
    filtered = family_episodes[family, True]
    assert _collision_rate(filtered) <= _collision_rate(unfiltered)
    assert _off_road_rate(filtered) <= _off_road_rate(unfiltered)
