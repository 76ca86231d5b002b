"""Tests for the perception models (the range-scan detector)."""


import pytest

from repro.perception.detections import Detection, DetectionSet
from repro.perception.detector import DetectorModel
from repro.sim.obstacles import Obstacle
from repro.sim.road import Road
from repro.sim.world import World
from repro.dynamics.state import VehicleState


def _world(obstacles):
    return World(
        road=Road(width_m=40.0),
        obstacles=obstacles,
        state=VehicleState(speed_mps=5.0),
    )


class TestDetectionContainers:
    def test_detection_validation(self):
        with pytest.raises(ValueError):
            Detection(distance_m=-1.0, bearing_rad=0.0)
        with pytest.raises(ValueError):
            Detection(distance_m=1.0, bearing_rad=0.0, confidence=2.0)

    def test_nearest_returns_closest(self):
        detections = DetectionSet(
            detections=[
                Detection(distance_m=10.0, bearing_rad=0.1),
                Detection(distance_m=4.0, bearing_rad=-0.2),
            ]
        )
        assert detections.nearest().distance_m == 4.0

    def test_nearest_empty_is_none(self):
        assert DetectionSet().nearest() is None


class TestDetectorModel:
    def test_detects_single_obstacle_ahead(self):
        detector = DetectorModel(name="det", range_noise_std_m=0.0, bearing_noise_std_rad=0.0)
        world = _world([Obstacle(x_m=12.0, y_m=0.0, radius_m=1.0)])
        result = detector.infer(world, detector.noise_source(1))
        assert len(result) >= 1
        nearest = result.nearest()
        assert nearest.distance_m == pytest.approx(11.0, abs=0.5)
        assert abs(nearest.bearing_rad) < 0.2

    def test_detects_two_separated_obstacles(self):
        detector = DetectorModel(name="det", range_noise_std_m=0.0, bearing_noise_std_rad=0.0)
        world = _world(
            [
                Obstacle(x_m=12.0, y_m=-5.0, radius_m=1.0),
                Obstacle(x_m=12.0, y_m=5.0, radius_m=1.0),
            ]
        )
        result = detector.infer(world, detector.noise_source(1))
        assert len(result) == 2
        bearings = sorted(det.bearing_rad for det in result.detections)
        assert bearings[0] < 0 < bearings[1]

    def test_empty_world_yields_no_detections(self):
        detector = DetectorModel(name="det")
        assert len(detector.infer(_world([]), detector.noise_source(1))) == 0

    def test_obstacle_behind_is_not_detected(self):
        detector = DetectorModel(name="det")
        world = _world([Obstacle(x_m=-10.0, y_m=0.0, radius_m=1.0)])
        assert len(detector.infer(world, detector.noise_source(1))) == 0

    def test_rate_and_energy_properties(self):
        detector = DetectorModel(name="det", period_s=0.02)
        assert detector.rate_hz == pytest.approx(50.0)
        assert detector.local_inference_energy_j() == pytest.approx(0.017 * 7.0)

    def test_describe_mentions_rate(self):
        assert "50 Hz" in DetectorModel(name="det", period_s=0.02).describe()

    def test_fresh_noise_source_replays_the_sequence(self):
        """Each fresh ``noise_source`` replays the detector seed; one source
        drawn from twice moves on."""
        detector = DetectorModel(name="det", range_noise_std_m=0.3, seed=5)
        world = _world([Obstacle(x_m=12.0, y_m=0.0, radius_m=1.0)])
        noise = detector.noise_source(1)
        first = detector.infer(world, noise).nearest().distance_m
        again = detector.infer(world, noise).nearest().distance_m
        replayed = detector.infer(world, detector.noise_source(1)).nearest().distance_m
        assert replayed == first != again
