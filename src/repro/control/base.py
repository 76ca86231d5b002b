"""Controller interface and the aggregated control-input container.

In the paper the controller ``pi`` consumes the aggregate predictions Theta
from both model subsets (Fig. 2).  :class:`ControlInputs` is the concrete form
of that aggregate in this reproduction: ego motion state, lane-relative pose
and the nearest perceived obstacle.  The critical subset's feature vector
Theta'' has no counterpart: the VAE is charged only as an energy profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynamics.state import ControlAction
from repro.sim.world import World


@dataclass(frozen=True)
class ControlInputs:
    """Aggregated inputs Theta for the downstream controller.

    Attributes:
        speed_mps: Current ego speed.
        target_speed_mps: Desired cruise speed.
        lateral_offset_m: Signed lateral (Frenet) distance from the lane
            centreline.
        heading_rad: Ego heading relative to the road direction (the
            centreline tangent at the vehicle's arc-length position).
        obstacle_distance_m: Distance to the nearest perceived obstacle
            surface, or None when nothing is perceived.
        obstacle_bearing_rad: Bearing of that obstacle, or None.
        obstacle_stale: True when the obstacle information comes from a
            gated (reused) perception output.
        road_half_width_m: Half-width of the drivable corridor.
        road_curvature_per_m: Signed centreline curvature at the vehicle's
            position (positive for left turns, zero on straight roads);
            lets controllers feed the road shape forward into steering.
    """

    speed_mps: float
    target_speed_mps: float
    lateral_offset_m: float
    heading_rad: float
    obstacle_distance_m: float | None = None
    obstacle_bearing_rad: float | None = None
    obstacle_stale: bool = False
    road_half_width_m: float = 4.0
    road_curvature_per_m: float = 0.0

    def __post_init__(self) -> None:
        if (self.obstacle_distance_m is None) != (self.obstacle_bearing_rad is None):
            raise ValueError(
                "obstacle_distance_m and obstacle_bearing_rad must be provided together"
            )

    @property
    def has_obstacle(self) -> bool:
        """True if an obstacle is currently perceived."""
        return self.obstacle_distance_m is not None

    @classmethod
    def from_world(cls, world: World, target_speed_mps: float) -> "ControlInputs":
        """Build inputs from ground truth (used by :class:`~repro.sim.episode.EpisodeRunner`)."""
        view = world.nearest_obstacle_view()
        distance, bearing = (None, None)
        if view is not None:
            distance, bearing, _ = view
        pose = world.lane_pose()
        return cls(
            speed_mps=world.state.speed_mps,
            target_speed_mps=target_speed_mps,
            lateral_offset_m=pose.lateral_offset_m,
            heading_rad=pose.heading_error_rad,
            obstacle_distance_m=distance,
            obstacle_bearing_rad=bearing,
            obstacle_stale=False,
            road_half_width_m=world.road.half_width_m,
            road_curvature_per_m=pose.curvature_per_m,
        )


class Controller:
    """Base class for all controllers."""

    #: Cruise speed used when building inputs from ground truth.
    target_speed_mps: float = 8.0

    def act_from_inputs(self, inputs: ControlInputs) -> ControlAction:
        """Return a control action for aggregated perception inputs."""
        raise NotImplementedError

    def act(self, world: World) -> ControlAction:
        """Return a control action from ground truth world state."""
        return self.act_from_inputs(
            ControlInputs.from_world(world, self.target_speed_mps)
        )
