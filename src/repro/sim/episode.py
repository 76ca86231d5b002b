"""Closed-loop episode runner (controller + optional safety filter).

This runner drives the plain control loop — perception-free, reading ground
truth from the world — and is used to check that the safety filter keeps
episodes collision free.  The full SEO
runtime loop (Algorithm 1), which additionally schedules the perception
models and accounts energy, lives in :mod:`repro.core.framework`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.dynamics.state import ControlAction, VehicleState
from repro.sim.world import World


class SupportsAct(Protocol):
    """Anything that maps a world snapshot to a control action."""

    def act(self, world: World) -> ControlAction:  # pragma: no cover - protocol
        """Return the control action for the current world state."""
        ...


class SupportsFilter(Protocol):
    """Anything that filters a raw control action given the world state."""

    def filter(
        self, world: World, control: ControlAction
    ) -> ControlAction:  # pragma: no cover - protocol
        """Return the (possibly corrected) control action."""
        ...


@dataclass
class EpisodeResult:
    """Outcome of a closed-loop episode."""

    states: list[VehicleState] = field(default_factory=list)
    controls: list[ControlAction] = field(default_factory=list)
    collided: bool = False
    off_road: bool = False
    completed: bool = False
    steps: int = 0
    duration_s: float = 0.0
    progress: float = 0.0
    filter_interventions: int = 0

    @property
    def success(self) -> bool:
        """True if the route was completed without collision or road exit."""
        return self.completed and not self.collided and not self.off_road


@dataclass
class EpisodeRunner:
    """Runs a controller (optionally behind a safety filter) to completion.

    Attributes:
        world: The driving world; it is reset at the start of every run.
        controller: Object with an ``act(world)`` method.
        safety_filter: Optional object with a ``filter(world, control)``
            method applied to every raw control action (the paper's
            "filtered" control case).
        dt_s: Control-loop period; the paper's base period tau.
        max_steps: Hard cap on the number of control steps.
    """

    world: World
    controller: SupportsAct
    safety_filter: SupportsFilter | None = None
    dt_s: float = 0.02
    max_steps: int = 2000

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")

    def run(self, initial_state: VehicleState | None = None) -> EpisodeResult:
        """Run one episode and return its result."""
        state = self.world.reset(initial_state)
        result = EpisodeResult(states=[state])

        for _ in range(self.max_steps):
            raw_control = self.controller.act(self.world)
            control = raw_control
            if self.safety_filter is not None:
                control = self.safety_filter.filter(self.world, raw_control)
                if control != raw_control:
                    result.filter_interventions += 1
            state = self.world.step(control, self.dt_s)
            result.states.append(state)
            result.controls.append(control)
            result.steps += 1

            status = self.world.status()
            if status.done:
                result.collided = status.collided
                result.off_road = status.off_road
                result.completed = status.finished
                break

        result.duration_s = result.steps * self.dt_s
        result.progress = self.world.progress()
        return result
