"""Work units: one config's episode range, the unit a sweep dedupes on.

Every paper artifact is a sweep of independent ``(config, episode-range)``
jobs, and episodes are bit-deterministic functions of ``(SEOConfig, episode
index)``.  So two units with equal configs and equal ranges produce equal
reports, and :class:`~repro.runtime.sweep.SweepRunner` runs such units once:
it deduplicates and routes a batch on :attr:`WorkUnit.key`, the hashable
``(config, episode_start, episode_stop)``.  Configs are frozen dataclasses
compared field by field, so a config built from numpy scalars equals (and
hashes like) the same config built from Python literals.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.framework import SEOConfig

__all__ = ["WorkUnit"]


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One unit of sweep work: a config and an episode range.

    Attributes:
        config: The configuration to run.
        episode_start: First episode index (inclusive).
        episode_stop: One past the last episode index.
    """

    config: SEOConfig
    episode_start: int
    episode_stop: int

    def __post_init__(self) -> None:
        if self.episode_start < 0:
            raise ValueError("episode_start must be non-negative")
        if self.episode_stop <= self.episode_start:
            raise ValueError("episode range must be non-empty")

    @functools.cached_property
    def key(self) -> tuple[SEOConfig, int, int]:
        """The unit's identity: ``(config, episode_start, episode_stop)``.

        Equal units have equal keys; any change to any nested config field
        or to the range changes the key.
        """
        return (self.config, self.episode_start, self.episode_stop)
