"""repro — reproduction of the SEO safety-aware energy optimization framework.

SEO (Odema et al., DAC 2023) regulates runtime energy optimizations —
offloading and gating — applied to the non-critical perception models of a
multi-sensor autonomous system, using a *dynamic deadline* derived from the
system's formal safety state, so that energy is saved only when the safety
guarantees allow it.

Package map
-----------

``repro.core``
    The paper's contribution: safety function/filter, safe-interval
    estimation and lookup table, model-subset partition, energy models,
    the optimization-method period kernel, the Algorithm-1 scheduler and the
    :class:`~repro.core.framework.SEOFramework` facade.
``repro.dynamics`` / ``repro.sim``
    The driving substrate standing in for CARLA: kinematic bicycle model,
    segment-based roads and scenario families around the paper's 100 m
    obstacle course, obstacle-only range scans, episode runner.
``repro.perception`` / ``repro.control``
    The functional range-scan detectors of the optimizable subset Lambda',
    and the controllers (heuristic expert, pure pursuit).  The critical
    subset Lambda'' (the paper's VAE) is charged as an energy profile
    (``VAE_COMPUTE_PROFILE`` in :mod:`repro.core.framework`), not run as a
    network.
``repro.platform`` / ``repro.comm``
    Edge-platform compute/sensor power models (Drive PX2, ZED, Navtech,
    Velodyne) and the Rayleigh Wi-Fi offloading substrate.
``repro.analysis`` / ``repro.experiments``
    Aggregation of episode reports into the paper's tables and figures, and
    one experiment driver per table/figure.

Quickstart
----------

>>> from repro.core import SEOConfig, SEOFramework
>>> from repro.sim import ScenarioConfig
>>> config = SEOConfig(
...     scenario=ScenarioConfig(num_obstacles=2),
...     optimization="offload",
...     filtered=True,
... )
>>> framework = SEOFramework(config)
>>> report = framework.run_episode()
>>> report.success, round(report.overall_gain, 3)  # doctest: +SKIP
(True, 0.62)
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
