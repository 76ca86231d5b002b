"""Offloading under wireless uncertainty.

Task offloading only saves energy when the server response comes back before
the safety deadline; otherwise the local model is re-invoked as a fallback
(paper Section V-A).  This study sweeps the quality of the Wi-Fi link (the
Rayleigh scale of the effective data rate) and the offload payload size, and
reports how the energy gains and the fallback rate respond.

Run with:  python examples/offloading_under_wireless_uncertainty.py
"""

from dataclasses import replace

from repro.analysis.metrics import aggregate_reports
from repro.analysis.tables import format_table
from repro.cli import run_artifacts
from repro.core import SEOConfig
from repro.experiments.common import ExperimentSettings
from repro.sim import ScenarioConfig

CHANNEL_SCALES_MBPS = (5.0, 10.0, 20.0, 40.0)
PAYLOADS_BYTES = (14_000, 28_000, 84_000)
SETTINGS = ExperimentSettings(episodes=4, max_steps=1200, seed=0)


def link_cells(settings):
    """One offloading cell per (Rayleigh scale, payload size)."""
    base = SEOConfig(
        scenario=ScenarioConfig(num_obstacles=3, seed=settings.seed),
        optimization="offload",
        filtered=True,
        max_steps=settings.max_steps,
        seed=settings.seed,
    )
    return {
        (scale, payload): replace(base, channel_scale_mbps=scale, payload_bytes=payload)
        for scale in CHANNEL_SCALES_MBPS
        for payload in PAYLOADS_BYTES
    }


def link_rows(reports_by_label):
    """One table row per cell, in declaration order."""
    rows = []
    for (scale, payload), reports in reports_by_label.items():
        summary = aggregate_reports(reports)
        offloads = max(1, summary.offloads_issued)
        rows.append(
            [
                scale,
                payload // 1000,
                100.0 * summary.average_model_gain,
                summary.offloads_issued,
                100.0 * summary.offload_deadline_misses / offloads,
            ]
        )
    return rows


def main() -> None:
    # Every cell runs in one sweep.
    rows = run_artifacts({"link": (link_cells, link_rows)}, SETTINGS)["link"]

    print(
        format_table(
            [
                "Rayleigh scale [Mbit/s]",
                "payload [kB]",
                "avg gain [%]",
                "offloads issued",
                "deadline misses [%]",
            ],
            rows,
            title="Safety-aware offloading vs. wireless link quality",
        )
    )
    print()
    print(
        "Reading: a weaker link or a larger payload stretches the expected\n"
        "response time delta_hat; the scheduler then either skips the offload\n"
        "(running locally) or pays the fallback re-invocation, so the gains\n"
        "collapse gracefully instead of violating the safety deadline."
    )


if __name__ == "__main__":
    main()
