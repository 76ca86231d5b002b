"""Risk sweep: how energy gains degrade as the route gets more dangerous.

Reproduces the spirit of the paper's Fig. 6 / Table II interactively: the
number of obstacles on the final third of the route is swept, and for each
risk level the script reports the sampled-deadline distribution and the
average energy gains for offloading and model gating, in both the filtered
and unfiltered control cases.

Run with:  python examples/risk_sweep_study.py
"""

from repro.analysis.histograms import delta_histogram
from repro.analysis.metrics import aggregate_reports
from repro.analysis.tables import format_table
from repro.cli import run_artifacts
from repro.experiments.common import ExperimentSettings, standard_config

OBSTACLE_COUNTS = (0, 2, 4)
METHODS = ("offload", "model_gating")
SETTINGS = ExperimentSettings(episodes=5, max_steps=1200, seed=0)


def risk_cells(settings):
    """One cell per (control case, #obstacles, method)."""
    return {
        (filtered, count, method): standard_config(
            settings, optimization=method, filtered=filtered, num_obstacles=count
        )
        for filtered in (False, True)
        for count in OBSTACLE_COUNTS
        for method in METHODS
    }


def risk_rows(reports_by_label):
    """One table row per (control case, #obstacles) from the cells' reports."""
    summaries = {label: aggregate_reports(reports) for label, reports in reports_by_label.items()}
    rows = []
    for filtered in (False, True):
        for count in OBSTACLE_COUNTS:
            gains = {
                method: summaries[filtered, count, method].average_model_gain
                for method in METHODS
            }
            # The deadline columns come from the gating run.
            gating = summaries[filtered, count, "model_gating"]
            histogram = delta_histogram(gating.delta_max_samples)
            rows.append(
                [
                    "filtered" if filtered else "unfiltered",
                    count,
                    100.0 * gains["offload"],
                    100.0 * gains["model_gating"],
                    histogram.mean(),
                    100.0 * histogram.frequency(4),
                ]
            )
    return rows


def main() -> None:
    # Every cell runs in one sweep.
    rows = run_artifacts({"risk": (risk_cells, risk_rows)}, SETTINGS)["risk"]

    print(
        format_table(
            [
                "control",
                "#obstacles",
                "offloading gain [%]",
                "gating gain [%]",
                "mean delta_max",
                "freq(delta_max=4) [%]",
            ],
            rows,
            title="Energy efficiency vs. perceived risk (paper Fig. 6 / Table II)",
        )
    )
    print()
    print(
        "Reading: more obstacles -> shorter safety deadlines -> fewer periods\n"
        "available for optimization -> lower gains.  The filtered case keeps a\n"
        "healthier obstacle distance, so its deadlines (and gains) stay higher."
    )


if __name__ == "__main__":
    main()
