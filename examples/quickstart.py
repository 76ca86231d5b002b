"""Quickstart: run SEO on the paper's obstacle-course scenario.

Builds the standard pipeline (one always-on VAE for the critical subset, two
ResNet-152-class detectors at p = tau and p = 2 tau for the optimizable
subset), drives the 100 m obstacle course with the safety filter enabled, and
reports the energy gains of safety-aware offloading relative to local
execution.

Run with:  python examples/quickstart.py
"""

from repro.analysis.metrics import aggregate_reports
from repro.analysis.tables import format_table
from repro.core import SEOConfig, SEOFramework
from repro.sim import ScenarioConfig


def main() -> None:
    config = SEOConfig(
        tau_s=0.02,                      # 20 ms base period (50 Hz control loop)
        scenario=ScenarioConfig(num_obstacles=3, seed=0),
        filtered=True,                   # safety filter (controller shield) active
        optimization="offload",          # task offloading over the Wi-Fi link
    )
    framework = SEOFramework(config)

    print("Pipeline:")
    for model in framework.model_set:
        subset = "Lambda'' (critical)" if model.critical else "Lambda' (optimizable)"
        print(
            f"  - {model.name:<22s} period={model.period_s * 1e3:.0f} ms  "
            f"compute={model.compute.latency_s * 1e3:.0f} ms @ {model.compute.power_w:.0f} W  "
            f"[{subset}]"
        )
    print()

    # Every episode, collided or not; aggregate_reports averages the gains
    # over the successful ones, as the paper does.
    summary = aggregate_reports(framework.run(episodes=5))

    rows = [
        [name, 100.0 * gain.mean_gain, gain.mean_energy_j, gain.mean_baseline_j]
        for name, gain in sorted(summary.model_gains.items())
    ]
    print(
        format_table(
            ["detector", "energy gain [%]", "energy [J]", "local baseline [J]"],
            rows,
            title="Safety-aware offloading vs. local execution",
        )
    )
    print()
    print(f"episodes (successful/total): {summary.successful_episodes}/{summary.episodes}")
    print(f"mean sampled deadline delta_max: {summary.mean_delta_max:.2f} base periods")
    print(f"shield interventions per episode: {summary.mean_shield_interventions:.1f}")
    print(f"offloads issued: {summary.offloads_issued}, "
          f"deadline misses (local fallback): {summary.offload_deadline_misses}")


if __name__ == "__main__":
    main()
