"""Sensor gating study: which sensor front-end benefits most from gating?

Reproduces the paper's Table III interactively: the two detectors are
attached to a ZED stereo camera, a Navtech CTS350-X radar or a Velodyne
HDL-32e LiDAR, and sensor gating (eq. 8) is applied under the filtered
control case.  The camera wins because it has no mechanical power that must
keep being paid; the radar beats the LiDAR because its larger measurement
power benefits more from being gated.

Run with:  python examples/sensor_gating_power_study.py
"""

from repro.analysis.metrics import aggregate_reports
from repro.analysis.tables import format_table
from repro.cli import run_artifacts
from repro.core.energy import expected_gating_gain
from repro.core.models import SensoryModel
from repro.experiments.common import ExperimentSettings, standard_config
from repro.platform.presets import DRIVE_PX2_RESNET152, NAVTECH_RADAR, VELODYNE_LIDAR, ZED_CAMERA

SETTINGS = ExperimentSettings(episodes=4, max_steps=1200, seed=0)
TAU_S = 0.02
SENSORS = (ZED_CAMERA, NAVTECH_RADAR, VELODYNE_LIDAR)


def sensor_cells(settings):
    """One sensor-gating cell per sensor front-end, by name."""
    return {
        sensor.name: standard_config(
            settings,
            optimization="sensor_gating",
            filtered=True,
            tau_s=TAU_S,
            detector_sensor=sensor,
        )
        for sensor in SENSORS
    }


def summarize(reports_by_label):
    """Each cell's summary (gains averaged over the successful episodes)."""
    return {label: aggregate_reports(reports) for label, reports in reports_by_label.items()}


def main() -> None:
    # Every sensor's cell runs in one sweep.
    summaries = run_artifacts({"sensors": (sensor_cells, summarize)}, SETTINGS)["sensors"]
    cells = sensor_cells(SETTINGS)
    rows = []
    for sensor in SENSORS:
        config, summary = cells[sensor.name], summaries[sensor.name]
        for multiple in config.detector_period_multiples:
            model = SensoryModel(
                name="analytic",
                period_s=multiple * TAU_S,
                compute=DRIVE_PX2_RESNET152,
                sensor=sensor,
            )
            best_case = expected_gating_gain(model, TAU_S, delta_max=4, gate_sensor=True)
            rows.append(
                [
                    f"{sensor.name} (p={multiple}tau)",
                    sensor.measurement_power_w,
                    sensor.mechanical_power_w,
                    100.0 * summary.gain_for(config.detector_name(multiple)),
                    100.0 * best_case.gain,
                ]
            )

    print(
        format_table(
            ["sensor pipeline", "P_meas [W]", "P_mech [W]", "measured avg gain [%]", "4tau gain [%]"],
            rows,
            title="Sensor gating at tau = 20 ms, filtered control (paper Table III)",
        )
    )
    print()
    print(
        "The 4tau column is the closed-form best case (deadline sampled at four\n"
        "base periods) and matches the paper's Table III within a fraction of a\n"
        "percent; the measured column averages over the whole test run."
    )


if __name__ == "__main__":
    main()
