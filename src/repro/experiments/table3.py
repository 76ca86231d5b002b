"""Table III: sensor gating for industry-grade sensor specifications.

The paper extends the gating analysis to the full sensor energy model of
eq. (8) using three sensors — ZED stereo camera, Navtech CTS350-X radar and
Velodyne HDL-32e LiDAR — each evaluated at p = tau and p = 2 tau in the
filtered control case.  It reports the average gain over the test run and
the gain when ``delta_max`` was sampled at 4 tau.  The camera wins (no
mechanical power to keep paying) and the radar beats the LiDAR (its higher
measurement power benefits more from gating).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.metrics import RunSummary, aggregate_reports
from repro.analysis.tables import format_table
from repro.core.energy import expected_gating_gain
from repro.core.models import SensoryModel
from repro.experiments.common import (
    DEFAULT_TAU_S,
    Cells,
    ExperimentSettings,
    Reports,
    standard_config,
)
from repro.platform.presets import (
    DRIVE_PX2_RESNET152,
    NAVTECH_RADAR,
    VELODYNE_LIDAR,
    ZED_CAMERA,
)
from repro.platform.sensors import SensorPowerSpec

#: Sensors evaluated in Table III, in the paper's order.
TABLE3_SENSORS = (ZED_CAMERA, NAVTECH_RADAR, VELODYNE_LIDAR)
#: Detector periods of Table III's rows, as multiples of tau.
TABLE3_PERIOD_MULTIPLES = (1, 2)


@dataclass(frozen=True)
class Table3Row:
    """One row of Table III (one sensor at one period)."""

    sensor: str
    period_multiple: int
    measurement_power_w: float
    mechanical_power_w: float
    average_gain: float
    four_tau_gain: float


@dataclass
class Table3Result:
    """All rows of Table III."""

    tau_s: float
    rows: list[Table3Row] = field(default_factory=list)
    summaries: dict[str, RunSummary] = field(default_factory=dict)

    def row(self, sensor: str, period_multiple: int) -> Table3Row:
        """Return the row for one sensor/period combination."""
        for row in self.rows:
            if row.sensor == sensor and row.period_multiple == period_multiple:
                return row
        raise KeyError((sensor, period_multiple))

    def to_table(self) -> str:
        """Render Table III as text."""
        rendered = [
            [
                f"{row.sensor} (p={row.period_multiple}tau)",
                row.measurement_power_w,
                row.mechanical_power_w,
                100.0 * row.average_gain,
                100.0 * row.four_tau_gain,
            ]
            for row in self.rows
        ]
        return format_table(
            ["sensor", "P_meas [W]", "P_mech [W]", "avg gains [%]", "4tau gains [%]"],
            rendered,
            title=(
                f"Table III — sensor gating at tau = {self.tau_s * 1e3:.0f} ms, filtered control"
            ),
        )


def table3_cells(settings: ExperimentSettings) -> Cells:
    """Table III's cells: sensor gating, filtered control, one per sensor."""
    return {
        sensor.name: replace(
            standard_config(
                settings, optimization="sensor_gating", filtered=True, detector_sensor=sensor
            ),
            detector_period_multiples=TABLE3_PERIOD_MULTIPLES,
        )
        for sensor in TABLE3_SENSORS
    }


def table3_result(reports_by_label: Reports) -> Table3Result:
    """Table III from the reports of :func:`table3_cells`."""
    result = Table3Result(tau_s=DEFAULT_TAU_S)
    for sensor in TABLE3_SENSORS:
        summary = result.summaries[sensor.name] = aggregate_reports(reports_by_label[sensor.name])
        for multiple in TABLE3_PERIOD_MULTIPLES:
            model = _sensor_model(sensor, multiple, DEFAULT_TAU_S)
            result.rows.append(
                Table3Row(
                    sensor=sensor.name,
                    period_multiple=multiple,
                    measurement_power_w=sensor.measurement_power_w,
                    mechanical_power_w=sensor.mechanical_power_w,
                    average_gain=summary.gain_for(model.name),
                    four_tau_gain=expected_gating_gain(
                        model, DEFAULT_TAU_S, delta_max=4, gate_sensor=True
                    ).gain,
                )
            )
    return result


def _sensor_model(
    sensor: SensorPowerSpec, period_multiple: int, tau_s: float
) -> SensoryModel:
    """Scheduler-facing model descriptor for the analytic 4-tau gain column."""
    return SensoryModel(
        name=f"detector-p{period_multiple}tau",
        period_s=period_multiple * tau_s,
        compute=DRIVE_PX2_RESNET152,
        sensor=sensor,
    )
