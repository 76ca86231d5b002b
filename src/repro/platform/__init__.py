"""Edge-platform performance and power models.

The paper characterizes the local execution of its perception models on an
Nvidia Drive PX2 with TensorRT (17 ms latency, 7 W execution power for a
ResNet-152) and takes sensor power ratings from industry datasheets
(Section VI-A and VI-D).  This package encodes those characterizations as
small data classes used by the energy models of :mod:`repro.core.energy`:

* :class:`ComputeProfile` — (latency, power) of a local inference.
* :class:`SensorPowerSpec` — measurement and mechanical power of a sensor.
* :mod:`repro.platform.presets` — the exact numbers used in the paper.
"""

from repro.platform.compute import ComputeProfile
from repro.platform.sensors import SensorPowerSpec
from repro.platform.presets import (
    DRIVE_PX2_RESNET152,
    EDGE_SERVER_RESNET152,
    NAVTECH_RADAR,
    VELODYNE_LIDAR,
    WIFI_TX_POWER_W,
    ZED_CAMERA,
    ZERO_POWER_SENSOR,
)

__all__ = [
    "ComputeProfile",
    "DRIVE_PX2_RESNET152",
    "EDGE_SERVER_RESNET152",
    "NAVTECH_RADAR",
    "SensorPowerSpec",
    "VELODYNE_LIDAR",
    "WIFI_TX_POWER_W",
    "ZED_CAMERA",
    "ZERO_POWER_SENSOR",
]
