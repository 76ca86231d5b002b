"""Perception models.

Two kinds of sensory processing models appear in the paper's pipeline
(Section VI-A):

* the *critical* subset Lambda'' — a Variational Autoencoder producing the
  feature vector Theta'' and the state estimate consumed by the safety
  filter.  It is never optimized, so this reproduction charges it only as
  an energy profile (``VAE_COMPUTE_PROFILE`` in :mod:`repro.core.framework`)
  every base period and reads the safety state from ground truth; there is
  no network here;
* the *optimizable* subset Lambda' — two ResNet-152 object detectors attached
  to sensors of different sampling periods — represented here by
  :class:`DetectorModel`, a functional range-scan obstacle detector carrying
  the Drive PX2 ResNet-152 latency/energy footprint.
"""

from repro.perception.detections import Detection, DetectionSet
from repro.perception.detector import DetectorModel

__all__ = [
    "Detection",
    "DetectionSet",
    "DetectorModel",
]
