"""Cooperative cyclist tracking: a constant-turn-rate EKF fusing
infrastructure position detections with smart-device yaw-rate and velocity
estimates, plus the synthetic-scene harness that quantifies the benefit of
cooperation under occlusion with single-object MOTP/MOTA/MOTAP metrics."""

__version__ = "0.1.0"
