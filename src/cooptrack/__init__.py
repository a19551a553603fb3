"""Cooperative cyclist tracking: a constant-turn-rate EKF fusing
infrastructure position detections with smart-device yaw-rate and velocity
estimates, plus the synthetic-scene harness that quantifies the benefit of
cooperation under occlusion with single-object MOTP/MOTA/MOTAP metrics."""

from .ekf import (BikeState, Measurement, MeasurementKind,
                  MeasurementNoiseParams, ProcessNoiseParams, StateEstimate,
                  ekf_predict, ekf_update, jacobian_f, noise_gain,
                  predict_state, process_noise_cov)
from .association import (CostMatrix, DeviceResidual, assign_device,
                          munkres_solve, penalized_mahalanobis)
from .metrics import FrameRecord, MetricConfig, mota, motap, motp
from .pixel_track import PixelState, cv_predict, cv_update
from .scene_sim import Scene, SceneSpec, generate_ground_truth, simulate_sensors
from .track_manager import ManagerConfig, Track, TrackManager, TrackStatus
from .forest import RegressionForest, train_forest
from .velocity import VelocityModel, estimate_velocity, train_velocity_model

__version__ = "0.1.0"
