"""Filter consistency: the normalized estimation error squared (NEES) of
each model's valid tracks against the ground truth, over seeded
Monte-Carlo scenes (Bar-Shalom, Li & Kirubarajan, "Estimation with
Applications to Tracking and Navigation", Wiley 2001, section 5.4).

NEES is e^T P^-1 e, with e a valid track's state minus the scene's true
state at the same frame (gamma's error wrapped) and P the track's
covariance.  For a consistent five-state filter it is chi-square with 5
degrees of freedom: a mean of 5, and 1 % of track-frames above the 99 %
point.  A case passes at a mean of at most 5 with at most 3 % above that
point.  An inconsistent case is a strict xfail that carries its measured
value.  NIS needs each update's innovation, which no hook exposes yet.
"""

import copy

import numpy as np
import pytest

from cooptrack import cli, ekf, pipeline, scene_sim
from cooptrack.config import DEFAULTS, RunConfig

N_SCENES = 30           # of each kind, unoccluded, at the default seed
CHI2_5_99 = 15.09       # the 99 % point of chi-square with 5 degrees of freedom
MEAN_MAX = 5.0
ABOVE_MAX = 0.03


def config(r_divide_by_T=True):
    raw = copy.deepcopy(DEFAULTS)
    raw["scenes"].update(n_starting=N_SCENES, n_turning=N_SCENES)
    raw["filter"]["measurement"]["r_divide_by_T"] = r_divide_by_T
    return RunConfig(raw)


@pytest.fixture(scope="module")
def scenes():
    """The unoccluded scenes of each kind, as compare simulates them."""
    by_kind = {}
    for scene_id, _, spec in cli._scene_specs(config(), [("none", ())]):
        by_kind.setdefault(spec.kind, []).append(
            scene_sim.generate_scene(spec, scene_id=scene_id))
    return by_kind


def nees(scenes, model, cfg):
    """The NEES of every valid track-frame of one model over the scenes;
    the ground truth's columns after t are ekf's state columns."""
    lanes = [(scene, model) for scene in scenes]
    truth = np.full((max(len(s.ground_truth) for s in scenes), len(scenes),
                     ekf.STATE_DIM), np.nan)
    for k, scene in enumerate(scenes):
        truth[:len(scene.ground_truth), k] = scene.ground_truth[:, 1:]
    values = []
    for i, table, _ in pipeline._track_lanes(lanes, cfg, log=False):
        valid = table.valid
        if not valid.any():
            continue
        error = table.x[valid] - truth[i, table.lane[valid]]
        gamma = error[:, ekf.GAMMA]
        error[:, ekf.GAMMA] = np.arctan2(np.sin(gamma), np.cos(gamma))
        weighted = np.linalg.solve(table.P[valid], error[:, :, None])[:, :, 0]
        values.append((error * weighted).sum(axis=1))
    return np.concatenate(values)


def inconsistent(measured):
    return pytest.mark.xfail(strict=True, reason=f"inconsistent: mean NEES {measured}")


@pytest.mark.parametrize("kind, model, r_divide_by_T", [
    (scene_sim.KIND_TURNING, "P", True),
    (scene_sim.KIND_TURNING, "C", True),
    # the covariance of v is far too small while the cyclist accelerates
    pytest.param(scene_sim.KIND_STARTING, "P", True, marks=inconsistent(175.1)),
    pytest.param(scene_sim.KIND_STARTING, "C", True, marks=inconsistent(218.6)),
    # R = sigma^2 trusts the biased, delayed device stream
    pytest.param(scene_sim.KIND_TURNING, "C", False, marks=inconsistent(70.3)),
])
def test_nees_within_chi_square_bound(scenes, kind, model, r_divide_by_T):
    values = nees(scenes[kind], model, config(r_divide_by_T))
    mean, above = values.mean(), np.mean(values > CHI2_5_99)
    assert mean <= MEAN_MAX and above <= ABOVE_MAX, (
        f"{len(values)} track-frames: mean NEES {mean:.1f}, "
        f"{above:.1%} above {CHI2_5_99}")
