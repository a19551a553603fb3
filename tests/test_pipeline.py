import dataclasses
import math

import numpy as np
import pytest

from cooptrack import ekf, pipeline, scene_sim, track_manager
from cooptrack.association import munkres_solve
from cooptrack.config import load_config
from cooptrack.errors import DataError
from cooptrack.metrics import motap
from cooptrack.pipeline import (aggregate, evaluate_rows, read_track_output,
                                run_tracking, track_and_evaluate,
                                write_track_output)


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def turning_scene():
    spec = scene_sim.SceneSpec.turning_defaults(
        seed=7, occlusions=tuple(scene_sim.aligned_occlusions([2.0], 3.0)))
    return scene_sim.generate_scene(spec, scene_id="turn-occluded")


class TestRunTracking:
    def test_position_only_ignores_device_stream(self, cfg, turning_scene):
        rows_a, _ = run_tracking(turning_scene, "P", cfg)
        stripped = scene_sim.Scene(
            scene_id=turning_scene.scene_id, spec=turning_scene.spec,
            ground_truth=turning_scene.ground_truth,
            detections=turning_scene.detections,
            device=np.empty((0, 4)), gnss=np.empty((0, 4)),
            occlusion_mask=turning_scene.occlusion_mask)
        rows_b, _ = run_tracking(stripped, "P", cfg)
        assert rows_a == rows_b

    def test_cooperative_binds_device(self, cfg, turning_scene):
        _, assign = run_tracking(turning_scene, "C", cfg)
        assert any(rec[3] == 1 for rec in assign)
        _, assign_p = run_tracking(turning_scene, "P", cfg)
        assert all(rec[3] == 0 for rec in assign_p)

    def test_device_noise_computed_once_per_lane(self, cfg, turning_scene, monkeypatch):
        sigma_v_args = []
        noise = ekf.measurement_noise_variances

        def counted(n, p, sigma_v):
            sigma_v_args.append(np.asarray(sigma_v))
            return noise(n, p, sigma_v)
        monkeypatch.setattr(ekf, "measurement_noise_variances", counted)
        _, assign = run_tracking(turning_scene, "C", cfg)
        assert sum(rec[3] for rec in assign) > 100
        # one call, for the lane's readings
        assert len(sigma_v_args) == 1
        assert np.array_equal(sigma_v_args[0], turning_scene.device[:, 3])

    def test_unknown_model_rejected(self, cfg, turning_scene):
        with pytest.raises(ValueError):
            run_tracking(turning_scene, "X", cfg)

    def test_occluded_turn_cooperative_track_persists(self, cfg, turning_scene):
        rows, _ = run_tracking(turning_scene, "C", cfg)
        report = evaluate_rows(turning_scene, rows, cfg, "C")
        # the device data carries the track through the 2 s occlusion: the
        # only detection-miss frames are the validity delay at birth
        assert report["frame_counts"]["dm"] <= 6

    def test_occluded_turn_cooperative_stays_within_tau(self, cfg):
        # a seed whose device-bias draw is modest: the coasted track stays
        # within the miss threshold for the whole occlusion
        spec = scene_sim.SceneSpec.turning_defaults(
            seed=5, occlusions=tuple(scene_sim.aligned_occlusions([2.0], 3.0)))
        scene = scene_sim.generate_scene(spec, scene_id="turn-clean-bias")
        rows, _ = run_tracking(scene, "C", cfg)
        report = evaluate_rows(scene, rows, cfg, "C")
        assert report["frame_counts"]["lm"] == 0
        assert report["mota"] > 0.9

    def test_occluded_turn_position_only_loses_frames(self, cfg, turning_scene):
        rows, _ = run_tracking(turning_scene, "P", cfg)
        report = evaluate_rows(turning_scene, rows, cfg, "P")
        counts = report["frame_counts"]
        assert counts["dm"] + counts["lm"] > 30

    def test_long_occlusion_forces_trackless_frames_for_position_only(self, cfg):
        # an occlusion longer than the 2 s position timeout: the pruning rule
        # fires mid-occlusion and leaves detection-miss frames inside it
        spec = scene_sim.SceneSpec.turning_defaults(
            seed=2, dropout_prob=0.0, occlusions=((3.0, 3.0),))
        scene = scene_sim.generate_scene(spec, scene_id="long-occ")
        t_start, t_end = scene.occlusion_windows()[0]
        rows, _ = run_tracking(scene, "P", cfg)
        valid_times = {round(r[0], 6) for r in rows if r[7]}
        trackless_inside = [t for t in scene.ground_truth[:, 0]
                            if t_start <= t < t_end
                            and round(float(t), 6) not in valid_times]
        assert trackless_inside
        # the last pre-occlusion fix is one frame before t_start, so the
        # 2 s timeout clears the coasted track from t_start + 2.0 onward
        assert min(trackless_inside) >= t_start + 2.0 - 1e-9

    def test_noise_free_scene_tracks_tightly(self, cfg):
        spec = scene_sim.SceneSpec.turning_defaults(
            seed=3, sigma_detection=1e-300, dropout_prob=0.0)
        scene = scene_sim.generate_scene(spec, scene_id="clean")
        rows, _ = run_tracking(scene, "P", cfg)
        report = evaluate_rows(scene, rows, cfg, "P")
        assert report["motp"] < 0.02


def _with_detections(scene, scene_id, detections):
    return scene_sim.Scene(scene_id=scene_id, spec=scene.spec,
                           ground_truth=scene.ground_truth, detections=detections,
                           device=scene.device, gnss=scene.gnss,
                           occlusion_mask=scene.occlusion_mask)


def _variants(spec, name, durations):
    """The unoccluded scene of spec and one variant per duration, aligned
    3 s before the end, each derived from the one simulation."""
    base = scene_sim.generate_scene(spec, scene_id=f"{name}_none")
    return [base] + [
        scene_sim.with_occlusions(base, dataclasses.replace(spec, occlusions=(window,)),
                                  scene_id=f"{name}_occ{window[1]:g}s")
        for window in scene_sim.aligned_occlusions(durations, 3.0)]


def run_lockstep(lanes, cfg):
    """(track_rows, assignment_rows) per lane, in run_tracking's format,
    from one pipeline._track_lanes run over all lanes, the path compare
    takes."""
    outputs = [([], []) for _ in lanes]
    for _, table, log in pipeline._track_lanes(lanes, cfg):
        t = table.last_t.tolist()
        for k, track_id, x, valid in zip(table.lane.tolist(), table.id.tolist(),
                                         table.x.tolist(), table.valid.tolist()):
            outputs[k][0].append((t[k], track_id, *x, int(valid)))
        for k, track_id, det, bound in zip(log.lane.tolist(), log.track_id.tolist(),
                                           log.detection_id.tolist(),
                                           log.device_bound.tolist()):
            outputs[k][1].append((t[k], track_id, "NONE" if det < 0 else det,
                                  int(bound)))
    return outputs


class TestLockstep:
    def test_batch_lanes_equal_lanes_run_alone(self, cfg, turning_scene):
        starting = scene_sim.generate_scene(scene_sim.SceneSpec(
            seed=12, occlusions=tuple(scene_sim.aligned_occlusions([2.0], 3.0))),
            scene_id="start-occluded")
        assert (len(starting.ground_truth), len(turning_scene.ground_truth)) == (701, 601)
        lanes = [(scene, model) for scene in (starting, turning_scene)
                 for model in ("P", "C")]
        batch = run_lockstep(lanes, cfg)
        for (scene, model), (rows, assign) in zip(lanes, batch):
            alone_rows, alone_assign = run_tracking(scene, model, cfg)
            assert rows == alone_rows
            assert assign == alone_assign

    def test_unequal_lanes_equal_lanes_run_alone(self, cfg, turning_scene, monkeypatch):
        """Lanes with different track counts in one table."""
        det = turning_scene.detections
        # a second cyclist 6 m to the side: two tracks and two detections
        # per frame, so the lane reaches the Munkres solver
        twin = det + np.array([0.0, 0.0, 6.0])
        pair = np.concatenate([det, twin])[np.argsort(
            np.concatenate([det[:, 0], twin[:, 0]]), kind="stable")]
        # detections only from 2 s to 4 s, plus a far clutter detection
        # once: tracks spawn and are dropped mid-run
        brief = det[(det[:, 0] >= 2.0) & (det[:, 0] < 4.0)]
        brief = np.concatenate([[[1.0, 40.0, 40.0]], brief])
        lanes = [(_with_detections(turning_scene, "two-cyclists", pair), "C"),
                 (_with_detections(turning_scene, "brief", brief), "P"),
                 (_with_detections(turning_scene, "empty", np.empty((0, 3))), "C"),
                 (turning_scene, "C")]
        solved = []

        def spy(cm):
            solved.append(cm.cost.shape)
            return munkres_solve(cm)
        monkeypatch.setattr(track_manager, "munkres_solve", spy)
        batch = run_lockstep(lanes, cfg)
        assert solved and min(min(shape) for shape in solved) >= 2
        for (scene, model), (rows, assign) in zip(lanes, batch):
            alone_rows, alone_assign = run_tracking(scene, model, cfg)
            assert rows == alone_rows
            assert assign == alone_assign
        two, brief_rows, empty = (rows for rows, _ in batch[:3])
        assert len({r[1] for r in two if r[0] == two[-1][0]}) == 2
        ids = {r[1] for r in brief_rows}
        assert len(ids) >= 2 and brief_rows[-1][0] < turning_scene.ground_truth[-1, 0]
        assert empty == [] and batch[2][1] == []

    def test_lanes_with_different_frame_spacing_equal_lanes_run_alone(self):
        """Lanes stepping every 0.02 s, 0.04 s and 0.03 s in one table: the
        0.03 s lane takes a whole filter step and a remainder, so in the
        second predict round of a frame only some rows have a step left."""
        spacing = np.array([0.02, 0.04, 0.03])
        n = len(spacing)
        assert ekf.ProcessNoiseParams().T == 0.02
        rng = np.random.default_rng(31)
        start = rng.uniform(-5.0, 5.0, size=(n, 2))
        velocity = np.array([[4.0, 1.0], [-3.0, 2.0], [1.0, -5.0]])
        r = ekf.measurement_noise_variances(ekf.MeasurementNoiseParams(),
                                            ekf.ProcessNoiseParams(), np.full(n, 0.3))
        devices = np.column_stack([np.zeros(n), np.hypot(*velocity.T), r[:, 2:]])
        manager = track_manager.ManagerConfig.coop_defaults()
        table = track_manager.TrackTable(n, manager)
        alone = [track_manager.TrackTable(1, manager) for _ in range(n)]
        lanes = np.arange(n)
        for i in range(80):
            times = i * spacing
            xy = start + velocity * times[:, None] + rng.normal(0.0, 0.1, (n, 2))
            has_det = rng.random(n) < 0.8
            has_device = rng.random(n) < 0.7
            log = track_manager.step_lanes(table, times, lanes[has_det], xy[has_det],
                                           devices, has_device)
            for k in range(n):
                one = slice(k, k + 1)
                alone_log = track_manager.step_lanes(
                    alone[k], times[one], np.zeros(int(has_det[k]), dtype=np.int64),
                    xy[one][has_det[one]], devices[one], has_device[one])
                in_lane = log.lane == k
                for got, want in zip(log[1:], alone_log[1:]):
                    assert np.array_equal(got[in_lane], want)
                rows = table.lane == k
                assert np.array_equal(table.id[rows], alone[k].id)
                assert np.array_equal(table.x[rows], alone[k].x)
                assert np.array_equal(table.P[rows], alone[k].P)
        # every lane ends with a valid, device-bound track of its cyclist
        assert np.array_equal(np.unique(table.lane[table.valid]), lanes)
        assert np.count_nonzero(log.device_bound) == np.count_nonzero(has_device)


class TestPersistence:
    def test_track_output_roundtrip(self, cfg, turning_scene, tmp_path):
        rows, assign = run_tracking(turning_scene, "P", cfg)
        path = write_track_output(str(tmp_path), "P", rows, assign, cfg,
                                  turning_scene.scene_id)
        loaded = read_track_output(path)
        assert len(loaded) == len(rows)
        first = loaded[0]
        assert first[0] == pytest.approx(rows[0][0], abs=1e-6)
        assert first[1] == rows[0][1]
        assert first[7] == rows[0][7]
        with open(path) as fh:
            text = fh.read().splitlines()
        assert text[0].startswith("# config=")
        assert "seed=" in text[0]
        assert text[1] == "t,track_id,x,y,gamma,gamma_dot,v,valid"

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text("1.0,0,0,0,0,0,0,1\n")
        with pytest.raises(DataError):
            read_track_output(str(path))

    def test_evaluation_matches_after_roundtrip(self, cfg, turning_scene, tmp_path):
        rows, assign = run_tracking(turning_scene, "C", cfg)
        direct = evaluate_rows(turning_scene, rows, cfg, "C")
        path = write_track_output(str(tmp_path), "C", rows, assign, cfg,
                                  turning_scene.scene_id)
        loaded = evaluate_rows(turning_scene, read_track_output(path), cfg, "C")
        assert loaded["mota"] == pytest.approx(direct["mota"], abs=1e-9)
        assert loaded["motp"] == pytest.approx(direct["motp"], abs=1e-5)


class TestEvaluation:
    def test_track_and_evaluate_runs_both_models(self, cfg, turning_scene):
        [reports] = track_and_evaluate([turning_scene], cfg)
        assert set(reports) == {"P", "C"}
        pair = (motap((reports["C"]["mota"], reports["C"]["motp"]),
                      (reports["P"]["mota"], reports["P"]["motp"]), cfg.metric))
        assert pair in (0, 1)

    def test_track_and_evaluate_equals_row_path(self, cfg, turning_scene):
        """compare's per-frame scoring against evaluate_rows over the rows:
        lanes of unequal length, both models, and a lane with two valid
        tracks per frame whose first track is the far one."""
        starting = scene_sim.generate_scene(scene_sim.SceneSpec(
            seed=12, occlusions=tuple(scene_sim.aligned_occlusions([2.0], 3.0))),
            scene_id="start-occluded")
        det = turning_scene.detections
        twin = det + np.array([0.0, 0.0, 6.0])
        # the twin's detection comes first in each frame, so it spawns the
        # lane's first track
        both = np.concatenate([twin, det])
        pair = both[np.argsort(both[:, 0], kind="stable")]
        two = _with_detections(turning_scene, "two-cyclists", pair)
        scenes = [starting, two, turning_scene]
        assert len(starting.ground_truth) != len(turning_scene.ground_truth)
        assert cfg.models == ["P", "C"]
        for scene, reports in zip(scenes, track_and_evaluate(scenes, cfg)):
            for model in cfg.models:
                rows, _ = run_tracking(scene, model, cfg)
                assert reports[model] == evaluate_rows(scene, rows, cfg, model)
        rows, _ = run_tracking(two, "C", cfg)
        last = [r for r in rows if r[0] == rows[-1][0] and r[7]]
        gt = turning_scene.ground_truth[-1, 1:3]
        assert len(last) == 2 and math.dist(last[0][2:4], gt) > 5.0

    def test_forked_batch_equals_row_path(self, cfg):
        """Occlusion variants of 1-4 s derived from one simulated scene each:
        lanes start as copies, some of a lane that itself started as a
        copy, and every report equals evaluate_rows over run_tracking's
        rows."""
        scenes = (_variants(scene_sim.SceneSpec(seed=12), "start", [1.0, 2.0, 3.0, 4.0])
                  + _variants(scene_sim.SceneSpec.turning_defaults(seed=7), "turn",
                              [1.0, 2.0, 3.0, 4.0]))
        lanes = [(scene, model) for scene in scenes for model in cfg.models]
        starts = pipeline._shared_prefixes(lanes)
        sources = [source for _, source in starts]
        assert sources.count(None) == 4
        assert any(source is not None and sources[source] is not None
                   for source in sources)
        assert all(0 < start < len(scene.ground_truth)
                   for (scene, _), (start, source) in zip(lanes, starts)
                   if source is not None)
        for scene, reports in zip(scenes, track_and_evaluate(scenes, cfg)):
            for model in cfg.models:
                rows, _ = run_tracking(scene, model, cfg)
                assert reports[model] == evaluate_rows(scene, rows, cfg, model)

    def test_variant_without_occluded_detection_never_starts(self, cfg, monkeypatch):
        """A one-frame window on a frame whose detection dropped out takes
        nothing away: the variant's lanes never step, and every score they
        report is their source's."""
        base = scene_sim.generate_scene(scene_sim.SceneSpec.turning_defaults(seed=7),
                                        scene_id="base")
        times = base.ground_truth[:, 0]
        detected = pipeline._frame_indices(base.detections[:, 0], times, "detection")
        missing = np.setdiff1d(np.arange(100, len(times)), detected)[0]
        spec = dataclasses.replace(base.spec, occlusions=(
            (times[-1] - times[missing] - 0.02, 0.02),))
        variant = scene_sim.with_occlusions(base, spec, scene_id="variant")
        assert variant.occlusion_mask.nonzero()[0].tolist() == [missing]
        assert np.array_equal(variant.detections, base.detections)
        stepped = []

        def spy(table, times, *args, **kwargs):
            stepped.append(times)
            return track_manager.step_lanes(table, times, *args, **kwargs)
        monkeypatch.setattr(pipeline, "step_lanes", spy)
        # a longer scene in the batch steps on after the variant's last frame
        longer = scene_sim.generate_scene(scene_sim.SceneSpec(seed=12))
        scenes = [base, variant, longer]
        base_reports, variant_reports, _ = track_and_evaluate(scenes, cfg)
        assert pipeline._shared_prefixes(
            [(scene, model) for scene in scenes for model in cfg.models]
        ) == [(0, None), (0, None), (len(times), 0), (len(times), 1), (0, None), (0, None)]
        assert len(stepped) == len(longer.ground_truth) > len(times)
        assert all(np.isnan(t[2:4]).all() for t in stepped)
        assert all(not np.isnan(t[:2]).any() for t in stepped[:len(times)])
        for model in cfg.models:
            assert variant_reports[model] == {**base_reports[model],
                                              "scene_id": "variant"}

    def test_perfect_track_scores_perfectly(self, cfg, turning_scene):
        gt = turning_scene.ground_truth
        rows = [(float(r[0]), 0, float(r[1]), float(r[2]), float(r[3]),
                 float(r[4]), float(r[5]), 1) for r in gt]
        report = evaluate_rows(turning_scene, rows, cfg, "oracle")
        assert report["motp"] == 0.0
        assert report["mota"] == 1.0

    def test_aggregate(self):
        reports = [{"motp": 0.1, "mota": 0.9}, {"motp": 0.3, "mota": 0.7}]
        agg = aggregate(reports)
        assert agg["motp"] == {"min": 0.1, "max": 0.3, "mean": pytest.approx(0.2)}
        assert agg["mota"]["mean"] == pytest.approx(0.8)
