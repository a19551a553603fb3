"""Command-line front end.

Subcommands: simulate | track | evaluate | compare | train-velocity.
`compare` chains simulate -> track(P) -> track(C) -> evaluate over a scene
batch and writes plot-ready CSV tables; `compare --jobs` below 1 is a
config error.  Exit codes: 0 success, 1 a metric undefined for a scene
(the error names the scene and the model), or a forest fit process or
`compare --jobs` worker that died, 2 config error (an output that cannot
be written included, such as an `--out` that names a regular file), 3 data
error, 4 numerical failure.
Output directories are created by the first write into them, which comes
after the work.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import fileio
from . import pipeline
from . import scene_sim
from . import velocity as velocity_mod
from .config import RunConfig, load_config
from .errors import ConfigError, CoopTrackError, DataError, NumericalError
from .features import feature_layout
from .forest import RegressionForest
from .metrics import pairwise_report


def _scene_specs(cfg: RunConfig, variants):
    """(base scene id, variant label, SceneSpec) per configured scene and
    occlusion variant (label, occlusions).  Seeds are drawn from the master
    seed, starting scenes first, then turning scenes; the variants of a
    scene share its seed.  A value SceneSpec rejects is a ConfigError
    naming its section."""
    rng = np.random.default_rng(cfg.seed)
    scenes_cfg = cfg.scenes
    specs = []
    section = "scenes.noise"
    try:
        scene_sim.SceneSpec(**scenes_cfg["noise"])
        for kind, short in ((scene_sim.KIND_STARTING, "starting"),
                            (scene_sim.KIND_TURNING, "turning")):
            section = f"scenes.{short}"
            for i in range(int(scenes_cfg[f"n_{short}"])):
                seed = int(rng.integers(2 ** 63))
                for label, occlusions in variants:
                    specs.append((f"{short}_{i:04d}", label, scene_sim.SceneSpec(
                        kind=kind, seed=seed, occlusions=occlusions,
                        **scenes_cfg[short], **scenes_cfg["noise"])))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    return specs


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_dir
    scenes_cfg = cfg.scenes
    occl = []
    if not args.no_occlusion:
        occl = scene_sim.aligned_occlusions(scenes_cfg["occlusion_durations"],
                                            scenes_cfg["occlusion_end_offset"])
    manifest = {"config": cfg.config_hash(), "seed": cfg.seed, "scenes": []}
    for scene_id, _, spec in _scene_specs(cfg, [("", tuple(occl))]):
        scene = scene_sim.generate_scene(spec, scene_id=scene_id)
        path = os.path.join(out_dir, scene_id)
        scene_sim.write_scene(scene, path)
        manifest["scenes"].append({"scene_id": scene_id, "path": path,
                                   "seed": spec.seed, "kind": spec.kind})
    fileio.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"wrote {len(manifest['scenes'])} scenes to {out_dir}")
    return 0


def cmd_track(args) -> int:
    cfg = load_config(args.config)
    scene = scene_sim.read_scene(args.scene_dir)
    out_dir = args.out or args.scene_dir
    track_rows, assign_rows = pipeline.run_tracking(scene, args.model, cfg)
    path = pipeline.write_track_output(out_dir, args.model, track_rows,
                                       assign_rows, cfg, scene.scene_id)
    print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    scene = scene_sim.read_scene(args.scene_dir)
    rows = pipeline.read_track_output(args.tracks)
    model_id = args.model_id or os.path.basename(args.tracks)
    report = pipeline.evaluate_rows(scene, rows, cfg, model_id)
    if args.tracks_b:
        rows_b = pipeline.read_track_output(args.tracks_b)
        report_b = pipeline.evaluate_rows(scene, rows_b, cfg,
                                          args.model_id_b or
                                          os.path.basename(args.tracks_b))
        pair = pairwise_report(report, report_b, cfg.metric)
        report = {"a": report, "b": report_b, "motap_ab": pair["motap_ab"],
                  "motap_ba": pair["motap_ba"]}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        fileio.write_text(args.out, text + "\n")
    print(text)
    return 0


# Scenes per lockstep batch of `compare`: with two occlusion variants and
# both models, 16 scenes are 64 lanes.  A frame costs more for more lanes
# but less per lane (about 280, 315, 380 and 510 us at 8, 16, 32 and 64
# lanes, README), so larger batches run faster per scene, but they hold
# every lane's scene and tracks in memory until the batch ends (README has
# time and memory measured at 16, 32 and 64).
COMPARE_CHUNK_SCENES = 16


def _compare_chunk(payload):
    """Worker: simulate each scene of a chunk once and derive its occlusion
    variants from it, then track and evaluate all variants with every model
    in one lockstep batch; returns result rows."""
    raw_cfg, entries = payload
    cfg = RunConfig(raw_cfg)
    scenes = []
    for scene_id, _, spec in entries:
        if spec.occlusions:
            scene = scene_sim.with_occlusions(base, spec.occlusions, scene_id=scene_id)
        else:       # "none", the first variant of each scene
            scene = base = scene_sim.generate_scene(spec, scene_id=scene_id)
        scenes.append(scene)
    return [(spec.kind, label, scene_id, reports)
            for (scene_id, label, spec), reports
            in zip(entries, pipeline.track_and_evaluate(scenes, cfg))]


def cmd_compare(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_dir
    scenes_cfg = cfg.scenes
    durations = scenes_cfg["occlusion_durations"]
    aligned = scene_sim.aligned_occlusions(durations, scenes_cfg["occlusion_end_offset"])
    variants = [("none", ())]
    variants += [(f"occ{dur:g}s", (tup,))
                 for tup, dur in zip(aligned, sorted(durations))]
    labels = [label for label, _ in variants]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            # the label keys the rows of per_scene.csv and summary.csv
            raise ConfigError(f"scenes.occlusion_durations: two durations make "
                              f"the condition {label}")
    entries = [(f"{base_id}_{label}", label, spec)
               for base_id, label, spec in _scene_specs(cfg, variants)]
    if scenes_cfg["noise"]["dropout_prob"] == 1:
        raise ConfigError("scenes.noise.dropout_prob: 1 drops every detection, "
                          "so no scene could be scored")
    size = COMPARE_CHUNK_SCENES * len(variants)
    jobs = [(cfg.raw, entries[i:i + size]) for i in range(0, len(entries), size)]

    # a fork-started pool launches all its workers at the first submit
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        import concurrent.futures   # here, so that importing the CLI does not load it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                all_results = list(pool.map(_compare_chunk, jobs))
            except concurrent.futures.process.BrokenProcessPool as exc:
                raise CoopTrackError(f"a compare worker died: {exc}") from None
    else:
        all_results = [_compare_chunk(job) for job in jobs]

    per_scene_rows = []
    grouped = {}
    for scene_results in all_results:
        for kind, label, scene_id, reports in scene_results:
            grouped.setdefault((kind, label), []).append(reports)
            for model in cfg.models:
                rep = reports[model]
                counts = rep["frame_counts"]
                per_scene_rows.append((
                    scene_id, kind, label, model, rep["motp"], rep["mota"],
                    counts["matches"], counts["dm"], counts["lm"]))

    both = set(cfg.models) >= {"P", "C"}
    summary_rows = []
    for (kind, label), report_list in sorted(grouped.items()):
        row = [kind, label, len(report_list)]
        for model in cfg.models:
            agg = pipeline.aggregate([r[model] for r in report_list])
            row += [agg[metric][stat] for metric in ("motp", "mota")
                    for stat in ("min", "max", "mean")]
        if both:
            pairs = [pairwise_report(r["P"], r["C"], cfg.metric)
                     for r in report_list]
            row += [sum(p["motap_ab"] for p in pairs),
                    sum(p["motap_ba"] for p in pairs)]
        summary_rows.append(row)

    per_scene_header = ("scene_id", "kind", "occlusion", "model", "motp", "mota",
                        "matches", "dm", "lm")
    summary_header = ["kind", "occlusion", "n_scenes"]
    for model in cfg.models:
        summary_header += [f"{metric}_{model}_{stat}" for metric in ("motp", "mota")
                           for stat in ("min", "max", "mean")]
    if both:
        summary_header += ["sum_motap_PC", "sum_motap_CP"]
    fileio.write_csv(os.path.join(out_dir, "per_scene.csv"), per_scene_header,
                     per_scene_rows, comment=cfg.provenance())
    fileio.write_csv(os.path.join(out_dir, "summary.csv"), summary_header,
                     summary_rows, comment=cfg.provenance())
    print(f"wrote {os.path.join(out_dir, 'per_scene.csv')} and summary.csv "
          f"({len(per_scene_rows)} rows)")
    return 0


def cmd_train_velocity(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_dir
    vcfg = cfg.velocity
    model, report = velocity_mod.train_velocity_model(
        seed=cfg.seed, n_scenes=vcfg["training_scenes"], n_trees=vcfg["n_trees"],
        max_depth=vcfg["max_depth"], n_bins=vcfg["n_bins"],
        holdout_fraction=vcfg["holdout_fraction"])
    fileio.write_text(os.path.join(out_dir, "forest_with_gnss.json"),
                      model.with_gnss.to_json() + "\n")
    fileio.write_text(os.path.join(out_dir, "forest_no_gnss.json"),
                      model.no_gnss.to_json() + "\n")
    fileio.write_json(os.path.join(out_dir, "rmse_report.json"), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def load_velocity_model(directory) -> velocity_mod.VelocityModel:
    """Read the forest pair written by train-velocity; each forest must
    carry the feature layout it is run on."""
    def _read(name, with_gnss):
        path = os.path.join(directory, name)
        try:
            forest = RegressionForest.from_json(fileio.read_text(path))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: not a forest file ({exc})") from exc
        if forest.feature_layout != feature_layout(with_gnss):
            raise DataError(f"{path}: not the with_gnss={with_gnss} feature layout")
        return forest
    return velocity_mod.VelocityModel(_read("forest_with_gnss.json", True),
                                      _read("forest_no_gnss.json", False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cooptrack",
        description="Cooperative cyclist tracking testbed")
    parser.add_argument("--config", help="JSON config file (defaults otherwise)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic scene directories")
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.add_argument("--no-occlusion", action="store_true",
                   help="skip the configured occlusion windows")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run one tracking model over a scene")
    p.add_argument("scene_dir")
    p.add_argument("--model", choices=("P", "C"), required=True,
                   help="P: position only, C: cooperative")
    p.add_argument("--out", help="output directory (default: scene dir)")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="MOTP/MOTA report for a track file")
    p.add_argument("scene_dir")
    p.add_argument("--tracks", required=True, help="tracks CSV to evaluate")
    p.add_argument("--tracks-b", help="second tracks CSV for a pairwise verdict")
    p.add_argument("--model-id")
    p.add_argument("--model-id-b")
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare",
                       help="simulate + track both models + evaluate, batched")
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.add_argument("--jobs", type=int, default=1, help="scene-level parallelism")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train-velocity",
                       help="train the velocity forests on synthetic rides")
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_train_velocity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CoopTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
