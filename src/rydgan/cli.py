"""Command-line pipeline: fit-pca, train, select, generate, evaluate.

Every command validates its full configuration before doing any work,
echoes the effective configuration into the output directory, writes all
artifacts atomically, and is byte-reproducible for a fixed master seed.
`select`, `generate` and `evaluate` share one generation step: every
learner or member at every seed in one `generate_batch` call, rows
member-major; `greedy_select` only scores the resulting features.

Exit codes: 0 success, 1 internal error, 2 config/validation, 3
data/format, 4 numeric.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as dp
from .config import MODES, RunConfig, load_config, render_config
from .errors import DataError, NumericError, RydganError, ValidationError
from .generator import EXACT, NoisyMode, ShotsMode, TrainConfig, draw_seeds, generate_batch
from .metrics import ensemble_images, fid_images, greedy_select, variation_scores
from .training import load_learner, save_learner, train_learners

ENSEMBLE_FORMAT = "rydgan-ensemble"
ENSEMBLE_VERSION = 1
SCORE_HEADER = "class,mode,fid,mean_variation"


def _pca_path(config: RunConfig, cls: int) -> str:
    return os.path.join(config.out_dir, f"pca_class{cls}.pca")


def _learners_dir(config: RunConfig, cls: int) -> str:
    return os.path.join(config.out_dir, "learners", f"class{cls}")


def _ensemble_path(config: RunConfig, cls: int) -> str:
    return os.path.join(config.out_dir, f"ensemble_class{cls}.json")


def _echo_config(config: RunConfig):
    os.makedirs(config.out_dir, exist_ok=True)
    dp.atomic_write_text(os.path.join(config.out_dir, "effective-config.ini"),
                         render_config(config))


def _load_splits(config: RunConfig, classes, held_out: bool) -> list:
    """Each class's held-out or training images from one read of the IDX pair,
    only those read and converted to float; an FID needs 2 held-out images,
    training 1."""
    if not config.images or not config.labels:
        raise ValidationError("config must set data.images and data.labels paths")
    picked = []

    def pick(labels):
        for cls in classes:
            rows = np.flatnonzero(labels == cls)
            if len(rows) < 2:
                raise DataError(
                    f"class {cls} has only {len(rows)} images in {config.images}")
            train, val = dp.split_indices(len(rows), config.val_fraction,
                                          config.split_seed)
            if len(val) < 2 or not (held_out or len(train)):
                need = "FID needs at least 2" if len(val) < 2 else "training needs at least 1"
                raise DataError(f"class {cls}: val_fraction = {config.val_fraction} holds "
                                f"out {len(val)} of its {len(rows)} images; {need}")
            picked.append(rows[val if held_out else train])
        return np.concatenate(picked)

    images, labels = dp.read_idx_pair(config.images, config.labels, pick)
    ends = np.cumsum([len(rows) for rows in picked])
    return [dp.ImageSet(images[lo:hi] / 255.0, labels[lo:hi])
            for lo, hi in zip(np.r_[0, ends[:-1]], ends)]


def cmd_fit_pca(config: RunConfig) -> int:
    _echo_config(config)
    cls = config.digit_class
    [train] = _load_splits(config, [cls], held_out=False)
    model = dp.fit_pca(train, config.k)
    path = _pca_path(config, cls)
    dp.save_pca(model, path)
    captured = model.eigenvalues.sum()
    print(f"fitted PCA for class {cls}: {model.k} components from "
          f"{len(train)} images -> {path}")
    print("top eigenvalues: "
          + ", ".join(f"{v:.5g}" for v in model.eigenvalues[:8]))
    print(f"retained variance (top {model.k}): {captured:.5g}")
    return 0


def _derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def cmd_train(config: RunConfig) -> int:
    _echo_config(config)
    cls = config.digit_class
    model = _require_pca(config, cls)
    [train] = _load_splits(config, [cls], held_out=False)
    features = dp.scale_features(model, dp.transform(model, train.flat()))
    out_dir = _learners_dir(config, cls)
    os.makedirs(out_dir, exist_ok=True)
    pairs = [(r, l) for r in config.rabi_shapes for l in config.local_shapes]
    results = train_learners(
        config.train_config(),
        [(_derived_seed(config.master_seed, index), pair)
         for index, pair in enumerate(pairs)], features)

    log_lines = ["learner,cycle,stage,nm_iterations,nm_evaluations,nm_stop,"
                 "gen_loss,disc_loss"]
    for result in results:
        name = result.learner.name
        save_learner(result, os.path.join(out_dir, f"{name}.json"))
        for row in result.log:
            log_lines.append(
                f"{name},{row.cycle},{row.stage},{row.nm_iterations},"
                f"{row.nm_evaluations},{row.nm_stop},{row.gen_loss!r},"
                f"{row.disc_loss!r}")
        print(f"trained {name}: initial loss {result.initial_loss:.4f}, "
              f"final loss {result.learner.final_loss:.4f}")
    dp.atomic_write_text(os.path.join(out_dir, "training_log.csv"),
                         "\n".join(log_lines) + "\n")
    print(f"wrote {len(results)} learners to {out_dir}")
    return 0


def _require_pca(config: RunConfig, cls: int) -> dp.PcaModel:
    path = _pca_path(config, cls)
    try:
        return dp.load_pca(path)
    except DataError as exc:
        if not isinstance(exc.__cause__, FileNotFoundError):
            raise
    raise DataError(f"missing PCA model {path}; run fit-pca first")


def _load_learner_files(config: RunConfig, cls: int, run: TrainConfig):
    """The class's learner file names, sorted, and their learners of run."""
    pattern = os.path.join(_learners_dir(config, cls), "*.json")
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise ValidationError(
            f"no learner files match {pattern}; run train first")
    return ([os.path.basename(p) for p in paths],
            [load_learner(p, run).learner for p in paths])


def cmd_select(config: RunConfig) -> int:
    _echo_config(config)
    cls = config.digit_class
    model = _require_pca(config, cls)
    [val] = _load_splits(config, [cls], held_out=True)
    run = config.train_config()
    files, learners = _load_learner_files(config, cls, run)
    selection = greedy_select(_member_features(
        config, run, learners, "ideal", config.fid_batch, files), val, model)
    members = selection.member_indices
    manifest = {
        "format": ENSEMBLE_FORMAT,
        "version": ENSEMBLE_VERSION,
        "class": cls,
        "member_files": [files[i] for i in members],
        "member_names": [learners[i].name for i in members],
        "validation_fid": selection.fid_trail[-1],
        "fid_trail": list(selection.fid_trail),
        "singleton_fids": list(selection.singleton_fids),
        "master_seed": config.master_seed,
        "fid_batch": config.fid_batch,
    }
    dp.atomic_write_json(_ensemble_path(config, cls), manifest)
    print(f"selected {len(members)} member(s) for class "
          f"{cls}: {', '.join(manifest['member_names'])}")
    print("validation FID trail: "
          + " -> ".join(f"{v:.4f}" for v in selection.fid_trail))
    return 0


def _load_ensemble_members(config: RunConfig, cls: int, run: TrainConfig):
    """The member file names of the class's manifest and their learners, each
    a learner of run; a command reads only the manifest's class and files."""
    path = _ensemble_path(config, cls)
    if not os.path.exists(path):
        raise DataError(f"missing ensemble manifest {path}; run select first")
    manifest = dp._load_doc(path, ENSEMBLE_FORMAT, ENSEMBLE_VERSION, "; re-run select")
    if type(manifest.get("class")) is not int or manifest["class"] != cls:
        raise DataError(f"{path}: field class must be the JSON integer {cls}, "
                        f"got {manifest.get('class')!r}")
    names = manifest.get("member_files")
    if (not isinstance(names, list) or not names or not all(
            isinstance(name, str) and name and os.path.basename(name) == name
            for name in names) or len(set(names)) < len(names)):
        raise DataError(f"{path}: field member_files must be a nonempty list "
                        f"of distinct learner file names, got {names!r}")
    return names, [load_learner(os.path.join(_learners_dir(config, cls), name),
                                run).learner for name in names]


def _member_mode(config: RunConfig, mode_name: str, image: int, member: int):
    """The "noisy" or "shots" mode of one member's run for one image, its RNG
    stream derived from the master seed, the image and the member."""
    derived = _derived_seed(config.master_seed, image, member)
    if mode_name == "shots":
        return ShotsMode(config.shots, derived)
    return NoisyMode(config.error_model(derived))


def _member_features(config: RunConfig, run: TrainConfig, members,
                     mode_name: str, count: int, files) -> np.ndarray:
    """(members, count, 2^n) features of every member at the master seed's
    first count seeds, from one generate_batch call with rows member-major:
    one group of all the seeds per member in ideal mode, else one group per
    run with its own `_member_mode`. A run that fails numerically (a noisy
    draw that crowds two atoms) names its image and member file."""
    seeds = draw_seeds(np.random.default_rng(config.master_seed), count)
    groups = [(m.params, seeds, EXACT) for m in members]
    if mode_name != "ideal":
        groups = [(m.params, seed, _member_mode(config, mode_name, i, j))
                  for j, m in enumerate(members) for i, seed in enumerate(seeds)]
    try:
        features = generate_batch(groups, run)
    except NumericError as err:     # generate_batch names the failed run
        member, image = divmod(err.run, count)
        raise NumericError(f"image {image}, member {files[member]}: {err}") from err
    return features.reshape(len(members), count, -1)


def _write_variation_csv(variation: np.ndarray, path: str):
    """Per-image variation scores as `image,variation` rows."""
    lines = ["image,variation"] + [f"{i},{float(v)!r}"
                                   for i, v in enumerate(variation)]
    dp.atomic_write_text(path, "\n".join(lines) + "\n")


def _score(val: dp.ImageSet, cls: int, mode_name: str, images):
    """(FID against the held-out images, variations, SCORE_HEADER row)."""
    score, variation = fid_images(val.images, images), variation_scores(images)
    return score, variation, (f"{cls},{mode_name},{score!r},"
                              f"{float(variation.mean())!r}")


def cmd_generate(config: RunConfig) -> int:
    _echo_config(config)
    cls = config.digit_class
    model = _require_pca(config, cls)
    [val] = _load_splits(config, [cls], held_out=True)
    run = config.train_config()
    files, members = _load_ensemble_members(config, cls, run)
    features = _member_features(config, run, members, config.mode, config.count, files)
    images = ensemble_images(model, features).reshape(config.count, dp.IMAGE_SIDE, -1)
    score, variation, row = _score(val, cls, config.mode, images)
    out_dir = os.path.join(config.out_dir, "generated", f"class{cls}",
                           config.mode)
    os.makedirs(out_dir, exist_ok=True)
    for i, image in enumerate(images):
        dp.write_image(image, os.path.join(out_dir, f"img_{i:04d}.pgm"))
    dp.write_montage(images, os.path.join(out_dir, "montage.pgm"))
    dp.atomic_write_text(os.path.join(out_dir, "metrics.csv"),
                         f"{SCORE_HEADER}\n{row}\n")
    _write_variation_csv(variation, os.path.join(out_dir, "variation.csv"))
    print(f"wrote {len(images)} images + montage to {out_dir}")
    print(f"FID vs held-out data: {score:.4f}; "
          f"mean variation: {variation.mean():.6f}")
    return 0


def cmd_evaluate(config: RunConfig, classes) -> int:
    _echo_config(config)
    # every class's inputs are read before any class is generated
    run = config.train_config()
    models = [_require_pca(config, cls) for cls in classes]
    inputs = [(cls, model, val, *_load_ensemble_members(config, cls, run))
              for cls, model, val
              in zip(classes, models, _load_splits(config, classes, held_out=True))]
    rows = [SCORE_HEADER]
    summary = []
    for cls, model, val, files, members in inputs:
        per_mode = []
        for mode_name in ("ideal", "noisy"):
            images = ensemble_images(model, _member_features(
                config, run, members, mode_name, config.fid_batch, files))
            images = images.reshape(config.fid_batch, dp.IMAGE_SIDE, -1)
            score, variation, row = _score(val, cls, mode_name, images)
            rows.append(row)
            _write_variation_csv(variation, os.path.join(
                config.out_dir, f"variation_class{cls}_{mode_name}.csv"))
            per_mode.append(f"{mode_name} FID {score:.4f} "
                            f"(mean variation {variation.mean():.6f})")
        summary.append(f"class {cls}: " + "; ".join(per_mode))
    dp.atomic_write_text(os.path.join(config.out_dir, "evaluation.csv"),
                         "\n".join(rows) + "\n")
    dp.atomic_write_text(os.path.join(config.out_dir, "evaluation.txt"),
                         "\n".join(summary) + "\n")
    for line in summary:
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydgan",
        description="Quantum GAN pipeline on a simulated Rydberg-atom generator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("fit-pca", "fit the per-class PCA model and scaling bounds"),
            ("train", "adversarially train one learner per pulse-shape pair"),
            ("select", "greedy ensemble selection over trained learners"),
            ("generate", "generate images with the selected ensemble"),
            ("evaluate", "FID and variation, ideal vs noisy, per class")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--class", dest="digit_class", metavar="N",
                       help="digit class (evaluate accepts a comma list)")
        p.add_argument("--seed", dest="master_seed", type=int, metavar="N",
                       help="master RNG seed")
        p.add_argument("--out", dest="out_dir", metavar="DIR",
                       help="output directory")
        p.add_argument("--jobs", type=int, metavar="N",
                       help="accepted for compatibility; learners train in "
                            "lock step in one thread, so the value does not "
                            "change speed or output")
        if name == "generate":
            p.add_argument("--count", type=int, metavar="N",
                           help="number of images")
            p.add_argument("--mode", choices=MODES, help="generation mode")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        classes = None
        if args.digit_class is not None:
            try:
                classes = [int(x) for x in args.digit_class.split(",") if x]
            except ValueError:
                raise ValidationError(
                    f"--class must be an integer or comma list, "
                    f"got {args.digit_class!r}")
            if not classes or len(set(classes)) < len(classes):
                raise ValidationError(f"--class must name one or more distinct "
                                      f"classes, got {args.digit_class!r}")
            if len(classes) > 1 and args.command != "evaluate":
                raise ValidationError(
                    f"--class takes one class for {args.command} (only "
                    f"evaluate accepts a comma list), got {args.digit_class!r}")
        overrides = {"digit_class": classes[0] if classes else None,
                     "master_seed": args.master_seed,
                     "out_dir": args.out_dir,
                     "jobs": args.jobs,
                     "count": getattr(args, "count", None),
                     "mode": getattr(args, "mode", None)}
        config = load_config(args.config, overrides)
        classes = classes or [config.digit_class]
        for cls in classes:
            replace(config, digit_class=cls).validate()
        if args.command == "evaluate":
            return cmd_evaluate(config, classes)
        return {"fit-pca": cmd_fit_pca, "train": cmd_train, "select": cmd_select,
                "generate": cmd_generate}[args.command](config)
    except RydganError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
