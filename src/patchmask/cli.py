"""Command-line entry points: mask, calibrate, train, stats.

Exit codes: 0 success, 2 configuration error, 3 data error (running out
of memory included), 4 convergence failure.

A JSON config file (--config) may set any of a command's config keys;
a flag given on the command line wins over the file. The keys are

  mask       strategy, anchor_ratio, threshold_r (--threshold), kmeans_k,
             kmeans_max_iters (--kmeans-iters), kmeans_mask_fraction
             (--kmeans-fraction), random_mask_ratio (--random-ratio),
             seed, beta, patch_size, alpha, render
  calibrate  anchor_ratio, target, tolerance, max_iters, patch_size,
             sample_size, seed
  train      mask's keys from strategy to beta, then epochs,
             steps_per_epoch, learning_rate, temperature, alpha_exponent,
             embed_dim, and dataset: an object with the keys n_images,
             image_size, patch_size and n_colors. Only epochs and seed
             have flags.

A key without a flag in parentheses has the flag of its name with dashes
for underscores.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .batch_shaping import check_beta, mask_batch
from .calibration import DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE, calibrate_threshold, check_search
from .cluster_masker import Mask, MaskerConfig, PreparedImage, Strategy
from .errors import ConfigError, ConvergenceError, DataError
from .patch_grid import check_patch_size, grid_shape, patchify, pixel_normalize, unpatchify
from .pnm import load_image, read_size, save_image
from .render import render_mask
from .similarity import check_alpha, cosine_matrix
from .stats import stats_report
from .synthetic import color_block_dataset
from .toy_contrastive import train_loop

_NS_CLI_MASK = 20
_NS_CLI_SHAPE = 21
_NS_CLI_CALIBRATE = 22

_IMAGE_SUFFIXES = {".ppm", ".pgm", ".pnm"}


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}")
    # ValueError covers bytes that are not UTF-8, JSON syntax errors and
    # integers past CPython's digit limit; RecursionError, deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


def _file_value(config, key, default):
    """Config-file value if present, else default.

    A file value must have the type of its default: an int default takes
    an int but not a bool, a float default an int or float that is a
    finite float, a dict default an object, a str default a str and a bool
    default a bool.
    """
    if key not in config:
        return default
    value = config[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, kind = number and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        # compared exactly, so an int past the float range does not overflow
        ok, kind = number and abs(value) <= sys.float_info.max, "a finite number"
    elif isinstance(default, dict):
        ok, kind = isinstance(value, dict), "an object"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    return value


def _options(args, config, defaults):
    """Value of each key in a command's table: the flag if given, else
    the config-file value, else the table's default.

    A config key the table lacks is a ConfigError; args may be None for a
    sub-table that has no flags.
    """
    unknown = set(config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    options = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        options[key] = _file_value(config, key, default) if flag is None else flag
    return options


# One table per command, from config key to default: the only place that
# names a command's config keys.
_MASKER = {field.name: field.default for field in dataclasses.fields(MaskerConfig)}
_MASK = {**_MASKER, "beta": 0.5, "patch_size": 16, "alpha": 1.0, "render": False}
_CALIBRATE = {
    **{key: _MASK[key] for key in ("anchor_ratio", "patch_size", "seed")},
    "target": 0.5,
    "tolerance": DEFAULT_TOLERANCE,
    "max_iters": DEFAULT_MAX_ITERS,
    "sample_size": 1024,
}
# keyword arguments of train_loop
_TRAIN_LOOP = {
    "beta": _MASK["beta"],
    "epochs": 20,
    "steps_per_epoch": 1,
    "learning_rate": 0.5,
    "temperature": 0.07,
    "alpha_exponent": 1.0,
    "embed_dim": 16,
}
_DATASET = {"n_images": 16, "image_size": 32, "patch_size": 8, "n_colors": 8}
_TRAIN = {**_MASKER, **_TRAIN_LOOP, "dataset": _DATASET}


def _input_paths(directory, limit=None):
    """The first limit image paths in directory by name (all by default)."""
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"input directory not found: {directory}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in _IMAGE_SUFFIXES)[:limit]
    if not paths:
        raise DataError(f"no .ppm/.pgm/.pnm files in {directory}")
    return paths


def _grids(paths, patch_size, keep=None):
    """Each path's patch grid, lazily; no image is held beyond its patchify.

    A list keep gets each grid appended as it is made; without one, no grid
    is held past the making of the next.
    """
    for path in paths:
        grid = patchify(load_image(path), patch_size)
        if keep is not None:
            keep.append(grid)
        yield grid


def _patch_counts(paths, patch_size):
    """Patches per image, from each file's header alone.

    A file whose header fails, or whose size patch_size does not divide,
    is loaded and patchified after every file before it, so the first bad
    file in name order raises the error a full load would.
    """
    counts = []
    for index, path in enumerate(paths):
        try:
            rows, cols = grid_shape(*read_size(path), patch_size)
        except (DataError, OSError):
            for _ in _grids(paths[: index + 1], patch_size):
                pass
            raise
        counts.append(rows * cols)
    return counts


def _cmd_mask(args):
    options = _options(args, _load_config_file(args.config), _MASK)
    masker = MaskerConfig(**{key: options[key] for key in _MASKER})
    patch_size = options["patch_size"]
    # bad values are reported before any image loads
    check_alpha(options["alpha"])
    check_beta(options["beta"])
    check_patch_size(patch_size)

    paths = _input_paths(args.in_dir)
    # only --render and --dump-sim read a grid after its mask is drawn
    grids = [] if options["render"] or args.dump_sim else None
    # generators, so one image's grid and record (its normalized vectors
    # and the anchors' cosine rows) are alive at a time
    prepared = (PreparedImage(grid, masker.seed) for grid in _grids(paths, patch_size, grids))
    # shape before opening any output, so a data error leaves nothing behind
    masks, shaped = mask_batch(
        prepared, masker, options["beta"], options["alpha"],
        (masker.seed, _NS_CLI_MASK), (masker.seed, _NS_CLI_SHAPE),
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "masks.txt", "w", encoding="ascii") as fh:
        for mask in masks:
            fh.write(mask.to_line() + "\n")
    with open(out / "batch.txt", "w", encoding="ascii") as fh:
        fh.write(shaped.to_debug_text())

    if options["render"]:
        for path, grid, mask in zip(paths, grids, masks):
            image = unpatchify(grid)
            save_image(render_mask(image, mask, patch_size), out / f"{path.stem}_masked{path.suffix}")
    if args.dump_sim:
        # the full matrix, L GEMVs per image, is built here alone
        for path, grid in zip(paths, grids):
            sim = cosine_matrix(pixel_normalize(grid))
            with open(out / f"{path.stem}_sim.tsv", "w", encoding="ascii") as fh:
                for row in sim:
                    fh.write("\t".join(f"{v:.10g}" for v in row) + "\n")

    print(stats_report(masks).to_text(), end="")
    return 0


def _cmd_calibrate(args):
    options = _options(args, _load_config_file(args.config), _CALIBRATE)
    sample_size, seed = options["sample_size"], options["seed"]
    if sample_size < 1:
        raise ConfigError(f"sample_size must be >= 1, got {sample_size}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    check_search(options["anchor_ratio"], options["target"], options["tolerance"],
                 options["max_iters"])
    patch_size = options["patch_size"]
    check_patch_size(patch_size)

    paths = _input_paths(args.in_dir, sample_size)
    lengths = _patch_counts(paths, patch_size)
    # a generator, so one image's patch vectors are alive at a time
    sample = (pixel_normalize(grid).patches for grid in _grids(paths, patch_size))

    report = calibrate_threshold(
        sample,
        anchor_ratio=options["anchor_ratio"],
        target_ratio=options["target"],
        tolerance=options["tolerance"],
        max_iters=options["max_iters"],
        rng=np.random.default_rng((seed, _NS_CLI_CALIBRATE)),
        lengths=lengths,
    )
    if args.calibration_out:
        Path(args.calibration_out).write_text(report.to_json(), encoding="ascii")
    print(
        f"calibrated r={report.found_r!r} achieved={report.achieved_ratio:.4f} "
        f"target={report.target_ratio} iterations={report.iterations} "
        f"converged={report.converged}"
    )
    return 0 if report.converged else 4


def _cmd_train(args):
    options = _options(args, _load_config_file(args.config), _TRAIN)
    dataset = _options(None, options["dataset"], _DATASET)
    masker = MaskerConfig(**{key: options[key] for key in _MASKER})

    images, bags = color_block_dataset(
        count=dataset["n_images"],
        image_size=dataset["image_size"],
        patch_size=dataset["patch_size"],
        n_colors=dataset["n_colors"],
        seed=masker.seed,
    )
    _, rows = train_loop(
        images,
        bags,
        masker,
        patch_size=dataset["patch_size"],
        **{key: options[key] for key in _TRAIN_LOOP},
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "train_log.csv", "w", encoding="ascii") as fh:
        fh.write("step,loss,alpha,mean_mask_ratio\n")
        for step, loss, alpha, ratio in rows:
            fh.write(f"{step},{loss!r},{alpha!r},{ratio!r}\n")
    print(f"trained {len(rows)} steps: first loss {rows[0][1]:.4f}, last loss {rows[-1][1]:.4f}")
    return 0


def _cmd_stats(args):
    path = Path(args.in_file)
    if not path.is_file():
        raise DataError(f"mask file not found: {args.in_file}")
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise DataError(f"mask file {args.in_file} is not ASCII: {exc}")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DataError(f"no mask lines in {args.in_file}")
    summary = stats_report([Mask.from_line(line) for line in lines])
    if args.json_out:
        Path(args.json_out).write_text(summary.to_json(), encoding="ascii")
    print(summary.to_text(), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="patchmask",
        description="Cluster-based patch masking for contrastive pre-training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mask = sub.add_parser("mask", help="mask a directory of P5/P6 images")
    mask.add_argument("--in", dest="in_dir", required=True, help="input image directory")
    mask.add_argument("--out", dest="out_dir", required=True, help="output directory")
    mask.add_argument("--config", help="JSON config file (flags override)")
    mask.add_argument("--strategy", choices=[s.value for s in Strategy])
    mask.add_argument("--anchor-ratio", dest="anchor_ratio", type=float)
    mask.add_argument("--threshold", dest="threshold_r", type=float)
    mask.add_argument("--kmeans-k", dest="kmeans_k", type=int)
    mask.add_argument("--kmeans-iters", dest="kmeans_max_iters", type=int)
    mask.add_argument("--kmeans-fraction", dest="kmeans_mask_fraction", type=float)
    mask.add_argument("--random-ratio", dest="random_mask_ratio", type=float)
    mask.add_argument("--beta", type=float)
    mask.add_argument("--patch-size", dest="patch_size", type=int)
    mask.add_argument("--alpha", type=float,
                      help="pixel-cosine weight for the cluster-embedding strategy")
    mask.add_argument("--seed", type=int)
    mask.add_argument("--render", action="store_true", default=None,
                      help="write mask overlay images")
    mask.add_argument("--dump-sim", action="store_true", help="write similarity TSVs")
    mask.set_defaults(func=_cmd_mask)

    cal = sub.add_parser("calibrate", help="search the similarity threshold")
    cal.add_argument("--in", dest="in_dir", required=True, help="input image directory")
    cal.add_argument("--config", help="JSON config file (flags override)")
    cal.add_argument("--target", type=float)
    cal.add_argument("--anchor-ratio", dest="anchor_ratio", type=float)
    cal.add_argument("--tolerance", type=float)
    cal.add_argument("--max-iters", dest="max_iters", type=int)
    cal.add_argument("--patch-size", dest="patch_size", type=int)
    cal.add_argument("--sample-size", dest="sample_size", type=int)
    cal.add_argument("--seed", type=int)
    cal.add_argument("--calibration-out", dest="calibration_out", help="write report JSON here")
    cal.set_defaults(func=_cmd_calibrate)

    train = sub.add_parser("train", help="run the toy contrastive trainer")
    train.add_argument("--config", help="JSON config file (flags override)")
    train.add_argument("--epochs", type=int)
    train.add_argument("--out", dest="out_dir", required=True, help="log directory")
    train.add_argument("--seed", type=int)
    train.set_defaults(func=_cmd_train)

    stats = sub.add_parser("stats", help="summarize a masks.txt file")
    stats.add_argument("--in", dest="in_file", required=True, help="mask lines file")
    stats.add_argument("--json", dest="json_out", help="also write JSON summary here")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
