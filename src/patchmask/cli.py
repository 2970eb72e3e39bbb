"""Command-line entry points: mask, calibrate, train, stats.

Exit codes: 0 success, 2 configuration error, 3 data error, 4
convergence failure. A JSON config file may supply any long-option value
(keys use underscores); explicit command-line flags win over the file.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .batch_shaping import shape_batch
from .calibration import DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE, calibrate_threshold
from .cluster_masker import Mask, MaskerConfig, Strategy, mask_image
from .errors import ConfigError, ConvergenceError, DataError
from .patch_grid import patchify, pixel_normalize
from .pnm import load_image, save_image
from .render import render_mask
from .similarity import cosine_matrix
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


def _file_value(config, key, default):
    """Config-file value if present, else default.

    A file value must have the type of its default: an int default takes
    an int but not a bool, a float default a finite int or float, a str
    default a str and a bool default a bool.
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
        ok, kind = number and math.isfinite(value), "a finite number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    return value


def _resolve(args, config, key, default):
    """CLI flag if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return _file_value(config, key, default)


def _check_config_keys(config, allowed):
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _input_images(directory):
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"input directory not found: {directory}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in _IMAGE_SUFFIXES)
    if not paths:
        raise DataError(f"no .ppm/.pgm/.pnm files in {directory}")
    return paths, [load_image(p) for p in paths]


def _masker_config(args, config):
    return MaskerConfig(
        strategy=_resolve(args, config, "strategy", Strategy.CLUSTER_RGB.value),
        anchor_ratio=_resolve(args, config, "anchor_ratio", 0.03),
        threshold_r=_resolve(args, config, "threshold_r", 0.5),
        kmeans_k=_resolve(args, config, "kmeans_k", 12),
        kmeans_max_iters=_resolve(args, config, "kmeans_max_iters", 10),
        kmeans_mask_fraction=_resolve(args, config, "kmeans_mask_fraction", 0.5),
        random_mask_ratio=_resolve(args, config, "random_mask_ratio", 0.5),
        seed=_resolve(args, config, "seed", 0),
    )


_MASKER_KEYS = {
    "strategy",
    "anchor_ratio",
    "threshold_r",
    "kmeans_k",
    "kmeans_max_iters",
    "kmeans_mask_fraction",
    "random_mask_ratio",
    "seed",
}


def _cmd_mask(args):
    config = _load_config_file(args.config)
    _check_config_keys(config, _MASKER_KEYS | {"beta", "patch_size", "render", "alpha"})
    masker = _masker_config(args, config)
    beta = _resolve(args, config, "beta", 0.5)
    patch_size = _resolve(args, config, "patch_size", 16)
    alpha = _resolve(args, config, "alpha", 1.0)
    render = args.render or _file_value(config, "render", False)

    paths, images = _input_images(args.in_dir)
    masks = []
    for idx, image in enumerate(images):
        rng = np.random.default_rng((masker.seed, _NS_CLI_MASK, idx))
        masks.append(mask_image(image, patch_size, masker, rng, alpha))
    # shape before opening any output, so a data error leaves nothing behind
    shaped = shape_batch(masks, beta, np.random.default_rng((masker.seed, _NS_CLI_SHAPE)))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "masks.txt", "w", encoding="ascii") as fh:
        for mask in masks:
            fh.write(mask.to_line() + "\n")
    with open(out / "batch.txt", "w", encoding="ascii") as fh:
        fh.write(shaped.to_debug_text())

    if render:
        for path, image, mask in zip(paths, images, masks):
            save_image(render_mask(image, mask, patch_size), out / f"{path.stem}_masked{path.suffix}")
    if args.dump_sim:
        for path, image in zip(paths, images):
            sim = cosine_matrix(pixel_normalize(patchify(image, patch_size)))
            with open(out / f"{path.stem}_sim.tsv", "w", encoding="ascii") as fh:
                for row in sim:
                    fh.write("\t".join(f"{v:.10g}" for v in row) + "\n")

    print(stats_report(masks).to_text(), end="")
    return 0


def _cmd_calibrate(args):
    config = _load_config_file(args.config)
    _check_config_keys(
        config,
        {"anchor_ratio", "target", "tolerance", "max_iters", "patch_size", "seed", "sample_size"},
    )
    anchor_ratio = _resolve(args, config, "anchor_ratio", 0.03)
    target = _resolve(args, config, "target", 0.5)
    tolerance = _resolve(args, config, "tolerance", DEFAULT_TOLERANCE)
    max_iters = _resolve(args, config, "max_iters", DEFAULT_MAX_ITERS)
    patch_size = _resolve(args, config, "patch_size", 16)
    seed = _resolve(args, config, "seed", 0)

    _, images = _input_images(args.in_dir)
    sample_size = _resolve(args, config, "sample_size", min(1024, len(images)))
    if sample_size < 1:
        raise ConfigError(f"sample_size must be >= 1, got {sample_size}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    sample = []
    for image in images[:sample_size]:
        sample.append(cosine_matrix(pixel_normalize(patchify(image, patch_size))))

    report = calibrate_threshold(
        sample,
        anchor_ratio=anchor_ratio,
        target_ratio=target,
        tolerance=tolerance,
        max_iters=max_iters,
        rng=np.random.default_rng((seed, _NS_CLI_CALIBRATE)),
    )
    if args.calibration_out:
        Path(args.calibration_out).write_text(report.to_json(), encoding="ascii")
    print(
        f"calibrated r={report.found_r!r} achieved={report.achieved_ratio:.4f} "
        f"target={report.target_ratio} iterations={report.iterations} "
        f"converged={report.converged}"
    )
    return 0 if report.converged else 4


_TRAIN_KEYS = _MASKER_KEYS | {
    "beta",
    "epochs",
    "steps_per_epoch",
    "learning_rate",
    "temperature",
    "alpha_exponent",
    "embed_dim",
    "dataset",
}
_DATASET_KEYS = {"n_images", "image_size", "patch_size", "n_colors"}


def _cmd_train(args):
    config = _load_config_file(args.config)
    _check_config_keys(config, _TRAIN_KEYS)
    dataset_cfg = config.get("dataset", {})
    if not isinstance(dataset_cfg, dict):
        raise ConfigError("dataset config must be a JSON object")
    _check_config_keys(dataset_cfg, _DATASET_KEYS)

    masker = _masker_config(args, config)
    beta = _resolve(args, config, "beta", 0.5)
    epochs = _resolve(args, config, "epochs", 20)
    steps_per_epoch = _resolve(args, config, "steps_per_epoch", 1)
    learning_rate = _resolve(args, config, "learning_rate", 0.5)
    temperature = _resolve(args, config, "temperature", 0.07)
    alpha_exponent = _resolve(args, config, "alpha_exponent", 1.0)
    embed_dim = _resolve(args, config, "embed_dim", 16)
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")

    patch_size = _file_value(dataset_cfg, "patch_size", 8)
    images, bags = color_block_dataset(
        count=_file_value(dataset_cfg, "n_images", 16),
        image_size=_file_value(dataset_cfg, "image_size", 32),
        patch_size=patch_size,
        n_colors=_file_value(dataset_cfg, "n_colors", 8),
        seed=masker.seed,
    )
    _, rows = train_loop(
        images,
        bags,
        masker,
        epochs=epochs,
        patch_size=patch_size,
        beta=beta,
        learning_rate=learning_rate,
        embed_dim=embed_dim,
        steps_per_epoch=steps_per_epoch,
        alpha_exponent=alpha_exponent,
        temperature=temperature,
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
    lines = [line for line in path.read_text(encoding="ascii").splitlines() if line.strip()]
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
    mask.add_argument("--render", action="store_true", help="write mask overlay images")
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
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
