"""Command-line entry points: mask, calibrate, train, stats.

Exit codes: 0 success, 2 configuration error, 3 data error (running out
of memory included), 4 convergence failure.

A JSON config file (--config) may set any of a command's config keys;
a flag given on the command line wins over the file. README.md's CLI
section lists each command's keys and flags; here the tables _MASK,
_CALIBRATE and _TRAIN below declare the keys, and _add_flags makes the
flags from them. Each default is written once: the tables read the
library's from MaskerConfig's fields and from the signatures of
mask_image, calibrate_threshold, train_loop and color_block_dataset, and
hold only those of the keys no library function defaults (patch_size,
render, target, sample_size).
"""

import argparse
import dataclasses
import inspect
import json
import math
import sys
from itertools import repeat
from pathlib import Path

from .batch_shaping import mask_batch
from .calibration import calibrate_threshold, check_search
from .cluster_masker import Mask, MaskerConfig, PreparedImage, Strategy, mask_image
from .errors import ConfigError, ConvergenceError, DataError
from .patch_grid import check_patch_size, grid_shape, pixel_normalize
from .pnm import load_patches, load_samples, read_size, save_image
from .render import render_mask
from .similarity import EMBED_DIM, check_alpha, cosine_matrix
from .stats import stats_report
from .streams import Stream, check_seed, stream
from .synthetic import check_dataset, color_block_dataset
from .toy_contrastive import check_train, train_loop

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


def _keyword_defaults(fn):
    """{name: default} of fn's parameters that have a default, in order."""
    parameters = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in parameters if p.default is not p.empty}


# One table per command, from config key to default: the only place that
# names a command's config keys. Their order is the order the keys are
# checked in, and the order of the commands' flags.
_MASKER = {field.name: field.default for field in dataclasses.fields(MaskerConfig)}
_MASK = {**_MASKER, "patch_size": 16, **_keyword_defaults(mask_image), "render": False}
_CALIBRATE = {
    **{key: _MASK[key] for key in ("anchor_ratio", "patch_size", "seed")},
    "target": 0.5,
    **_keyword_defaults(calibrate_threshold),  # tolerance, max_iters
    "sample_size": 1024,
}
_TRAIN_LOOP = _keyword_defaults(train_loop)
_DATASET = _keyword_defaults(color_block_dataset)
_TRAIN = {**_MASKER, **_TRAIN_LOOP, "dataset": _DATASET}
# the flags that are not their key with dashes, and the help lines
_RENAMED = {"threshold_r": "--threshold", "kmeans_max_iters": "--kmeans-iters",
            "kmeans_mask_fraction": "--kmeans-fraction", "random_mask_ratio": "--random-ratio"}
_HELP = {"alpha": "pixel-cosine weight for the cluster-embedding strategy",
         "render": "write mask overlay images"}


def _input_paths(directory, limit=None):
    """The first limit image paths in directory by name (all by default)."""
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"input directory not found: {directory}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower() in _IMAGE_SUFFIXES)[:limit]
    if not paths:
        raise DataError(f"no .ppm/.pgm/.pnm files in {directory}")
    return paths


def _grids(paths, patch_size, keep=None, in_place=False):
    """Each path's patch grid, lazily, loaded integers first (load_patches)
    and, with in_place, standardized in place. A list keep gets each grid
    appended; without one, no grid is held while the next file loads."""
    for path in paths:
        grid = load_patches(path, patch_size)
        if keep is not None:
            keep.append(grid)
        yield pixel_normalize(grid, in_place=True) if in_place else grid
        del grid


def _sample_records(paths, patch_size, seed):
    """Each path's PreparedImage of its integer samples (load_samples),
    lazily; none is held while the next file loads."""
    for path in paths:
        grid, maxval = load_samples(path, patch_size)
        yield PreparedImage(grid, seed, maxval)
        del grid


def _patch_counts(paths, patch_size):
    """Patches per image, from each file's header and length alone.

    A file whose header fails, that is shorter than its header claims, or
    whose size patch_size does not divide, is loaded after every file
    before it, so the first bad file in name order raises the error a full
    load would: its own load's error, or else the one its header gave.
    """
    counts = []
    for index, path in enumerate(paths):
        try:
            rows, cols = grid_shape(*read_size(path), patch_size)
        except (DataError, OSError):
            for earlier in paths[: index + 1]:
                load_patches(earlier, patch_size)
            raise
        counts.append(rows * cols)
    return counts


def _cmd_mask(args):
    options = _options(args, _load_config_file(args.config), _MASK)
    masker = MaskerConfig(**{key: options[key] for key in _MASKER})
    patch_size = options["patch_size"]
    # bad values are reported before any image loads
    check_alpha(options["alpha"])
    check_patch_size(patch_size)

    paths = _input_paths(args.in_dir)
    # only --render and --dump-sim read a grid after its mask is drawn
    grids = [] if options["render"] or args.dump_sim else None
    # cluster-rgb masks, which are cluster-embedding's at alpha 1, are
    # decided from the integer samples where they can be, and kmeans reads
    # the patches normalized alone: so a grid no flag keeps is held as its
    # samples, or standardized in place, one (L, d) array per image
    rgb = masker.strategy is Strategy.CLUSTER_RGB or (
        masker.strategy is Strategy.CLUSTER_EMBEDDING and options["alpha"] == 1.0)
    # lazy, so one image's grid and record (its normalized vectors and the
    # anchors' cosine rows) are alive at a time, also while the next loads
    if grids is None and rgb:
        prepared = _sample_records(paths, patch_size, masker.seed)
    else:
        in_place = grids is None and masker.strategy is Strategy.KMEANS
        prepared = map(PreparedImage, _grids(paths, patch_size, grids, in_place),
                       repeat(masker.seed))
    # shape before opening any output, so a data error leaves nothing behind
    masks, shaped = mask_batch(
        prepared, masker, options["alpha"],
        (masker.seed, Stream.MASK), (masker.seed, Stream.SHAPE),
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
            save_image(render_mask(grid, mask), out / f"{path.stem}_masked{path.suffix}")
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
    check_seed(seed)
    check_search(options["anchor_ratio"], options["target"], options["tolerance"],
                 options["max_iters"])
    patch_size = options["patch_size"]
    check_patch_size(patch_size)

    paths = _input_paths(args.in_dir, sample_size)
    lengths = _patch_counts(paths, patch_size)
    # a lazy map, so one image's patch vectors are alive at a time, also
    # while the next loads, each standardized in the grid it was loaded into
    sample = map(lambda grid: grid.patches, _grids(paths, patch_size, in_place=True))

    report = calibrate_threshold(
        sample,
        anchor_ratio=options["anchor_ratio"],
        target_ratio=options["target"],
        tolerance=options["tolerance"],
        max_iters=options["max_iters"],
        rng=stream(seed, Stream.CALIBRATE),
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


def _check_addressable(dataset, embed_dim):
    """Raise MemoryError, as for an array that does not fit in memory,
    unless numpy can address every array a train run makes: numpy raises
    ValueError for one whose float64 bytes exceed the largest intp."""
    n, size, colors = dataset["n_images"], dataset["image_size"], dataset["n_colors"]
    length, patch_dim = (size // dataset["patch_size"]) ** 2, 3 * dataset["patch_size"] ** 2
    for shape in [
        (size, size, 3),  # as many floats as an image's (L, patch_dim) patches
        (n, max(patch_dim, colors, embed_dim, length)),  # pooled, bags, embedded, slots
        (n, n),  # logits
        (embed_dim, max(patch_dim, colors)),  # encoder weights
        (length, length),  # an image's cosine row cache, or its K-Means products
        # patch embedding and its projection; the (n_colors, patch_dim)
        # tiles too, as n_colors <= 8 < EMBED_DIM
        (max(patch_dim, length), EMBED_DIM),
    ]:
        if math.prod(shape) * 8 > sys.maxsize:
            raise MemoryError(f"an array of shape {shape} exceeds the address space")


def _cmd_train(args):
    options = _options(args, _load_config_file(args.config), _TRAIN)
    dataset = _options(None, options["dataset"], _DATASET)
    masker = MaskerConfig(**{key: options[key] for key in _MASKER})
    loop = {key: options[key] for key in _TRAIN_LOOP}
    # every setting is checked, and every array found addressable, before
    # any data is made
    check_dataset(**dataset)
    check_train(dataset["n_images"], **loop)
    _check_addressable(dataset, loop["embed_dim"])

    grids, bags = color_block_dataset(**dataset, seed=masker.seed)
    _, rows = train_loop(grids, bags, masker, **loop)

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
    # a mask line holds no anchors, so the cluster count is unknown
    summary = dataclasses.replace(stats_report([Mask.from_line(line) for line in lines]),
                                  mean_cluster_count=None)
    if args.json_out:
        Path(args.json_out).write_text(summary.to_json(), encoding="ascii")
    print(summary.to_text(), end="")
    return 0


def _add_flags(parser, table):
    """One option flag per key of table, in its order, typed by the key's
    default. A flag not given is None, so the key falls back to the config
    file and then to the default (_options)."""
    for key, default in table.items():
        if isinstance(default, Strategy):
            kind = {"choices": [s.value for s in Strategy]}
        elif isinstance(default, bool):
            kind = {"action": "store_true", "default": None}
        else:
            kind = {"type": type(default)}
        flag = _RENAMED.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(flag, dest=key, help=_HELP.get(key), **kind)


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
    _add_flags(mask, _MASK)
    mask.add_argument("--dump-sim", action="store_true", help="write similarity TSVs")
    mask.set_defaults(func=_cmd_mask)

    cal = sub.add_parser("calibrate", help="search the similarity threshold")
    cal.add_argument("--in", dest="in_dir", required=True, help="input image directory")
    cal.add_argument("--config", help="JSON config file (flags override)")
    _add_flags(cal, _CALIBRATE)
    cal.add_argument("--calibration-out", dest="calibration_out", help="write report JSON here")
    cal.set_defaults(func=_cmd_calibrate)

    train = sub.add_parser("train", help="run the toy contrastive trainer")
    train.add_argument("--config", help="JSON config file (flags override)")
    train.add_argument("--out", dest="out_dir", required=True, help="log directory")
    _add_flags(train, {key: _TRAIN[key] for key in ("epochs", "seed")})
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
