"""Every command's outputs, pinned: one sha256 per run of the CLI.

Each run in RUNS executes `patchmask` in-process in a directory of its own
and is digested over its exit code, its stdout, its stderr and every file
it leaves there, by name. tests/golden_outputs.json holds the digests and
the numpy and BLAS versions they were made with. The runs cover `mask`
under each strategy with --render and --dump-sim and with no output flag,
cluster-embedding at an alpha below 1, 16-bit and flat inputs, repeated
tiles at threshold 1 (whose cosines fall just short of 1), `calibrate` converging and
exiting 4, `train` under each strategy, `stats --json`, and the config,
data and convergence errors each command can raise (`mask` searches
nothing, so it has no convergence error; `stats` has no config and no
search, so it has only data errors).

A change that means to move an output regenerates the table with

    PYTHONPATH=src python tests/test_golden_outputs.py --write

and names the runs that moved, and why.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from patchmask.cli import main

TABLE = Path(__file__).resolve().with_name("golden_outputs.json")

_SMALL_TRAIN = {"epochs": 3, "dataset": {"n_images": 4, "image_size": 16, "patch_size": 4}}
_RENDER = ["--render", "--dump-sim"]


def _mask(directory, *flags):
    return ["mask", "--in", directory, "--out", "out", "--patch-size", "8", *flags]


def _train(**config):
    return ["train", "--config", "cfg.json", "--out", "log"], {**_SMALL_TRAIN, **config}


def _calibrate(*flags):
    return ["calibrate", "--in", "../../imgs", "--patch-size", "8",
            "--calibration-out", "report.json", *flags]


# name -> (argv, config file contents or None); input paths are relative
# to the run's directory, so no message names a temporary directory
RUNS = {
    **{f"mask-{s}": (_mask("../../imgs", "--strategy", s, *_RENDER), None)
       for s in ("cluster-rgb", "cluster-embedding", "kmeans", "random")},
    # with no output flag, as a batch run masks: cluster-rgb and kmeans
    # normalize each grid in place, and cluster-embedding runs at the
    # default alpha
    **{f"mask-{s}-masks-only": (_mask("../../imgs", "--strategy", s), None)
       for s in ("cluster-rgb", "cluster-embedding", "kmeans", "random")},
    "mask-cluster-embedding-alpha-0.3": (
        _mask("../../imgs", "--strategy", "cluster-embedding", "--alpha", "0.3", *_RENDER), None),
    "mask-16-bit": (_mask("../../imgs16", *_RENDER), None),
    "mask-16-bit-masks-only": (_mask("../../imgs16"), None),
    "mask-flat-cluster-rgb": (_mask("../../flat", *_RENDER), None),
    # every cosine of a flat image is 0, which threshold 0 masks
    "mask-flat-cluster-rgb-masks-only": (_mask("../../flat", "--threshold", "0"), None),
    # equal textured patches have cosine |x|^2 / (|x|^2 + 1e-8), just below 1
    "mask-tiles-threshold-1-masks-only": (_mask("../../tiles", "--threshold", "1.0"), None),
    "mask-flat-kmeans": (_mask("../../flat", "--strategy", "kmeans"), None),
    "mask-config-error": (_mask("../../imgs", "--anchor-ratio", "0.9"), None),
    "mask-data-error": (_mask("../../bad"), None),
    "calibrate": (_calibrate("--target", "0.3"), None),
    # the frozen anchors meet the target, the fresh ones miss it
    "calibrate-not-converged": (_calibrate("--target", "0.4"), None),
    "calibrate-config-error": (_calibrate("--target", "1.5"), None),
    "calibrate-data-error": (["calibrate", "--in", "../../bad", "--patch-size", "8"], None),
    # anchors alone mask 1/48 of each image, above the target
    "calibrate-convergence-error": (_calibrate("--anchor-ratio", "0.01", "--target", "0.015"),
                                    None),
    **{f"train-{s}": _train(strategy=s)
       for s in ("cluster-rgb", "cluster-embedding", "kmeans", "random")},
    "train-config-error": _train(epochs=0),
    "train-data-error": _train(embed_dim=2**62),
    "train-convergence-error": _train(learning_rate=1e308),
    "stats": (["stats", "--in", "../../masks.txt", "--json", "stats.json"], None),
    "stats-data-error": (["stats", "--in", "../../bad/masks.txt"], None),
}


def _pnm(magic, samples, maxval=255):
    height, width = samples.shape[:2]
    header = f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")
    dtype = np.uint8 if maxval < 256 else ">u2"
    return header + samples.astype(dtype).tobytes()


def write_inputs(root):
    """The runs' inputs under root, made from integers alone: six 64x48 P6
    images of 16 px colour blocks with noise (48 patches at P=8), two
    16-bit 32x32 P5 images of 8 px blocks with noise, two flat P6 images,
    a masks file, a directory holding a truncated image and a malformed
    masks file, and two 64x48 P6 images tiled from two 8 px noise tiles
    each, so their patches repeat exactly."""
    rng = np.random.default_rng(20261020)
    (root / "imgs").mkdir()
    for i in range(6):
        blocks = rng.integers(30, 226, size=(3, 4, 3))
        noise = rng.integers(-24, 25, size=(48, 64, 3))
        samples = np.clip(blocks.repeat(16, axis=0).repeat(16, axis=1) + noise, 0, 255)
        (root / "imgs" / f"img_{i}.ppm").write_bytes(_pnm("P6", samples))
    (root / "imgs16").mkdir()
    for i in range(2):
        blocks = rng.integers(0, 65536, size=(4, 4)).repeat(8, axis=0).repeat(8, axis=1)
        samples = np.clip(blocks + rng.integers(-3000, 3001, size=(32, 32)), 0, 65535)
        (root / "imgs16" / f"deep_{i}.pgm").write_bytes(_pnm("P5", samples[..., None], 65535))
    (root / "flat").mkdir()
    for i, level in enumerate((0, 137)):
        (root / "flat" / f"flat_{i}.ppm").write_bytes(_pnm("P6", np.full((32, 32, 3), level)))
    (root / "bad").mkdir()
    (root / "bad" / "short.ppm").write_bytes(b"P6\n64 48\n255\n" + bytes(100))
    (root / "bad" / "masks.txt").write_text("1100\n01x1\n", encoding="ascii")
    (root / "masks.txt").write_text("110011\n000000\n111111\n010101\n", encoding="ascii")
    (root / "tiles").mkdir()
    for i in range(2):
        tiles = rng.integers(0, 256, size=(2, 8, 8, 3))
        layout = rng.integers(0, 2, size=(6, 8))
        samples = tiles[layout].transpose(0, 2, 1, 3, 4).reshape(48, 64, 3)
        (root / "tiles" / f"tiles_{i}.ppm").write_bytes(_pnm("P6", samples))


def digest_run(cwd, argv, config):
    """sha256 over the run's exit code, stdout, stderr and every file it
    leaves in cwd, each part framed by its name and length."""
    cwd.mkdir(parents=True)
    if config is not None:
        (cwd / "cfg.json").write_text(json.dumps(config), encoding="ascii")
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(previous)
    parts = [("exit", str(code).encode()), ("stdout", out.getvalue().encode()),
             ("stderr", err.getvalue().encode())]
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        parts.append((path.relative_to(cwd).as_posix(), path.read_bytes()))
    digest = hashlib.sha256()
    for name, data in parts:
        digest.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return digest.hexdigest()


def digest_all(root):
    write_inputs(root)
    return {name: digest_run(root / "runs" / name, argv, config)
            for name, (argv, config) in RUNS.items()}


def versions():
    """The numpy and BLAS versions of this machine, which the table records."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def test_every_run_matches_the_table(tmp_path):
    table = json.loads(TABLE.read_text(encoding="ascii"))
    digests = digest_all(tmp_path)
    moved = sorted(name for name in RUNS if table["runs"].get(name) != digests[name])
    assert sorted(table["runs"]) == sorted(RUNS), "the table and RUNS name different runs"
    assert not moved, (
        f"outputs moved in {len(moved)} run(s): {', '.join(moved)}; the table was made "
        f"with {table['versions']}, this machine has {versions()}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = digest_all(Path(tmp))
    TABLE.write_text(json.dumps({"versions": versions(), "runs": runs}, indent=2) + "\n",
                     encoding="ascii")
    print(f"wrote {len(runs)} digests to {TABLE}")
