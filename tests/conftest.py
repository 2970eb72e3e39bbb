import importlib
import os
import sys
from pathlib import Path

# pin BLAS pools before numpy loads so timed tests run single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# `python -m patchmask` child processes import the package under test
_paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, _paths))

import numpy as np
import pytest
from hypothesis import settings

from patchmask.patch_grid import Image

# every run draws the same examples, and no example database replays
# earlier failures in a different order
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def full_cosine(vectors):
    """Every row of the cosine matrix of the (L, d) vectors, from CosineRows."""
    from patchmask.similarity import CosineRows

    return CosineRows(vectors).rows(np.arange(len(vectors)))


def random_similarity(rng, length, dim=8):
    """Similarity matrix of random unit-ish vectors (realistic cosine structure)."""
    return full_cosine(rng.standard_normal((length, dim)))


def cluster_mask(sim, anchor_ratio, threshold_r, rng):
    """Anchor-cluster mask of a full L x L matrix, drawn as mask_image
    draws: draw_anchors, then the mask of the anchors' rows."""
    from patchmask.cluster_masker import cluster_mask_from_anchors, draw_anchors

    anchors = draw_anchors(len(sim), anchor_ratio, rng)
    return cluster_mask_from_anchors(sim[anchors], anchors, threshold_r)


_NS_IMAGE = 10


def _bilinear_resize(a, out_h, out_w):
    in_h, in_w = a.shape
    r = np.linspace(0.0, in_h - 1.0, out_h)
    c = np.linspace(0.0, in_w - 1.0, out_w)
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    fr = (r - r0)[:, None]
    fc = (c - c0)[None, :]
    # each source row is interpolated across the columns once; the rows
    # are then gathered and blended
    across = a[:, c0] * (1 - fc) + a[:, c1] * fc
    return across[r0] * (1 - fr) + across[r1] * fr


def smoothed_noise_image(height, width, channels=3, rng=None):
    """One image of multi-octave smoothed noise, rescaled to [0, 1]."""
    if rng is None:
        rng = np.random.default_rng(0)
    shared = _octave_noise(height, width, rng)
    planes = []
    for _ in range(channels):
        planes.append(0.7 * shared + 0.3 * _octave_noise(height, width, rng))
    data = np.stack(planes, axis=2)
    lo, hi = data.min(), data.max()
    return Image(data=(data - lo) / max(hi - lo, 1e-12))


def _octave_noise(height, width, rng):
    out = np.zeros((height, width))
    size, amplitude = 4, 1.0
    while size <= max(height, width) // 2:
        out += amplitude * _bilinear_resize(rng.standard_normal((size, size)), height, width)
        size *= 2
        amplitude *= 0.55
    return out


def smoothed_noise_images(count, height, width, channels=3, seed=0):
    """Deterministic batch of smoothed-noise images (per-image sub-seeds)."""
    return [
        smoothed_noise_image(height, width, channels, np.random.default_rng((seed, _NS_IMAGE, i)))
        for i in range(count)
    ]


@pytest.fixture
def calls_to(monkeypatch):
    """calls_to(module, name) records every call of patchmask.<module>.<name>,
    wherever in the package that function is bound, and returns the list of
    the calls' positional arguments after the first. The first, the array
    or image the call works on, is not kept, so recording a call keeps no
    per-image data alive."""

    def record(module, name):
        original = getattr(importlib.import_module(f"patchmask.{module}"), name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "patchmask" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return record


# calls of pixel_normalize, cosine row sources that compute rows, and calls
# of toy_patch_embedding, per image when each image is prepared once
PREPARE_CALLS = {
    "cluster-embedding": (1, 2, 1),
    "cluster-rgb": (1, 1, 0),
    "kmeans": (1, 0, 0),
    "random": (0, 0, 0),
}


def rows_by_source(row_calls):
    """The rows each source computed, in call order, from recorded calls of
    _kernels.cosine_rows: one list per norms array, which identifies the
    source (the record keeps each norms array alive, so no id is reused)."""
    sources = {}
    for norms, rows in row_calls:
        sources.setdefault(id(norms), []).extend(np.asarray(rows).tolist())
    return list(sources.values())


@pytest.fixture
def prepare_calls(calls_to):
    """Recorded calls of pixel_normalize, cosine_rows and
    toy_patch_embedding, in the order of PREPARE_CALLS's counts; the
    cosine_rows calls count by source (rows_by_source)."""
    return [calls_to("patch_grid", "pixel_normalize"), calls_to("_kernels", "cosine_rows"),
            calls_to("similarity", "toy_patch_embedding")]


def prepared_counts(prepare_calls):
    """PREPARE_CALLS-shaped counts of what prepare_calls recorded."""
    normalize, rows, embed = prepare_calls
    return [len(normalize), len(rows_by_source(rows)), len(embed)]
