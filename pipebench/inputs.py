"""Seeded benchmark inputs, written as binary PPM files.

The generator is the benchmark's own, so the inputs stay the same across
commits whatever happens to ``patchmask.synthetic``. Images cycle through
a fixed mix of four kinds, chosen so that each masking path does varied
work:

- ``noise``: multi-octave smoothed noise, every patch distinct;
- ``flat``: noise with constant gray rectangles, whose patches normalize
  to zero vectors;
- ``blocks``: noise with a grid-aligned region tiled from a few textures,
  so patches repeat exactly and K-Means sees fewer distinct rows;
- ``flat-blocks``: both.
"""

import hashlib
from pathlib import Path

import numpy as np

KINDS = ("noise", "flat", "blocks", "flat-blocks")
TILE = 16  # repeated blocks align to the benchmark's patch size


def _interp_matrix(n_out, n_in):
    """(n_out, n_in) bilinear weights sampling n_in points evenly."""
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    lo = np.minimum(np.floor(pos).astype(np.int64), n_in - 2)
    frac = pos - lo
    weights = np.zeros((n_out, n_in))
    weights[np.arange(n_out), lo] = 1.0 - frac
    weights[np.arange(n_out), lo + 1] = frac
    return weights


def _octave_noise(rng, size, top):
    out = np.zeros((size, size))
    side, amplitude = 4, 1.0
    while side <= top:
        up = _interp_matrix(size, side)
        out += amplitude * (up @ rng.standard_normal((side, side)) @ up.T)
        side *= 2
        amplitude *= 0.55
    return out


def _noise_image(rng, size):
    # fine octaves are shared by the channels: they cost the most to make
    shared = _octave_noise(rng, size, size // 2)
    data = np.stack([0.7 * shared + 0.3 * _octave_noise(rng, size, 16) for _ in range(3)], axis=2)
    return (data - data.min()) / max(data.max() - data.min(), 1e-12)


def _add_flat(data, rng):
    size = data.shape[0]
    for _ in range(int(rng.integers(2, 4))):
        h, w = rng.integers(size // 8, size // 3, size=2)
        top, left = rng.integers(0, size - h), rng.integers(0, size - w)
        data[top : top + h, left : left + w] = rng.uniform(0.1, 0.9)  # gray: constant patches


def _add_blocks(data, rng):
    cells = data.shape[0] // TILE
    tiles = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 4)), TILE, TILE, 3))
    rows, cols = rng.integers(cells // 3, cells // 2 + 1, size=2)
    top, left = rng.integers(0, cells - rows + 1), rng.integers(0, cells - cols + 1)
    choice = rng.integers(0, tiles.shape[0], size=(rows, cols))
    for i in range(rows):
        for j in range(cols):
            y, x = (top + i) * TILE, (left + j) * TILE
            data[y : y + TILE, x : x + TILE] = tiles[choice[i, j]]


def make_image(seed, index, size):
    """uint8 (size, size, 3) image number ``index`` of the seeded set."""
    rng = np.random.default_rng((seed, index))
    kind = KINDS[index % len(KINDS)]
    data = _noise_image(rng, size)
    if "blocks" in kind:
        _add_blocks(data, rng)
    if "flat" in kind:
        _add_flat(data, rng)
    return np.round(data * 255.0).astype(np.uint8)


def write_images(directory, seed, count, size=224):
    """Write ``count`` P6 files into ``directory``; return the set's sha256."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for index in range(count):
        pixels = make_image(seed, index, size)
        blob = f"P6\n{size} {size}\n255\n".encode("ascii") + pixels.tobytes()
        name = f"img_{index:04d}.ppm"
        (directory / name).write_bytes(blob)
        digest.update(name.encode("ascii") + blob)
    return digest.hexdigest()
