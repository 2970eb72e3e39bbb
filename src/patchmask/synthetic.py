"""Synthetic data: smoothed-noise images for calibration runs and a
color-block captioned dataset for the toy trainer.

Smoothed noise sums bilinearly upsampled Gaussian octaves (a crude 1/f
spectrum), giving patches with natural-looking correlation structure.
The captioned dataset paints each patch block with one of a few palette
colors modulated by a fixed per-color texture; the caption token bag
counts the block colors, so captions are a deterministic function of
image content and same-color blocks cluster cleanly under cosine.
"""

import numpy as np

from .errors import ConfigError
from .patch_grid import Image

_NS_IMAGE = 10
_NS_LAYOUT = 11
_NS_TEXTURE = 12

PALETTE = np.array(
    [
        [0.85, 0.10, 0.10],
        [0.10, 0.75, 0.15],
        [0.15, 0.20, 0.85],
        [0.90, 0.85, 0.10],
        [0.10, 0.80, 0.80],
        [0.80, 0.15, 0.80],
        [0.90, 0.55, 0.15],
        [0.35, 0.35, 0.35],
    ]
)


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
    top = a[r0][:, c0] * (1 - fc) + a[r0][:, c1] * fc
    bottom = a[r1][:, c0] * (1 - fc) + a[r1][:, c1] * fc
    return top * (1 - fr) + bottom * fr


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


def color_block_dataset(count, image_size, patch_size, n_colors=8, seed=0):
    """Images of textured color blocks with caption token-bag counts.

    Each patch-sized block is painted with one of 2-3 palette colors
    chosen per image; every color carries a fixed seeded texture so
    same-color blocks are identical vectors. The token bag over the color
    vocabulary counts how many blocks show each color.

    Returns (images, bags) with bags of shape (count, n_colors).
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if not 2 <= n_colors <= PALETTE.shape[0]:
        raise ConfigError(f"n_colors must lie in [2, {PALETTE.shape[0]}], got {n_colors}")
    if patch_size < 1 or image_size < patch_size or image_size % patch_size:
        raise ConfigError(
            f"patch_size must be >= 1 and divide image_size, got {patch_size} and {image_size}"
        )
    blocks = image_size // patch_size

    textures = []
    for c in range(n_colors):
        t = np.random.default_rng((seed, _NS_TEXTURE, c)).standard_normal((patch_size, patch_size))
        t = (t - t.mean()) / max(t.std(), 1e-12)
        textures.append(t)

    images, bags = [], np.zeros((count, n_colors))
    for i in range(count):
        rng = np.random.default_rng((seed, _NS_LAYOUT, i))
        present = rng.choice(n_colors, size=int(rng.integers(2, 4)), replace=False)
        layout = present[rng.integers(0, present.size, size=(blocks, blocks))]
        data = np.empty((image_size, image_size, 3))
        for bi in range(blocks):
            for bj in range(blocks):
                color = int(layout[bi, bj])
                block = PALETTE[color][None, None, :] * (
                    0.75 + 0.2 * textures[color][:, :, None]
                )
                data[
                    bi * patch_size : (bi + 1) * patch_size,
                    bj * patch_size : (bj + 1) * patch_size,
                ] = block
        images.append(Image(data=np.clip(data, 0.0, 1.0)))
        bags[i] = np.bincount(layout.ravel(), minlength=n_colors)
    return images, bags
