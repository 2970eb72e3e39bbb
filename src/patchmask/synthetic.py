"""Synthetic data for the toy trainer: a color-block captioned dataset.

Each patch is painted with one of a few palette colors modulated by a
fixed per-color texture; the caption token bag counts the patch colors,
so captions are a deterministic function of image content and same-color
patches cluster cleanly under cosine.
"""

import numpy as np

from .errors import ConfigError, check_integer
from .patch_grid import PatchGrid
from .streams import Stream, stream

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


def check_dataset(n_images, image_size, patch_size, n_colors):
    """Raise ConfigError unless color_block_dataset can make this dataset."""
    check_integer("n_images", n_images, 1)
    check_integer("image_size", image_size)
    check_integer("patch_size", patch_size)
    check_integer("n_colors", n_colors)
    if not 2 <= n_colors <= PALETTE.shape[0]:
        raise ConfigError(f"n_colors must lie in [2, {PALETTE.shape[0]}], got {n_colors}")
    if patch_size < 1 or image_size < patch_size or image_size % patch_size:
        raise ConfigError(
            f"patch_size must be >= 1 and divide image_size, got {patch_size} and {image_size}"
        )


def _texture(seed, color, patch_size):
    """Color's (patch_size, patch_size) texture, standardized."""
    t = stream(seed, Stream.TEXTURE, color).standard_normal((patch_size, patch_size))
    return (t - t.mean()) / max(t.std(), 1e-12)


def color_block_dataset(n_images=16, image_size=32, patch_size=8, n_colors=8, *, seed):
    """Patch grids of textured color blocks with caption token-bag counts.

    Each patch shows one of 2-3 palette colors (no more than n_colors)
    chosen per image; every color carries a fixed seeded texture, so the
    patches of a color are one flattened tile: the color times its
    texture, clipped to [0, 1]. The token bag over the color vocabulary
    counts how many patches show each color.

    Returns (grids, bags): one unnormalized image_size x image_size
    PatchGrid of 3 channels per image, and bags of shape (n_images,
    n_colors). The defaults are `patchmask train`'s; the CLI reads them
    from here.
    """
    check_dataset(n_images, image_size, patch_size, n_colors)
    blocks = image_size // patch_size
    textures = np.array([_texture(seed, c, patch_size) for c in range(n_colors)])
    tiles = np.clip(
        PALETTE[:n_colors, None, None, :] * (0.75 + 0.2 * textures[..., None]), 0.0, 1.0
    ).reshape(n_colors, -1)

    grids, bags = [], np.zeros((n_images, n_colors))
    for i in range(n_images):
        rng = stream(seed, Stream.LAYOUT, i)
        present = rng.choice(n_colors, size=min(int(rng.integers(2, 4)), n_colors), replace=False)
        layout = present[rng.integers(0, present.size, size=(blocks, blocks))].ravel()
        grids.append(PatchGrid(rows=blocks, cols=blocks, patch_size=patch_size, channels=3,
                               patches=tiles[layout]))
        bags[i] = np.bincount(layout, minlength=n_colors)
    return grids, bags
