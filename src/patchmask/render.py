"""Mask overlay rendering: gray out masked patches, outline anchors."""

from dataclasses import replace

import numpy as np

from .errors import DataError
from .patch_grid import unpatchify

MASK_FILL = 0.5
ANCHOR_OUTLINE = np.array([1.0, 0.0, 0.0])


def render_mask(grid, mask):
    """The image of an unnormalized PatchGrid with its masked patches
    filled mid-gray.

    Anchor patches additionally get a one-pixel red outline when the grid
    has 3 channels. Unmasked pixels are never altered. The work is done on
    a copy of the grid's patches, which unpatchify puts in place; the grid
    itself is left untouched.
    """
    if mask.length != grid.n_patches:
        raise DataError(f"mask length {mask.length} does not match grid {grid.rows}x{grid.cols}")
    patches = grid.patches.copy()
    patches[mask.masked] = MASK_FILL
    if grid.channels == 3:
        blocks = patches.reshape(grid.n_patches, grid.patch_size, grid.patch_size, 3)
        blocks[mask.anchors, 0] = ANCHOR_OUTLINE
        blocks[mask.anchors, -1] = ANCHOR_OUTLINE
        blocks[mask.anchors, :, 0] = ANCHOR_OUTLINE
        blocks[mask.anchors, :, -1] = ANCHOR_OUTLINE
    return unpatchify(replace(grid, patches=patches))
