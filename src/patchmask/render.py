"""Mask overlay rendering: gray out masked patches, outline anchors."""

import numpy as np

from .cluster_masker import check_anchors
from .errors import DataError
from .patch_grid import patchify, unpatchify

MASK_FILL = 0.5
ANCHOR_OUTLINE = np.array([1.0, 0.0, 0.0])


def render_mask(image, mask, patch_size):
    """Copy of the image with masked patches filled mid-gray.

    Anchor patches, which must be distinct masked patches (DataError
    otherwise), additionally get a one-pixel red outline when the image
    has 3 channels. Unmasked pixels are never altered. The work is done
    on the image's patches, which unpatchify puts back in place.
    """
    grid = patchify(image, patch_size)
    if mask.length != grid.n_patches:
        raise DataError(f"mask length {mask.length} does not match grid {grid.rows}x{grid.cols}")
    anchors = check_anchors(mask.anchors, grid.n_patches)
    if not mask.masked[anchors].all():
        raise DataError(f"anchors must be masked patches, got {anchors.tolist()}")

    grid.patches[mask.masked] = MASK_FILL
    if grid.channels == 3:
        blocks = grid.patches.reshape(grid.n_patches, patch_size, patch_size, 3)
        blocks[mask.anchors, 0] = ANCHOR_OUTLINE
        blocks[mask.anchors, -1] = ANCHOR_OUTLINE
        blocks[mask.anchors, :, 0] = ANCHOR_OUTLINE
        blocks[mask.anchors, :, -1] = ANCHOR_OUTLINE
    return unpatchify(grid)
