"""Mask overlay rendering: gray out masked patches, outline anchors."""

import numpy as np

from .errors import DataError
from .patch_grid import Image, grid_shape

MASK_FILL = 0.5
ANCHOR_OUTLINE = np.array([1.0, 0.0, 0.0])


def render_mask(image, mask, patch_size):
    """Copy of the image with masked patches filled mid-gray.

    Anchor patches additionally get a one-pixel red outline when the
    image has 3 channels. Unmasked pixels are never altered.
    """
    h, w, c = image.data.shape
    rows, cols = grid_shape(h, w, patch_size)
    if mask.length != rows * cols:
        raise DataError(f"mask length {mask.length} does not match grid {rows}x{cols}")

    data = image.data.copy()
    for idx in np.flatnonzero(mask.masked):
        i, j = divmod(int(idx), cols)
        data[i * patch_size : (i + 1) * patch_size, j * patch_size : (j + 1) * patch_size] = MASK_FILL
    if c == 3:
        for idx in mask.anchors:
            i, j = divmod(int(idx), cols)
            top, left = i * patch_size, j * patch_size
            block = data[top : top + patch_size, left : left + patch_size]
            block[0, :] = ANCHOR_OUTLINE
            block[-1, :] = ANCHOR_OUTLINE
            block[:, 0] = ANCHOR_OUTLINE
            block[:, -1] = ANCHOR_OUTLINE
    return Image(data=data)
