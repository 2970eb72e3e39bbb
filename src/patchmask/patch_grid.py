"""Image decomposition into flattened patches, and per-patch normalization.

A patch is flattened row-major within its spatial block with the channel
index varying fastest, i.e. the (patch_size, patch_size, channels) block
is flattened in C order. The order is fixed so masks are bit-reproducible
across runs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# patches with population std below this are treated as constant and
# normalize to the all-zero vector
CONSTANT_PATCH_STD = 1e-8


@dataclass
class Image:
    """In-memory image: (height, width, channels) float64 intensities in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DataError(f"image data must be (H, W, C), got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1 or self.data.shape[2] < 1:
            raise DataError(f"image dimensions must be positive, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise DataError("image contains non-finite intensities")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise DataError("image intensities must lie in [0, 1]")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]


@dataclass
class PatchGrid:
    """A rows x cols grid of flattened patches, each of length patch_dim."""

    rows: int
    cols: int
    patch_size: int
    channels: int
    patches: np.ndarray  # (rows * cols, patch_size**2 * channels) float64
    normalized: bool = False

    @property
    def n_patches(self):
        return self.rows * self.cols

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * self.channels


def check_patch_size(patch_size):
    """Raise ConfigError unless patch_size is at least 1."""
    if patch_size < 1:
        raise ConfigError(f"patch_size must be positive, got {patch_size}")


def grid_shape(height, width, patch_size):
    """(rows, cols) of the patch grid of a height x width image. A
    patch_size below 1 is a ConfigError, one that does not divide both
    dimensions a DataError."""
    check_patch_size(patch_size)
    if height % patch_size or width % patch_size:
        raise DataError(
            f"patch_size {patch_size} does not divide image dimensions {height}x{width}"
        )
    return height // patch_size, width // patch_size


def patchify(image, patch_size):
    """Split an image into non-overlapping square patches.

    patch_size must divide both image dimensions (see grid_shape); patch
    (i, j) holds exactly the pixels of spatial block (i, j), flattened in
    the fixed order documented at module level. The result is
    unnormalized.
    """
    h, w, c = image.data.shape
    rows, cols = grid_shape(h, w, patch_size)
    patches = (
        image.data.reshape(rows, patch_size, cols, patch_size, c)
        .transpose(0, 2, 1, 3, 4)
        .reshape(rows * cols, patch_size * patch_size * c)
    )
    return PatchGrid(
        rows=rows,
        cols=cols,
        patch_size=patch_size,
        channels=c,
        patches=np.ascontiguousarray(patches),
        normalized=False,
    )


def unpatchify(grid):
    """Reassemble an unnormalized grid back into the original image."""
    if grid.normalized:
        raise DataError("cannot unpatchify a normalized grid (pixel data was rescaled)")
    ps, c = grid.patch_size, grid.channels
    data = (
        grid.patches.reshape(grid.rows, grid.cols, ps, ps, c)
        .transpose(0, 2, 1, 3, 4)
        .reshape(grid.rows * ps, grid.cols * ps, c)
    )
    return Image(data=data)


def pixel_normalize(grid):
    """Standardize each patch to zero mean and unit population std.

    Constant patches (std < 1e-8) map to the all-zero vector instead of
    raising: flat regions are legitimate and must not abort the pipeline.
    Uses the population (not sample) standard deviation.

    The mean and std are the same reductions numpy's mean and std run, in
    the same order, so the result equals
    where(constant, 0, (p - p.mean(1)) / where(constant, 1, p.std(1)))
    bit for bit; the division and the zeroing work in place on the one
    centred copy.
    """
    if grid.normalized:
        raise DataError("grid is already normalized")
    patches = grid.patches
    n = patches.shape[1]
    centred = patches - np.add.reduce(patches, axis=1, keepdims=True) / n
    stds = np.sqrt(np.add.reduce(np.square(centred), axis=1, keepdims=True) / n)  # ddof=0
    constant = stds < CONSTANT_PATCH_STD
    centred /= np.where(constant, 1.0, stds)
    centred[constant[:, 0]] = 0.0
    return PatchGrid(
        rows=grid.rows,
        cols=grid.cols,
        patch_size=grid.patch_size,
        channels=grid.channels,
        patches=np.ascontiguousarray(centred),
        normalized=True,
    )
