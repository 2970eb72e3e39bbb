"""Image decomposition into flattened patches, and per-patch normalization.

A patch is flattened row-major within its spatial block with the channel
index varying fastest, i.e. the (patch_size, patch_size, channels) block
is flattened in C order. The order is fixed so masks are bit-reproducible
across runs.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, check_integer

# patches with population std below this are treated as constant and
# normalize to the all-zero vector
CONSTANT_PATCH_STD = 1e-8
_SQUARE_ROWS = 16  # rows per block of pixel_normalize's squares


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
    """A rows x cols grid of flattened patches, each of length patch_dim,
    checked on construction: rows and cols are integers >= 0, patch_size
    and channels integers >= 1 (ConfigError otherwise), and patches, made
    float64 (a float64 array is not copied), has shape (n_patches,
    patch_dim) (DataError otherwise). No value is scanned."""

    rows: int
    cols: int
    patch_size: int
    channels: int
    patches: np.ndarray  # (rows * cols, patch_size**2 * channels) float64
    normalized: bool = False

    def __post_init__(self):
        self.patches = np.asarray(self.patches, dtype=np.float64)
        check_integer("rows", self.rows, 0)
        check_integer("cols", self.cols, 0)
        check_integer("patch_size", self.patch_size, 1)
        check_integer("channels", self.channels, 1)
        if self.patches.shape != (self.n_patches, self.patch_dim):
            raise DataError(f"a {self.rows}x{self.cols} grid of {self.patch_size}-pixel, "
                            f"{self.channels}-channel patches needs patches of shape "
                            f"{(self.n_patches, self.patch_dim)}, got {self.patches.shape}")

    @property
    def n_patches(self):
        return self.rows * self.cols

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * self.channels


def check_patch_size(patch_size):
    """Raise ConfigError unless patch_size is an integer of at least 1."""
    check_integer("patch_size", patch_size)
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
    return raster_patches(image.data, patch_size)


def raster_patches(raster, patch_size, maxval=None):
    """patchify's grid of an (H, W, C) raster, as float64, each sample
    divided by maxval on its way in if one is given: a file's maxval for
    its integers. Without one the values are copied as they are."""
    h, w, c = raster.shape
    rows, cols = grid_shape(h, w, patch_size)
    blocks = raster.reshape(rows, patch_size, cols, patch_size, c).transpose(0, 2, 1, 3, 4)
    patches = np.empty((rows * cols, patch_size * patch_size * c))
    if maxval is None:
        np.copyto(patches.reshape(blocks.shape), blocks)
    else:
        np.divide(blocks, maxval, out=patches.reshape(blocks.shape))
    return PatchGrid(rows=rows, cols=cols, patch_size=patch_size, channels=c, patches=patches)


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


def pixel_normalize(grid, in_place=False):
    """Standardize each patch to zero mean and unit population std.

    Constant patches (std < 1e-8) map to the all-zero vector instead of
    raising: flat regions are legitimate and must not abort the pipeline.
    Uses the population (not sample) standard deviation. A patch holding
    a NaN or inf value is a DataError, raised before any value is changed.

    By default the result is a new grid and the input is left untouched.
    With in_place=True the grid's own patches are standardized and the
    grid itself, now marked normalized, is returned: the raw values are
    gone, so only a caller that never reads them again passes it, and an
    image then needs one (L, d) array from its samples to its vectors.
    Both forms run the one body below and give the same bits.

    The mean and std are the same reductions numpy's mean and std run, in
    the same order, so the result equals
    where(constant, 0, (p - p.mean(1)) / where(constant, 1, p.std(1)))
    bit for bit; the division and the zeroing work in place on the one
    centred array. The squares go through one small buffer, a block of
    rows at a time: a row's sum is the same reduction in any block, and a
    second (L, d) array's fresh pages would cost more than the squaring.
    """
    if grid.normalized:
        raise DataError("grid is already normalized")
    patches = grid.patches
    n = patches.shape[1]
    means = np.add.reduce(patches, axis=1, keepdims=True) / n
    # a NaN or inf value makes its patch's mean non-finite: an O(L) check
    # in place of an O(L d) scan of every value
    if not np.isfinite(means).all():
        raise DataError("a patch holds a non-finite value, or values whose sum overflows")
    centred = np.subtract(patches, means, out=patches if in_place else None)
    squares = np.empty((min(_SQUARE_ROWS, len(centred)), n))
    sums = np.empty((len(centred), 1))
    for start in range(0, len(centred), _SQUARE_ROWS):
        block = np.square(centred[start : start + _SQUARE_ROWS], out=squares[: len(sums) - start])
        np.add.reduce(block, axis=1, keepdims=True, out=sums[start : start + _SQUARE_ROWS])
    stds = np.sqrt(sums / n)  # ddof=0
    constant = stds < CONSTANT_PATCH_STD
    centred /= np.where(constant, 1.0, stds)
    centred[constant[:, 0]] = 0.0
    if in_place:
        grid.normalized = True
        return grid
    return replace(grid, patches=np.ascontiguousarray(centred), normalized=True)
