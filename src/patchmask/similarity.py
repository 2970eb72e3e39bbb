"""Patch similarities, row by row, and the blended RGB/embedding measure.

Similarities are epsilon-guarded cosines: zero vectors (constant patches
after normalization) score 0 against everything, including themselves, so
flat patches never act as cluster attractors.

CosineRows is the one place that turns an image's (L, d) vectors into
cosine rows. Masking and calibration read only the anchors' rows of the
L x L matrix, so only those rows are computed, each at most once per
image. cosine_matrix asks a CosineRows for every row, for --dump-sim and
for tests, so its row i equals row i computed alone bit for bit.
"""

import numpy as np

from ._kernels import cosine_rows, row_norms
from .errors import ConfigError, DataError, check_integer
from .patch_grid import PatchGrid
from .streams import Stream, stream

__all__ = [
    "CosineRows",
    "blend",
    "check_alpha",
    "cosine_matrix",
    "sincos_position_encoding",
    "toy_patch_embedding",
]


class CosineRows:
    """The rows of the cosine matrix of (L, d) vectors, each computed on
    first use and kept.

    Each row is one GEMV of cosine_rows, so its bits do not depend on
    which rows are asked for with it: rows(indices) equals those rows of
    cosine_matrix. A record that is masked many times, as a training
    image is once per step, computes each row at most once; once every
    row is known, rows() only gathers.
    """

    def __init__(self, vectors):
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if self.vectors.shape[0] == 0:
            raise DataError("cannot compute similarity of an empty grid")
        self.norms = row_norms(self.vectors)
        length = self.vectors.shape[0]
        self._sim = np.empty((length, length))  # only the known rows are written
        self._known = set()
        self._complete = False

    def rows(self, indices):
        """(len(indices), L) array of the rows at indices, in their order."""
        if not self._complete:
            new = sorted(set(np.asarray(indices).tolist()) - self._known)
            if new:
                self._sim[new] = cosine_rows(self.vectors, self.norms, new)
                self._known.update(new)
                self._complete = len(self._known) == len(self._sim)
        return self._sim[indices]


def cosine_matrix(grid):
    """L x L cosine similarity matrix over a normalized PatchGrid's patches.

    Entry (i, j) is <x_i, x_j> / (|x_i| * |x_j| + 1e-8); entries in
    [-1, 1], and rows/columns of zero vectors are identically 0. Built
    from L GEMVs, one per row, so it costs several times one GEMM; the
    masking path computes only the rows it reads.
    """
    if not (isinstance(grid, PatchGrid) and grid.normalized):
        raise DataError("cosine_matrix requires a pixel-normalized PatchGrid")
    return CosineRows(grid.patches).rows(np.arange(grid.n_patches))


def check_alpha(alpha):
    """Raise ConfigError unless the blend weight alpha lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"blend alpha must lie in [0, 1], got {alpha}")


def blend(rgb, emb, alpha):
    """Weighted sum alpha * rgb + (1 - alpha) * emb of two similarity arrays
    of one shape, such as the same anchors' rows of two matrices; it is
    elementwise, so the rows of a blend are the blend of the rows."""
    rgb = np.asarray(rgb, dtype=np.float64)
    emb = np.asarray(emb, dtype=np.float64)
    if rgb.shape != emb.shape:
        raise DataError(f"similarity size mismatch: {rgb.shape} vs {emb.shape}")
    check_alpha(alpha)
    return alpha * rgb + (1.0 - alpha) * emb


def _sincos_1d(positions, dim):
    omega = 1.0 / (10000.0 ** (np.arange(dim // 2, dtype=np.float64) / (dim / 2.0)))
    args = np.outer(positions.astype(np.float64), omega)
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def sincos_position_encoding(rows, cols, dim):
    """Deterministic 2D sin/cos position codes, one vector per grid cell.

    Half the dimensions encode the row coordinate, half the column; dim
    must be a positive multiple of 4 (ConfigError otherwise).
    """
    check_integer("position encoding dim", dim, 4)
    if dim % 4:
        raise ConfigError(f"position encoding dim must be divisible by 4, got {dim}")
    r = np.repeat(np.arange(rows), cols)
    c = np.tile(np.arange(cols), rows)
    return np.concatenate([_sincos_1d(r, dim // 2), _sincos_1d(c, dim // 2)], axis=1)


EMBED_DIM = 64  # toy_patch_embedding's width


def toy_patch_embedding(grid, projection_seed):
    """Frozen random linear projection of patches plus positional codes.

    Desk-scale stand-in for a trained patch-embedding layer: the seeded
    projection is fixed for a run, and the additive position encoding
    gives the embedding branch the spatial locality a real embedding
    layer would carry. Returns the (L, EMBED_DIM) float64 features, one
    row per patch in the grid's order. Same seed, same grid -> bit-identical
    output. Each call redraws the projection from Stream.PROJECTION's
    stream of projection_seed; masking calls this once per image
    per run, when a PreparedImage's embedding rows are first read, never
    per step. The projection reads raw pixels, so a normalized grid is a
    DataError.
    """
    if grid.normalized:
        raise DataError("cannot embed a normalized grid (the embedding reads raw pixels)")
    if grid.n_patches == 0:
        raise DataError("cannot embed an empty grid")
    codes = sincos_position_encoding(grid.rows, grid.cols, EMBED_DIM)
    rng = stream(projection_seed, Stream.PROJECTION)
    projection = rng.standard_normal((grid.patch_dim, EMBED_DIM)) / np.sqrt(grid.patch_dim)
    return grid.patches @ projection + codes
