"""Pairwise patch similarity matrices and the blended RGB/embedding measure.

Similarities are epsilon-guarded cosines: zero vectors (constant patches
after normalization) score 0 against everything, including themselves, so
flat patches never act as cluster attractors.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import COSINE_EPS, pairwise_cosine
from .errors import ConfigError, DataError
from .patch_grid import PatchGrid

__all__ = [
    "COSINE_EPS",
    "FeatureGrid",
    "blend",
    "check_alpha",
    "cosine_matrix",
    "sincos_position_encoding",
    "toy_patch_embedding",
]


@dataclass
class FeatureGrid:
    """Per-patch feature vectors, stand-in for transformer embedding outputs."""

    rows: int
    cols: int
    features: np.ndarray  # (rows * cols, dim) float64

    @property
    def n_patches(self):
        return self.rows * self.cols

    @property
    def dim(self):
        return self.features.shape[1]


def _vectors_of(grid):
    if isinstance(grid, PatchGrid):
        if not grid.normalized:
            raise DataError("cosine_matrix requires a pixel-normalized PatchGrid")
        return grid.patches
    if isinstance(grid, FeatureGrid):
        return grid.features
    raise DataError(f"expected PatchGrid or FeatureGrid, got {type(grid).__name__}")


def cosine_matrix(grid):
    """L x L cosine similarity matrix over the grid's patch vectors.

    Entry (i, j) is <x_i, x_j> / (|x_i| * |x_j| + 1e-8); symmetric, entries
    in [-1, 1], and rows/columns of zero vectors are identically 0.
    """
    vectors = _vectors_of(grid)
    if vectors.shape[0] == 0:
        raise DataError("cannot compute similarity of an empty grid")
    return pairwise_cosine(np.ascontiguousarray(vectors, dtype=np.float64))


def check_alpha(alpha):
    """Raise ConfigError unless the blend weight alpha lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"blend alpha must lie in [0, 1], got {alpha}")


def blend(rgb, emb, alpha):
    """Weighted sum alpha * rgb + (1 - alpha) * emb of two similarity matrices."""
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
    must be divisible by 4.
    """
    if dim % 4:
        raise ConfigError(f"position encoding dim must be divisible by 4, got {dim}")
    r = np.repeat(np.arange(rows), cols)
    c = np.tile(np.arange(cols), rows)
    return np.concatenate([_sincos_1d(r, dim // 2), _sincos_1d(c, dim // 2)], axis=1)


def toy_patch_embedding(grid, projection_seed, dim=64):
    """Frozen random linear projection of patches plus positional codes.

    Desk-scale stand-in for a trained patch-embedding layer: the seeded
    projection is fixed for a run, and the additive position encoding
    gives the embedding branch the spatial locality a real embedding
    layer would carry. Same seed, same grid -> bit-identical output.
    """
    if grid.n_patches == 0:
        raise DataError("cannot embed an empty grid")
    rng = np.random.default_rng(projection_seed)
    projection = rng.standard_normal((grid.patch_dim, dim)) / np.sqrt(grid.patch_dim)
    features = grid.patches @ projection + sincos_position_encoding(grid.rows, grid.cols, dim)
    return FeatureGrid(rows=grid.rows, cols=grid.cols, features=features)
