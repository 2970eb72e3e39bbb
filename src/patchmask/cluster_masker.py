"""Per-image patch masks: anchor-cluster masking, a K-Means variant, and
a random baseline.

Anchor-cluster masking samples a small set of anchor patches, then masks
every patch whose similarity to some anchor clears a threshold, anchors
included. The threshold is applied as ``similarity >= r`` (closeness means
larger cosine). All strategies are bit-reproducible given (inputs, seed).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import (
    assigned_distances,
    centroid_sums,
    distinct_rows,
    masked_by_anchors,
    nearest_centroids,
)
from .errors import ConfigError, DataError
from .patch_grid import PatchGrid, pixel_normalize
from .similarity import blend, check_alpha, cosine_matrix, toy_patch_embedding

# calibration may push the threshold slightly above the cosine maximum so
# the anchors-only regime is reachable; configs accept the same range
THRESHOLD_MAX = 1.05


class Strategy(str, Enum):
    CLUSTER_RGB = "cluster-rgb"
    CLUSTER_EMBEDDING = "cluster-embedding"
    KMEANS = "kmeans"
    RANDOM = "random"


@dataclass
class MaskerConfig:
    """Knobs for mask generation; defaults follow the reference setup
    (3% anchors, 12 K-Means clusters for at most 10 iterations with half
    of them masked, 50% random baseline ratio)."""

    strategy: Strategy = Strategy.CLUSTER_RGB
    anchor_ratio: float = 0.03
    threshold_r: float = 0.5
    kmeans_k: int = 12
    kmeans_max_iters: int = 10
    kmeans_mask_fraction: float = 0.5
    random_mask_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        try:
            self.strategy = Strategy(self.strategy)
        except ValueError:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{[s.value for s in Strategy]}"
            )
        check_anchor_ratio(self.anchor_ratio)
        if not -1.0 <= self.threshold_r <= THRESHOLD_MAX:
            raise ConfigError(
                f"threshold_r must lie in [-1, {THRESHOLD_MAX}], got {self.threshold_r}"
            )
        if self.kmeans_k < 2:
            raise ConfigError(f"kmeans_k must be >= 2, got {self.kmeans_k}")
        if self.kmeans_max_iters < 1:
            raise ConfigError(f"kmeans_max_iters must be >= 1, got {self.kmeans_max_iters}")
        if not 0.0 < self.kmeans_mask_fraction < 1.0:
            raise ConfigError(
                f"kmeans_mask_fraction must lie in (0, 1), got {self.kmeans_mask_fraction}"
            )
        if not 0.0 < self.random_mask_ratio < 1.0:
            raise ConfigError(
                f"random_mask_ratio must lie in (0, 1), got {self.random_mask_ratio}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Mask:
    """Boolean mask over a grid's patches. anchors is empty for the
    K-Means and random strategies and always a subset of the masked set."""

    masked: np.ndarray  # (L,) bool
    anchors: np.ndarray  # (A,) int64, ascending

    @property
    def length(self):
        return self.masked.size

    def to_line(self):
        """Serialize as one line of '0'/'1' characters."""
        return "".join("1" if m else "0" for m in self.masked)

    @staticmethod
    def from_line(line):
        line = line.strip()
        if not line or set(line) - {"0", "1"}:
            raise DataError(f"mask line must be nonempty '0'/'1' characters, got {line!r}")
        masked = np.frombuffer(line.encode("ascii"), dtype=np.uint8) == ord("1")
        return Mask(masked=masked.copy(), anchors=np.empty(0, dtype=np.int64))


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def check_anchor_ratio(anchor_ratio):
    """Raise ConfigError unless anchor_ratio lies in (0, 0.5]."""
    if not 0.0 < anchor_ratio <= 0.5:
        raise ConfigError(f"anchor_ratio must lie in (0, 0.5], got {anchor_ratio}")


def anchor_count(anchor_ratio, length):
    """Number of anchors: max(1, round(anchor_ratio * L)), half rounded up."""
    check_anchor_ratio(anchor_ratio)
    return max(1, _round_half_up(anchor_ratio * length))


def cluster_mask_from_anchors(sim, anchors, threshold_r):
    """Cluster mask for a fixed anchor set (no sampling).

    A patch j is masked iff j is an anchor or sim[a, j] >= threshold_r
    for some anchor a. This is the deterministic core of cluster_mask;
    calibration's reach rows decide the same membership.
    """
    sim = np.ascontiguousarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DataError(f"similarity matrix must be square, got shape {sim.shape}")
    anchors = np.asarray(anchors, dtype=np.int64)
    masked = masked_by_anchors(sim, anchors, float(threshold_r))
    return Mask(masked=masked, anchors=np.sort(anchors))


def draw_anchors(length, anchor_ratio, rng):
    """anchor_count(anchor_ratio, length) positions drawn uniformly without
    replacement, in draw order: the anchor draw of masking and calibration."""
    return rng.choice(length, size=anchor_count(anchor_ratio, length), replace=False)


def cluster_mask(sim, anchor_ratio, threshold_r, rng):
    """Anchor-cluster mask with anchors sampled uniformly without replacement."""
    anchors = draw_anchors(np.asarray(sim).shape[0], anchor_ratio, rng)
    return cluster_mask_from_anchors(sim, anchors, threshold_r)


def kmeans_cluster(vectors, k, max_iters, rng):
    """Lloyd's algorithm with seeded initial centroids drawn from the data.

    Initial centroids are a random sample (without replacement) of the
    distinct input rows; if fewer than k distinct rows exist, k shrinks to
    that count, which the returned centroids show. Iterates until
    assignments stabilize or max_iters centroid updates have run; empty
    clusters are re-seeded from the point farthest from the centroid it
    was last assigned to. The returned labels are always nearest-centroid
    optimal for the returned centroids.

    Returns (labels, centroids).
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n < k:
        raise DataError(f"need at least k={k} patches, got {n}")
    distinct = distinct_rows(vectors)
    k = min(k, distinct.size)
    centroids = vectors[distinct[rng.choice(distinct.size, size=k, replace=False)]]
    with np.errstate(all="ignore"):  # an overflowed norm only widens the screen
        sq_points = np.einsum("ij,ij->i", vectors, vectors)

    labels = nearest_centroids(vectors, centroids, sq_points)
    for _ in range(max_iters):
        sums, counts = centroid_sums(vectors, labels, k)
        occupied = counts > 0
        updated = np.where(occupied[:, None], sums / np.maximum(counts, 1)[:, None], centroids)
        if not occupied.all():
            # re-seed each empty cluster from the farthest remaining point
            farness = assigned_distances(vectors, centroids, labels)
            for j in np.flatnonzero(~occupied):
                far = int(np.argmax(farness))
                updated[j] = vectors[far]
                farness[far] = -1.0
        centroids = updated
        new_labels = nearest_centroids(vectors, centroids, sq_points)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids


def kmeans_mask_detail(grid, k, max_iters, mask_fraction, rng):
    """K-Means masking with the intermediate clustering exposed.

    Runs Lloyd's algorithm on the grid's vectors, then masks
    ceil(mask_fraction * k) clusters chosen uniformly at random.
    Returns (mask, labels, centroids, chosen_clusters).
    """
    vectors = grid.patches if isinstance(grid, PatchGrid) else np.asarray(grid, dtype=np.float64)
    if not 0.0 < mask_fraction < 1.0:
        raise ConfigError(f"mask_fraction must lie in (0, 1), got {mask_fraction}")
    labels, centroids = kmeans_cluster(vectors, k, max_iters, rng)
    k_eff = centroids.shape[0]
    n_masked = math.ceil(mask_fraction * k_eff - 1e-9)
    chosen = np.sort(rng.choice(k_eff, size=n_masked, replace=False))
    mask = Mask(masked=np.isin(labels, chosen), anchors=np.empty(0, dtype=np.int64))
    return mask, labels, centroids, chosen


def kmeans_mask(grid, k, max_iters, mask_fraction, rng):
    """Mask ceil(mask_fraction * k) randomly chosen K-Means clusters."""
    mask, _, _, _ = kmeans_mask_detail(grid, k, max_iters, mask_fraction, rng)
    return mask


def random_mask(length, ratio, rng):
    """Mask exactly round(ratio * L) uniformly chosen positions."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"mask ratio must lie in (0, 1), got {ratio}")
    n = _round_half_up(ratio * length)
    masked = np.zeros(length, dtype=np.bool_)
    masked[rng.choice(length, size=n, replace=False)] = True
    return Mask(masked=masked, anchors=np.empty(0, dtype=np.int64))


def mask_ratio(mask):
    """Fraction of patches masked."""
    if mask.length == 0:
        raise DataError("mask_ratio of an empty mask is undefined")
    return float(mask.masked.sum()) / mask.length


@dataclass
class PreparedImage:
    """What masking needs of one image that no anchor draw or alpha changes.

    grid is the unnormalized patch grid and strategy the strategy the
    record was made for. Only the fields that strategy needs are set: the
    normalized grid for kmeans, the RGB cosine for both cluster strategies
    and the embedding cosine for cluster-embedding. A random record holds
    the grid alone.
    """

    grid: PatchGrid
    strategy: Strategy
    normalized: PatchGrid = None
    rgb_sim: np.ndarray = None  # (L, L)
    emb_sim: np.ndarray = None  # (L, L)


def prepare_image(grid, config):
    """The once-per-image part of masking an unnormalized patch grid:
    pixel_normalize, the RGB cosine and the embedding cosine, as far as
    config.strategy needs them. The embedding projection is seeded from
    config.seed."""
    if config.strategy is Strategy.RANDOM:
        return PreparedImage(grid=grid, strategy=config.strategy)
    normalized = pixel_normalize(grid)
    if config.strategy is Strategy.KMEANS:
        return PreparedImage(grid=grid, strategy=config.strategy, normalized=normalized)
    rgb_sim, emb_sim = cosine_matrix(normalized), None
    if config.strategy is Strategy.CLUSTER_EMBEDDING:
        emb_sim = cosine_matrix(toy_patch_embedding(grid, config.seed))
    return PreparedImage(grid=grid, strategy=config.strategy, rgb_sim=rgb_sim, emb_sim=emb_sim)


def mask_image(prepared, config, rng, alpha=1.0):
    """Mask one image, prepared by prepare_image, under the configured strategy.

    This is the per-step part of masking: the random draw, K-Means on the
    normalized grid, or the blend of the cached cosines followed by the
    anchor draw. alpha weights the RGB similarity against the embedding
    similarity and only matters for the cluster-embedding strategy, but
    every strategy rejects a value outside [0, 1].
    """
    check_alpha(alpha)
    if prepared.strategy is not config.strategy:
        raise ConfigError(
            f"image was prepared for {prepared.strategy.value}, not {config.strategy.value}"
        )
    if config.strategy is Strategy.RANDOM:
        return random_mask(prepared.grid.n_patches, config.random_mask_ratio, rng)
    if config.strategy is Strategy.KMEANS:
        return kmeans_mask(
            prepared.normalized, config.kmeans_k, config.kmeans_max_iters,
            config.kmeans_mask_fraction, rng,
        )
    sim = prepared.rgb_sim
    if config.strategy is Strategy.CLUSTER_EMBEDDING:
        sim = blend(sim, prepared.emb_sim, alpha)
    return cluster_mask(sim, config.anchor_ratio, config.threshold_r, rng)
