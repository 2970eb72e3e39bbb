"""Per-image patch masks: anchor-cluster masking, a K-Means variant, and
a random baseline.

Anchor-cluster masking samples a small set of anchor patches, then masks
every patch whose similarity to some anchor clears a threshold, anchors
included. The threshold is applied as ``similarity >= r`` (closeness means
larger cosine). Only the anchors' rows of the similarity matrix are read,
so only those are computed. All strategies are bit-reproducible given
(inputs, seed).
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
from .similarity import CosineRows, blend, check_alpha, toy_patch_embedding

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


def ceil_count(x):
    """ceil(x) for a count x >= 0, forgiving 1e-9 of rounding error above
    an integer, and at least 1 when x is positive."""
    return max(1, math.ceil(x - 1e-9)) if x > 0 else 0


def check_anchor_ratio(anchor_ratio):
    """Raise ConfigError unless anchor_ratio lies in (0, 0.5]."""
    if not 0.0 < anchor_ratio <= 0.5:
        raise ConfigError(f"anchor_ratio must lie in (0, 0.5], got {anchor_ratio}")


def anchor_count(anchor_ratio, length):
    """Number of anchors: max(1, round(anchor_ratio * L)), half rounded up."""
    check_anchor_ratio(anchor_ratio)
    return max(1, _round_half_up(anchor_ratio * length))


def cluster_mask_from_anchors(rows, anchors, threshold_r):
    """Cluster mask for a fixed anchor set (no sampling), from the anchors'
    similarity rows: rows[k] holds anchors[k]'s similarity to each of the
    L patches, as sim[anchors] does for an L x L matrix sim.

    A patch j is masked iff j is an anchor or rows[k, j] >= threshold_r
    for some k. This is the deterministic core of mask_image; calibration
    decides the same membership from the same reach rows. A NaN
    threshold_r is a ConfigError.
    """
    if math.isnan(threshold_r):
        raise ConfigError("threshold_r must not be NaN")
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.int64)
    if rows.ndim != 2 or anchors.shape != (rows.shape[0],):
        raise DataError(f"need one similarity row per anchor, got shape {rows.shape} "
                        f"for {anchors.size} anchors")
    masked = masked_by_anchors(rows, anchors, float(threshold_r))
    return Mask(masked=masked, anchors=np.sort(anchors))


def draw_anchors(length, anchor_ratio, rng):
    """anchor_count(anchor_ratio, length) positions drawn uniformly without
    replacement, in draw order: the anchor draw of masking and calibration."""
    return rng.choice(length, size=anchor_count(anchor_ratio, length), replace=False)


def kmeans_cluster(vectors, k, max_iters, rng):
    """Lloyd's algorithm with seeded initial centroids drawn from the data.

    Initial centroids are a random sample (without replacement) of the
    distinct input rows; if fewer than k distinct rows exist, k shrinks to
    that count, which the returned centroids show. Iterates until
    assignments stabilize or max_iters centroid updates have run; empty
    clusters are re-seeded from the point farthest from the centroid it
    was last assigned to. The returned labels are always nearest-centroid
    optimal for the returned centroids.

    An iteration redoes only what moved: the screen's centroid.point
    products are recomputed for the centroids whose bits changed, and the
    sums for the clusters that a point left or joined. The rest is kept
    from the iteration before, so labels and centroids are those of a full
    recomputation bit for bit.

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

    products = np.empty((k, n))
    labels = nearest_centroids(vectors, centroids, sq_points, products)
    sums = touched = None
    for _ in range(max_iters):
        sums, counts = centroid_sums(vectors, labels, k, sums, touched)
        occupied = counts > 0
        updated = np.where(occupied[:, None], sums / np.maximum(counts, 1)[:, None], centroids)
        if not occupied.all():
            # re-seed each empty cluster from the farthest remaining point
            farness = assigned_distances(vectors, centroids, labels)
            for j in np.flatnonzero(~occupied):
                far = int(np.argmax(farness))
                updated[j] = vectors[far]
                farness[far] = -1.0
        # bits, not values: a re-seed or a flipped zero sign counts as a move
        moved = (updated.view(np.int64) != centroids.view(np.int64)).any(axis=1)
        centroids = updated
        new_labels = nearest_centroids(vectors, centroids, sq_points, products, moved)
        changed = new_labels != labels
        if not changed.any():
            break
        touched = np.zeros(k, dtype=np.bool_)
        touched[labels[changed]] = True
        touched[new_labels[changed]] = True
        labels = new_labels
    return labels, centroids


def kmeans_mask_detail(vectors, k, max_iters, mask_fraction, rng):
    """K-Means masking of (n, d) vectors with the intermediate clustering
    exposed.

    Runs Lloyd's algorithm on the vectors, then masks
    ceil(mask_fraction * k) clusters chosen uniformly at random.
    Returns (mask, labels, centroids, chosen_clusters).
    """
    if not 0.0 < mask_fraction < 1.0:
        raise ConfigError(f"mask_fraction must lie in (0, 1), got {mask_fraction}")
    labels, centroids = kmeans_cluster(vectors, k, max_iters, rng)
    k_eff = centroids.shape[0]
    n_masked = ceil_count(mask_fraction * k_eff)
    chosen = np.sort(rng.choice(k_eff, size=n_masked, replace=False))
    mask = Mask(masked=np.isin(labels, chosen), anchors=np.empty(0, dtype=np.int64))
    return mask, labels, centroids, chosen


def kmeans_mask(vectors, k, max_iters, mask_fraction, rng):
    """Mask ceil(mask_fraction * k) randomly chosen K-Means clusters of
    the (n, d) vectors."""
    mask, _, _, _ = kmeans_mask_detail(vectors, k, max_iters, mask_fraction, rng)
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
    """What masking reads of one image, under any strategy.

    grid is the unnormalized patch grid and seed the seed of the embedding
    projection. The other fields are computed when a mask first reads them
    and then kept: the normalized (L, d) patch vectors, their cosine rows
    and the cosine rows of the (L, dim) embedding. So each strategy
    computes only what it reads, once per image: kmeans the vectors,
    cluster-rgb their rows too and cluster-embedding the embedding's rows
    as well; random reads the grid alone. A row source computes a row when
    a mask first reads it; no L x L matrix is built.
    """

    grid: PatchGrid
    seed: int

    @cached_property
    def normalized(self):
        return pixel_normalize(self.grid).patches

    @cached_property
    def rgb_rows(self):
        return CosineRows(self.normalized)

    @cached_property
    def emb_rows(self):
        return CosineRows(toy_patch_embedding(self.grid, self.seed))


def mask_image(prepared, config, rng, alpha=1.0):
    """Mask one image, given by its PreparedImage record, under the
    configured strategy.

    Masking is the random draw, K-Means on the normalized vectors, or the
    anchor draw followed by the anchors' cosine rows, blended for
    cluster-embedding and thresholded. The record computes what a mask
    reads the first time, so its later masks redo none of it. alpha
    weights the RGB similarity against the embedding similarity and only
    matters for the cluster-embedding strategy, but every strategy rejects
    a value outside [0, 1].
    """
    check_alpha(alpha)
    if config.strategy is Strategy.RANDOM:
        return random_mask(prepared.grid.n_patches, config.random_mask_ratio, rng)
    if config.strategy is Strategy.KMEANS:
        return kmeans_mask(
            prepared.normalized, config.kmeans_k, config.kmeans_max_iters,
            config.kmeans_mask_fraction, rng,
        )
    rgb_rows = prepared.rgb_rows  # an empty grid fails here, before the draw
    anchors = draw_anchors(prepared.grid.n_patches, config.anchor_ratio, rng)
    rows = rgb_rows.rows(anchors)
    if config.strategy is Strategy.CLUSTER_EMBEDDING:
        rows = blend(rows, prepared.emb_rows.rows(anchors), alpha)
    return cluster_mask_from_anchors(rows, anchors, config.threshold_r)
