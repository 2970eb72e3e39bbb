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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ._kernels import (
    assigned_distances,
    centroid_sums,
    distinct_rows,
    masked_by_anchors,
    nearest_centroids,
    screened_by_anchors,
)
from .errors import ConfigError, DataError, check_integer
from .patch_grid import PatchGrid, pixel_normalize
from .similarity import CosineRows, blend, check_alpha, toy_patch_embedding
from .streams import check_seed

# the range of threshold_r, which calibration bisects: slightly above the
# cosine maximum, so the anchors-only regime is reachable
THRESHOLD_MIN = -1.0
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
    of them masked, 50% random baseline ratio, and 0.5 for beta, the
    minimum mask ratio that fixes the visible slots of a shaped batch)."""

    strategy: Strategy = Strategy.CLUSTER_RGB
    anchor_ratio: float = 0.03
    threshold_r: float = 0.5
    kmeans_k: int = 12
    kmeans_max_iters: int = 10
    kmeans_mask_fraction: float = 0.5
    random_mask_ratio: float = 0.5
    seed: int = 0
    beta: float = 0.5

    def __post_init__(self):
        try:
            self.strategy = Strategy(self.strategy)
        except ValueError:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{[s.value for s in Strategy]}"
            )
        check_anchor_ratio(self.anchor_ratio)
        if not THRESHOLD_MIN <= self.threshold_r <= THRESHOLD_MAX:
            raise ConfigError(f"threshold_r must lie in [{THRESHOLD_MIN:g}, "
                              f"{THRESHOLD_MAX:g}], got {self.threshold_r}")
        check_integer("kmeans_k", self.kmeans_k, 2)
        check_integer("kmeans_max_iters", self.kmeans_max_iters, 1)
        check_kmeans_mask_fraction(self.kmeans_mask_fraction)
        check_random_mask_ratio(self.random_mask_ratio)
        check_seed(self.seed)
        check_beta(self.beta)


@dataclass
class Mask:
    """Boolean mask over a grid's L patches and the anchors that seeded
    it, checked on construction (DataError otherwise): masked is a 1-D
    bool array, and anchors, none by default, a 1-D int array of
    ascending, distinct, masked patches in [0, L)."""

    masked: np.ndarray  # (L,) bool
    anchors: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))  # (A,)

    def __post_init__(self):
        self.masked, self.anchors = np.asarray(self.masked), np.asarray(self.anchors)
        if self.masked.ndim != 1 or self.masked.dtype != np.bool_:
            raise DataError(f"masked must be a 1-D bool array, got {self.masked.dtype} "
                            f"of shape {self.masked.shape}")
        if self.anchors.ndim != 1 or self.anchors.dtype.kind not in "iu":
            raise DataError(f"anchors must be a 1-D int array, got {self.anchors.dtype} "
                            f"of shape {self.anchors.shape}")
        if self.anchors.size:
            listed = self.anchors.tolist()
            if listed[0] < 0 or listed[-1] >= self.length or listed != sorted(set(listed)):
                raise DataError(f"anchors must be ascending distinct patches in "
                                f"[0, {self.length}), got {listed}")
            if np.count_nonzero(self.masked[self.anchors]) < len(listed):
                raise DataError(f"anchors must be masked patches, got {listed}")

    @property
    def length(self):
        return self.masked.size

    def to_line(self):
        """Serialize as one line of '0'/'1' characters."""
        return np.where(self.masked, ord("1"), ord("0")).astype(np.uint8).tobytes().decode("ascii")

    @staticmethod
    def from_line(line):
        line = line.strip()
        if not line or set(line) - {"0", "1"}:
            raise DataError(f"mask line must be nonempty '0'/'1' characters, got {line!r}")
        return Mask(masked=np.frombuffer(line.encode("ascii"), dtype=np.uint8) == ord("1"))


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


def check_kmeans_mask_fraction(fraction):
    """Raise ConfigError unless the K-Means mask fraction lies in (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"kmeans_mask_fraction must lie in (0, 1), got {fraction}")


def check_random_mask_ratio(ratio):
    """Raise ConfigError unless the random mask ratio lies in (0, 1)."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"random_mask_ratio must lie in (0, 1), got {ratio}")


def check_beta(beta):
    """Raise ConfigError unless the minimum mask ratio beta lies in (0, 1)."""
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")


def anchor_count(anchor_ratio, length):
    """Number of anchors: max(1, round(anchor_ratio * L)), half rounded up,
    for an anchor_ratio that MaskerConfig or check_search has checked."""
    return max(1, _round_half_up(anchor_ratio * length))


def cluster_mask_from_anchors(rows, anchors, threshold_r):
    """Cluster mask for a fixed anchor set (no sampling), from the anchors'
    similarity rows: rows[k] holds anchors[k]'s similarity to each of the
    L patches, as sim[anchors] does for an L x L matrix sim.

    A patch j is masked iff j is an anchor or rows[k, j] >= threshold_r
    for some k. This is the deterministic core of mask_image; calibration
    decides the same membership from the same reach rows. A NaN
    threshold_r is a ConfigError, and anchors that repeat or lie outside
    [0, L) are a DataError (Mask's invariants).
    """
    if math.isnan(threshold_r):
        raise ConfigError("threshold_r must not be NaN")
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.int64)
    if rows.ndim != 2 or anchors.shape != (rows.shape[0],):
        raise DataError(f"need one similarity row per anchor, got shape {rows.shape} "
                        f"for {anchors.size} anchors")
    try:
        masked = masked_by_anchors(rows, anchors, float(threshold_r))
    except IndexError:  # an anchor numpy cannot index with; Mask checks the rest
        raise DataError(f"anchors must be patches in [0, {rows.shape[1]}), got {anchors.tolist()}")
    return Mask(masked=masked, anchors=np.sort(anchors))


def draw_anchors(length, anchor_ratio, rng):
    """anchor_count(anchor_ratio, length) positions drawn uniformly without
    replacement, in draw order: the anchor draw of masking and calibration."""
    return rng.choice(length, size=anchor_count(anchor_ratio, length), replace=False)


def kmeans_cluster(vectors, k, max_iters, rng):
    """Lloyd's algorithm with seeded initial centroids drawn from the data.

    Initial centroids are a random sample (without replacement) of the
    distinct input rows; if fewer than k distinct rows exist, as with fewer
    than k rows, k shrinks to that count, which the returned centroids
    show; no rows at all is a DataError. Iterates until assignments
    stabilize or max_iters centroid updates have run; empty clusters are
    re-seeded from the point farthest from the centroid it was last
    assigned to. The returned labels are always nearest-centroid optimal
    for the returned centroids. k must be an integer >= 1 and max_iters
    one >= 0 (ConfigError otherwise): k=1 puts every row in one cluster,
    and max_iters=0 returns the nearest-centroid labels of the drawn
    centroids, both well-defined runs of Lloyd's algorithm.

    An iteration redoes only what moved: the screen's centroid.point
    products are recomputed for the centroids whose bits changed, and the
    sums for the clusters that a point left or joined. The rest is kept
    from the iteration before, so labels and centroids are those of a full
    recomputation bit for bit.

    Returns (labels, centroids).
    """
    check_integer("k", k, 1)
    check_integer("max_iters", max_iters, 0)
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or 0 in vectors.shape:
        raise DataError(f"cannot cluster an empty grid: need (n, d) vectors with n, d >= 1, "
                        f"got shape {vectors.shape}")
    n = vectors.shape[0]
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
    check_kmeans_mask_fraction(mask_fraction)
    labels, centroids = kmeans_cluster(vectors, k, max_iters, rng)
    k_eff = centroids.shape[0]
    n_masked = ceil_count(mask_fraction * k_eff)
    chosen = np.sort(rng.choice(k_eff, size=n_masked, replace=False))
    is_chosen = np.zeros(k_eff, dtype=np.bool_)
    is_chosen[chosen] = True
    mask = Mask(masked=is_chosen[labels])
    return mask, labels, centroids, chosen


def kmeans_mask(vectors, k, max_iters, mask_fraction, rng):
    """Mask ceil(mask_fraction * k) randomly chosen K-Means clusters of
    the (n, d) vectors."""
    mask, _, _, _ = kmeans_mask_detail(vectors, k, max_iters, mask_fraction, rng)
    return mask


def random_mask(length, ratio, rng):
    """Mask exactly round(ratio * L) uniformly chosen positions."""
    check_integer("length", length, 0)
    check_random_mask_ratio(ratio)
    n = _round_half_up(ratio * length)
    masked = np.zeros(length, dtype=np.bool_)
    masked[rng.choice(length, size=n, replace=False)] = True
    return Mask(masked=masked)


def mask_ratio(mask):
    """Fraction of patches masked."""
    if mask.length == 0:
        raise DataError("mask_ratio of an empty mask is undefined")
    return float(mask.masked.sum()) / mask.length


@dataclass
class PreparedImage:
    """What masking reads of one image, under any strategy.

    grid is the image's PatchGrid (DataError otherwise) and seed, which
    check_seed checks, the seed of the embedding projection. The other
    fields are computed when a mask first reads them and then kept: the
    normalized (L, d) patch vectors, their cosine rows and the cosine rows
    of the (L, EMBED_DIM) embedding. So each strategy computes only what
    it reads, once per image: kmeans the vectors, cluster-rgb their rows
    too and cluster-embedding at an alpha below 1 the embedding's rows as
    well; random reads the grid's size alone. A row source computes a
    row when a mask first reads it; no L x L matrix is built.

    The grid may come normalized already, as pixel_normalize(grid,
    in_place=True) leaves it: normalized is then its patches as they are,
    and emb_rows raises DataError, since the raw pixels the embedding
    reads are gone. Such a record serves kmeans, cluster-rgb and random.

    With maxval, an integer from 1, the grid holds a file's integer
    samples in [0, maxval] as load_samples leaves them, not yet divided
    (DataError for a normalized grid). While it holds them, samples is
    that array, from which mask_image decides cluster-rgb masks first
    (screened_by_anchors). normalized divides them by maxval and
    standardizes them in place, which gives the bits of load_patches
    followed by pixel_normalize; samples is None from then on. emb_rows
    raises DataError, as for a grid normalized in place.
    """

    grid: PatchGrid
    seed: int
    maxval: int | None = None

    def __post_init__(self):
        if not isinstance(self.grid, PatchGrid):
            raise DataError(f"a PreparedImage needs a PatchGrid, got {type(self.grid).__name__}")
        check_seed(self.seed)
        if self.maxval is not None:
            check_integer("maxval", self.maxval, 1)
            if self.grid.normalized:
                raise DataError("a normalized grid holds no integer samples")

    @property
    def samples(self):
        """The grid's integer samples while it holds them, else None."""
        if self.maxval is None or self.grid.normalized:
            return None
        return self.grid.patches

    @cached_property
    def normalized(self):
        if self.samples is not None:
            np.divide(self.grid.patches, self.maxval, out=self.grid.patches)
            pixel_normalize(self.grid, in_place=True)
        if self.grid.normalized:
            return self.grid.patches
        return pixel_normalize(self.grid).patches

    @cached_property
    def rgb_rows(self):
        return CosineRows(self.normalized)

    @cached_property
    def emb_rows(self):
        if self.maxval is not None:
            raise DataError("cannot embed a grid of undivided integer samples")
        return CosineRows(toy_patch_embedding(self.grid, self.seed))


def mask_image(prepared, config, rng, alpha=1.0):
    """Mask one image, given by its PreparedImage record, under the
    configured strategy.

    Masking is the random draw, K-Means on the normalized vectors, or the
    anchor draw followed by the anchors' cosine rows, blended for
    cluster-embedding at an alpha below 1 and thresholded. The record
    computes what a mask reads the first time, so its later masks redo
    none of it. alpha weights the RGB similarity against the embedding
    similarity and only matters for cluster-embedding, whose masks at
    alpha 1 are cluster-rgb's; every strategy rejects one outside [0, 1].

    A cluster-rgb mask of a record that holds integer samples is decided
    from them when screened_by_anchors can: it makes the same anchor draw
    and gives the same mask, bit for bit, without normalizing the record
    or computing a cosine row. Where it cannot, the record is normalized
    and masked from its cosine rows as any other.
    """
    check_alpha(alpha)
    if config.strategy is Strategy.RANDOM:
        return random_mask(prepared.grid.n_patches, config.random_mask_ratio, rng)
    if config.strategy is Strategy.KMEANS:
        return kmeans_mask(
            prepared.normalized, config.kmeans_k, config.kmeans_max_iters,
            config.kmeans_mask_fraction, rng,
        )
    if prepared.grid.n_patches == 0:  # before the draw, which needs a patch
        raise DataError("cannot compute similarity of an empty grid")
    anchors = draw_anchors(prepared.grid.n_patches, config.anchor_ratio, rng)
    blends = config.strategy is Strategy.CLUSTER_EMBEDDING and alpha < 1.0
    samples = None if blends else prepared.samples
    if samples is not None:
        masked = screened_by_anchors(samples, prepared.maxval, anchors, config.threshold_r)
        if masked is not None:
            return Mask(masked=masked, anchors=np.sort(anchors))
    rows = prepared.rgb_rows.rows(anchors)
    if blends:
        rows = blend(rows, prepared.emb_rows.rows(anchors), alpha)
    return cluster_mask_from_anchors(rows, anchors, config.threshold_r)
