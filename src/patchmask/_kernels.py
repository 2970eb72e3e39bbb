"""Hot numeric kernels of the maskers, one numpy function each.

``cluster_masker`` and ``similarity`` import these names, so a faster
kernel keeps its name and signature and replaces the body here. Results
are deterministic run to run.

The K-Means kernels are bit-identical to their exact formulas:

- ``nearest_centroids`` returns the labels that the broadcast
  ``((x - c) ** 2).sum()`` over every point/centroid pair followed by
  ``argmin`` returns. A GEMM expansion ``|x|^2 - 2 x.c + |c|^2`` only
  screens: it rounds differently, so it never decides between two
  centroids. It keeps every centroid whose screened distance lies within
  a proven bound of the row's best. The bound covers the rounding of both
  formulas, so the exact winner always survives the screen (see
  ``_screen_margin``): a row left with one candidate takes it as its
  label with no re-score. Rows left with two or more, which include every
  row where the bound does not hold (non-finite values, or magnitudes
  near overflow) and every tie, are re-scored by the exact formula, and
  the first exact minimum wins.
- ``assigned_distances`` applies the exact formula to each point and the
  centroid it was assigned. K-Means reads distances only to re-seed an
  empty cluster, so it calls this only when an update leaves one empty.
- ``centroid_sums`` adds each cluster's rows in point order from 0.0, the
  order of ``np.add.at``. numpy reduces a (m, d) block over axis 0 in that
  order when d >= 2 but sums a single column pairwise, so d == 1 keeps a
  row loop.
- ``distinct_rows`` returns the indices of the rows
  ``np.unique(vectors, axis=0)`` returns.
"""

import numpy as np

COSINE_EPS = 1e-8  # denominator guard; zero vectors get similarity 0

_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074  # smallest positive subnormal
_SAFE_SCALE = 2.0**1000  # below this no intermediate of either formula overflows
_SIGN_BIT = np.int64(-(2**63))
_KEY_BLOCK = 8192  # keys per block of distinct_rows' key transform


def pairwise_cosine(vectors):
    """All-pairs epsilon-guarded cosine similarity of the rows of (L, d)."""
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    return (vectors @ vectors.T) / (np.outer(norms, norms) + COSINE_EPS)


def masked_by_anchors(sim, anchors, threshold):
    """Boolean mask: anchors plus every index j with sim[a, j] >= threshold."""
    masked = np.zeros(sim.shape[0], dtype=np.bool_)
    if anchors.size:
        masked = (sim[anchors] >= threshold).any(axis=0)
        masked[anchors] = True
    return masked


def _screen_margin(sq_points, sq_centroids, d):
    """Per-point bound on how far the screened best may undercut the
    screened distance of the exact nearest centroid.

    With u = 2**-53 and g(n) = n u / (1 - n u), write D = |x - c|^2 =
    A - 2B + C for A = |x|^2, B = x.c, C = |c|^2, and S = (|x| + |c|)^2,
    which bounds A, 2|B|, C and D. In any summation order, with or without
    FMA, the dot products A, B and C are each off by at most g(d) times
    A, |x||c| and C, and the two additions of the screen round once each,
    so the screen s is within g(d + 3) S of D. The exact value E rounds
    each difference and each square once and adds d non-negative terms,
    so it is within g(d + 2) D <= g(d + 3) S of D. Hence |s - E| <= e =
    2 g(d + 3) S* for every centroid of the row, with S* built from the
    largest |c|. If j is the first exact minimum and m the screened one,
    s_j <= E_j + e <= E_m + e <= s_m + 2e: the exact winner lies within
    4 g(d + 3) S* of the screened best. Any centroid beyond that margin
    has E > E_j, so it can neither win nor tie.

    The margin 8 (d + 4) u S* is twice that, which absorbs the rounding
    of S* itself and of the comparison. The absolute term 8 (d + 4)
    times the smallest subnormal covers products that underflow, each off
    by at most half of it. Past _SAFE_SCALE, or when S* is not finite,
    the margin is infinite and every centroid is re-scored.
    """
    scale = (np.sqrt(sq_points) + np.sqrt(sq_centroids.max())) ** 2
    margin = 8 * (d + 4) * (_UNIT_ROUNDOFF * scale + _SUBNORMAL)
    return np.where(scale < _SAFE_SCALE, margin, np.inf)


def nearest_centroids(points, centroids, sq_points):
    """Nearest centroid per point by squared Euclidean distance.

    sq_points holds each point's squared norm, for the screen only; the
    caller computes it once for all of its calls on the same points.
    Returns the labels. Ties go to the lowest centroid index.
    """
    d = points.shape[1]
    # the screen only widens the candidate set where it overflows or turns
    # NaN, so its floating-point warnings would report nothing
    with np.errstate(all="ignore"):
        sq_centroids = np.einsum("ij,ij->i", centroids, centroids)
        screen = points @ centroids.T
        screen *= -2.0
        screen += sq_points[:, None]
        screen += sq_centroids
        limit = screen.min(axis=1) + _screen_margin(sq_points, sq_centroids, d)
        # a NaN screen or limit keeps the centroid a candidate
        candidates = ~(screen > limit[:, None])
    labels = np.argmax(candidates, axis=1)  # the only candidate, where there is one
    ambiguous = np.flatnonzero(candidates.sum(axis=1) > 1)
    if ambiguous.size:
        rows, cols = np.nonzero(candidates[ambiguous])
        diff = points[ambiguous[rows]]
        diff -= centroids[cols]
        np.square(diff, out=diff)
        exact = np.full((ambiguous.size, centroids.shape[0]), np.inf)
        exact[rows, cols] = diff.sum(axis=1)
        labels[ambiguous] = np.argmin(exact, axis=1)
    return labels


def assigned_distances(points, centroids, labels):
    """Squared distance of each point to its assigned centroid, by the
    exact formula: each row is subtracted, squared and summed as
    nearest_centroids re-scores a pair."""
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def centroid_sums(points, labels, k):
    """Per-cluster coordinate sums and member counts.

    Each sum adds its cluster's rows one at a time in point order, from
    0.0, so it is rounded exactly as a sequential loop rounds it. With two
    or more columns, numpy reduces a cluster's rows over axis 0 in that
    order; a single column it sums pairwise, so there the rows are added
    in a Python loop.
    """
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    if points.shape[1] == 1:
        for row, label in zip(points, labels.tolist()):
            sums[label] += row
        return sums, counts
    for j in np.flatnonzero(counts).tolist():
        np.add.reduce(points[labels == j], axis=0, out=sums[j], initial=0.0)
    return sums, counts


def distinct_rows(vectors):
    """Indices of the distinct rows of a float64 (n, d) array: the first
    occurrence of each, in ascending lexicographic order of the rows, so
    ``vectors[distinct_rows(vectors)]`` is ``np.unique(vectors, axis=0)``.

    Each value maps to a uint64 key whose unsigned order is the float
    order (flip every bit of a negative, only the sign bit of the rest);
    stored big-endian, a row of keys compares bytewise as the row of
    floats compares lexicographically, so one stable argsort over
    fixed-width byte rows sorts the rows. As in np.unique, -0.0 equals
    0.0, NaN sorts last and a row holding NaN equals no other row.

    Each run of equal rows keeps its first row in input order. Where equal
    rows differ in the sign of a zero, np.unique's unstable sort may keep
    another of them. K-Means cannot tell once it has updated its
    centroids: the sign of a zero in an initial centroid changes no
    distance, and an update recomputes every centroid from the points.
    """
    n, d = vectors.shape
    keys = np.add(vectors, 0.0, dtype=np.float64, order="C")  # -0.0 + 0.0 is 0.0
    nan = np.isnan(keys)
    np.copyto(keys, np.nan, where=nan)  # one NaN bit pattern, above +inf
    bits = keys.view(np.int64)
    # the flip mask goes through a small buffer, one block of keys at a
    # time, so no second (n, d) array is allocated
    flat, flip = bits.reshape(-1), np.empty(_KEY_BLOCK, dtype=np.int64)
    for start in range(0, flat.size, _KEY_BLOCK):
        block = flat[start : start + _KEY_BLOCK]
        mask = np.right_shift(block, 63, out=flip[: block.size])
        mask |= _SIGN_BIT
        block ^= mask
    rows = bits.byteswap(inplace=True).view(np.dtype((np.void, 8 * d))).ravel()
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    nan_rows = nan.any(axis=1)[order]
    first = np.ones(n, dtype=np.bool_)
    first[1:] = (ordered[1:] != ordered[:-1]) | nan_rows[1:] | nan_rows[:-1]
    return order[first]
