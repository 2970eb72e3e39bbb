"""Hot numeric kernels of the maskers, one numpy function each.

``cluster_masker`` and ``similarity`` import these names, so a faster
kernel keeps its name and signature and replaces the body here. Results
are deterministic run to run.

The K-Means kernels are bit-identical to their exact formulas:

- ``nearest_centroids`` returns what the broadcast
  ``((x - c) ** 2).sum()`` over every point/centroid pair followed by
  ``argmin`` returns. A GEMM expansion ``|x|^2 - 2 x.c + |c|^2`` only
  screens: it rounds differently, so it never picks a label or yields a
  distance. It keeps every centroid whose screened distance lies within a
  proven bound of the row's best, the exact formula re-scores those, and
  the first exact minimum wins. The bound covers the rounding of both
  formulas, so the exact winner always survives the screen (see
  ``_screen_margin``); where the bound does not hold (non-finite values,
  or magnitudes near overflow) every centroid is re-scored.
- ``centroid_sums`` adds each cluster's rows in point order, the order of
  ``np.add.at``.
- ``distinct_rows`` returns the rows ``np.unique(vectors, axis=0)``
  returns.
"""

import numpy as np

COSINE_EPS = 1e-8  # denominator guard; zero vectors get similarity 0

_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074  # smallest positive subnormal
_SAFE_SCALE = 2.0**1000  # below this no intermediate of either formula overflows
_SIGN_BIT = np.int64(-(2**63))


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


def nearest_centroids(points, centroids):
    """Nearest centroid per point by squared Euclidean distance.

    Returns (labels, distances) where distances[i] is the squared
    distance of point i to its assigned centroid. Ties go to the lowest
    centroid index.
    """
    n, d = points.shape
    # the screen only widens the candidate set where it overflows or turns
    # NaN, so its floating-point warnings would report nothing
    with np.errstate(all="ignore"):
        sq_points = np.einsum("ij,ij->i", points, points)
        sq_centroids = np.einsum("ij,ij->i", centroids, centroids)
        screen = points @ centroids.T
        screen *= -2.0
        screen += sq_points[:, None]
        screen += sq_centroids
        limit = screen.min(axis=1) + _screen_margin(sq_points, sq_centroids, d)
        # a NaN screen or limit keeps the centroid a candidate
        rows, cols = np.nonzero(~(screen > limit[:, None]))
    diff = points[rows]
    diff -= centroids[cols]
    np.square(diff, out=diff)
    exact = np.full(screen.shape, np.inf)
    exact[rows, cols] = diff.sum(axis=1)
    labels = np.argmin(exact, axis=1)
    return labels, exact[np.arange(n), labels]


def centroid_sums(points, labels, k):
    """Per-cluster coordinate sums and member counts.

    Rows are added one at a time in point order, so each sum is rounded
    exactly as a sequential loop rounds it. numpy's axis reductions do not
    promise that order: a single column is summed pairwise.
    """
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    for row, label in zip(points, labels.tolist()):
        sums[label] += row
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    return sums, counts


def distinct_rows(vectors):
    """The distinct rows of a float64 (n, d) array in ascending
    lexicographic order, as ``np.unique(vectors, axis=0)`` returns them.

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
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    n, d = vectors.shape
    nan = np.isnan(vectors)
    keys = vectors + 0.0  # -0.0 + 0.0 is 0.0
    keys[nan] = np.nan  # one NaN bit pattern, above +inf
    keys = keys.view(np.int64)
    keys ^= (keys >> 63) | _SIGN_BIT
    rows = keys.byteswap(inplace=True).view(np.dtype((np.void, 8 * d))).ravel()
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    nan_rows = nan.any(axis=1)[order]
    first = np.ones(n, dtype=np.bool_)
    first[1:] = (ordered[1:] != ordered[:-1]) | nan_rows[1:] | nan_rows[:-1]
    return vectors[order[first]]
