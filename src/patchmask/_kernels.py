"""Hot numeric kernels of the maskers, one numpy function each.

``cluster_masker`` and ``similarity`` import these names, so a faster
kernel keeps its name and signature and replaces the body here. Results
are deterministic run to run.

``cosine_rows`` is the one cosine kernel: it computes each requested row
of the cosine matrix as one GEMV, and ``similarity.CosineRows`` is its
only caller. Row i therefore comes from the same arithmetic whether it is
asked for alone or with every other row, as for the full matrix, so the
two are equal bit for bit on any BLAS. The rows are never batched into
one GEMM, whose rows differ from a GEMV's in their low bits.

``reach_row`` is the one membership kernel: ``masked_by_anchors``
thresholds it for one mask, and calibration keeps it per image to
threshold it at every r it tries.

The K-Means kernels are bit-identical to their exact formulas, and
Lloyd's loop calls them so that an iteration redoes only what moved:

- ``nearest_centroids`` returns the labels that the broadcast
  ``((x - c) ** 2).sum()`` over every point/centroid pair followed by
  ``argmin`` returns. A GEMM expansion ``|x|^2 - 2 x.c + |c|^2`` only
  screens: it rounds differently, so it never decides between two
  centroids. It keeps every centroid whose screened distance lies within
  a proven bound of the row's best. The bound covers the rounding of both
  formulas in any summation order, so the exact winner always survives
  the screen (see ``_screen_margin``): a point left with one candidate
  takes it as its label with no re-score. Points left with two or more,
  which include every point where the bound does not hold (non-finite
  values, or magnitudes near overflow) and every tie, are re-scored by
  the exact formula, and the first exact minimum wins. The labels
  therefore do not depend on how the screen's products were rounded, so
  the caller may keep them: the products live in a (k, n) buffer, one
  row per centroid, and a call recomputes only the rows of the centroids
  it is told have moved. K-Means marks a centroid as moved when any of
  its bits changed, so a re-seed or a flipped zero sign counts.
- ``assigned_distances`` applies the exact formula to pairs of a point
  and a centroid: the ambiguous pairs of ``nearest_centroids``, or each
  point and the centroid it was assigned. K-Means reads the latter only
  to re-seed an empty cluster, so only when an update leaves one empty.
- ``centroid_sums`` adds each cluster's rows in point order from 0.0, the
  order of ``np.add.at``. numpy reduces a (m, d) block over axis 0 in that
  order when d >= 2 but sums a single column pairwise, so d == 1 keeps a
  row loop. Given the sums of an earlier call, it re-sums only the
  clusters that a point left or joined since: a cluster whose members did
  not change adds the same rows in the same order, so its sum is the
  same bit for bit.
- ``distinct_rows`` returns the indices of the rows
  ``np.unique(vectors, axis=0)`` returns. It sorts the first column and
  reads the full rows only of those that share a first value with
  another row, such as the all-zero rows of flat patches, so on rows
  whose first values all differ it copies no (n, d) array. It calls
  neither np.unique nor any other function whose first call imports
  numpy.ma, which a fresh process pays for with over 10 ms.
"""

import numpy as np

COSINE_EPS = 1e-8  # denominator guard; zero vectors get similarity 0

_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074  # smallest positive subnormal
_SAFE_SCALE = 2.0**1000  # below this no intermediate of either formula overflows
_SIGN_BIT = np.int64(-(2**63))
_KEY_BLOCK = 8192  # keys per block of distinct_rows' key transform
_PAIR_ROWS = 16  # point/centroid pairs per block of assigned_distances


def row_norms(vectors):
    """Euclidean norm of each row of (L, d), as cosine_rows takes them."""
    return np.sqrt(np.einsum("ij,ij->i", vectors, vectors))


def cosine_rows(vectors, norms, rows):
    """Rows ``rows`` of the epsilon-guarded cosine matrix of the (L, d)
    float64 vectors, whose row norms are ``norms``: an (len(rows), L)
    array. Each row is one GEMV, ``vectors @ vectors[i]``, divided by
    ``norms[i] * norms + COSINE_EPS``."""
    rows = np.asarray(rows, dtype=np.intp)
    sim = np.empty((rows.size, vectors.shape[0]))
    for out, i in zip(sim, rows.tolist()):
        np.matmul(vectors, vectors[i], out=out)
    sim /= np.outer(norms[rows], norms) + COSINE_EPS
    return sim


def reach_row(rows, anchors):
    """Per patch j, the largest rows[k, j] over the (A, L) anchor rows,
    where rows[k] holds anchor anchors[k]'s similarities, and +inf at the
    anchors themselves.

    Patch j is in the cluster mask of these anchors at threshold r exactly
    when reach[j] >= r, for every r but NaN: fmax skips NaN, and a column
    with no number, as under zero anchors, stays NaN, which no r reaches.
    """
    reach = np.fmax.reduce(rows, axis=0, initial=np.nan)
    reach[anchors] = np.inf
    return reach


def masked_by_anchors(rows, anchors, threshold):
    """Boolean mask over the L columns of the (A, L) anchor rows: the
    anchors plus every j with rows[k, j] >= threshold for some k."""
    return reach_row(rows, anchors) >= threshold


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


def nearest_centroids(points, centroids, sq_points, products=None, moved=None):
    """Nearest centroid per point by squared Euclidean distance.

    sq_points holds each point's squared norm, for the screen only; the
    caller computes it once for all of its calls on the same points.
    products, if given, is a (k, n) buffer of centroid.point products that
    the call brings up to date and the caller passes to its next call on
    the same points. moved, a boolean mask over the centroids, names the
    rows that are recomputed, every row when it is None; the other rows
    must hold the products of those same centroids.
    Returns the labels. Ties go to the lowest centroid index. The exact
    re-score takes the ambiguous pairs in blocks (assigned_distances).
    """
    d = points.shape[1]
    # the screen only widens the candidate set where it overflows or turns
    # NaN, so its floating-point warnings would report nothing
    with np.errstate(all="ignore"):
        if products is None or moved is None:
            products = np.matmul(centroids, points.T, out=products)
        elif moved.any():
            products[moved] = centroids[moved] @ points.T
        sq_centroids = np.einsum("ij,ij->i", centroids, centroids)
        screen = products * -2.0
        screen += sq_points
        screen += sq_centroids[:, None]
        limit = screen.min(axis=0) + _screen_margin(sq_points, sq_centroids, d)
        # a NaN screen or limit keeps the centroid a candidate
        candidates = ~(screen > limit)
    labels = np.argmax(candidates, axis=0)  # the only candidate, where there is one
    ambiguous = np.flatnonzero(candidates.sum(axis=0) > 1)
    if ambiguous.size:
        rows, cols = np.nonzero(candidates[:, ambiguous].T)
        exact = np.full((ambiguous.size, centroids.shape[0]), np.inf)
        exact[rows, cols] = assigned_distances(points, centroids, cols, ambiguous[rows])
        labels[ambiguous] = np.argmin(exact, axis=1)
    return labels


def assigned_distances(points, centroids, labels, rows=None):
    """Squared distance of points[rows[i]] (point i if rows is None) to
    centroids[labels[i]], by the exact formula, _PAIR_ROWS pairs at a time:
    a pair's sum is the same in any block, and a gather of all pairs, up to
    k times points' size, would take fresh pages on every call."""
    rows = np.arange(len(labels)) if rows is None else rows
    distances = np.empty(len(labels))
    for start in range(0, len(labels), _PAIR_ROWS):
        pairs = slice(start, start + _PAIR_ROWS)
        block = points[rows[pairs]]
        block -= centroids[labels[pairs]]
        np.square(block, out=block)
        distances[pairs] = block.sum(axis=1)
    return distances


def centroid_sums(points, labels, k, sums=None, touched=None):
    """Per-cluster coordinate sums and member counts.

    Each sum adds its cluster's rows one at a time in point order, from
    0.0, so it is rounded exactly as a sequential loop rounds it. With two
    or more columns, numpy reduces a cluster's rows over axis 0 in that
    order; a single column it sums pairwise, so there the rows are added
    in a Python loop.

    Given both sums, the (k, d) sums array of an earlier call, and
    touched, a boolean mask over the clusters, only the marked clusters
    are re-summed, in place, so every other cluster must have the same
    members as at that call. Its sum is then the same bit for bit.
    """
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    if sums is None or touched is None:
        sums = np.empty((k, points.shape[1]), dtype=np.float64)
        touched = np.ones(k, dtype=np.bool_)
    for j in np.flatnonzero(touched).tolist():
        members = points[labels == j]
        if points.shape[1] == 1:
            total = 0.0
            for value in members[:, 0].tolist():
                total += value
            sums[j] = total
        else:
            np.add.reduce(members, axis=0, out=sums[j], initial=0.0)
    return sums, counts


def _float_keys(keys):
    """Turn a fresh float64 array into uint64 keys, in place, whose
    unsigned order is the float order: flip every bit of a negative, only
    the sign bit of the rest. -0.0 becomes the key of 0.0 and every NaN
    one key above +inf. Returns the keys and the array's NaN mask."""
    keys += 0.0  # -0.0 + 0.0 is 0.0
    nan = np.isnan(keys)
    np.copyto(keys, np.nan, where=nan)  # one NaN bit pattern, above +inf
    bits = keys.view(np.int64)
    # the flip mask goes through a small buffer, one block of keys at a
    # time, so no second array of the input's size is allocated
    flat = bits.reshape(-1)
    flip = np.empty(min(flat.size, _KEY_BLOCK), dtype=np.int64)
    for start in range(0, flat.size, _KEY_BLOCK):
        block = flat[start : start + _KEY_BLOCK]
        mask = np.right_shift(block, 63, out=flip[: block.size])
        mask |= _SIGN_BIT
        block ^= mask
    return bits.view(np.uint64), nan


def distinct_rows(vectors):
    """Indices of the distinct rows of a float64 (n, d) array: the first
    occurrence of each, in ascending lexicographic order of the rows, so
    ``vectors[distinct_rows(vectors)]`` is ``np.unique(vectors, axis=0)``.

    Each value maps to a uint64 key whose unsigned order is the float
    order (see _float_keys). One stable argsort of the first column's keys
    orders the rows by their first value; a row whose first key no other
    row shares is distinct. The rows that share a first key are sorted on
    their full rows: stored big-endian, a row of keys compares bytewise as
    the row of floats compares lexicographically, so a stable argsort over
    fixed-width byte rows sorts them, and each run of equal first keys
    keeps its place. As in np.unique, -0.0 equals 0.0, NaN sorts last and
    a row holding NaN equals no other row.

    Each run of equal rows keeps its first row in input order. Where equal
    rows differ in the sign of a zero, np.unique's unstable sort may keep
    another of them. K-Means cannot tell once it has updated its
    centroids: the sign of a zero in an initial centroid changes no
    distance, and an update recomputes every centroid from the points.
    """
    n, d = vectors.shape
    first, _ = _float_keys(vectors[:, 0].copy())
    order = np.argsort(first, kind="stable")
    first = first[order]
    repeats = first[1:] == first[:-1]
    shared = np.zeros(n, dtype=np.bool_)  # in sorted order
    shared[1:] = repeats
    shared[:-1] |= repeats
    keep = ~shared  # a row alone with its first key is distinct
    if repeats.any():
        sub = order[shared]
        keys, nan = _float_keys(vectors[sub])
        rows = keys.byteswap(inplace=True).view(np.dtype((np.void, 8 * d))).ravel()
        sub_order = np.argsort(rows, kind="stable")
        order[shared] = sub[sub_order]
        rows = rows[sub_order]
        nan_rows = nan.any(axis=1)[sub_order]
        starts = np.ones(sub.size, dtype=np.bool_)
        starts[1:] = (rows[1:] != rows[:-1]) | nan_rows[1:] | nan_rows[:-1]
        keep[shared] = starts
    return order[keep]
