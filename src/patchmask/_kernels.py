"""Hot numeric kernels of the maskers, one numpy function each.

``cluster_masker`` and ``similarity`` import these names, so a faster
kernel keeps its name and signature and replaces the body here. Results
are deterministic run to run.

``cosine_rows`` is the one kernel whose bits are cosines that masks
read: it computes each requested row of the cosine matrix as one GEMV,
and ``similarity.CosineRows`` is its only caller. Row i therefore comes
from the same arithmetic whether it is asked for alone or with every
other row, as for the full matrix, so the two are equal bit for bit on
any BLAS. The rows are never batched into one GEMM, whose rows differ
from a GEMV's in their low bits.

``reach_row`` is the one membership kernel: ``masked_by_anchors``
thresholds it for one mask, and calibration keeps it per image to
threshold it at every r it tries.

``screened_by_anchors`` decides the same membership from a file's
integer samples, before any division: it computes each patch's exact
cosines with the anchors from integer sums, and a proven bound on their
distance from the cosines ``cosine_rows`` would compute from the
standardized samples (see ``_cosine_margin``). It returns the mask only
when every patch lies outside its bound, so a mask it returns is the one
the exact path gives bit for bit; otherwise the caller runs that path.

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
_SCREEN_MAX_DIM = 2**20  # patch lengths screened_by_anchors takes
_SCREEN_MIN_STD = 4e-8  # least std of a non-constant patch it screens
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


def screened_by_anchors(samples, maxval, anchors, threshold):
    """masked_by_anchors' mask of the anchors' rows of the cosine matrix
    of the standardized samples, decided from the integers alone, or None
    where this screen cannot decide it.

    samples is an (L, d) float64 array of a file's integer samples in
    [0, maxval], in patch layout: the grid that load_patches divides by
    maxval, and pixel_normalize then standardizes, before cosine_rows
    computes the anchors' rows. Per patch, the sample sum S and the sum of
    squares Q, and the anchors' dot products G with every patch (one
    (A, d) by (d, L) GEMM), are sums of integers below 2**53, so float64
    holds every partial sum exactly and any summation order gives the
    same bits. Their int64 combinations V = d Q - S**2 and
    N = d G - S_a S_j are exact too, and N / sqrt(V_a V_j) is the cosine
    of the two centred patches to within a few ulps. A pair that holds a
    constant patch (V == 0) has cosine 0 here, as its zero vector has on
    the exact path. A patch's reach is its largest cosine over the
    anchors, +inf at the anchors themselves (reach_row). With each cosine
    widened by its pair's _cosine_margin, the largest lower and upper ends
    over the anchors bound the reach the exact path computes, and the
    patch is decided when both lie on one side of threshold. If any patch
    is not, or the margin's conditions fail for d and maxval, or threshold
    is NaN, or a sample is not finite, the result is None.
    """
    d = samples.shape[1]
    if not _screen_holds(d, maxval):
        return None
    sums = samples.sum(axis=1)
    if not np.isfinite(sums).all():  # the exact path raises DataError
        return None
    sums = sums.astype(np.int64)
    squares = np.einsum("ij,ij->i", samples, samples).astype(np.int64)
    dots = (samples[anchors] @ samples.T).astype(np.int64)
    spreads = d * squares - sums * sums
    numerators = d * dots - sums[anchors, None] * sums
    roots = np.sqrt(spreads.astype(np.float64))
    denominators = np.outer(roots[anchors], roots)
    cosines = np.divide(numerators, denominators, out=np.zeros(denominators.shape),
                        where=denominators > 0)
    margin = _cosine_margin(roots, anchors, d, maxval)
    low = (cosines - margin).max(axis=0)
    high = (cosines + margin).max(axis=0)
    low[anchors] = high[anchors] = np.inf
    decided = (low >= threshold) | (high < threshold)
    return low >= threshold if decided.all() else None


def _screen_holds(d, maxval):
    """Whether _cosine_margin's conditions hold for patches of d samples
    in [0, maxval]: 2 <= d <= 2**20, d maxval**2 < 2**53 (exact float64
    sums), d maxval <= 2**31 (exact int64 products) and
    sqrt(d - 1) / (d maxval) >= 4e-8 (the constant-patch test agrees)."""
    return (2 <= d <= _SCREEN_MAX_DIM and d * maxval * maxval < 2**53
            and d * maxval <= 2**31 and d - 1 >= (_SCREEN_MIN_STD * d * maxval) ** 2)


def _cosine_margin(roots, anchors, d, maxval):
    """Per anchor and patch, an (A, L) bound on how far the cosine the
    exact path computes may lie from screened_by_anchors' cosine, given
    each patch's root = sqrt(V).

    Write u = 2**-53, g(n) = n u / (1 - n u) and M = maxval, and take a
    patch x in {0..M}^d with p = x / M and c = p - mean(p), so that
    |c|^2 = V / (d M^2) and the cosine of two centred patches is
    rho = N / sqrt(V_a V_j). The exact path computes, in any summation
    order and with or without FMA:

    - p~ = fl(x / M), within u of p; the mean m~ = fl(fl(sum p~) / d),
      within g(d + 1) of mean(p), as every term is non-negative; and
      c~ = fl(p~ - m~). So each |c~_i - c_i| <= g(d + 3), and the error
      e = c~ - c has |e| <= tau |c| with tau = d M g(d + 3) / sqrt(V).
      For unit vectors, |a' / |a'| - a / |a|| <= 2 |a' - a| / |a|, so the
      cosine of c~_a and c~_j lies within 2 tau_a + 2 tau_j of rho.
    - z~ = fl(c~ / s~) for the patch's computed std s~: a scaling, which
      leaves the cosine alone, and a relative error of u per element,
      which moves it by at most 4u. As s~ = |c~| / sqrt(d) (1 + g(d + 2)),
      |z~| >= sqrt(d) (1 - g(d + 3)).
    - The GEMV's dot product lies within g(d) W of z~_a . z~_j, for
      W = |z~_a| |z~_j|; each norm within g(d + 1) of |z~|; and the
      cosine fl(dot / fl(fl(n_a n_j) + 1e-8)) within g(3d + 5) + 1e-8 / W
      of the cosine of z~_a and z~_j, where W >= d (1 - 2 g(d + 3)).

    The screen rounds N, each V, each square root, their product and the
    quotient once: within g(7) of rho. So for two non-constant patches
    the two cosines differ by at most
    2 tau_a + 2 tau_j + g(3d + 16) + 1e-8 (1 + 2**-20) / d.
    Near-constant patches, whose V is smallest, get the widest bound,
    ~2 d^2 u M / sqrt(V). The margin returned is twice the bound, which
    absorbs its own rounding and that of cosine +- margin, as the bound
    is at least 22u.

    A pair that holds a constant patch has cosine exactly 0 on both paths:
    the exact path zeroes the patch, and N = 0 here. So its margin is 0.
    That needs the exact path's std < 1e-8 test to hold exactly when
    V == 0. A constant patch's centred values are within g(d + 1) of 0,
    below 1e-8 for d <= 2**20. A non-constant one has V >= d - 1, so its
    std is at least (1 - tau)(1 - g(d + 2)) sqrt(d - 1) / (d M), which is
    above 1e-8 when sqrt(d - 1) / (d M) >= 4e-8, as tau <= 1/2 then.
    _screen_holds checks these conditions and the exactness of the sums.
    """
    constant = roots == 0
    tau = d * maxval * _gamma(d + 3) / np.where(constant, 1.0, roots)
    bound = 2 * tau[anchors, None] + 2 * tau
    bound += _gamma(3 * d + 16) + COSINE_EPS * (1 + 2.0**-20) / d
    bound[:, constant] = 0.0
    bound[constant[anchors]] = 0.0
    return 2 * bound


def _gamma(n):
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


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
