import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchmask import _kernels
from patchmask.cluster_masker import cluster_mask_from_anchors
from patchmask.patch_grid import Image, patchify, pixel_normalize


def broadcast_nearest(points, centroids):
    """Reference: the exact broadcast formula the kernel must reproduce bit
    for bit, (L, k, d) differences summed per pair, first minimum wins."""
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def assert_bits_equal(actual, expected):
    """Equal shapes and identical float64 bit patterns (so -0.0 != 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def squared_norms(points):
    return np.einsum("ij,ij->i", points, points)


def assert_exact_nearest(points, centroids):
    """The kernel's labels, and the exact distances to them, are the
    broadcast formula's bit for bit."""
    labels = _kernels.nearest_centroids(points, centroids, squared_norms(points))
    ref_labels, ref_dists = broadcast_nearest(points, centroids)
    np.testing.assert_array_equal(labels, ref_labels)
    dists = _kernels.assigned_distances(points, centroids, labels)
    assert_bits_equal(dists, ref_dists)
    return labels, dists


def loop_nearest(points, centroids):
    """Reference: exact per-pair squared distances, first minimum wins."""
    labels, best = [], []
    for p in points:
        d2 = [float(((p - c) ** 2).sum()) for c in centroids]
        j = min(range(len(d2)), key=lambda i: (d2[i], i))
        labels.append(j)
        best.append(d2[j])
    return np.array(labels), np.array(best)


class TestNearestCentroids:
    def test_matches_per_pair_loop(self, rng):
        for _ in range(20):
            points = rng.standard_normal((40, 6))
            centroids = rng.standard_normal((5, 6)) * 2
            labels = _kernels.nearest_centroids(points, centroids, squared_norms(points))
            ref_labels, ref_dists = loop_nearest(points, centroids)
            np.testing.assert_array_equal(labels, ref_labels)
            dists = _kernels.assigned_distances(points, centroids, labels)
            np.testing.assert_allclose(dists, ref_dists, rtol=1e-12, atol=0)

    def test_equidistant_point_takes_lower_index(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0]])
        centroids = np.array([[2.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        labels = _kernels.nearest_centroids(points, centroids, squared_norms(points))
        np.testing.assert_array_equal(labels, [1, 1])
        labels = _kernels.nearest_centroids(points, centroids[::-1].copy(), squared_norms(points))
        np.testing.assert_array_equal(labels, [0, 0])

    def test_distance_is_squared_distance_to_assigned_centroid(self, rng):
        # any labels, not only the nearest ones
        points = rng.standard_normal((30, 4))
        centroids = rng.standard_normal((7, 4))
        labels = rng.integers(0, 7, size=30)
        dists = _kernels.assigned_distances(points, centroids, labels)
        expected = ((points - centroids[labels]) ** 2).sum(axis=1)
        np.testing.assert_allclose(dists, expected, rtol=1e-12, atol=0)

    def test_single_centroid(self, rng):
        # each row keeps its one candidate, a NaN row included
        points = rng.standard_normal((6, 3))
        points[1, 2] = np.nan
        labels, _ = assert_exact_nearest(points, rng.standard_normal((1, 3)))
        np.testing.assert_array_equal(labels, np.zeros(6))


class TestNearestCentroidsExact:
    """The GEMM screen never changes a label or a distance: every case is
    compared bit for bit with the broadcast formula."""

    def test_large_common_offset_tiny_gaps(self, rng):
        # |x| ~ 1e4 and centroids 1e-6 apart: the expansion loses the gaps
        offset = rng.standard_normal(16) * 2500.0
        centroids = offset + rng.standard_normal((8, 16)) * 1e-6
        points = offset + rng.standard_normal((60, 16)) * 1e-6
        assert_exact_nearest(points, centroids)
        assert_exact_nearest(points, centroids + 1e-6)

    def test_duplicated_centroids_lowest_index_wins(self, rng):
        base = rng.standard_normal((4, 10))
        centroids = base[[2, 0, 2, 1, 3, 0, 1]]
        points = np.vstack([base, rng.standard_normal((30, 10))])
        labels, _ = assert_exact_nearest(points, centroids)
        assert set(labels.tolist()) <= {0, 1, 3, 4}

    def test_point_on_centroid_has_distance_zero(self, rng):
        points = rng.standard_normal((25, 12)) * 3.0
        centroids = points[[4, 9, 17]].copy()
        labels, dists = assert_exact_nearest(points, centroids)
        np.testing.assert_array_equal(labels[[4, 9, 17]], [0, 1, 2])
        assert_bits_equal(dists[[4, 9, 17]], np.zeros(3))

    def test_all_zero_rows(self, rng):
        points = np.zeros((9, 6))
        assert_exact_nearest(points, rng.standard_normal((4, 6)))
        assert_exact_nearest(points, np.zeros((3, 6)))
        mixed = np.vstack([points, rng.standard_normal((5, 6))])
        assert_exact_nearest(mixed, np.vstack([np.zeros((1, 6)), mixed[-2:]]))

    def test_benchmark_geometry(self, rng):
        # L=196 patches of a 224px image at P=16, d=768, k=12
        image = Image(data=rng.random((224, 224, 3)))
        points = pixel_normalize(patchify(image, 16)).patches
        assert points.shape == (196, 768)
        centroids = points[rng.choice(196, size=12, replace=False)]
        assert_exact_nearest(points, centroids)
        assert_exact_nearest(points, centroids + rng.standard_normal((12, 768)) * 0.1)

    def test_non_finite_inputs_match(self, rng):
        points = rng.standard_normal((8, 3))
        centroids = rng.standard_normal((4, 3))
        points[2, 1] = np.nan
        points[5, 0] = np.inf
        assert_exact_nearest(points, centroids)
        centroids[1, 2] = -np.inf
        assert_exact_nearest(points, centroids)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 30),
        k=st.integers(1, 8),
        d=st.integers(1, 20),
        scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e4, 1e150]),
        offset=st.sampled_from([0.0, 1.0, 1e4]),
    )
    def test_small_integer_grids_with_ties(self, data, n, k, d, scale, offset):
        # values on a coarse integer grid tie often; scale and offset stress
        # underflow, cancellation and the overflow guard
        grid = lambda m: data.draw(hnp.arrays(np.int64, (m, d), elements=st.integers(-3, 3)))
        points = (grid(n) + offset) * scale
        centroids = (grid(k) + offset) * scale
        assert_exact_nearest(points, centroids)


class TestCentroidSums:
    def test_matches_per_label_sum(self, rng):
        points = rng.standard_normal((50, 5))
        labels = rng.integers(0, 6, size=50)
        sums, counts = _kernels.centroid_sums(points, labels, 6)
        for j in range(6):
            members = points[labels == j]
            assert counts[j] == len(members)
            np.testing.assert_allclose(sums[j], members.sum(axis=0), rtol=1e-12, atol=1e-12)

    def test_absent_label_has_zero_count_and_row(self, rng):
        points = rng.standard_normal((20, 3))
        labels = np.where(rng.integers(0, 2, size=20) == 0, 0, 3)
        sums, counts = _kernels.centroid_sums(points, labels, 4)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts[[1, 2]], [0, 0])
        np.testing.assert_array_equal(sums[[1, 2]], np.zeros((2, 3)))
        assert counts.sum() == 20


def sequential_sums(points, labels, k):
    """Reference: each cluster's rows added one at a time in point order."""
    sums = np.zeros((k, points.shape[1]))
    for j in range(k):
        total = np.zeros(points.shape[1])
        for i in np.flatnonzero(labels == j):
            total = total + points[i]
        sums[j] = total
    return sums


finite_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-310, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestCentroidSumsExact:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        d=st.integers(1, 6),
        k=st.integers(1, 5),
    )
    def test_bit_identical_to_sequential_loop(self, data, n, d, k):
        points = data.draw(hnp.arrays(np.float64, (n, d), elements=finite_values))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        sums, counts = _kernels.centroid_sums(points, labels, k)
        assert_bits_equal(sums, sequential_sums(points, labels, k))
        np.testing.assert_array_equal(counts, [(labels == j).sum() for j in range(k)])

    def test_long_single_column(self, rng):
        # a single column is where numpy's own reductions sum pairwise
        points = rng.standard_normal((300, 1)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
        labels = rng.integers(0, 2, size=300)
        sums, _ = _kernels.centroid_sums(points, labels, 2)
        assert_bits_equal(sums, sequential_sums(points, labels, 2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_long_narrow_columns(self, rng, d):
        # two or more columns are reduced over axis 0, which must stay in
        # row order however few the columns
        points = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-8, 8, size=(300, d))
        labels = rng.integers(0, 2, size=300)
        sums, _ = _kernels.centroid_sums(points, labels, 2)
        assert_bits_equal(sums, sequential_sums(points, labels, 2))

    @pytest.mark.parametrize("d", [1, 3])
    def test_negative_zero_column_sums_to_positive_zero(self, d):
        # the loop adds to 0.0, and 0.0 + -0.0 is 0.0
        points = np.full((4, d), -0.0)
        sums, _ = _kernels.centroid_sums(points, np.array([0, 1, 0, 0]), 2)
        assert_bits_equal(sums, np.zeros((2, d)))

    def test_benchmark_geometry(self, rng):
        points = rng.standard_normal((196, 768))
        labels = rng.integers(0, 12, size=196)
        sums, _ = _kernels.centroid_sums(points, labels, 12)
        assert_bits_equal(sums, sequential_sums(points, labels, 12))


row_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-310, -1e300, np.inf, -np.inf])


def unique_rows(vectors):
    """distinct_rows' rows, checked to be first occurrences."""
    index = _kernels.distinct_rows(vectors)
    for i in index.tolist():  # array_equal: -0.0 equals 0.0, NaN equals nothing
        assert not any(np.array_equal(vectors[j], vectors[i]) for j in range(i))
    return vectors[index]


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4))
    def test_matches_np_unique(self, data, d):
        # few distinct rows drawn with replacement: duplicates, zero rows,
        # mixed-sign zeros and negatives; a single row included
        pool = data.draw(st.lists(hnp.arrays(np.float64, d, elements=row_values), min_size=1, max_size=6))
        pool.append(np.zeros(d))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=25))
        vectors = np.array([pool[i] for i in picks])
        flips = data.draw(hnp.arrays(np.bool_, vectors.shape))
        vectors[flips & (vectors == 0)] *= -1.0  # -0.0 and 0.0 in the same row slot
        np.testing.assert_array_equal(unique_rows(vectors), np.unique(vectors, axis=0))

    def test_single_row_keeps_its_bits(self):
        row = np.array([[-0.0, 3.0, -0.0]])
        np.testing.assert_array_equal(_kernels.distinct_rows(row), [0])
        assert_bits_equal(unique_rows(row), np.unique(row, axis=0))

    def test_signed_zeros_are_one_row(self):
        vectors = np.array([[0.0, 1.0], [-0.0, 1.0], [-1.0, -0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(_kernels.distinct_rows(vectors), [2, 0])
        np.testing.assert_array_equal(unique_rows(vectors), np.unique(vectors, axis=0))

    def test_nan_rows_stay_apart_and_sort_last(self):
        vectors = np.array([[np.nan, 1.0], [2.0, 0.0], [np.nan, 1.0], [-np.nan, 0.0], [2.0, 0.0]])
        distinct = unique_rows(vectors)
        np.testing.assert_array_equal(distinct, np.unique(vectors, axis=0))
        assert distinct.shape == (4, 2)

    def test_more_keys_than_one_block(self, rng):
        # 3 x 4000 values span two blocks of the key transform
        vectors = rng.standard_normal((3, 4000))
        vectors = vectors[[2, 0, 2, 1, 0]]
        assert sorted(_kernels.distinct_rows(vectors).tolist()) == [0, 1, 3]
        np.testing.assert_array_equal(unique_rows(vectors), np.unique(vectors, axis=0))

    def test_benchmark_geometry_with_repeats(self, rng):
        vectors = rng.standard_normal((196, 768))
        vectors[100:] = vectors[rng.integers(0, 100, size=96)]
        vectors[:10] = 0.0
        assert_bits_equal(unique_rows(vectors), np.unique(vectors, axis=0))


class TestMaskedByAnchors:
    def test_no_anchors_masks_nothing(self, rng):
        sim = _kernels.pairwise_cosine(rng.standard_normal((12, 4)))
        mask = cluster_mask_from_anchors(sim, [], -1.5)
        assert mask.length == 12
        assert not mask.masked.any()
        assert mask.anchors.size == 0
