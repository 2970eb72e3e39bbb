import numpy as np

from patchmask import _kernels
from patchmask.cluster_masker import cluster_mask_from_anchors


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
            labels, dists = _kernels.nearest_centroids(points, centroids)
            ref_labels, ref_dists = loop_nearest(points, centroids)
            np.testing.assert_array_equal(labels, ref_labels)
            np.testing.assert_allclose(dists, ref_dists, rtol=1e-12, atol=0)

    def test_equidistant_point_takes_lower_index(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0]])
        centroids = np.array([[2.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        labels, _ = _kernels.nearest_centroids(points, centroids)
        np.testing.assert_array_equal(labels, [1, 1])
        labels, _ = _kernels.nearest_centroids(points, centroids[::-1].copy())
        np.testing.assert_array_equal(labels, [0, 0])

    def test_distance_is_squared_distance_to_assigned_centroid(self, rng):
        points = rng.standard_normal((30, 4))
        centroids = rng.standard_normal((7, 4))
        labels, dists = _kernels.nearest_centroids(points, centroids)
        expected = ((points - centroids[labels]) ** 2).sum(axis=1)
        np.testing.assert_allclose(dists, expected, rtol=1e-12, atol=0)


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


class TestMaskedByAnchors:
    def test_no_anchors_masks_nothing(self, rng):
        sim = _kernels.pairwise_cosine(rng.standard_normal((12, 4)))
        mask = cluster_mask_from_anchors(sim, [], -1.5)
        assert mask.length == 12
        assert not mask.masked.any()
        assert mask.anchors.size == 0
