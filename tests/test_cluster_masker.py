import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_similarity
from patchmask.cluster_masker import (
    Mask,
    MaskerConfig,
    Strategy,
    anchor_count,
    cluster_mask,
    cluster_mask_from_anchors,
    kmeans_cluster,
    kmeans_mask,
    kmeans_mask_detail,
    mask_image,
    mask_ratio,
    random_mask,
)
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image


def brute_force_members(sim, anchors, threshold):
    """O(A * L) membership oracle: anchor, or above-threshold to some anchor."""
    length = sim.shape[0]
    members = set(int(a) for a in anchors)
    for j in range(length):
        for a in anchors:
            if sim[a][j] >= threshold:
                members.add(j)
                break
    return members


class TestClusterMask:
    def test_impossible_threshold_masks_only_anchors(self, rng):
        sim = random_similarity(rng, 16)
        mask = cluster_mask(sim, 0.25, 1.01, rng)
        assert set(np.flatnonzero(mask.masked)) == set(mask.anchors)

    def test_minus_threshold_masks_everything(self, rng):
        sim = random_similarity(rng, 16)
        mask = cluster_mask(sim, 0.25, -1.01, rng)
        assert mask.masked.all()

    def test_four_patch_hand_case(self):
        from patchmask._kernels import pairwise_cosine

        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        sim = pairwise_cosine(vectors)
        mask = cluster_mask_from_anchors(sim, [0], 0.5)
        assert set(np.flatnonzero(mask.masked)) == {0, 1}
        assert set(np.flatnonzero(mask.masked)) == brute_force_members(sim, [0], 0.5)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            length = int(rng.integers(4, 33))
            sim = random_similarity(rng, length)
            n_anchors = int(rng.integers(1, max(2, length // 2)))
            anchors = rng.choice(length, size=n_anchors, replace=False)
            threshold = float(rng.uniform(-1.1, 1.1))
            mask = cluster_mask_from_anchors(sim, anchors, threshold)
            assert set(np.flatnonzero(mask.masked)) == brute_force_members(
                sim, anchors, threshold
            )

    def test_anchor_count_formula(self):
        assert anchor_count(0.03, 196) == 6  # round(5.88)
        assert anchor_count(0.01, 10) == 1  # max(1, round(0.1))
        assert anchor_count(0.25, 10) == 3  # round half up of 2.5

    def test_deterministic_given_seed(self, rng):
        sim = random_similarity(rng, 24)
        a = cluster_mask(sim, 0.1, 0.3, np.random.default_rng(5))
        b = cluster_mask(sim, 0.1, 0.3, np.random.default_rng(5))
        np.testing.assert_array_equal(a.masked, b.masked)
        np.testing.assert_array_equal(a.anchors, b.anchors)
        c = cluster_mask(sim, 0.1, 0.3, np.random.default_rng(6))
        assert not np.array_equal(a.anchors, c.anchors)

    @given(
        r1=st.floats(min_value=-1.05, max_value=1.05),
        r2=st.floats(min_value=-1.05, max_value=1.05),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_masked_set_shrinks_as_threshold_rises(self, r1, r2, seed):
        gen = np.random.default_rng(seed)
        sim = random_similarity(gen, 12)
        anchors = gen.choice(12, size=3, replace=False)
        lo, hi = min(r1, r2), max(r1, r2)
        low_mask = cluster_mask_from_anchors(sim, anchors, lo).masked
        high_mask = cluster_mask_from_anchors(sim, anchors, hi).masked
        assert not (high_mask & ~low_mask).any()

    def test_adding_anchor_never_unmasks(self, rng):
        for _ in range(200):
            sim = random_similarity(rng, 16)
            anchors = list(rng.choice(16, size=3, replace=False))
            extra = int(rng.integers(0, 16))
            base = cluster_mask_from_anchors(sim, anchors, 0.2).masked
            grown = cluster_mask_from_anchors(sim, anchors + [extra], 0.2).masked
            assert not (base & ~grown).any()


class TestKMeansMask:
    def test_half_of_twelve_clusters_masked(self, rng):
        points = rng.standard_normal((196, 8))
        _, labels, _, chosen = kmeans_mask_detail(points, 12, 10, 0.5, rng)
        assert chosen.size == 6
        assert np.isin(labels, chosen).sum() > 0

    def test_singleton_clusters(self, rng):
        # L == k: every patch its own cluster, so ceil(k/2) patches masked
        points = np.arange(10, dtype=np.float64).reshape(10, 1) * 10.0
        mask = kmeans_mask(points, 10, 5, 0.5, rng)
        assert mask.masked.sum() == 5
        assert mask.anchors.size == 0

    def test_two_blob_assignment(self, rng):
        blob_a = rng.normal(0.0, 0.05, size=(12, 2))
        blob_b = rng.normal(10.0, 0.05, size=(9, 2))
        points = np.vstack([blob_a, blob_b])
        mask, labels, centroids, chosen = kmeans_mask_detail(points, 2, 10, 0.5, rng)
        assert len(set(labels[:12])) == 1 and len(set(labels[12:])) == 1
        assert labels[0] != labels[12]
        # one cluster chosen: exactly one blob masked
        assert mask.masked.sum() in (12, 9)
        assert mask.masked[:12].all() or mask.masked[12:].all()

    def test_final_assignment_is_nearest_centroid(self, rng):
        for _ in range(30):
            points = rng.standard_normal((40, 3))
            labels, centroids = kmeans_cluster(points, 5, 10, rng)
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            best = d2[np.arange(40), labels]
            assert (best <= d2.min(axis=1) + 1e-9).all()

    def test_k_reduced_when_duplicates(self, rng):
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]), 5, axis=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labels, centroids = kmeans_cluster(points, 5, 10, rng)
        assert centroids.shape[0] == 3
        assert any("distinct" in str(w.message) for w in caught)

    def test_fewer_points_than_k(self, rng):
        with pytest.raises(DataError):
            kmeans_cluster(rng.standard_normal((3, 2)), 5, 10, rng)


class TestRandomMask:
    def test_exact_half_of_196(self):
        mask = random_mask(196, 0.5, np.random.default_rng(0))
        assert mask.masked.sum() == 98
        assert mask.anchors.size == 0

    def test_single_visible_patch(self):
        mask = random_mask(10, 0.9, np.random.default_rng(0))
        assert (~mask.masked).sum() == 1

    def test_determinism_contract(self):
        a = random_mask(196, 0.5, np.random.default_rng(1))
        b = random_mask(196, 0.5, np.random.default_rng(1))
        c = random_mask(196, 0.5, np.random.default_rng(2))
        np.testing.assert_array_equal(a.masked, b.masked)
        assert not np.array_equal(a.masked, c.masked)

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            random_mask(10, 0.0, np.random.default_rng(0))


class TestMaskBasics:
    def test_mask_ratio_counts(self):
        full = Mask(masked=np.ones(4, dtype=bool), anchors=np.empty(0, dtype=np.int64))
        empty = Mask(masked=np.zeros(4, dtype=bool), anchors=np.empty(0, dtype=np.int64))
        assert mask_ratio(full) == 1.0
        assert mask_ratio(empty) == 0.0
        half = random_mask(196, 0.5, np.random.default_rng(0))
        assert mask_ratio(half) == pytest.approx(0.5)

    def test_line_round_trip(self, rng):
        mask = random_mask(32, 0.4, rng)
        again = Mask.from_line(mask.to_line())
        np.testing.assert_array_equal(again.masked, mask.masked)

    def test_from_line_rejects_garbage(self):
        with pytest.raises(DataError):
            Mask.from_line("01x0")


class TestMaskImage:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_each_strategy_runs_and_reproduces(self, rng, strategy):
        image = Image(data=rng.random((32, 32, 3)))
        config = MaskerConfig(strategy=strategy, threshold_r=0.4, kmeans_k=4, seed=3)
        a = mask_image(image, 8, config, np.random.default_rng(7), alpha=0.5)
        b = mask_image(image, 8, config, np.random.default_rng(7), alpha=0.5)
        assert a.length == 16
        np.testing.assert_array_equal(a.masked, b.masked)
        if strategy in (Strategy.CLUSTER_RGB, Strategy.CLUSTER_EMBEDDING):
            assert a.anchors.size == anchor_count(config.anchor_ratio, 16)
        else:
            assert a.anchors.size == 0

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_strategy_rejects_alpha_outside_unit_interval(self, rng, strategy):
        image = Image(data=rng.random((32, 32, 3)))
        config = MaskerConfig(strategy=strategy, kmeans_k=4)
        for bad in (-0.5, 2.0, float("nan")):
            with pytest.raises(ConfigError):
                mask_image(image, 8, config, rng, alpha=bad)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MaskerConfig(anchor_ratio=0.7)
        with pytest.raises(ConfigError):
            MaskerConfig(kmeans_k=1)
        with pytest.raises(ConfigError):
            MaskerConfig(random_mask_ratio=1.0)
        with pytest.raises(ConfigError):
            MaskerConfig(seed=-1)
        with pytest.raises(ConfigError):
            MaskerConfig(threshold_r=1.2)

    def test_cluster_mask_and_anchor_count_share_the_anchor_bound(self, rng):
        sim = random_similarity(rng, 16)
        assert anchor_count(0.5, 16) == 8
        for bad in (0.0, -1.0, 0.7, float("nan")):
            with pytest.raises(ConfigError):
                anchor_count(bad, 16)
            with pytest.raises(ConfigError):
                cluster_mask(sim, bad, 0.5, rng)
