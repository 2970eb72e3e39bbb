import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cluster_mask,
    full_cosine,
    prepared_counts,
    random_similarity,
    rows_by_source,
    smoothed_noise_images,
)
from patchmask import cluster_masker
from patchmask.calibration import check_search
from patchmask.cluster_masker import (
    Mask,
    MaskerConfig,
    PreparedImage,
    Strategy,
    anchor_count,
    ceil_count,
    cluster_mask_from_anchors,
    draw_anchors,
    kmeans_cluster,
    kmeans_mask,
    kmeans_mask_detail,
    mask_image,
    mask_ratio,
    random_mask,
)
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image, patchify, pixel_normalize, raster_patches
from patchmask.similarity import blend, cosine_matrix, toy_patch_embedding


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

    def test_nan_threshold_is_a_config_error(self, rng):
        sim = random_similarity(rng, 8)
        with pytest.raises(ConfigError):
            cluster_mask_from_anchors(sim[[0]], [0], float("nan"))

    @pytest.mark.parametrize("anchors", [[-1], [16], [5, 16], [2, 2], [7, 2, 7]])
    def test_anchors_must_be_distinct_patches(self, rng, anchors):
        # Mask rejects each of these; one past the last patch is stopped
        # before the reach row is indexed with it
        rows = rng.uniform(-1.0, 1.0, size=(len(anchors), 16))
        with pytest.raises(DataError, match=r"patches in \[0, 16\)"):
            cluster_mask_from_anchors(rows, anchors, 0.5)

    def test_four_patch_hand_case(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        sim = full_cosine(vectors)
        mask = cluster_mask_from_anchors(sim[[0]], [0], 0.5)
        assert set(np.flatnonzero(mask.masked)) == {0, 1}
        assert set(np.flatnonzero(mask.masked)) == brute_force_members(sim, [0], 0.5)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            length = int(rng.integers(4, 33))
            sim = random_similarity(rng, length)
            n_anchors = int(rng.integers(1, max(2, length // 2)))
            anchors = rng.choice(length, size=n_anchors, replace=False)
            threshold = float(rng.uniform(-1.1, 1.1))
            mask = cluster_mask_from_anchors(sim[anchors], anchors, threshold)
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
        low_mask = cluster_mask_from_anchors(sim[anchors], anchors, lo).masked
        high_mask = cluster_mask_from_anchors(sim[anchors], anchors, hi).masked
        assert not (high_mask & ~low_mask).any()

    def test_adding_anchor_never_unmasks(self, rng):
        for _ in range(200):
            sim = random_similarity(rng, 16)
            anchors = list(rng.choice(16, size=3, replace=False))
            extra = int(rng.integers(0, 16))
            base = cluster_mask_from_anchors(sim[anchors], anchors, 0.2).masked
            # anchors are distinct, so an extra that is one already adds nothing
            grown = anchors if extra in anchors else anchors + [extra]
            grown = cluster_mask_from_anchors(sim[grown], grown, 0.2).masked
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
        # the reduced k shows in the centroids' shape, with no warning
        points = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]), 5, axis=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            labels, centroids = kmeans_cluster(points, 5, 10, rng)
        assert centroids.shape == (3, 2)
        assert sorted(set(labels.tolist())) == [0, 1, 2]
        assert caught == []

    @pytest.mark.parametrize("fraction", [1e-12, 1e-9, 1e-3])
    def test_tiny_fraction_masks_one_cluster(self, rng, fraction):
        points = rng.standard_normal((60, 4))
        mask, labels, _, chosen = kmeans_mask_detail(points, 12, 10, fraction, rng)
        assert chosen.size == 1
        assert mask.masked.any()
        np.testing.assert_array_equal(mask.masked, labels == chosen[0])

    def test_ceil_count(self):
        assert ceil_count(0.0) == 0
        assert [ceil_count(x) for x in (1e-300, 1e-12, 1e-9, 0.5, 1.0)] == [1] * 5
        assert ceil_count(6.0) == 6 and ceil_count(6.0 + 1e-12) == 6
        assert ceil_count(0.5 * 12) == 6 and ceil_count(0.5 * 7) == 4

    def test_fewer_points_than_k(self, rng):
        # k shrinks to the count of distinct points, as for a flat image
        points = rng.standard_normal((3, 2))
        labels, centroids = kmeans_cluster(points, 5, 10, np.random.default_rng(1))
        assert centroids.shape == (3, 2)
        assert sorted(labels.tolist()) == [0, 1, 2]
        np.testing.assert_array_equal(centroids[labels], points)
        ref_labels, ref_centroids, _ = frozen_kmeans_cluster(points, 5, 10, np.random.default_rng(1))
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(centroids, ref_centroids)

    @pytest.mark.parametrize("shape", [(0, 2), (0, 0)])
    def test_no_points_is_a_data_error(self, shape):
        with pytest.raises(DataError, match="empty grid"):
            kmeans_cluster(np.zeros(shape), 5, 10, np.random.default_rng(0))


def frozen_kmeans_cluster(vectors, k, max_iters, rng):
    """kmeans_cluster as it was before the screened kernels, with its
    kernels inlined: np.unique for the distinct rows, the broadcast
    distance formula and np.add.at sums. Also returns how many centroid
    updates ran."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    distinct = np.unique(vectors, axis=0)
    k = min(k, distinct.shape[0])
    centroids = np.ascontiguousarray(distinct[rng.choice(distinct.shape[0], size=k, replace=False)])

    def nearest(c):
        d2 = ((vectors[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        return labels, d2[np.arange(vectors.shape[0]), labels]

    labels, dists = nearest(centroids)
    updates = 0
    for _ in range(max_iters):
        updates += 1
        sums = np.zeros((k, vectors.shape[1]))
        np.add.at(sums, labels, vectors)
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        centroids = np.where(occupied[:, None], sums / np.maximum(counts, 1)[:, None], centroids)
        if not occupied.all():
            farness = dists.copy()
            for j in np.flatnonzero(~occupied):
                far = int(np.argmax(farness))
                centroids[j] = vectors[far]
                farness[far] = -1.0
        centroids = np.ascontiguousarray(centroids)
        new_labels, new_dists = nearest(centroids)
        if np.array_equal(new_labels, labels):
            break
        labels, dists = new_labels, new_dists
    return labels, centroids, updates


def frozen_kmeans_mask_detail(vectors, k, max_iters, mask_fraction, rng):
    labels, centroids, updates = frozen_kmeans_cluster(vectors, k, max_iters, rng)
    k_eff = centroids.shape[0]
    chosen = np.sort(rng.choice(k_eff, size=math.ceil(mask_fraction * k_eff - 1e-9), replace=False))
    return labels, centroids, chosen, updates


def regression_images():
    """Seeded smooth noise, a flat image, repeated blocks (fewer distinct
    patches than k) and noise with a flat and a repeated region, 96x96."""
    rng = np.random.default_rng(4242)
    noise, mixed = (smoothed_noise_images(1, 96, 96, 3, seed=s)[0].data for s in (3, 5))
    blocks = np.tile(rng.random((8, 8, 3)), (12, 12, 1))
    blocks[:8, :8] = rng.random((8, 8, 3))
    blocks[8:16, :8] = rng.random((8, 8, 3))
    mixed[:24, :24] = 0.4
    mixed[48:, 48:] = np.tile(rng.random((8, 8, 3)), (6, 6, 1))
    return {"noise": noise, "flat": np.full((96, 96, 3), 0.7), "blocks": blocks, "mixed": mixed}


class TestKMeansRegression:
    """kmeans_mask_detail returns bit for bit what it returned before the
    screened kernels, and calls nearest_centroids once per centroid update
    plus once for the initial assignment."""

    @pytest.mark.parametrize("name", ["noise", "flat", "blocks", "mixed"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_frozen_kmeans(self, monkeypatch, name, seed):
        grid = pixel_normalize(patchify(Image(data=regression_images()[name]), 8))
        nearest_centroids = cluster_masker.nearest_centroids
        calls = []

        def counted(points, centroids, sq_points, *rest):
            calls.append(centroids.shape[0])
            return nearest_centroids(points, centroids, sq_points, *rest)

        monkeypatch.setattr(cluster_masker, "nearest_centroids", counted)
        mask, labels, centroids, chosen = kmeans_mask_detail(
            grid.patches, 12, 10, 0.5, np.random.default_rng(seed)
        )
        ref_labels, ref_centroids, ref_chosen, updates = frozen_kmeans_mask_detail(
            grid.patches, 12, 10, 0.5, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(centroids.view(np.uint64), ref_centroids.view(np.uint64))
        np.testing.assert_array_equal(chosen, ref_chosen)
        np.testing.assert_array_equal(mask.masked, np.isin(ref_labels, ref_chosen))
        assert len(calls) == updates + 1
        if name in ("flat", "blocks"):
            assert centroids.shape[0] < 12

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fewer_patches_than_k_matches_frozen_kmeans(self, seed):
        # a 32x32 image at P=16 has 4 patches, fewer than the default k=12
        data = smoothed_noise_images(1, 32, 32, 3, seed=seed)[0].data
        grid = pixel_normalize(patchify(Image(data=data), 16))
        mask, labels, centroids, chosen = kmeans_mask_detail(
            grid.patches, 12, 10, 0.5, np.random.default_rng(seed)
        )
        ref_labels, ref_centroids, ref_chosen, _ = frozen_kmeans_mask_detail(
            grid.patches, 12, 10, 0.5, np.random.default_rng(seed)
        )
        assert centroids.shape[0] == 4 and chosen.size == 2
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(chosen, ref_chosen)
        np.testing.assert_array_equal(mask.masked, np.isin(ref_labels, ref_chosen))


def reseeding_case(seed):
    """Heavy-tailed points on which some K-Means update leaves a cluster
    empty: (points, k)."""
    rng = np.random.default_rng(seed)
    n, k, d = int(rng.integers(6, 30)), int(rng.integers(2, 13)), int(rng.integers(1, 4))
    return rng.standard_normal((n, d)) ** 3, k


def traced_kmeans(monkeypatch, vectors, k, seed):
    """kmeans_cluster with its distance and sum kernels counted. Returns
    (labels, centroids, distance calls, updates that emptied a cluster)."""
    assigned, sums = cluster_masker.assigned_distances, cluster_masker.centroid_sums
    distance_calls, emptied = [], []

    def counted_distances(points, centroids, labels):
        distance_calls.append(labels.size)
        return assigned(points, centroids, labels)

    def counted_sums(points, labels, k, *rest):
        result = sums(points, labels, k, *rest)
        emptied.append(bool((result[1] == 0).any()))
        return result

    monkeypatch.setattr(cluster_masker, "assigned_distances", counted_distances)
    monkeypatch.setattr(cluster_masker, "centroid_sums", counted_sums)
    labels, centroids = kmeans_cluster(vectors, k, 10, np.random.default_rng(seed))
    return labels, centroids, len(distance_calls), sum(emptied)


class TestKMeansReseed:
    """Empty clusters are re-seeded bit for bit as before, and distances
    are computed only when an update empties a cluster."""

    @pytest.mark.parametrize("seed", [50, 110, 302])
    def test_reseed_matches_frozen_kmeans(self, monkeypatch, seed):
        points, k = reseeding_case(seed)
        labels, centroids, distance_calls, emptied = traced_kmeans(monkeypatch, points, k, seed)
        ref_labels, ref_centroids, _ = frozen_kmeans_cluster(points, k, 10, np.random.default_rng(seed))
        assert emptied > 0  # the reseed ran
        assert distance_calls == emptied
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(centroids.view(np.uint64), ref_centroids.view(np.uint64))

    @pytest.mark.parametrize("name", ["noise", "flat", "blocks", "mixed"])
    def test_no_distances_without_an_empty_cluster(self, monkeypatch, name):
        grid = pixel_normalize(patchify(Image(data=regression_images()[name]), 8))
        _, _, distance_calls, emptied = traced_kmeans(monkeypatch, grid.patches, 12, 7)
        assert distance_calls == emptied == 0

    def test_no_distances_at_benchmark_geometry(self, monkeypatch):
        # a 224px image at P=16: L=196, d=768, k=12
        image = smoothed_noise_images(1, 224, 224, 3, seed=9)[0]
        grid = pixel_normalize(patchify(image, 16))
        _, _, distance_calls, emptied = traced_kmeans(monkeypatch, grid.patches, 12, 1)
        assert distance_calls == emptied == 0


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
        full = Mask(masked=np.ones(4, dtype=bool))
        empty = Mask(masked=np.zeros(4, dtype=bool))
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
        prepared = PreparedImage(patchify(image, 8), config.seed)
        a = mask_image(prepared, config, np.random.default_rng(7), alpha=0.5)
        b = mask_image(prepared, config, np.random.default_rng(7), alpha=0.5)
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
                mask_image(PreparedImage(patchify(image, 8), config.seed), config, rng, alpha=bad)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("strategy", [Strategy.CLUSTER_RGB, Strategy.CLUSTER_EMBEDDING])
    def test_equals_the_mask_of_the_full_matrix(self, strategy, alpha):
        # 224x224 at P=16; thresholds at every 8th entry of the anchors'
        # rows, so rows off in their last bits would flip patches; each
        # record is masked twice, so cached rows are checked as well as new
        config = MaskerConfig(strategy=strategy, seed=4)
        for index, image in enumerate(smoothed_noise_images(2, 224, 224, 3, seed=14)):
            grid = patchify(image, 16)
            prepared = PreparedImage(grid, config.seed)
            sim = cosine_matrix(pixel_normalize(grid))
            if strategy is Strategy.CLUSTER_EMBEDDING:
                sim = blend(sim, full_cosine(toy_patch_embedding(grid, config.seed)), alpha)
            for step in range(2):
                key = (index, step)
                anchors = draw_anchors(grid.n_patches, config.anchor_ratio,
                                       np.random.default_rng(key))
                entries = np.sort(sim[anchors], axis=None)
                for r in entries[(entries >= -1.0) & (entries <= 1.0)][::8]:
                    at_r = dataclasses.replace(config, threshold_r=float(r))
                    mask = mask_image(prepared, at_r, np.random.default_rng(key), alpha)
                    expected = cluster_mask_from_anchors(sim[anchors], anchors, r)
                    assert mask.masked.tobytes() == expected.masked.tobytes()
                    assert mask.anchors.tobytes() == expected.anchors.tobytes()

    @pytest.mark.parametrize("order", [list(Strategy), list(Strategy)[::-1]])
    def test_one_record_serves_every_strategy(self, rng, calls_to, prepare_calls, order):
        # masked under each strategy in turn, one record gives the masks of
        # fresh records and computes each of its fields once
        grid = patchify(Image(data=rng.random((32, 32, 3))), 8)
        configs = [MaskerConfig(strategy=s, threshold_r=0.4, kmeans_k=4, seed=3) for s in order]
        expected = [mask_image(PreparedImage(grid, 3), config, np.random.default_rng(7), 0.5)
                    for config in configs]
        sources = calls_to("similarity", "CosineRows")
        for calls in prepare_calls:
            calls.clear()
        record = PreparedImage(grid, 3)
        for config, fresh in zip(configs, expected):
            mask = mask_image(record, config, np.random.default_rng(7), 0.5)
            assert mask.masked.tobytes() == fresh.masked.tobytes()
            assert mask.anchors.tobytes() == fresh.anchors.tobytes()
        assert prepared_counts(prepare_calls) == [1, 2, 1]
        assert len(sources) == 2
        for rows in rows_by_source(prepare_calls[1]):
            assert sorted(set(rows)) == sorted(rows)

    @pytest.mark.parametrize("strategy", [Strategy.CLUSTER_RGB, Strategy.KMEANS, Strategy.RANDOM])
    def test_a_record_of_a_grid_normalized_in_place(self, rng, strategy):
        # its vectors are the grid's own patches, and its masks are those
        # of the record of the raw grid
        grid = patchify(Image(data=rng.random((32, 32, 3))), 8)
        config = MaskerConfig(strategy=strategy, threshold_r=0.4, kmeans_k=4, seed=3)
        expected = mask_image(PreparedImage(grid, 3), config, np.random.default_rng(7))
        record = PreparedImage(pixel_normalize(grid, in_place=True), 3)
        assert record.normalized is grid.patches
        mask = mask_image(record, config, np.random.default_rng(7))
        assert mask.masked.tobytes() == expected.masked.tobytes()
        assert mask.anchors.tobytes() == expected.anchors.tobytes()
        with pytest.raises(DataError, match="normalized"):
            record.emb_rows

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_record_of_integer_samples(self, rng, strategy):
        # its masks are those of the record of the divided grid, at the
        # default alpha; cluster-rgb's are decided without normalizing
        samples = rng.integers(0, 256, size=(32, 32, 3))
        config = MaskerConfig(strategy=strategy, threshold_r=0.4, kmeans_k=4, seed=3)
        expected = mask_image(PreparedImage(raster_patches(samples, 8, 255.0), 3), config,
                              np.random.default_rng(7))
        record = PreparedImage(raster_patches(samples, 8), 3, 255)
        mask = mask_image(record, config, np.random.default_rng(7))
        assert mask.masked.tobytes() == expected.masked.tobytes()
        assert mask.anchors.tobytes() == expected.anchors.tobytes()
        assert (record.samples is None) == (strategy is Strategy.KMEANS)
        with pytest.raises(DataError, match="integer samples"):
            record.emb_rows

    def test_an_undecided_record_is_normalized_as_a_loaded_grid(self, rng, prepare_calls):
        # at a threshold on one of its own cosines the screen defers; the
        # record then holds load_patches' grid standardized in place, and
        # serves that mask and the next from its cosine rows
        samples = rng.integers(0, 65536, size=(24, 24, 1))
        raw = raster_patches(samples, 4, 65535.0)
        sim = cosine_matrix(pixel_normalize(raw))
        anchors = draw_anchors(raw.n_patches, 0.1, np.random.default_rng(5))
        record = PreparedImage(raster_patches(samples, 4), 0, 65535)
        for calls in prepare_calls:
            calls.clear()
        for r in (float(np.sort(sim[anchors], axis=None)[-10]), 0.5):
            config = MaskerConfig(anchor_ratio=0.1, threshold_r=r)
            mask = mask_image(record, config, np.random.default_rng(5))
            expected = cluster_mask_from_anchors(sim[anchors], anchors, r)
            assert mask.masked.tobytes() == expected.masked.tobytes()
            assert record.samples is None
        assert prepared_counts(prepare_calls) == [1, 1, 0]
        assert record.normalized.tobytes() == pixel_normalize(raw).patches.tobytes()

    @pytest.mark.parametrize("maxval, message", [(0, "maxval"), (2.0, "maxval"),
                                                 (255, "normalized")])
    def test_a_record_checks_its_maxval(self, rng, maxval, message):
        grid = pixel_normalize(patchify(Image(data=rng.random((8, 8, 3))), 4))
        with pytest.raises((ConfigError, DataError), match=message):
            PreparedImage(grid, 0, maxval)

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

    def test_masker_config_and_calibration_share_the_anchor_bound(self):
        # anchor_count's two callers, mask_image and calibration, reach it
        # through these checks alone
        assert anchor_count(0.5, 16) == 8
        MaskerConfig(anchor_ratio=0.5)
        check_search(0.5, 0.9, 0.02, 40)
        for bad in (0.0, -1.0, 0.7, float("nan")):
            with pytest.raises(ConfigError, match="anchor_ratio must lie in"):
                MaskerConfig(anchor_ratio=bad)
            with pytest.raises(ConfigError):
                check_search(bad, 0.9, 0.02, 40)
