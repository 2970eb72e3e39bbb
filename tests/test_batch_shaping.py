import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_cosine, smoothed_noise_images
from patchmask.batch_shaping import mask_batch, shape_batch, visible_slots
from patchmask.cluster_masker import (
    Mask,
    MaskerConfig,
    PreparedImage,
    Strategy,
    anchor_count,
    cluster_mask_from_anchors,
    kmeans_mask,
    mask_ratio,
    random_mask,
)
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image, patchify, pixel_normalize
from patchmask.similarity import blend, check_alpha, cosine_matrix, toy_patch_embedding
from patchmask.streams import Stream
from patchmask.toy_contrastive import (
    ToyEncoders,
    alpha_schedule,
    init_encoders,
    loss_and_grads,
    prepare_step_inputs,
    train_loop,
)


def mask_with_visible(length, visible_count, rng):
    masked = np.ones(length, dtype=bool)
    masked[rng.choice(length, size=visible_count, replace=False)] = False
    return Mask(masked=masked)


class TestVisibleSlots:
    def test_half_beta_on_vit_grid(self):
        assert visible_slots(196, 0.5) == 98

    def test_ceiling_guarantees_minimum(self):
        assert visible_slots(196, 0.3) == 196 - 59  # ceil(58.8)
        assert visible_slots(10, 0.25) == 7  # ceil(2.5) = 3 masked

    @pytest.mark.parametrize("beta", [1e-300, 1e-12, 1e-10, 1e-9])
    def test_tiny_beta_masks_one_slot(self, beta):
        assert visible_slots(196, beta) == 195
        assert visible_slots(2, beta) == 1

    def test_tiny_beta_batch_keeps_the_minimum_ratio(self, rng):
        shaped = shape_batch([mask_with_visible(16, 16, rng)], 1e-12, rng)
        assert shaped.slots == 15 and shaped.attention.all()


class TestShapeBatch:
    def test_overfull_image_drops_to_slots(self, rng):
        masks = [mask_with_visible(196, 120, rng)]
        shaped = shape_batch(masks, 0.5, rng)
        assert shaped.slots == 98
        assert shaped.attention[0].all()  # 22 dropped, 0 padding
        assert (shaped.kept_indices[0] < 196).all()

    def test_underfull_image_pads(self, rng):
        masks = [mask_with_visible(196, 80, rng)]
        shaped = shape_batch(masks, 0.5, rng)
        assert shaped.attention[0].sum() == 80
        assert (shaped.kept_indices[0][80:] == 196).all()  # 18 padding slots
        assert not shaped.attention[0][80:].any()

    def test_exact_fit_passes_through(self, rng):
        mask = mask_with_visible(196, 98, rng)
        shaped = shape_batch([mask], 0.5, rng)
        np.testing.assert_array_equal(
            shaped.kept_indices[0], np.flatnonzero(~mask.masked)
        )

    def test_uniform_slot_count_across_batch(self, rng):
        masks = [mask_with_visible(64, int(v), rng) for v in rng.integers(0, 65, size=12)]
        shaped = shape_batch(masks, 0.4, rng)
        assert shaped.kept_indices.shape == (12, visible_slots(64, 0.4))

    def test_slots_reference_only_visible_patches_once(self, rng):
        masks = [mask_with_visible(48, int(v), rng) for v in rng.integers(1, 49, size=8)]
        shaped = shape_batch(masks, 0.35, rng)
        for i, mask in enumerate(masks):
            real = shaped.kept_indices[i][shaped.attention[i]]
            assert not mask.masked[real].any()
            assert len(set(real.tolist())) == real.size
            assert (np.diff(shaped.kept_indices[i]) >= 0).all()  # ascending, pads last

    def test_no_padding_when_every_ratio_at_most_beta(self, rng):
        # images masking at most beta keep >= V visible patches, so the
        # batch needs drops only, never padding
        masks = [random_mask(100, 0.58, rng) for _ in range(10)]
        shaped = shape_batch(masks, 0.6, rng)
        assert shaped.attention.all()

    def test_padding_appears_only_above_beta(self, rng):
        over = random_mask(100, 0.66, rng)  # ratio > beta -> padding
        under = random_mask(100, 0.5, rng)  # ratio < beta -> drops
        shaped = shape_batch([over, under], 0.6, rng)
        assert (shaped.kept_indices[0] == 100).sum() == 6
        assert shaped.attention[1].all()

    def test_deterministic_given_seed(self, rng):
        masks = [mask_with_visible(64, 50, rng) for _ in range(4)]
        a = shape_batch(masks, 0.5, np.random.default_rng(4))
        b = shape_batch(masks, 0.5, np.random.default_rng(4))
        np.testing.assert_array_equal(a.kept_indices, b.kept_indices)
        np.testing.assert_array_equal(a.attention, b.attention)

    def test_rejects_mixed_lengths(self, rng):
        masks = [mask_with_visible(64, 10, rng), mask_with_visible(32, 10, rng)]
        with pytest.raises(DataError):
            shape_batch(masks, 0.5, rng)

    def test_rejects_bad_beta(self, rng):
        with pytest.raises(ConfigError):
            shape_batch([mask_with_visible(64, 10, rng)], 1.0, rng)

    @given(
        length=st.integers(min_value=4, max_value=120),
        beta=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_contract_on_random_masks(self, length, beta, seed):
        gen = np.random.default_rng(seed)
        visible_counts = gen.integers(0, length + 1, size=5)
        masks = [mask_with_visible(length, int(v), gen) for v in visible_counts]
        shaped = shape_batch(masks, beta, gen)
        slots = visible_slots(length, beta)
        assert shaped.slots == slots
        for i, v in enumerate(visible_counts):
            assert shaped.attention[i].sum() == min(int(v), slots)
            pads = shaped.kept_indices[i] == length
            assert pads.sum() == max(0, slots - int(v))
            assert not shaped.attention[i][pads].any()

    def test_debug_text_shape(self, rng):
        shaped = shape_batch([mask_with_visible(8, 3, rng)], 0.5, rng)
        lines = shaped.to_debug_text().strip().split("\n")
        assert lines[0].startswith("kept: ")
        assert lines[1].startswith("attn: ")
        assert len(lines[1].split(" ")[1]) == shaped.slots


# Frozen copies of the mask-then-shape loops that mask_batch replaced, with
# the mask_image they called: it normalized the grid and computed its
# cosines and embedding on every call, and drew its anchors inline. The CLI
# loop patchified each image itself; the trainer pooled the grids. They pin
# mask_batch, prepare_step_inputs and train_loop to the outputs of before.


def frozen_mask_image(grid, config, rng, alpha=1.0):
    check_alpha(alpha)
    if config.strategy is Strategy.RANDOM:
        return random_mask(grid.n_patches, config.random_mask_ratio, rng)
    normalized = pixel_normalize(grid)
    if config.strategy is Strategy.KMEANS:
        return kmeans_mask(
            normalized.patches, config.kmeans_k, config.kmeans_max_iters,
            config.kmeans_mask_fraction, rng,
        )
    sim = cosine_matrix(normalized)
    if config.strategy is Strategy.CLUSTER_EMBEDDING:
        sim = blend(sim, full_cosine(toy_patch_embedding(grid, config.seed)), alpha)
    length = sim.shape[0]
    anchors = rng.choice(length, size=anchor_count(config.anchor_ratio, length), replace=False)
    return cluster_mask_from_anchors(sim[anchors], anchors, config.threshold_r)


def frozen_pool(grids, shaped):
    pooled = np.zeros((len(grids), grids[0].patch_dim))
    for i, grid in enumerate(grids):
        real = shaped.kept_indices[i][shaped.attention[i]]
        if real.size:
            pooled[i] = grid.patches[real].mean(axis=0)
    return pooled


def frozen_cli_mask(images, patch_size, masker, beta, alpha):
    masks = []
    for idx, image in enumerate(images):
        rng = np.random.default_rng((masker.seed, Stream.MASK, idx))
        masks.append(frozen_mask_image(patchify(image, patch_size), masker, rng, alpha))
    shaped = shape_batch(masks, beta, np.random.default_rng((masker.seed, Stream.SHAPE)))
    return masks, shaped


def frozen_prepare_step_inputs(grids, config, step, alpha, beta):
    masks = []
    for i, grid in enumerate(grids):
        rng = np.random.default_rng((config.seed, Stream.TRAIN_MASK, step, i))
        masks.append(frozen_mask_image(grid, config, rng, alpha))
    shaped = shape_batch(masks, beta, np.random.default_rng((config.seed, Stream.TRAIN_SHAPE, step)))
    return masks, shaped, frozen_pool(grids, shaped)


def frozen_train_loop(images, bags, config, epochs, patch_size, beta, learning_rate,
                      steps_per_epoch):
    """train_loop with embed_dim, alpha_exponent and temperature at their
    defaults; also returns each step's (masks, shaped, pooled)."""
    grids = [patchify(image, patch_size) for image in images]
    encoders = init_encoders(grids[0].patch_dim, bags.shape[1], 16, config.seed)
    rows, steps, step = [], [], 0
    for epoch in range(epochs):
        alpha = float(epoch / epochs) ** 1.0
        for _ in range(steps_per_epoch):
            masks, shaped, pooled = frozen_prepare_step_inputs(grids, config, step, alpha, beta)
            loss, d_wi, d_wt = loss_and_grads(pooled, bags, encoders, 0.07)
            encoders = ToyEncoders(w_image=encoders.w_image - learning_rate * d_wi,
                                   w_text=encoders.w_text - learning_rate * d_wt)
            rows.append((step, loss, alpha, float(np.mean([mask_ratio(m) for m in masks]))))
            steps.append((masks, shaped, pooled))
            step += 1
    return encoders, rows, steps


def regression_images():
    """Smooth noise, one image with a flat block (zero vectors after
    normalization) and one with a repeated patch."""
    images = smoothed_noise_images(5, 32, 32, 3, seed=41)
    flat = images[1].data.copy()
    flat[8:24, 8:24] = 0.25
    repeated = images[2].data.copy()
    repeated[0:8, 8:16] = repeated[0:8, 0:8]
    return [images[0], Image(data=flat), Image(data=repeated), *images[3:]]


def assert_same_batch(masks, shaped, ref_masks, ref_shaped):
    assert len(masks) == len(ref_masks)
    for mask, ref in zip(masks, ref_masks):
        np.testing.assert_array_equal(mask.masked, ref.masked)
        np.testing.assert_array_equal(mask.anchors, ref.anchors)
    np.testing.assert_array_equal(shaped.kept_indices, ref_shaped.kept_indices)
    np.testing.assert_array_equal(shaped.attention, ref_shaped.attention)
    assert shaped.length == ref_shaped.length


def has_drops(masks, shaped):
    return any((~mask.masked).sum() > shaped.slots for mask in masks)


def small_config(strategy, threshold_r, seed, beta=0.5):
    # a quarter of the K-Means clusters and a fifth of the random patches
    # leave more visible patches than beta's slots, so shaping drops some
    return MaskerConfig(strategy=strategy, threshold_r=threshold_r, anchor_ratio=0.15,
                        kmeans_k=4, kmeans_mask_fraction=0.25, random_mask_ratio=0.2,
                        seed=seed, beta=beta)


class TestMaskBatch:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("seed", [0, 9])
    def test_cli_keys_match_the_old_cli_loop(self, strategy, seed):
        images = regression_images()
        grids = [patchify(image, 8) for image in images]
        drops = False
        for threshold_r in (0.35, 0.8):
            config = small_config(strategy, threshold_r, seed)
            prepared = [PreparedImage(grid, config.seed) for grid in grids]
            for alpha in (1.0, 0.4):
                masks, shaped = mask_batch(prepared, config, alpha,
                                           (seed, Stream.MASK), (seed, Stream.SHAPE))
                assert_same_batch(masks, shaped, *frozen_cli_mask(images, 8, config, 0.5, alpha))
                drops |= has_drops(masks, shaped)
        assert drops

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_training_steps_match_the_old_prepare_step_inputs(self, strategy):
        images = regression_images()
        config = small_config(strategy, 0.6, 3, beta=0.3)
        grids = [patchify(image, 8) for image in images]
        prepared = [PreparedImage(grid, config.seed) for grid in grids]
        alphas, drops = [], False
        for step in range(4):
            # alpha moves with the epoch: 0, 1/16, 1/4, 9/16
            alpha, ref_alpha = alpha_schedule(step, 4, 2.0), float(step / 4) ** 2.0
            masks, shaped, pooled = prepare_step_inputs(prepared, config, step=step, alpha=alpha)
            ref_masks, ref_shaped, ref_pooled = frozen_prepare_step_inputs(
                grids, config, step, ref_alpha, 0.3
            )
            assert_same_batch(masks, shaped, ref_masks, ref_shaped)
            np.testing.assert_array_equal(pooled, ref_pooled)
            assert alpha == ref_alpha
            alphas.append(alpha)
            drops |= has_drops(masks, shaped)
        assert len(set(alphas)) == 4 and drops

    def test_draws_follow_the_seed_keys(self):
        config = MaskerConfig(strategy=Strategy.RANDOM)
        grids = [PreparedImage(patchify(image, 8), config.seed) for image in regression_images()]
        masks, shaped = mask_batch(grids, config, 1.0, (1, 2), (1, 3))
        again, _ = mask_batch(grids, config, 1.0, (1, 2), (1, 4))
        other, _ = mask_batch(grids, config, 1.0, (1, 5), (1, 3))
        for i, mask in enumerate(masks):
            alone = random_mask(16, 0.5, np.random.default_rng((1, 2, i)))
            np.testing.assert_array_equal(mask.masked, alone.masked)
            np.testing.assert_array_equal(again[i].masked, mask.masked)
        assert any(not np.array_equal(a.masked, b.masked) for a, b in zip(masks, other))
        assert shaped.batch == len(grids)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_train_loop_matches_the_old_train_loop(self, strategy):
        # each image is prepared once per run instead of per step; the log
        # rows, the final weights and every step's batch stay bit-identical
        images = regression_images()
        bags = np.random.default_rng(8).integers(1, 4, size=(len(images), 6)).astype(np.float64)
        config = small_config(strategy, 0.6, 5, beta=0.3)
        grids = [patchify(image, 8) for image in images]
        encoders, rows = train_loop(grids, bags, config, epochs=4, learning_rate=0.2,
                                    steps_per_epoch=2)
        ref_encoders, ref_rows, ref_steps = frozen_train_loop(images, bags, config, 4, 8, 0.3,
                                                              0.2, 2)
        np.testing.assert_array_equal(np.array(rows), np.array(ref_rows))
        np.testing.assert_array_equal(encoders.w_image, ref_encoders.w_image)
        np.testing.assert_array_equal(encoders.w_text, ref_encoders.w_text)
        assert len({row[2] for row in rows}) == 4  # alpha: 0, 1/4, 1/2, 3/4

        prepared = [PreparedImage(grid, config.seed) for grid in grids]
        drops = False
        for step, (ref_masks, ref_shaped, ref_pooled) in enumerate(ref_steps):
            masks, shaped, pooled = prepare_step_inputs(
                prepared, config, step=step, alpha=alpha_schedule(step // 2, 4, 1.0)
            )
            assert_same_batch(masks, shaped, ref_masks, ref_shaped)
            np.testing.assert_array_equal(pooled, ref_pooled)
            drops |= has_drops(masks, shaped)
        assert drops
