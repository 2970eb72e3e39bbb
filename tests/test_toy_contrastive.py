import math

import numpy as np
import pytest

from conftest import PREPARE_CALLS, prepared_counts, rows_by_source, smoothed_noise_images
from patchmask.cluster_masker import MaskerConfig, PreparedImage, Strategy
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image, patchify
from patchmask.synthetic import color_block_dataset
from patchmask.toy_contrastive import (
    ToyEncoders,
    TrainState,
    alpha_schedule,
    info_nce,
    init_encoders,
    loss_and_grads,
    pool_visible_patches,
    prepare_step_inputs,
    train_loop,
    train_step,
)


def unit_rows(rng, n, dim):
    z = rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def naive_symmetric_loss(image_embeds, text_embeds, tau):
    """Unstable-but-direct double-loop oracle for the symmetric InfoNCE."""
    n = image_embeds.shape[0]
    total_v2l = 0.0
    total_l2v = 0.0
    for i in range(n):
        pos = math.exp(float(np.dot(image_embeds[i], text_embeds[i])) / tau)
        denom_v2l = sum(
            math.exp(float(np.dot(image_embeds[i], text_embeds[j])) / tau) for j in range(n)
        )
        denom_l2v = sum(
            math.exp(float(np.dot(image_embeds[j], text_embeds[i])) / tau) for j in range(n)
        )
        total_v2l += -math.log(pos / denom_v2l)
        total_l2v += -math.log(pos / denom_l2v)
    return 0.5 * (total_v2l + total_l2v) / n


class TestAlphaSchedule:
    def test_endpoints(self):
        assert alpha_schedule(TrainState(epoch_total=10, epoch_current=0)) == 0.0
        assert alpha_schedule(TrainState(epoch_total=10, epoch_current=10)) == 1.0

    def test_linear_midpoint(self):
        state = TrainState(epoch_total=10, epoch_current=5, alpha_exponent=1.0)
        assert alpha_schedule(state) == pytest.approx(0.5)

    def test_quadratic_midpoint(self):
        state = TrainState(epoch_total=10, epoch_current=5, alpha_exponent=2.0)
        assert alpha_schedule(state) == pytest.approx(0.25)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_non_decreasing(self, k):
        values = [
            alpha_schedule(TrainState(epoch_total=20, epoch_current=e, alpha_exponent=k))
            for e in range(21)
        ]
        assert values == sorted(values)
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_state_validation(self):
        with pytest.raises(ConfigError):
            TrainState(epoch_total=0)
        with pytest.raises(ConfigError):
            TrainState(epoch_total=5, epoch_current=6)
        with pytest.raises(ConfigError):
            TrainState(epoch_total=5, temperature=0.0)


class TestInfoNCE:
    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_identical_embeddings_give_log_n(self, n):
        vec = np.zeros(6)
        vec[0] = 1.0
        embeds = np.tile(vec, (n, 1))
        assert info_nce(embeds @ embeds.T / 0.07)[0] == pytest.approx(math.log(n), abs=1e-6)

    def test_perfectly_separated_pair_is_near_zero(self):
        # +1/-1 logits at tau=0.07: per-row loss log1p(exp(-2/0.07)) ~ 3.9e-13
        embeds = np.array([[1.0, 0.0], [-1.0, 0.0]])
        expected = math.log1p(math.exp(-2.0 / 0.07))
        loss, _ = info_nce(embeds @ embeds.T / 0.07)
        assert loss == pytest.approx(expected, abs=1e-15)
        assert loss < 1e-12

    def test_batch_permutation_invariance(self, rng):
        images = unit_rows(rng, 8, 5)
        texts = unit_rows(rng, 8, 5)
        perm = rng.permutation(8)
        base, _ = info_nce(images @ texts.T / 0.07)
        permuted, _ = info_nce(images[perm] @ texts[perm].T / 0.07)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            images = unit_rows(rng, n, 6)
            texts = unit_rows(rng, n, 6)
            ours, _ = info_nce(images @ texts.T / 0.07)
            assert ours == pytest.approx(naive_symmetric_loss(images, texts, 0.07), abs=1e-9)

    def test_transposed_logits_swap_directions(self, rng):
        # the loss is symmetric in its two directions, so swapping images
        # and texts changes neither the loss nor, transposed, the gradient
        logits = unit_rows(rng, 6, 4) @ unit_rows(rng, 6, 4).T / 0.1
        loss, d_logits = info_nce(logits)
        swapped, d_swapped = info_nce(logits.T)
        assert swapped == loss
        np.testing.assert_array_equal(d_swapped, d_logits.T)

    def test_loss_at_least_zero(self, rng):
        for _ in range(50):
            images = unit_rows(rng, 4, 8)
            texts = unit_rows(rng, 4, 8)
            assert info_nce(images @ texts.T / 0.07)[0] >= 0.0

    def test_loss_and_grads_rejects_bad_batches(self, rng):
        pooled, bags = tiny_batch(rng)
        encoders = init_encoders(12, 5, 8, seed=3)
        with pytest.raises(DataError, match="batch size mismatch"):
            loss_and_grads(pooled[:3], bags, encoders, 0.07)
        with pytest.raises(DataError, match="at least 2 pairs"):
            loss_and_grads(pooled[:1], bags[:1], encoders, 0.07)
        bad_pooled, bad_bags = pooled.copy(), bags.copy()
        bad_pooled[1, 2] = bad_bags[1, 2] = np.nan
        for batch in ((bad_pooled, bags), (pooled, bad_bags)):
            with pytest.raises(DataError, match="non-finite"):
                loss_and_grads(*batch, encoders, 0.07)


def tiny_batch(rng, n=4, patch_dim=12, vocab=5):
    pooled = rng.random((n, patch_dim))
    bags = rng.integers(0, 4, size=(n, vocab)).astype(np.float64)
    bags[bags.sum(axis=1) == 0, 0] = 1.0
    return pooled, bags


def finite_difference_grads(pooled, bags, encoders, tau, h=1e-5):
    """Central finite differences of the loss over every projection entry."""
    grads = []
    for name in ("w_image", "w_text"):
        w = getattr(encoders, name)
        grad = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            for sign in (1.0, -1.0):
                bumped = ToyEncoders(
                    w_image=encoders.w_image.copy(), w_text=encoders.w_text.copy()
                )
                getattr(bumped, name)[idx] += sign * h
                loss, _, _ = loss_and_grads(pooled, bags, bumped, tau)
                grad[idx] += sign * loss
        grads.append(grad / (2.0 * h))
    return grads


class TestGradients:
    def test_analytic_matches_finite_differences(self, rng):
        for _ in range(5):
            pooled, bags = tiny_batch(rng)
            encoders = init_encoders(12, 5, 8, seed=int(rng.integers(0, 1000)))
            _, d_wi, d_wt = loss_and_grads(pooled, bags, encoders, 0.07)
            fd_wi, fd_wt = finite_difference_grads(pooled, bags, encoders, 0.07)
            for analytic, numeric in ((d_wi, fd_wi), (d_wt, fd_wt)):
                scale = np.maximum(np.abs(numeric), 1e-6)
                assert (np.abs(analytic - numeric) / scale).max() <= 1e-4


def prepare(images, config):
    return [PreparedImage(patchify(image, 4), config.seed) for image in images]


class TestTrainStep:
    def small_setup(self, seed=0, strategy=Strategy.CLUSTER_RGB):
        images, bags = color_block_dataset(6, 16, 4, n_colors=6, seed=seed)
        config = MaskerConfig(strategy=strategy, threshold_r=0.6, kmeans_k=4, seed=seed)
        state = TrainState(epoch_total=10)
        encoders = init_encoders(48, 6, 8, seed=seed)
        return images, bags, config, state, encoders

    def test_zero_learning_rate_keeps_parameters(self):
        images, bags, config, state, encoders = self.small_setup()
        prepared = prepare(images, config)
        updated, first = train_step(encoders, prepared, bags, config, state, 0.5, 0.0)
        np.testing.assert_array_equal(updated.w_image, encoders.w_image)
        np.testing.assert_array_equal(updated.w_text, encoders.w_text)
        _, second = train_step(encoders, prepared, bags, config, state, 0.5, 0.0)
        assert first.loss == second.loss  # bit-exact repeat of the same step

    def test_fresh_masks_each_step(self):
        images, bags, config, state, _ = self.small_setup()
        prepared = prepare(images, config)
        first = prepare_step_inputs(prepared, config, state, 0.5)
        state.step += 1
        second = prepare_step_inputs(prepared, config, state, 0.5)
        assert any(
            not np.array_equal(a.masked, b.masked)
            for a, b in zip(first.masks, second.masks)
        )

    def test_masked_patch_pixels_never_reach_loss(self):
        # fixed shaped batch: perturbing a masked patch must leave the loss
        # bit-identical because pooling only touches kept slots
        images, bags, config, state, encoders = self.small_setup(seed=5)
        inputs = prepare_step_inputs(prepare(images, config), config, state, 0.5)
        baseline, _, _ = loss_and_grads(inputs.pooled, bags, encoders, state.temperature)

        target = next(i for i, m in enumerate(inputs.masks) if m.masked.any())
        patch_idx = int(np.flatnonzero(inputs.masks[target].masked)[0])
        grid = patchify(images[target], 4)
        rows = grid.rows
        bi, bj = divmod(patch_idx, grid.cols)
        perturbed = images[target].data.copy()
        perturbed[bi * 4 : (bi + 1) * 4, bj * 4 : (bj + 1) * 4] = 0.123
        new_images = list(images)
        new_images[target] = Image(data=perturbed)

        pooled = pool_visible_patches(prepare(new_images, config), inputs.shaped)
        loss, _, _ = loss_and_grads(pooled, bags, encoders, state.temperature)
        assert loss == baseline

    def test_random_strategy_full_step_ignores_masked_pixels(self):
        # random masks are content-independent, so the whole step replays
        images, bags, config, state, encoders = self.small_setup(
            seed=7, strategy=Strategy.RANDOM
        )
        prepared = prepare(images, config)
        inputs = prepare_step_inputs(prepared, config, state, 0.5)
        _, base = train_step(encoders, prepared, bags, config, state, 0.5, 0.1)

        patch_idx = int(np.flatnonzero(inputs.masks[0].masked)[0])
        grid = patchify(images[0], 4)
        bi, bj = divmod(patch_idx, grid.cols)
        perturbed = images[0].data.copy()
        perturbed[bi * 4 : (bi + 1) * 4, bj * 4 : (bj + 1) * 4] = 0.875
        new_images = [Image(data=perturbed)] + list(images[1:])
        _, touched = train_step(encoders, prepare(new_images, config), bags, config, state,
                                0.5, 0.1)
        assert touched.loss == base.loss

    def test_train_loop_patchifies_each_image_once_per_run(self, calls_to):
        images, bags = color_block_dataset(6, 16, 4, n_colors=6, seed=2)
        config = MaskerConfig(strategy=Strategy.CLUSTER_EMBEDDING, threshold_r=0.6, seed=2)
        patchify_calls = calls_to("patch_grid", "patchify")
        _, rows = train_loop(images, bags, config, epochs=3, patch_size=4, beta=0.5,
                             learning_rate=0.1, steps_per_epoch=2)
        assert len(rows) == 6
        assert [args[0] for args in patchify_calls] == [4] * 6

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_train_loop_prepares_each_image_once_per_run(self, prepare_calls, strategy):
        # noise images: the color blocks' flat patches leave K-Means too few
        # distinct vectors for k=4
        images = smoothed_noise_images(6, 16, 16, 3, seed=2)
        config = MaskerConfig(strategy=strategy, threshold_r=0.6, kmeans_k=4, seed=2)
        _, rows = train_loop(images, np.eye(6), config, epochs=3, patch_size=4, beta=0.5,
                             learning_rate=0.1, steps_per_epoch=2)
        assert len(rows) == 6
        assert prepared_counts(prepare_calls) == [6 * n for n in PREPARE_CALLS[strategy]]
        for computed in rows_by_source(prepare_calls[1]):
            assert sorted(set(computed)) == sorted(computed)

    def test_row_cache_computes_no_row_twice(self, calls_to):
        # 4 anchors of 16 patches a step over 40 steps: every row of both
        # sources is read, and each is computed once, the first time
        row_calls = calls_to("_kernels", "cosine_rows")
        images = smoothed_noise_images(4, 16, 16, 3, seed=3)
        config = MaskerConfig(strategy=Strategy.CLUSTER_EMBEDDING, anchor_ratio=0.25,
                              threshold_r=0.6, seed=3)
        _, rows = train_loop(images, np.eye(4), config, epochs=40, patch_size=4, beta=0.5,
                             learning_rate=0.1)
        assert len(rows) == 40
        sources = rows_by_source(row_calls)
        assert len(sources) == 8
        for computed in sources:
            assert sorted(computed) == list(range(16))

    def test_short_training_reduces_loss(self):
        images, bags = color_block_dataset(12, 32, 8, seed=21)
        config = MaskerConfig(strategy=Strategy.CLUSTER_RGB, threshold_r=0.6, seed=21)
        _, rows = train_loop(
            images, bags, config, epochs=80, patch_size=8, beta=0.5, learning_rate=0.3
        )
        assert rows[-1][1] < rows[0][1]
