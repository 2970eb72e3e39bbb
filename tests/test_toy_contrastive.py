import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import PREPARE_CALLS, prepared_counts, rows_by_source, smoothed_noise_images
from patchmask.cluster_masker import MaskerConfig, PreparedImage, Strategy
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image, patchify, pixel_normalize
from patchmask.streams import Stream, stream
from patchmask.synthetic import PALETTE, color_block_dataset
from patchmask.toy_contrastive import (
    ToyEncoders,
    alpha_schedule,
    check_train,
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
        assert alpha_schedule(0, 10, 1.0) == 0.0
        assert alpha_schedule(10, 10, 1.0) == 1.0

    def test_linear_midpoint(self):
        assert alpha_schedule(5, 10, 1.0) == pytest.approx(0.5)

    def test_quadratic_midpoint(self):
        assert alpha_schedule(5, 10, 2.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_non_decreasing(self, k):
        values = [alpha_schedule(e, 20, k) for e in range(21)]
        assert values == sorted(values)
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_check_train_validation(self):
        settings = dict(n_images=4, epochs=5, learning_rate=0.5, embed_dim=8,
                        steps_per_epoch=1, alpha_exponent=1.0, temperature=0.07)
        check_train(**settings)
        with pytest.raises(ConfigError):
            check_train(**{**settings, "epochs": 0})
        with pytest.raises(ConfigError):
            check_train(**{**settings, "temperature": 0.0})
        # NaN fails every comparison, so each check asks for x > 0
        with pytest.raises(ConfigError, match="temperature must be positive, got nan"):
            check_train(**{**settings, "temperature": math.nan})
        with pytest.raises(ConfigError, match="alpha_exponent must be positive, got nan"):
            check_train(**{**settings, "alpha_exponent": math.nan})


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


def prepare(grids, config):
    return [PreparedImage(grid, config.seed) for grid in grids]


# the first step of a 10-epoch run at the default temperature
STEP_ZERO = dict(step=0, alpha=0.0, temperature=0.07)


def perturbed(grid, patch_idx, value):
    """A copy of grid with every sample of one patch set to value."""
    patches = grid.patches.copy()
    patches[patch_idx] = value
    return replace(grid, patches=patches)


class TestTrainStep:
    def small_setup(self, seed=0, strategy=Strategy.CLUSTER_RGB):
        grids, bags = color_block_dataset(6, 16, 4, n_colors=6, seed=seed)
        config = MaskerConfig(strategy=strategy, threshold_r=0.6, kmeans_k=4, seed=seed)
        encoders = init_encoders(48, 6, 8, seed=seed)
        return grids, bags, config, encoders

    def test_zero_learning_rate_keeps_parameters(self):
        grids, bags, config, encoders = self.small_setup()
        prepared = prepare(grids, config)
        updated, first, _ = train_step(encoders, prepared, bags, config, learning_rate=0.0,
                                       **STEP_ZERO)
        np.testing.assert_array_equal(updated.w_image, encoders.w_image)
        np.testing.assert_array_equal(updated.w_text, encoders.w_text)
        _, second, _ = train_step(encoders, prepared, bags, config, learning_rate=0.0,
                                  **STEP_ZERO)
        assert first == second  # bit-exact repeat of the same step

    def test_fresh_masks_each_step(self):
        grids, bags, config, _ = self.small_setup()
        prepared = prepare(grids, config)
        first, _, _ = prepare_step_inputs(prepared, config, step=0, alpha=0.0)
        second, _, _ = prepare_step_inputs(prepared, config, step=1, alpha=0.0)
        assert any(not np.array_equal(a.masked, b.masked) for a, b in zip(first, second))

    def test_masked_patch_pixels_never_reach_loss(self):
        # fixed shaped batch: perturbing a masked patch must leave the loss
        # bit-identical because pooling only touches kept slots
        grids, bags, config, encoders = self.small_setup(seed=5)
        masks, shaped, pooled = prepare_step_inputs(prepare(grids, config), config, step=0,
                                                    alpha=0.0)
        baseline, _, _ = loss_and_grads(pooled, bags, encoders, 0.07)

        target = next(i for i, m in enumerate(masks) if m.masked.any())
        patch_idx = int(np.flatnonzero(masks[target].masked)[0])
        touched = list(grids)
        touched[target] = perturbed(grids[target], patch_idx, 0.123)

        pooled = pool_visible_patches(prepare(touched, config), shaped)
        loss, _, _ = loss_and_grads(pooled, bags, encoders, 0.07)
        assert loss == baseline

    def test_random_strategy_full_step_ignores_masked_pixels(self):
        # random masks are content-independent, so the whole step replays
        grids, bags, config, encoders = self.small_setup(seed=7, strategy=Strategy.RANDOM)
        prepared = prepare(grids, config)
        masks, _, _ = prepare_step_inputs(prepared, config, step=0, alpha=0.0)
        _, base, _ = train_step(encoders, prepared, bags, config, learning_rate=0.1,
                                **STEP_ZERO)

        patch_idx = int(np.flatnonzero(masks[0].masked)[0])
        touched = [perturbed(grids[0], patch_idx, 0.875)] + list(grids[1:])
        _, replay, _ = train_step(encoders, prepare(touched, config), bags, config,
                                  learning_rate=0.1, **STEP_ZERO)
        assert replay == base

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_train_loop_prepares_each_image_once_per_run(self, prepare_calls, strategy):
        # noise images: the color blocks' flat patches leave K-Means too few
        # distinct vectors for k=4
        grids = [patchify(image, 4) for image in smoothed_noise_images(6, 16, 16, 3, seed=2)]
        config = MaskerConfig(strategy=strategy, threshold_r=0.6, kmeans_k=4, seed=2)
        _, rows = train_loop(grids, np.eye(6), config, epochs=3, learning_rate=0.1,
                             steps_per_epoch=2)
        assert len(rows) == 6
        assert prepared_counts(prepare_calls) == [6 * n for n in PREPARE_CALLS[strategy]]
        for computed in rows_by_source(prepare_calls[1]):
            assert sorted(set(computed)) == sorted(computed)

    def test_train_loop_checks_grids_and_bags_before_drawing_encoders(self, calls_to):
        draws = calls_to("toy_contrastive", "init_encoders")
        # 16 patches each, of 192 values at 32 px and P=8 and of 48 at 16 px and P=4
        grids, bags = color_block_dataset(3, 32, 8, seed=0)
        small, _ = color_block_dataset(3, 16, 4, seed=0)
        cases = [
            (grids + small, np.vstack([bags, bags]), "grid 3 must be unnormalized"),
            ([grids[0], pixel_normalize(grids[1]), grids[2]], bags, "grid 1 must be"),
            (grids, bags[:, 0], "one token-bag row per grid"),
            (grids, bags[:2], "one token-bag row per grid"),
        ]
        for case_grids, case_bags, message in cases:
            with pytest.raises(DataError, match=message):
                train_loop(case_grids, case_bags, MaskerConfig(), epochs=2)
        assert draws == []

    def test_row_cache_computes_no_row_twice(self, calls_to):
        # 4 anchors of 16 patches a step over 40 steps: every row of both
        # sources is read, and each is computed once, the first time
        row_calls = calls_to("_kernels", "cosine_rows")
        grids = [patchify(image, 4) for image in smoothed_noise_images(4, 16, 16, 3, seed=3)]
        config = MaskerConfig(strategy=Strategy.CLUSTER_EMBEDDING, anchor_ratio=0.25,
                              threshold_r=0.6, seed=3)
        _, rows = train_loop(grids, np.eye(4), config, epochs=40, learning_rate=0.1)
        assert len(rows) == 40
        sources = rows_by_source(row_calls)
        assert len(sources) == 8
        for computed in sources:
            assert sorted(computed) == list(range(16))

    def test_short_training_reduces_loss(self):
        grids, bags = color_block_dataset(12, 32, 8, seed=21)
        config = MaskerConfig(strategy=Strategy.CLUSTER_RGB, threshold_r=0.6, seed=21)
        _, rows = train_loop(grids, bags, config, epochs=80, learning_rate=0.3)
        assert rows[-1][1] < rows[0][1]


def frozen_color_block_images(n_images, image_size, patch_size, n_colors, seed):
    """color_block_dataset as it was when it painted each block of an
    (H, W, 3) raster in a double loop and returned Images."""
    blocks = image_size // patch_size
    textures = []
    for c in range(n_colors):
        t = stream(seed, Stream.TEXTURE, c).standard_normal((patch_size, patch_size))
        t = (t - t.mean()) / max(t.std(), 1e-12)
        textures.append(t)

    images, bags = [], np.zeros((n_images, n_colors))
    for i in range(n_images):
        rng = stream(seed, Stream.LAYOUT, i)
        present = rng.choice(n_colors, size=min(int(rng.integers(2, 4)), n_colors), replace=False)
        layout = present[rng.integers(0, present.size, size=(blocks, blocks))]
        data = np.empty((image_size, image_size, 3))
        for bi in range(blocks):
            for bj in range(blocks):
                color = int(layout[bi, bj])
                block = PALETTE[color][None, None, :] * (
                    0.75 + 0.2 * textures[color][:, :, None]
                )
                data[
                    bi * patch_size : (bi + 1) * patch_size,
                    bj * patch_size : (bj + 1) * patch_size,
                ] = block
        images.append(Image(data=np.clip(data, 0.0, 1.0)))
        bags[i] = np.bincount(layout.ravel(), minlength=n_colors)
    return images, bags


@pytest.mark.parametrize("n_images, image_size, patch_size, n_colors, seed", [
    (16, 32, 8, 8, 0), (16, 32, 8, 8, 1), (6, 16, 4, 6, 60), (5, 24, 8, 2, 3),
    (3, 12, 1, 3, 7), (4, 20, 20, 5, 11), (2, 30, 6, 8, 2**32 - 1),
])
def test_dataset_grids_are_the_painted_images_patches(n_images, image_size, patch_size,
                                                      n_colors, seed):
    grids, bags = color_block_dataset(n_images, image_size, patch_size, n_colors, seed=seed)
    images, ref_bags = frozen_color_block_images(n_images, image_size, patch_size, n_colors, seed)
    np.testing.assert_array_equal(bags, ref_bags)
    assert len(grids) == n_images
    for grid, image in zip(grids, images):
        ref = patchify(image, patch_size)
        assert (grid.rows, grid.cols, grid.patch_size, grid.channels, grid.normalized) == (
            ref.rows, ref.cols, ref.patch_size, ref.channels, ref.normalized)
        assert grid.patches.dtype == ref.patches.dtype and grid.patches.flags.c_contiguous
        assert grid.patches.tobytes() == ref.patches.tobytes()


@pytest.mark.parametrize("counts", [{"n_images": 2.5}, {"image_size": 32.0}, {"patch_size": 8.0},
                                    {"n_colors": 3.0}, {"n_images": True}])
def test_dataset_counts_must_be_integers(counts):
    # each once raised a bare TypeError from inside the painting
    with pytest.raises(ConfigError, match="must be an integer"):
        color_block_dataset(**counts, seed=0)
