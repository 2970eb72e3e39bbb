"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print; the whole file also runs as part of the plain pytest invocation.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from conftest import random_similarity, smoothed_noise_images
from patchmask.batch_shaping import shape_batch, visible_slots
from patchmask.calibration import calibrate_threshold, draw_anchor_sets, mean_mask_ratio
from patchmask.cluster_masker import (
    MaskerConfig,
    Strategy,
    cluster_mask_from_anchors,
    kmeans_cluster,
    kmeans_mask_detail,
)
from patchmask.patch_grid import Image, PatchGrid, patchify, pixel_normalize
from patchmask.pnm import save_image
from patchmask.similarity import cosine_matrix
from patchmask.synthetic import color_block_dataset
from patchmask.toy_contrastive import (
    TrainState,
    info_nce,
    init_encoders,
    loss_and_grads,
    pool_visible_patches,
    prepare_step_inputs,
    train_loop,
    train_step,
)
from test_cluster_masker import brute_force_members
from test_toy_contrastive import finite_difference_grads, naive_symmetric_loss, prepare, unit_rows


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {summary}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS  {summary}")


def test_criterion_01_calibration_fidelity():
    with criterion(1, "calibration hits 0.50 +/- 0.02 over 1000 images in < 60 s"):
        start = time.monotonic()
        images = smoothed_noise_images(1000, 224, 224, 3, seed=42)
        sample = [cosine_matrix(pixel_normalize(patchify(im, 16))) for im in images]
        assert all(s.shape == (196, 196) for s in sample[:3])

        report = calibrate_threshold(
            sample, anchor_ratio=0.03, target_ratio=0.5, tolerance=0.02,
            rng=np.random.default_rng(7),
        )
        # independent re-evaluation with anchors the calibrator never saw
        fresh = draw_anchor_sets(sample, 0.03, np.random.default_rng(987654321))
        independent = mean_mask_ratio(sample, fresh, report.found_r)
        elapsed = time.monotonic() - start

        assert report.converged
        assert abs(independent - 0.5) <= 0.02, independent
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

        # stats over actual calibrated masks agree with the target too
        from patchmask.cluster_masker import cluster_mask
        from patchmask.stats import stats_report

        gen = np.random.default_rng(31337)
        masks = [cluster_mask(sim, 0.03, report.found_r, gen) for sim in sample]
        assert abs(stats_report(masks).mean_ratio - 0.5) <= 0.02


def test_criterion_02_cluster_mask_oracle_equivalence():
    with criterion(2, "cluster_mask == brute-force membership oracle on 10,000 instances"):
        rng = np.random.default_rng(200)
        mismatches = 0
        for _ in range(10_000):
            length = int(rng.integers(2, 33))
            sim = random_similarity(rng, length, dim=int(rng.integers(2, 10)))
            n_anchors = int(rng.integers(1, length + 1))
            anchors = rng.choice(length, size=n_anchors, replace=False)
            threshold = float(rng.uniform(-1.1, 1.1))
            mask = cluster_mask_from_anchors(sim, anchors, threshold)
            if set(np.flatnonzero(mask.masked)) != brute_force_members(sim, anchors, threshold):
                mismatches += 1
        assert mismatches == 0


def test_criterion_03_monotonicity_suite():
    with criterion(3, "masked-set inclusion under r decrease / anchor addition, 1000 instances"):
        rng = np.random.default_rng(300)
        violations = 0
        for _ in range(1000):
            length = int(rng.integers(4, 40))
            sim = random_similarity(rng, length)
            n_anchors = int(rng.integers(1, max(2, length // 3)))
            anchors = rng.choice(length, size=n_anchors, replace=False)
            r_lo, r_hi = sorted(rng.uniform(-1.05, 1.05, size=2))
            low = cluster_mask_from_anchors(sim, anchors, r_lo).masked
            high = cluster_mask_from_anchors(sim, anchors, r_hi).masked
            if (high & ~low).any():
                violations += 1
            extra = int(rng.integers(0, length))
            grown = cluster_mask_from_anchors(
                sim, np.append(anchors, extra), r_lo
            ).masked
            if (low & ~grown).any():
                violations += 1
        assert violations == 0


def test_criterion_04_infonce_identities():
    with criterion(4, "identical-batch loss = ln N (1e-6); oracle match on 100 batches (1e-9)"):
        for n in (2, 4, 8, 64):
            vec = np.zeros(8)
            vec[0] = 1.0
            embeds = np.tile(vec, (n, 1))
            for tau in (0.07, 0.5, 1.0):
                assert abs(info_nce(embeds @ embeds.T / tau)[0] - math.log(n)) <= 1e-6

        rng = np.random.default_rng(400)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            images = unit_rows(rng, n, int(rng.integers(3, 9)))
            texts = unit_rows(rng, n, images.shape[1])
            ours = info_nce(images @ texts.T / 0.07)[0]
            assert abs(ours - naive_symmetric_loss(images, texts, 0.07)) <= 1e-9


def test_criterion_05_gradient_check():
    with criterion(5, "analytic gradients vs central differences (h=1e-5), 20 instances"):
        rng = np.random.default_rng(500)
        worst = 0.0
        for _ in range(20):
            pooled = rng.random((4, 12))
            bags = rng.integers(0, 4, size=(4, 5)).astype(np.float64)
            bags[bags.sum(axis=1) == 0, 0] = 1.0
            encoders = init_encoders(12, 5, 8, seed=int(rng.integers(0, 10_000)))
            _, d_wi, d_wt = loss_and_grads(pooled, bags, encoders, 0.07)
            fd_wi, fd_wt = finite_difference_grads(pooled, bags, encoders, 0.07, h=1e-5)
            for analytic, numeric in ((d_wi, fd_wi), (d_wt, fd_wt)):
                scale = np.maximum(np.abs(numeric), 1e-6)
                worst = max(worst, float((np.abs(analytic - numeric) / scale).max()))
        assert worst <= 1e-4, worst


def test_criterion_06_attention_mask_correctness():
    with criterion(6, "perturbing masked patches leaves step loss bit-identical, 50 trials"):
        rng = np.random.default_rng(600)
        images, bags = color_block_dataset(6, 16, 4, n_colors=6, seed=60)
        patch_dim = 4 * 4 * 3

        def perturb(image, patch_idx, value, cols):
            bi, bj = divmod(patch_idx, cols)
            data = image.data.copy()
            data[bi * 4 : (bi + 1) * 4, bj * 4 : (bj + 1) * 4] = value
            return Image(data=data)

        # 25 trials: cluster-RGB with the prepared mask/shaped batch held fixed
        for trial in range(25):
            config = MaskerConfig(
                strategy=Strategy.CLUSTER_RGB, threshold_r=0.6, seed=int(rng.integers(1000))
            )
            state = TrainState(epoch_total=10, step=trial)
            encoders = init_encoders(patch_dim, bags.shape[1], 8, seed=trial)
            inputs = prepare_step_inputs(prepare(images, config), config, state, 0.5)
            baseline, _, _ = loss_and_grads(inputs.pooled, bags, encoders, state.temperature)

            target = int(rng.integers(0, len(images)))
            masked_positions = np.flatnonzero(inputs.masks[target].masked)
            pick = int(masked_positions[rng.integers(0, masked_positions.size)])
            cols = patchify(images[target], 4).cols
            touched = list(images)
            touched[target] = perturb(images[target], pick, float(rng.random()), cols)
            pooled = pool_visible_patches(prepare(touched, config), inputs.shaped)
            loss, _, _ = loss_and_grads(pooled, bags, encoders, state.temperature)
            assert loss == baseline

        # 25 trials: random strategy, full train_step replay end to end
        for trial in range(25):
            config = MaskerConfig(strategy=Strategy.RANDOM, seed=int(rng.integers(1000)))
            state = TrainState(epoch_total=10, step=trial)
            encoders = init_encoders(patch_dim, bags.shape[1], 8, seed=trial + 100)
            prepared = prepare(images, config)
            inputs = prepare_step_inputs(prepared, config, state, 0.5)
            _, base = train_step(encoders, prepared, bags, config, state, 0.5, 0.1)

            target = int(rng.integers(0, len(images)))
            masked_positions = np.flatnonzero(inputs.masks[target].masked)
            pick = int(masked_positions[rng.integers(0, masked_positions.size)])
            cols = patchify(images[target], 4).cols
            touched = list(images)
            touched[target] = perturb(images[target], pick, float(rng.random()), cols)
            _, replay = train_step(encoders, prepare(touched, config), bags, config, state,
                                   0.5, 0.1)
            assert replay.loss == base.loss


def test_criterion_07_batch_shaping_contract():
    with criterion(7, "beta=0.5, L=196 gives 98 slots; counts match on 1000 masks"):
        assert visible_slots(196, 0.5) == 98
        rng = np.random.default_rng(700)
        masks = []
        for _ in range(1000):
            masked = np.zeros(196, dtype=bool)
            n_masked = int(rng.integers(0, 197))
            masked[rng.choice(196, size=n_masked, replace=False)] = True
            from patchmask.cluster_masker import Mask

            masks.append(Mask(masked=masked, anchors=np.empty(0, dtype=np.int64)))
        shaped = shape_batch(masks, 0.5, rng)
        assert shaped.kept_indices.shape == (1000, 98)
        for i, mask in enumerate(masks):
            visible = int((~mask.masked).sum())
            real = shaped.kept_indices[i][shaped.attention[i]]
            pads = int((shaped.kept_indices[i] == 196).sum())
            assert real.size == min(visible, 98)  # drops leave exactly V
            assert pads == max(0, 98 - visible)  # padding fills the shortfall
            assert not mask.masked[real].any()
            assert np.unique(real).size == real.size


def test_criterion_08_kmeans_variant():
    with criterion(8, "k=12/10 iters masks exactly 6 clusters; 200 instances centroid-optimal"):
        rng = np.random.default_rng(800)
        image = smoothed_noise_images(1, 112, 112, 3, seed=80)[0]
        grid = pixel_normalize(patchify(image, 8))
        mask, labels, centroids, chosen = kmeans_mask_detail(grid, 12, 10, 0.5, rng)
        assert chosen.size == 6
        assert centroids.shape[0] == 12
        np.testing.assert_array_equal(mask.masked, np.isin(labels, chosen))

        for _ in range(200):
            n = int(rng.integers(12, 80))
            dim = int(rng.integers(2, 9))
            points = rng.standard_normal((n, dim))
            labels, centroids = kmeans_cluster(points, 12, 10, rng)
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assigned = d2[np.arange(n), labels]
            assert (assigned <= d2.min(axis=1) + 1e-9).all()


def test_criterion_09_pixel_normalization_properties():
    with criterion(9, "affine invariance and cosine==Pearson at 1e-6 on 1000 patches"):
        rng = np.random.default_rng(900)
        patches = rng.random((1000, 48))
        grid = PatchGrid(rows=40, cols=25, patch_size=4, channels=3, patches=patches)
        normalized = pixel_normalize(grid)

        scales = rng.uniform(0.05, 20.0, size=(1000, 1))
        offsets = rng.uniform(-5.0, 5.0, size=(1000, 1))
        moved = PatchGrid(rows=40, cols=25, patch_size=4, channels=3,
                          patches=scales * patches + offsets)
        assert np.abs(pixel_normalize(moved).patches - normalized.patches).max() <= 1e-6

        sim = cosine_matrix(normalized)
        pearson = np.corrcoef(patches)
        assert np.abs(sim - pearson).max() <= 1e-6


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical-seed CLI runs produce byte-identical outputs"):
        image_dir = tmp_path / "imgs"
        image_dir.mkdir()
        for i, image in enumerate(smoothed_noise_images(4, 32, 32, 3, seed=19)):
            save_image(image, image_dir / f"img_{i:02d}.ppm")
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({
            "strategy": "cluster-embedding", "threshold_r": 0.55, "seed": 13,
            "epochs": 5, "dataset": {"n_images": 6, "image_size": 16, "patch_size": 4},
        }))

        def run(command, out):
            argv = {
                "mask": ["mask", "--in", str(image_dir), "--out", str(out),
                         "--strategy", "cluster-rgb", "--anchor-ratio", "0.1",
                         "--threshold", "0.3", "--beta", "0.5", "--seed", "5",
                         "--patch-size", "8", "--render"],
                "calibrate": ["calibrate", "--in", str(image_dir), "--target", "0.5",
                              "--anchor-ratio", "0.1", "--tolerance", "0.1",
                              "--patch-size", "8", "--seed", "5",
                              "--calibration-out", str(out / "report.json")],
                "train": ["train", "--config", str(train_cfg), "--out", str(out)],
            }[command]
            out.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "patchmask", *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        for command in ("mask", "calibrate", "train"):
            first = run(command, tmp_path / f"{command}_a")
            second = run(command, tmp_path / f"{command}_b")
            assert first.keys() == second.keys()
            assert all(first[name] == second[name] for name in first), command


def test_criterion_11_training_smoke():
    with criterion(11, "200 steps cut loss to <= 0.8x initial under cluster-RGB and random"):
        images, bags = color_block_dataset(16, 32, 8, seed=101)
        for strategy, threshold in ((Strategy.CLUSTER_RGB, 0.6), (Strategy.RANDOM, 0.5)):
            config = MaskerConfig(strategy=strategy, threshold_r=threshold, seed=101)
            _, rows = train_loop(
                images, bags, config, epochs=200, patch_size=8, beta=0.5,
                learning_rate=0.3,
            )
            assert len(rows) == 200
            initial, final = rows[0][1], rows[-1][1]
            assert final <= 0.8 * initial, (strategy, initial, final)
