import numpy as np
import pytest

from conftest import random_similarity
from patchmask.calibration import (
    R_MAX,
    R_MIN,
    calibrate_threshold,
    draw_anchor_sets,
    mean_mask_ratio,
)
from patchmask.cluster_masker import cluster_mask, cluster_mask_from_anchors, mask_ratio
from patchmask.errors import ConfigError, ConvergenceError


def small_sample(rng, count=40, length=36):
    return [random_similarity(rng, length) for _ in range(count)]


class TestObjective:
    def test_below_minimum_masks_everything(self, rng):
        sample = small_sample(rng)
        sets = draw_anchor_sets(sample, 0.1, rng)
        assert mean_mask_ratio(sample, sets, -1.01) == 1.0

    def test_above_maximum_leaves_anchors_only(self, rng):
        sample = small_sample(rng)
        sets = draw_anchor_sets(sample, 0.1, rng)
        expected = np.mean([len(a) / s.shape[0] for a, s in zip(sets, sample)])
        assert mean_mask_ratio(sample, sets, 1.01) == pytest.approx(expected)

    def test_frozen_anchor_path_equals_cluster_mask(self, rng):
        # the objective must agree with cluster_mask re-run on the same sub-seed
        sim = random_similarity(rng, 30)
        seed = 1234
        via_rng = cluster_mask(sim, 0.1, 0.25, np.random.default_rng(seed))
        frozen = cluster_mask_from_anchors(sim, via_rng.anchors, 0.25)
        np.testing.assert_array_equal(frozen.masked, via_rng.masked)

    @pytest.mark.parametrize("length, ratio", [(30, 0.1), (196, 0.03), (7, 0.5), (1, 0.2)])
    def test_calibration_freezes_the_anchors_masking_draws(self, rng, length, ratio):
        # both draw through draw_anchors, so equal generator states give
        # the same anchor set
        sim = random_similarity(rng, length)
        masked = cluster_mask(sim, ratio, 0.3, np.random.default_rng(77))
        frozen = draw_anchor_sets([sim], ratio, np.random.default_rng(77))[0]
        np.testing.assert_array_equal(masked.anchors, np.sort(frozen))


class TestCalibrateThreshold:
    def test_converges_on_random_sample(self, rng):
        sample = small_sample(rng, count=60)
        report = calibrate_threshold(
            sample, anchor_ratio=0.1, target_ratio=0.5, tolerance=0.05,
            rng=np.random.default_rng(3),
        )
        assert report.converged
        assert abs(report.achieved_ratio - 0.5) <= 0.05
        assert report.sample_size == 60
        # independent fresh-seed re-check of the reported threshold
        fresh = draw_anchor_sets(sample, 0.1, np.random.default_rng(999))
        re_evaluated = mean_mask_ratio(sample, fresh, report.found_r)
        assert abs(re_evaluated - 0.5) <= 0.05 + 0.02

    def test_trace_is_monotone_in_r(self, rng):
        sample = small_sample(rng)
        report = calibrate_threshold(
            sample, 0.1, 0.4, tolerance=0.01, rng=np.random.default_rng(0)
        )
        by_r = sorted(report.trace)
        ratios = [m for _, m in by_r]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_reproducible_report(self, rng):
        sample = small_sample(rng)
        first = calibrate_threshold(sample, 0.1, 0.5, rng=np.random.default_rng(8))
        second = calibrate_threshold(sample, 0.1, 0.5, rng=np.random.default_rng(8))
        assert first == second

    def test_found_r_in_search_interval(self, rng):
        sample = small_sample(rng)
        for target in (0.2, 0.5, 0.8):
            report = calibrate_threshold(
                sample, 0.1, target, tolerance=0.02, rng=np.random.default_rng(1)
            )
            assert R_MIN <= report.found_r <= R_MAX

    def test_unreachable_target(self, rng):
        # L=10 at anchor_ratio 0.25 rounds up to 3 anchors: the floor is a
        # 0.3 mask ratio, so a 0.26 target is valid but unreachable
        sample = small_sample(rng, count=10, length=10)
        with pytest.raises(ConvergenceError):
            calibrate_threshold(
                sample, anchor_ratio=0.25, target_ratio=0.26, tolerance=1e-6,
                max_iters=5, rng=np.random.default_rng(0),
            )

    def test_precondition_errors(self, rng):
        sample = small_sample(rng, count=2)
        with pytest.raises(ConfigError):
            calibrate_threshold([], 0.1, 0.5, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 1.2, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 0.5, tolerance=0.0, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 0.5, tolerance=float("nan"))
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 0.5, max_iters=0)
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.7, 0.9)

    def test_report_json_fields(self, rng):
        import json

        report = calibrate_threshold(
            small_sample(rng), 0.1, 0.5, rng=np.random.default_rng(2)
        )
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "target_ratio", "found_r", "achieved_ratio", "iterations",
            "sample_size", "converged", "trace",
        }
        assert payload["iterations"] == len(payload["trace"])
