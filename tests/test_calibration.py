import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_mask, full_cosine, random_similarity
from test_cluster_masker import brute_force_members
from patchmask._kernels import reach_row
from patchmask.calibration import (
    CalibrationReport,
    calibrate_threshold,
    draw_anchor_sets,
    mean_mask_ratio,
)
from patchmask.cluster_masker import (
    THRESHOLD_MAX,
    THRESHOLD_MIN,
    MaskerConfig,
    cluster_mask_from_anchors,
    draw_anchors,
    mask_ratio,
)
from patchmask.errors import ConfigError, ConvergenceError, DataError
from patchmask.patch_grid import Image, patchify, pixel_normalize


def small_sample(rng, count=40, length=36):
    """Patch vectors of count images of length patches each."""
    return [rng.standard_normal((length, 8)) for _ in range(count)]


def mixed_sample(rng, count=30):
    """Images of several sizes in one sample, L from 1 to 64."""
    return [rng.standard_normal((int(rng.integers(1, 65)), 8)) for _ in range(count)]


# the normalized patch vectors of 6 noise images of 32x32 at P=8 (L=16)
BRACKET_SAMPLE = [pixel_normalize(patchify(Image(data=image), 8)).patches
                  for image in np.random.default_rng(17).random((6, 32, 32, 3))]


def lengths_of(sample):
    return [vectors.shape[0] for vectors in sample]


def reach_rows(sample, anchor_sets):
    return [reach_row(full_cosine(vectors)[anchors], anchors)
            for vectors, anchors in zip(sample, anchor_sets)]


# The calibration of the design that held every matrix, kept verbatim as the
# reference: each evaluation masks each full matrix through
# cluster_mask_from_anchors.
def reference_mean_mask_ratio(sample, anchor_sets, r):
    total = 0.0
    for sim, anchors in zip(sample, anchor_sets):
        total += mask_ratio(cluster_mask_from_anchors(sim[anchors], anchors, r))
    return total / len(sample)


def reference_calibrate_threshold(sample, anchor_ratio, target_ratio, tolerance, max_iters, rng):
    sample = [full_cosine(vectors) for vectors in sample]
    anchor_sets = [draw_anchors(sim.shape[0], anchor_ratio, rng) for sim in sample]
    anchors_only = float(
        np.mean([len(a) / s.shape[0] for a, s in zip(anchor_sets, sample)])
    )
    if target_ratio < anchors_only:
        raise ConvergenceError(
            f"target ratio {target_ratio} is unreachable: anchors alone mask "
            f"{anchors_only:.4f} of the sample"
        )

    lo, hi = THRESHOLD_MIN, THRESHOLD_MAX
    trace = []
    for _ in range(max_iters):
        mid = (lo + hi) / 2.0
        mean = reference_mean_mask_ratio(sample, anchor_sets, mid)
        trace.append((mid, mean))
        if abs(mean - target_ratio) <= tolerance / 2.0:
            break
        if mean > target_ratio:
            lo = mid
        else:
            hi = mid

    found_r = mid
    fresh_sets = [draw_anchors(sim.shape[0], anchor_ratio, rng) for sim in sample]
    achieved = reference_mean_mask_ratio(sample, fresh_sets, found_r)
    return CalibrationReport(
        target_ratio=float(target_ratio),
        found_r=float(found_r),
        achieved_ratio=float(achieved),
        iterations=len(trace),
        sample_size=len(sample),
        converged=bool(abs(achieved - target_ratio) <= tolerance),
        trace=trace,
    )


# entries that stress the comparison: NaN, infinities, signed zeros, and
# values r may tie with
_SPECIAL = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 0.5, -0.5, 1.0]


@st.composite
def _matrix_anchors_threshold(draw):
    length = draw(st.integers(1, 8))
    entries = st.one_of(st.sampled_from(_SPECIAL), st.floats(-2.0, 2.0))
    sim = np.array(draw(st.lists(entries, min_size=length * length, max_size=length * length)))
    sim = sim.reshape(length, length)
    anchors = np.array(draw(st.lists(st.integers(0, length - 1), unique=True)), dtype=np.int64)
    ties = [v for v in sim.ravel().tolist() if v == v]
    thresholds = st.sampled_from(_SPECIAL[1:] + ties)
    r = draw(st.one_of(thresholds, st.floats(allow_nan=False)))
    return sim, anchors, r


class TestObjective:
    def test_below_minimum_masks_everything(self, rng):
        sample = small_sample(rng)
        sets = draw_anchor_sets(lengths_of(sample), 0.1, rng)
        assert mean_mask_ratio(reach_rows(sample, sets), -1.01) == 1.0

    def test_above_maximum_leaves_anchors_only(self, rng):
        sample = small_sample(rng)
        sets = draw_anchor_sets(lengths_of(sample), 0.1, rng)
        expected = np.mean([len(a) / s.shape[0] for a, s in zip(sets, sample)])
        assert mean_mask_ratio(reach_rows(sample, sets), 1.01) == pytest.approx(expected)

    def test_frozen_anchor_path_equals_cluster_mask(self, rng):
        # the objective must agree with cluster_mask re-run on the same sub-seed
        sim = random_similarity(rng, 30)
        seed = 1234
        via_rng = cluster_mask(sim, 0.1, 0.25, np.random.default_rng(seed))
        frozen = cluster_mask_from_anchors(sim[via_rng.anchors], via_rng.anchors, 0.25)
        np.testing.assert_array_equal(frozen.masked, via_rng.masked)

    @pytest.mark.parametrize("length, ratio", [(30, 0.1), (196, 0.03), (7, 0.5), (1, 0.2)])
    def test_calibration_freezes_the_anchors_masking_draws(self, rng, length, ratio):
        # both draw through draw_anchors, so equal generator states give
        # the same anchor set
        sim = random_similarity(rng, length)
        masked = cluster_mask(sim, ratio, 0.3, np.random.default_rng(77))
        frozen = draw_anchor_sets([length], ratio, np.random.default_rng(77))[0]
        np.testing.assert_array_equal(masked.anchors, np.sort(frozen))


    @given(case=_matrix_anchors_threshold())
    def test_reach_row_decides_membership(self, case):
        sim, anchors, r = case
        reached = np.flatnonzero(reach_row(sim[anchors], anchors) >= r)
        assert set(reached.tolist()) == brute_force_members(sim, anchors, r)

    def test_mean_sums_in_image_order(self):
        # numpy's blocked sum of these 20 ratios rounds differently, so only
        # an image-order sum reproduces the reports of earlier releases
        rng = np.random.default_rng(2)
        lengths = rng.integers(1, 50, 20)
        rows = [np.repeat([1.0, 0.0], [c, n - c])
                for n in lengths for c in [int(rng.integers(0, n + 1))]]
        ratios = [float(np.count_nonzero(row)) / row.size for row in rows]
        in_order = 0.0
        for ratio in ratios:
            in_order += ratio
        assert mean_mask_ratio(rows, 0.5) == in_order / len(rows)
        assert in_order / len(rows) != float(np.mean(ratios))


class TestCalibrateThreshold:
    def test_converges_on_random_sample(self, rng):
        sample = small_sample(rng, count=60)
        report = calibrate_threshold(
            sample, anchor_ratio=0.1, target_ratio=0.5, tolerance=0.05,
            rng=np.random.default_rng(3), lengths=lengths_of(sample),
        )
        assert report.converged
        assert abs(report.achieved_ratio - 0.5) <= 0.05
        assert report.sample_size == 60
        # independent fresh-seed re-check of the reported threshold
        fresh = draw_anchor_sets(lengths_of(sample), 0.1, np.random.default_rng(999))
        sims = [full_cosine(vectors) for vectors in sample]
        re_evaluated = reference_mean_mask_ratio(sims, fresh, report.found_r)
        assert abs(re_evaluated - 0.5) <= 0.05 + 0.02

    def test_trace_is_monotone_in_r(self, rng):
        sample = small_sample(rng)
        report = calibrate_threshold(
            sample, 0.1, 0.4, tolerance=0.01, rng=np.random.default_rng(0),
            lengths=lengths_of(sample),
        )
        by_r = sorted(report.trace)
        ratios = [m for _, m in by_r]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_reproducible_report(self, rng):
        sample = small_sample(rng)
        lengths = lengths_of(sample)
        first = calibrate_threshold(sample, 0.1, 0.5, rng=np.random.default_rng(8), lengths=lengths)
        second = calibrate_threshold(sample, 0.1, 0.5, rng=np.random.default_rng(8),
                                     lengths=lengths)
        assert first == second

    def test_found_r_in_search_interval(self, rng):
        sample = small_sample(rng)
        for target in (0.2, 0.5, 0.8):
            report = calibrate_threshold(
                sample, 0.1, target, tolerance=0.02, rng=np.random.default_rng(1),
                lengths=lengths_of(sample),
            )
            assert THRESHOLD_MIN <= report.found_r <= THRESHOLD_MAX

    def test_unreachable_target(self, rng):
        # L=10 at anchor_ratio 0.25 rounds up to 3 anchors: the floor is a
        # 0.3 mask ratio, so a 0.26 target is valid but unreachable
        sample = small_sample(rng, count=10, length=10)
        with pytest.raises(ConvergenceError):
            calibrate_threshold(
                sample, anchor_ratio=0.25, target_ratio=0.26, tolerance=1e-6,
                max_iters=5, rng=np.random.default_rng(0), lengths=lengths_of(sample),
            )

    def test_precondition_errors(self, rng):
        sample = small_sample(rng, count=2)
        keys = {"rng": np.random.default_rng(0), "lengths": lengths_of(sample)}
        with pytest.raises(ConfigError):
            calibrate_threshold([], 0.1, 0.5, rng=np.random.default_rng(0), lengths=[])
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 1.2, **keys)
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 0.5, tolerance=0.0, **keys)
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 0.5, tolerance=float("nan"), **keys)
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.1, 0.5, max_iters=0, **keys)
        with pytest.raises(ConfigError):
            calibrate_threshold(sample, 0.7, 0.9, **keys)

    def test_rng_and_lengths_are_required(self, rng):
        # no hidden default stream, and no path that reads the sample into
        # a list to learn its lengths
        sample = small_sample(rng, count=2)
        with pytest.raises(TypeError, match="rng"):
            calibrate_threshold(sample, 0.1, 0.5, lengths=lengths_of(sample))
        with pytest.raises(TypeError, match="lengths"):
            calibrate_threshold(sample, 0.1, 0.5, rng=np.random.default_rng(0))

    def test_bisection_bracket_is_the_threshold_range(self, rng):
        # the bracket's ends are the extreme thresholds a config accepts
        MaskerConfig(threshold_r=THRESHOLD_MIN)
        MaskerConfig(threshold_r=THRESHOLD_MAX)
        for outside in (np.nextafter(THRESHOLD_MIN, -2.0), np.nextafter(THRESHOLD_MAX, 2.0)):
            with pytest.raises(ConfigError, match=r"\[-1, 1.05\]"):
                MaskerConfig(threshold_r=float(outside))
        sample = small_sample(rng, count=4)
        report = calibrate_threshold(sample, 0.1, 0.5, max_iters=1,
                                     rng=np.random.default_rng(0), lengths=lengths_of(sample))
        assert report.trace[0][0] == (THRESHOLD_MIN + THRESHOLD_MAX) / 2.0

    @given(
        target=st.floats(min_value=0.07, max_value=0.99),
        tolerance=st.one_of(st.sampled_from([1e-300, 5e-324]),
                            st.floats(min_value=5e-324, max_value=0.05)),
        max_iters=st.integers(min_value=1, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_midpoint_repeats_but_the_last(self, target, tolerance, max_iters, seed):
        # one anchor of 16 patches per image masks 1/16 < 0.07 alone, so every
        # draw searches; a tolerance below the steps of the ratio exhausts
        # the bracket, whose first repeated midpoint must end the search
        report = calibrate_threshold(iter(BRACKET_SAMPLE), 0.03, target, tolerance, max_iters,
                                     rng=np.random.default_rng(seed),
                                     lengths=lengths_of(BRACKET_SAMPLE))
        mids = [mid for mid, _ in report.trace]
        assert len(set(mids[:-1])) == len(mids) - 1

    def test_report_json_fields(self, rng):
        import json

        sample = small_sample(rng)
        report = calibrate_threshold(
            sample, 0.1, 0.5, rng=np.random.default_rng(2), lengths=lengths_of(sample)
        )
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "target_ratio", "found_r", "achieved_ratio", "iterations",
            "sample_size", "converged", "trace",
        }
        assert payload["iterations"] == len(payload["trace"])

    def test_lengths_must_match_the_sample(self, rng):
        sample = small_sample(rng, count=3, length=9)
        draws = np.random.default_rng(0)
        with pytest.raises(DataError, match=r"must have shape \(8, d\)"):
            calibrate_threshold(sample, 0.1, 0.5, rng=draws, lengths=[9, 8, 9])
        with pytest.raises(DataError, match="2 of 3"):
            calibrate_threshold(iter(sample[:2]), 0.1, 0.5, rng=draws, lengths=[9, 9, 9])
        with pytest.raises(DataError, match="more than 2"):
            calibrate_threshold(iter(sample), 0.1, 0.5, rng=draws, lengths=[9, 9])
        with pytest.raises(DataError, match=r"must have shape \(9, d\)"):
            calibrate_threshold([np.zeros(9)], 0.1, 0.5, rng=draws, lengths=[9])

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_an_image_of_no_patches_is_a_data_error(self, rng, shape):
        # checked before the anchor draw, which cannot draw from no patches
        draws = np.random.default_rng(0)
        with pytest.raises(DataError, match="patch vectors 0 must hold at least one patch"):
            calibrate_threshold([np.zeros(shape)], 0.1, 0.5, rng=draws, lengths=[0])
        sample = small_sample(rng, count=2) + [np.zeros(shape)]
        with pytest.raises(DataError, match="patch vectors 2 must hold at least one patch"):
            calibrate_threshold(sample, 0.1, 0.5, rng=draws, lengths=lengths_of(sample))
        with pytest.raises(DataError, match="patch vectors 1 must hold at least one patch"):
            calibrate_threshold(iter(sample[1:]), 0.1, 0.5, rng=draws, lengths=[36, 0])


class TestReferenceEquality:
    """The streamed calibration, from the anchors' rows alone, reports what
    holding every full matrix reported."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "anchor_ratio, target, tolerance, max_iters",
        [(0.1, 0.5, 0.02, 40), (0.05, 0.3, 0.01, 40), (0.2, 0.8, 0.05, 40),
         # stops after 3 evaluations, far from the target: not converged
         (0.1, 0.5, 1e-6, 3)],
    )
    def test_equal_report_on_mixed_sizes(self, seed, anchor_ratio, target, tolerance, max_iters):
        sample = mixed_sample(np.random.default_rng((seed, 5)))
        expected = reference_calibrate_threshold(
            sample, anchor_ratio, target, tolerance, max_iters, np.random.default_rng(seed))
        streamed = calibrate_threshold(
            (sim for sim in sample), anchor_ratio, target, tolerance, max_iters,
            rng=np.random.default_rng(seed), lengths=lengths_of(sample))
        assert streamed.to_json() == expected.to_json()
        if max_iters == 3:
            assert not expected.converged

    def test_an_exhausted_bracket_stops_the_search(self):
        # no frozen ratio of 8 noise images at P=16 lies within 1e-300 of
        # 0.503, so the reference ends by evaluating one midpoint, an end of
        # its bracket, until max_iters; the search stops at its first repeat
        rng = np.random.default_rng(5)
        sample = [pixel_normalize(patchify(Image(data=rng.random((64, 64, 3))), 16)).patches
                  for _ in range(8)]
        args = (0.03, 0.503, 1e-300, 200)
        expected = reference_calibrate_threshold(sample, *args, np.random.default_rng(0))
        report = calibrate_threshold(iter(sample), *args, rng=np.random.default_rng(0),
                                     lengths=lengths_of(sample))
        n = report.iterations
        assert n < expected.iterations == 200
        assert report.trace == expected.trace[:n]
        assert expected.trace[n:] == [report.trace[-1]] * (200 - n)
        assert report.trace[-1] in report.trace[:-1]
        assert (report.found_r, report.achieved_ratio, report.converged) == (
            expected.found_r, expected.achieved_ratio, expected.converged)

    def test_equal_unreachable_message(self, rng):
        sample = mixed_sample(rng, count=12)
        args = (0.5, 0.51, 0.01, 10)
        with pytest.raises(ConvergenceError) as expected:
            reference_calibrate_threshold(sample, *args, np.random.default_rng(4))
        with pytest.raises(ConvergenceError) as streamed:
            calibrate_threshold(iter(sample), *args, rng=np.random.default_rng(4),
                                lengths=lengths_of(sample))
        assert str(streamed.value) == str(expected.value)
