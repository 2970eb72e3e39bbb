"""Threshold search: find r so the mean mask ratio over a sample hits a target.

The objective mean_ratio(r) is a non-increasing step function of r once
the per-image anchor sets are frozen, so bisection over the range that
threshold_r may take, [THRESHOLD_MIN, THRESHOLD_MAX], converges quickly.
The achieved ratio is then re-estimated with fresh anchor draws to report
how the calibrated r generalizes.

With the anchors frozen, a patch's membership at any r depends only on
its largest similarity to an anchor, so each image is kept as one such
"reach row" per anchor set, O(L) floats. It is made from the anchors'
cosine rows alone, read from one CosineRows per image, so an anchor in
both sets is computed once and no L x L matrix is filled.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ._kernels import reach_row
from .cluster_masker import THRESHOLD_MAX, THRESHOLD_MIN, check_anchor_ratio, draw_anchors
from .errors import ConfigError, ConvergenceError, DataError, check_integer
from .similarity import CosineRows


@dataclass
class CalibrationReport:
    target_ratio: float
    found_r: float
    achieved_ratio: float
    iterations: int
    sample_size: int
    converged: bool
    trace: list = field(default_factory=list)  # (r, mean_ratio) per evaluation

    def to_json(self):
        return json.dumps(asdict(self), indent=2) + "\n"


def check_search(anchor_ratio, target_ratio, tolerance, max_iters):
    """Raise ConfigError unless calibrate_threshold can search with these
    values: a positive tolerance, at least one iteration, a target_ratio in
    (anchor_ratio, 1) and an anchor_ratio in (0, 0.5]."""
    if not tolerance > 0.0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    check_integer("max_iters", max_iters, 1)
    if not anchor_ratio < target_ratio < 1.0:
        raise ConfigError(
            f"target_ratio must lie in (anchor_ratio, 1), got {target_ratio}"
        )
    check_anchor_ratio(anchor_ratio)


def draw_anchor_sets(lengths, anchor_ratio, rng):
    """One anchor set per image of lengths[i] patches, drawn as mask_image draws."""
    return [draw_anchors(length, anchor_ratio, rng) for length in lengths]


def _reach_rows(sample, lengths, frozen_sets, fresh_sets):
    """The frozen-anchor and the fresh-anchor reach row of each image's
    patch vectors in sample, which is iterated once. Each image's rows
    come from its own CosineRows, which computes only the anchors' rows,
    each once, and is dropped with the image."""
    frozen, fresh = [], []
    for vectors in sample:  # not enumerate, whose reused tuple holds the last item
        index = len(frozen)
        if index == len(lengths):
            raise DataError(f"calibration sample holds more than {len(lengths)} images")
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != lengths[index]:
            raise DataError(
                f"patch vectors {index} must have shape ({lengths[index]}, d), "
                f"got {vectors.shape}"
            )
        source = CosineRows(vectors)
        frozen.append(reach_row(source.rows(frozen_sets[index]), frozen_sets[index]))
        fresh.append(reach_row(source.rows(fresh_sets[index]), fresh_sets[index]))
        del vectors, source  # before the next image is read
    if len(frozen) < len(lengths):
        raise DataError(f"calibration sample holds {len(frozen)} of {len(lengths)} images")
    return frozen, fresh


def mean_mask_ratio(reach_rows, r):
    """Mean cluster-mask ratio at threshold r over images given by their
    reach rows, summed in image order; over no images, or an image of no
    patches, it is undefined, a DataError."""
    total = 0.0
    try:
        for reach in reach_rows:
            total += float(np.count_nonzero(reach >= r)) / reach.size
        return total / len(reach_rows)
    except ZeroDivisionError:
        raise DataError("the mean mask ratio of no images, or of no patches, is undefined")


def calibrate_threshold(sample, anchor_ratio, target_ratio, tolerance=0.02, max_iters=40, *,
                        rng, lengths):
    """Bisect the similarity threshold until the sample's mean mask ratio
    matches target_ratio.

    sample is an iterable of (L, d) arrays, each image's normalized patch
    vectors, read once: each is reduced to its frozen-anchor and
    fresh-anchor reach rows as it arrives, from the anchors' cosine rows
    alone, so a generator keeps one image's vectors alive at a time.
    lengths, the L of each image, lets the anchor sets be drawn from rng
    before the first image is read.

    Anchor sets are drawn once and held fixed, making the objective a
    deterministic monotone step function of r; bisection stops once the
    frozen-anchor objective is within tolerance/2 of the target (leaving
    margin for re-sampling noise), once the midpoint is an end of the
    bracket (whose ends are then adjacent doubles), or after max_iters
    evaluations. The reported achieved_ratio comes from an independent
    fresh-anchor pass at the found threshold, and the converged flag
    reflects that fresh pass. The fresh sets are drawn right after the
    frozen ones; the bisection draws nothing, so they are the sets a draw
    after it would give. The defaults are `patchmask calibrate`'s; the CLI
    reads them from here.

    Raises ConvergenceError, once the whole sample has been read, when the
    target sits below the anchors-only ratio, which no threshold can reach.
    """
    if len(lengths) == 0:
        raise ConfigError("calibration sample must be nonempty")
    check_search(anchor_ratio, target_ratio, tolerance, max_iters)
    for index, length in enumerate(lengths):
        check_integer(f"patch vectors {index}'s length", length)
        if length < 1:
            raise DataError(f"patch vectors {index} must hold at least one patch, got {length}")

    anchor_sets = draw_anchor_sets(lengths, anchor_ratio, rng)
    fresh_sets = draw_anchor_sets(lengths, anchor_ratio, rng)
    frozen_rows, fresh_rows = _reach_rows(sample, lengths, anchor_sets, fresh_sets)
    anchors_only = float(np.mean([len(a) / n for a, n in zip(anchor_sets, lengths)]))
    if target_ratio < anchors_only:
        raise ConvergenceError(
            f"target ratio {target_ratio} is unreachable: anchors alone mask "
            f"{anchors_only:.4f} of the sample"
        )

    lo, hi = THRESHOLD_MIN, THRESHOLD_MAX
    trace = []
    for _ in range(max_iters):  # check_search allows no fewer than one, so mid is set
        mid = (lo + hi) / 2.0
        mean = mean_mask_ratio(frozen_rows, mid)
        trace.append((mid, mean))
        # once mid is an end of the bracket, every later mid would be it
        if abs(mean - target_ratio) <= tolerance / 2.0 or mid in (lo, hi):
            break
        if mean > target_ratio:
            lo = mid
        else:
            hi = mid

    achieved = mean_mask_ratio(fresh_rows, mid)
    return CalibrationReport(
        target_ratio=float(target_ratio),
        found_r=float(mid),
        achieved_ratio=float(achieved),
        iterations=len(trace),
        sample_size=len(lengths),
        converged=bool(abs(achieved - target_ratio) <= tolerance),
        trace=trace,
    )
