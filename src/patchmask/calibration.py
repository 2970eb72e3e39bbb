"""Threshold search: find r so the mean mask ratio over a sample hits a target.

The objective mean_ratio(r) is a non-increasing step function of r once
the per-image anchor sets are frozen, so bisection over [-1, 1.05]
converges quickly; the extra 0.05 above the cosine maximum makes the
anchors-only regime reachable. The achieved ratio is then re-estimated
with fresh anchor draws to report how the calibrated r generalizes.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .cluster_masker import check_anchor_ratio, cluster_mask_from_anchors, draw_anchors, mask_ratio
from .errors import ConfigError, ConvergenceError

R_MIN = -1.0
R_MAX = 1.05
DEFAULT_TOLERANCE = 0.02
DEFAULT_MAX_ITERS = 40


@dataclass
class CalibrationReport:
    target_ratio: float
    found_r: float
    achieved_ratio: float
    iterations: int
    sample_size: int
    converged: bool
    trace: list = field(default_factory=list)  # (r, mean_ratio) per evaluation

    def to_dict(self):
        return {
            "target_ratio": self.target_ratio,
            "found_r": self.found_r,
            "achieved_ratio": self.achieved_ratio,
            "iterations": self.iterations,
            "sample_size": self.sample_size,
            "converged": self.converged,
            "trace": [[r, m] for r, m in self.trace],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


def check_search(anchor_ratio, target_ratio, tolerance, max_iters):
    """Raise ConfigError unless calibrate_threshold can search with these
    values: a positive tolerance, at least one iteration, a target_ratio in
    (anchor_ratio, 1) and an anchor_ratio in (0, 0.5]."""
    if not tolerance > 0.0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    if max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1, got {max_iters}")
    if not anchor_ratio < target_ratio < 1.0:
        raise ConfigError(
            f"target_ratio must lie in (anchor_ratio, 1), got {target_ratio}"
        )
    check_anchor_ratio(anchor_ratio)


def draw_anchor_sets(sample, anchor_ratio, rng):
    """One frozen anchor set per similarity matrix, drawn as cluster_mask draws."""
    return [draw_anchors(sim.shape[0], anchor_ratio, rng) for sim in sample]


def mean_mask_ratio(sample, anchor_sets, r):
    """Mean cluster-mask ratio over the sample at threshold r, anchors fixed."""
    total = 0.0
    for sim, anchors in zip(sample, anchor_sets):
        total += mask_ratio(cluster_mask_from_anchors(sim, anchors, r))
    return total / len(sample)


def calibrate_threshold(
    sample,
    anchor_ratio,
    target_ratio,
    tolerance=DEFAULT_TOLERANCE,
    max_iters=DEFAULT_MAX_ITERS,
    rng=None,
):
    """Bisect the similarity threshold until the sample's mean mask ratio
    matches target_ratio.

    Anchor sets are drawn once and held fixed, making the objective a
    deterministic monotone step function of r; bisection stops once the
    frozen-anchor objective is within tolerance/2 of the target (leaving
    margin for re-sampling noise) or after max_iters evaluations. The
    reported achieved_ratio comes from an independent fresh-anchor pass at
    the found threshold, and the converged flag reflects that fresh pass.

    Raises ConvergenceError when the target sits below the anchors-only
    ratio, which no threshold can reach.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not sample:
        raise ConfigError("calibration sample must be nonempty")
    check_search(anchor_ratio, target_ratio, tolerance, max_iters)

    anchor_sets = draw_anchor_sets(sample, anchor_ratio, rng)
    anchors_only = float(
        np.mean([len(a) / s.shape[0] for a, s in zip(anchor_sets, sample)])
    )
    if target_ratio < anchors_only:
        raise ConvergenceError(
            f"target ratio {target_ratio} is unreachable: anchors alone mask "
            f"{anchors_only:.4f} of the sample"
        )

    lo, hi = R_MIN, R_MAX
    trace = []
    mid = (lo + hi) / 2.0
    for _ in range(max_iters):
        mid = (lo + hi) / 2.0
        mean = mean_mask_ratio(sample, anchor_sets, mid)
        trace.append((mid, mean))
        if abs(mean - target_ratio) <= tolerance / 2.0:
            break
        if mean > target_ratio:
            lo = mid
        else:
            hi = mid

    found_r = mid
    fresh_sets = draw_anchor_sets(sample, anchor_ratio, rng)
    achieved = mean_mask_ratio(sample, fresh_sets, found_r)
    return CalibrationReport(
        target_ratio=float(target_ratio),
        found_r=float(found_r),
        achieved_ratio=float(achieved),
        iterations=len(trace),
        sample_size=len(sample),
        converged=bool(abs(achieved - target_ratio) <= tolerance),
        trace=trace,
    )
