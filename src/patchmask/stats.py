"""Aggregate statistics over a batch of masks."""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .cluster_masker import mask_ratio
from .errors import DataError

HISTOGRAM_BINS = 20


@dataclass
class MaskStats:
    count: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    histogram_bins: int
    histogram: list  # histogram_bins counts over [0, 1]
    mean_cluster_count: float  # clusters seeded per mask = anchor count

    def to_json(self):
        return json.dumps(asdict(self), indent=2) + "\n"

    def to_text(self):
        lines = [
            f"masks: {self.count}",
            f"mask ratio: mean={self.mean_ratio:.4f} min={self.min_ratio:.4f} max={self.max_ratio:.4f}",
            f"mean cluster count: {self.mean_cluster_count:.2f}",
            "ratio histogram (20 bins over [0, 1]): " + " ".join(str(c) for c in self.histogram),
        ]
        return "\n".join(lines) + "\n"


def stats_report(masks):
    """Mean/min/max mask ratio, a 20-bin ratio histogram, and the mean
    number of anchor-seeded clusters per mask."""
    if not masks:
        raise DataError("cannot summarize an empty mask list")
    ratios = np.array([mask_ratio(m) for m in masks])
    hist, _ = np.histogram(ratios, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return MaskStats(
        count=len(masks),
        mean_ratio=float(ratios.mean()),
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        histogram_bins=HISTOGRAM_BINS,
        histogram=[int(c) for c in hist],
        mean_cluster_count=float(np.mean([m.anchors.size for m in masks])),
    )
