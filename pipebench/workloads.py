"""The four workloads: the CLI command each runs, and the checks its
outputs must pass on every invocation."""

import json
import math
from dataclasses import dataclass
from pathlib import Path

PATCH = 16
LENGTH = (224 // PATCH) ** 2  # L = 196 patches per image
BETA = 0.5  # the CLI's default minimum mask ratio
TARGET = 0.5
TOLERANCE = 0.02  # the CLI's default calibration tolerance
TRAIN_IMAGES = 16
TRAIN_STEPS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    images: int  # PPM files to generate; 0 when the command makes its own data
    items: int  # images (image-steps for train) one invocation completes
    outputs: tuple  # files in the output directory that make up its result

    def argv(self, in_dir, out_dir, seed):
        if self.name == "mask-cluster":
            return ["mask", "--in", str(in_dir), "--out", str(out_dir),
                    "--strategy", "cluster-rgb", "--seed", str(seed)]
        if self.name == "mask-kmeans":
            return ["mask", "--in", str(in_dir), "--out", str(out_dir),
                    "--strategy", "kmeans", "--seed", str(seed)]
        if self.name == "calibrate":
            return ["calibrate", "--in", str(in_dir), "--target", str(TARGET),
                    "--seed", str(seed), "--calibration-out", str(Path(out_dir) / "report.json")]
        return ["train", "--config", str(Path(in_dir) / "train.json"), "--out", str(out_dir)]

    def check(self, out_dir):
        """Failure messages for one invocation's outputs (empty when correct)."""
        out_dir = Path(out_dir)
        try:
            if self.name.startswith("mask-"):
                return check_mask(out_dir, self.images)
            if self.name == "calibrate":
                return check_calibration(out_dir / "report.json")
            return check_train(out_dir / "train_log.csv")[0]
        except (ValueError, IndexError) as exc:  # output that does not parse
            return [f"malformed output: {exc!r}"]


# why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in [
        Workload("mask-cluster", images=256, items=256, outputs=("masks.txt", "batch.txt")),
        Workload("mask-kmeans", images=24, items=24, outputs=("masks.txt", "batch.txt")),
        Workload("calibrate", images=1000, items=1000, outputs=("report.json",)),
        Workload("train", images=0, items=TRAIN_IMAGES * TRAIN_STEPS,
                 outputs=("train_log.csv",)),
    ]
}


def train_config(seed):
    """The README's train config, with the benchmark's seed and the
    cluster-embedding strategy so the blend and the embedding run."""
    return {
        "strategy": "cluster-embedding",
        "threshold_r": 0.55,
        "anchor_ratio": 0.03,
        "beta": BETA,
        "seed": seed,
        "epochs": TRAIN_STEPS,
        "learning_rate": 0.3,
        "dataset": {"n_images": TRAIN_IMAGES, "image_size": 32, "patch_size": 8},
    }


def _read(path):
    try:
        return path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        return exc


def check_mask(out_dir, images):
    masks_text = _read(out_dir / "masks.txt")
    batch_text = _read(out_dir / "batch.txt")
    for text in (masks_text, batch_text):
        if isinstance(text, Exception):
            return [f"unreadable output: {text}"]
    masks = masks_text.splitlines()
    if len(masks) != images:
        return [f"masks.txt has {len(masks)} lines, expected {images}"]
    bad = [i for i, m in enumerate(masks) if len(m) != LENGTH or set(m) - {"0", "1"}]
    if bad:
        return [f"masks.txt lines {bad[:5]} are not {LENGTH} 0/1 characters"]

    slots = LENGTH - math.ceil(BETA * LENGTH - 1e-9)
    lines = batch_text.splitlines()
    if len(lines) != 2 * images:
        return [f"batch.txt has {len(lines)} lines, expected {2 * images}"]
    failures = []
    for i, mask in enumerate(masks):
        kept_line, attn_line = lines[2 * i], lines[2 * i + 1]
        if not (kept_line.startswith("kept: ") and attn_line.startswith("attn: ")):
            return [f"batch.txt row {i} is malformed"]
        kept = [int(v) for v in kept_line[6:].split(",")]
        attn = attn_line[6:]
        real = [k for k, a in zip(kept, attn) if a == "1"]
        visible = mask.count("0")
        if len(kept) != slots or len(attn) != slots:
            failures.append(f"image {i}: {len(kept)} slots, expected {slots}")
        elif attn != "1" * len(real) + "0" * (slots - len(real)):
            failures.append(f"image {i}: padding slots are not last")
        elif len(real) != min(visible, slots):
            failures.append(f"image {i}: {len(real)} real slots, expected {min(visible, slots)}")
        elif any(mask[k] != "0" for k in real) or real != sorted(set(real)):
            failures.append(f"image {i}: a real slot is masked, repeated or out of order")
    return failures[:5]


def check_calibration(path):
    text = _read(path)
    if isinstance(text, Exception):
        return [f"unreadable report: {text}"]
    try:
        report = json.loads(text)
        converged, achieved = report["converged"], float(report["achieved_ratio"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    failures = []
    if converged is not True:
        failures.append("calibration did not converge")
    if not abs(achieved - TARGET) <= TOLERANCE:
        failures.append(f"achieved ratio {achieved} is off target {TARGET}")
    return failures


def check_train(path):
    """(failures, last loss) for a training log."""
    text = _read(path)
    if isinstance(text, Exception):
        return [f"unreadable log: {text}"], None
    rows = text.splitlines()[1:]
    if len(rows) != TRAIN_STEPS:
        return [f"train_log.csv has {len(rows)} steps, expected {TRAIN_STEPS}"], None
    losses = [float(r.split(",")[1]) for r in rows]
    if not all(math.isfinite(v) for v in losses):
        return ["a training loss is not finite"], None
    if not losses[-1] < losses[0]:
        return [f"last loss {losses[-1]} is not below the first {losses[0]}"], losses[-1]
    return [], losses[-1]
