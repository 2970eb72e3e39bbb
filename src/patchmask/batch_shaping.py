"""Fixed-slot batching of variable-ratio masks.

A minimum mask ratio beta fixes the visible slot count per image at
V = L - ceil(beta * L). Images with more visible patches than V get
patches dropped at random; images with fewer keep all their patches and
pad the remaining slots, with attention flags excluding the padding.
Kept indices are stored ascending with padding last, so outputs diff
cleanly across runs.
"""

from dataclasses import dataclass

import numpy as np

from .cluster_masker import ceil_count, check_beta, mask_image
from .errors import DataError, check_integer
from .streams import stream


@dataclass
class ShapedBatch:
    """Batched visible-patch indices with padding marked via attention flags.

    kept_indices holds patch indices ascending per row, with the sentinel
    value length (one past the last valid index) in padding slots;
    attention is True exactly on the real slots.
    """

    kept_indices: np.ndarray  # (N, V) int64
    attention: np.ndarray  # (N, V) bool
    length: int  # patches per source image (L)

    @property
    def batch(self):
        return self.kept_indices.shape[0]

    @property
    def slots(self):
        return self.kept_indices.shape[1]

    def to_debug_text(self):
        names = [str(i) for i in range(self.length + 1)]  # every index and the sentinel
        attention = np.where(self.attention, ord("1"), ord("0")).astype(np.uint8)
        lines = []
        for kept, attn in zip(self.kept_indices.tolist(), attention):
            lines.append("kept: " + ",".join([names[i] for i in kept]))
            lines.append("attn: " + attn.tobytes().decode("ascii"))
        return "\n".join(lines) + "\n"


def visible_slots(length, beta):
    """V = L - ceil(beta * L); rounding the mask count up guarantees the
    minimum mask ratio, so a positive beta masks at least one slot. A
    length that is not an integer >= 0, or a beta outside (0, 1), is a
    ConfigError."""
    check_integer("length", length, 0)
    check_beta(beta)
    return length - ceil_count(beta * length)


def shape_batch(masks, beta, rng):
    """Shape per-image masks into uniform V-slot rows.

    Per image: visible count > V drops uniformly at random down to V;
    visible count < V keeps everything and pads; equal passes through.
    Deterministic given the generator's seed.
    """
    if not masks:
        raise DataError("cannot shape an empty batch")
    length = masks[0].length
    if any(m.length != length for m in masks):
        raise DataError("all masks in a batch must share the same patch count")
    v = visible_slots(length, beta)
    kept = np.full((len(masks), v), length, dtype=np.int64)
    attention = np.zeros((len(masks), v), dtype=np.bool_)
    for i, mask in enumerate(masks):
        visible = np.flatnonzero(~mask.masked)
        if visible.size > v:
            drop = rng.choice(visible.size, size=visible.size - v, replace=False)
            visible = np.delete(visible, drop)
        kept[i, : visible.size] = visible
        attention[i, : visible.size] = True
    return ShapedBatch(kept_indices=kept, attention=attention, length=length)


def mask_batch(prepared, config, alpha, mask_key, shape_key):
    """Mask each PreparedImage record of the iterable prepared with
    mask_image and stream(*mask_key, i) for the i-th, then shape the masks
    with config.beta and stream(*shape_key). Returns (masks, shaped batch).

    A record keeps what its first mask computed, so masking it again redoes
    only the per-step draws. A generator of records keeps one record alive
    at a time.
    """
    masks = []
    for record in prepared:
        rng = stream(*mask_key, len(masks))
        masks.append(mask_image(record, config, rng, alpha))
        # drop the record before a generator prepares the next one
        del record
    return masks, shape_batch(masks, config.beta, stream(*shape_key))
