"""Cluster-based patch masking for contrastive vision-language pre-training.

Deterministic mask generation (anchor clusters, K-Means, random), the
threshold calibration and batch-shaping machinery around it, and a toy
symmetric-InfoNCE trainer that exercises the full mask-to-gradient path.
"""

from .batch_shaping import ShapedBatch, shape_batch, visible_slots
from .calibration import CalibrationReport, calibrate_threshold, mean_mask_ratio
from .cluster_masker import (
    Mask,
    MaskerConfig,
    PreparedImage,
    Strategy,
    cluster_mask_from_anchors,
    kmeans_cluster,
    kmeans_mask,
    mask_image,
    mask_ratio,
    random_mask,
)
from .errors import ConfigError, ConvergenceError, DataError, PatchmaskError
from .patch_grid import Image, PatchGrid, patchify, pixel_normalize, unpatchify
from .pnm import load_image, save_image
from .render import render_mask
from .similarity import blend, cosine_matrix, toy_patch_embedding
from .stats import stats_report
from .toy_contrastive import (
    ToyEncoders,
    TrainState,
    alpha_schedule,
    info_nce,
    train_loop,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "Image",
    "Mask",
    "MaskerConfig",
    "PatchGrid",
    "PatchmaskError",
    "PreparedImage",
    "ShapedBatch",
    "Strategy",
    "ToyEncoders",
    "TrainState",
    "alpha_schedule",
    "blend",
    "calibrate_threshold",
    "cluster_mask_from_anchors",
    "cosine_matrix",
    "info_nce",
    "kmeans_cluster",
    "kmeans_mask",
    "load_image",
    "mask_image",
    "mask_ratio",
    "mean_mask_ratio",
    "patchify",
    "pixel_normalize",
    "random_mask",
    "render_mask",
    "save_image",
    "shape_batch",
    "stats_report",
    "toy_patch_embedding",
    "train_loop",
    "train_step",
    "unpatchify",
    "visible_slots",
]
