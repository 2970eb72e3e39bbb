"""Desk-scale symmetric InfoNCE trainer wired through masking and batching.

The encoders are single linear maps followed by L2 normalization: the
image side consumes the mean of an image's visible raw patch vectors, the
text side a bag-of-tokens count vector. That is deliberately tiny; the
point is to verify the mask -> batch-shape -> loss -> gradient path, not
representation quality. Gradients are analytic and full-batch, no
momentum, so every step is deterministic given (inputs, seed, step).
"""

import math
from dataclasses import dataclass

import numpy as np

from .batch_shaping import mask_batch
from .cluster_masker import PreparedImage, mask_ratio
from .errors import ConfigError, ConvergenceError, DataError, check_integer
from .streams import Stream, stream

_NORM_GUARD = 1e-12


def alpha_schedule(epoch, epochs, exponent):
    """Blend coefficient (epoch / epochs) ** exponent; 0 at the start, 1 at
    the end. ConfigError unless 0 <= epoch <= epochs, epochs > 0 and
    exponent > 0."""
    if not (0 <= epoch <= epochs and epochs > 0 and exponent > 0):
        raise ConfigError(f"alpha_schedule needs 0 <= epoch <= epochs, epochs > 0 and "
                          f"exponent > 0, got {epoch}, {epochs} and {exponent}")
    return float(epoch / epochs) ** exponent


@dataclass
class ToyEncoders:
    """Linear projections to the shared embedding space (rows = output dims)."""

    w_image: np.ndarray  # (dim, patch_dim)
    w_text: np.ndarray  # (dim, vocab_size)


def init_encoders(patch_dim, vocab_size, dim, seed):
    rng = stream(seed, Stream.ENCODER)
    return ToyEncoders(
        w_image=rng.standard_normal((dim, patch_dim)) / np.sqrt(patch_dim),
        w_text=rng.standard_normal((dim, vocab_size)) / np.sqrt(vocab_size),
    )


def _normalize_rows(z):
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    return z / np.maximum(norms, _NORM_GUARD), norms


def _softmax_rows(logits):
    """Row softmax of logits and each row's -log softmax at the diagonal,
    from one max-shifted exp."""
    shift = logits.max(axis=1, keepdims=True)
    soft = np.exp(logits - shift)
    sums = soft.sum(axis=1, keepdims=True)
    losses = shift[:, 0] + np.log(sums[:, 0]) - np.diagonal(logits)
    soft /= sums
    return soft, losses


def info_nce(logits):
    """Symmetric InfoNCE over an (N, N) logits matrix whose diagonal holds
    the matched pairs, and its gradient with respect to the logits.

    The loss is the mean of the vision-to-language rows and the
    language-to-vision columns of -log softmax at the diagonal, each
    computed with a max-subtracted log-sum-exp. Returns (loss, d_logits).
    Logits that are not a nonempty square matrix are a DataError.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1] or logits.size == 0:
        raise DataError(f"logits must be a nonempty square matrix, got shape {logits.shape}")
    n = logits.shape[0]
    row_soft, row_losses = _softmax_rows(logits)
    col_soft, col_losses = _softmax_rows(logits.T)
    loss = 0.5 * float(row_losses.mean() + col_losses.mean())
    eye = np.eye(n)
    d_logits = 0.5 * ((row_soft - eye) + (col_soft.T - eye)) / n
    return loss, d_logits


def loss_and_grads(pooled, bags, encoders, tau):
    """Symmetric InfoNCE and its analytic gradients w.r.t. both projections.

    Returns (loss, d_w_image, d_w_text). The chain runs through the row
    normalization u = z / |z| via du = (g - (g.u) u) / |z|.
    """
    if pooled.shape[0] != bags.shape[0]:
        raise DataError(
            f"batch size mismatch: {pooled.shape[0]} images vs {bags.shape[0]} texts"
        )
    n = pooled.shape[0]
    if n < 2:
        raise DataError("InfoNCE needs at least 2 pairs")
    w_image, w_text = encoders.w_image.shape, encoders.w_text.shape
    if w_image[1:] != pooled.shape[1:] or w_text[1:] != bags.shape[1:] or w_image[0] != w_text[0]:
        raise DataError(f"encoders of shapes {w_image} and {w_text} do not fit features of "
                        f"shapes {pooled.shape} and {bags.shape}")
    if not (np.isfinite(pooled).all() and np.isfinite(bags).all()):
        raise DataError("training inputs contain non-finite values")

    u, nu = _normalize_rows(pooled @ encoders.w_image.T)
    v, nv = _normalize_rows(bags @ encoders.w_text.T)
    loss, d_logits = info_nce((u @ v.T) / tau)
    d_u = (d_logits @ v) / tau
    d_v = (d_logits.T @ u) / tau
    d_zi = (d_u - (d_u * u).sum(axis=1, keepdims=True) * u) / np.maximum(nu, _NORM_GUARD)
    d_zt = (d_v - (d_v * v).sum(axis=1, keepdims=True) * v) / np.maximum(nv, _NORM_GUARD)
    return loss, d_zi.T @ pooled, d_zt.T @ bags


def pool_visible_patches(prepared, shaped):
    """Mean raw patch vector over each image's attention-flagged slots.

    prepared holds the images' PreparedImage records, whose unnormalized
    grids are pooled. Padding slots and masked patches never contribute;
    an image with no real slots pools to the zero vector. A normalized
    grid, or grids of patches of more than one length, are a DataError.
    """
    pooled = np.zeros((len(prepared), prepared[0].grid.patch_dim))
    for i, record in enumerate(prepared):
        if record.grid.normalized or record.grid.patch_dim != pooled.shape[1]:
            raise DataError(f"grid {i} must be unnormalized with patches of grid 0's "
                            f"length {pooled.shape[1]}")
        real = shaped.kept_indices[i][shaped.attention[i]]
        if real.size:
            pooled[i] = record.grid.patches[real].mean(axis=0)
    return pooled


def prepare_step_inputs(prepared, config, *, step, alpha):
    """Masks, shaped batch, and pooled features for one training step.

    prepared holds the images' PreparedImage records, made once per run.
    Masks are regenerated per step from the step's TRAIN_MASK and
    TRAIN_SHAPE streams, so repeating a step is bit-exact while
    successive steps see fresh masks. Returns (masks, shaped, pooled).
    """
    masks, shaped = mask_batch(
        prepared, config, alpha,
        (config.seed, Stream.TRAIN_MASK, step), (config.seed, Stream.TRAIN_SHAPE, step),
    )
    return masks, shaped, pool_visible_patches(prepared, shaped)


def train_step(encoders, prepared, bags, config, *, step, alpha, learning_rate, temperature):
    """One full-batch gradient-descent step on the symmetric loss, over the
    images' PreparedImage records, with the masks of step and blend weight
    alpha.

    Returns (updated encoders, loss, mean mask ratio).
    """
    masks, _, pooled = prepare_step_inputs(prepared, config, step=step, alpha=alpha)
    # weights that overflow make the loss non-finite, which train_loop
    # reports; numpy's warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        loss, d_wi, d_wt = loss_and_grads(pooled, bags, encoders, temperature)
        updated = ToyEncoders(
            w_image=encoders.w_image - learning_rate * d_wi,
            w_text=encoders.w_text - learning_rate * d_wt,
        )
    return updated, loss, float(np.mean([mask_ratio(m) for m in masks]))


def check_train(n_images, epochs, learning_rate, embed_dim, steps_per_epoch, alpha_exponent,
                temperature):
    """Raise ConfigError unless train_loop can run over n_images images
    with these settings.

    These are train_loop's checks; they read no image, so a caller can run
    them before it makes any data. The masker's settings, beta among them,
    are MaskerConfig's own."""
    check_integer("steps_per_epoch", steps_per_epoch, 1)
    check_integer("embed_dim", embed_dim, 1)
    if not learning_rate > 0.0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    if n_images < 2:
        raise ConfigError(f"InfoNCE needs at least 2 images, got {n_images}")
    check_integer("epochs", epochs)
    if epochs <= 0:
        raise ConfigError(f"epochs must be positive, got {epochs}")
    if not alpha_exponent > 0.0:
        raise ConfigError(f"alpha_exponent must be positive, got {alpha_exponent}")
    if not temperature > 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature}")


def train_loop(grids, bags, config, *, epochs=20, steps_per_epoch=1,
               learning_rate=0.5, temperature=0.07, alpha_exponent=1.0, embed_dim=16):
    """Run epochs x steps_per_epoch full-batch steps over a fixed dataset:
    one unnormalized PatchGrid per image, as color_block_dataset makes
    them, and one token-bag row per image.

    The blend coefficient advances once per epoch. Returns the final
    encoders and one (step, loss, alpha, mean_mask_ratio) log row per
    step.

    Once per run, each grid is wrapped in one PreparedImage record.
    Each step draws the masks (blending the drawn anchors' cosine rows with
    that epoch's alpha, or running K-Means), shapes the batch, pools and
    takes the gradient step. A record computes its normalized vectors, its
    embedding and each cosine row the first time a mask reads them and
    keeps them, so over the run none of these is computed twice.

    The defaults are `patchmask train`'s; the CLI reads them from here.
    The settings are checked first, by check_train. Then a grid that is
    normalized or whose (n_patches, patch_dim) is not the first grid's,
    or bags that are not one row per grid, raise DataError, before any
    encoder is drawn. A step whose loss is not finite, as after a learning
    rate large enough to overflow the weights, raises ConvergenceError,
    and so do non-finite weights after the last step (earlier ones make
    the next step's loss non-finite).
    """
    check_train(len(grids), epochs, learning_rate, embed_dim, steps_per_epoch, alpha_exponent,
                temperature)
    bags = np.asarray(bags, dtype=np.float64)
    shape = (grids[0].n_patches, grids[0].patch_dim)
    for index, grid in enumerate(grids):
        if grid.normalized or (grid.n_patches, grid.patch_dim) != shape:
            raise DataError(f"grid {index} must be unnormalized with grid 0's "
                            f"(n_patches, patch_dim) {shape}")
    if bags.ndim != 2 or bags.shape[0] != len(grids):
        raise DataError(f"need one token-bag row per grid, got bags of shape {bags.shape} "
                        f"for {len(grids)} grids")
    prepared = [PreparedImage(grid, config.seed) for grid in grids]
    encoders = init_encoders(prepared[0].grid.patch_dim, bags.shape[1], embed_dim, config.seed)
    rows = []
    for epoch in range(epochs):
        alpha = alpha_schedule(epoch, epochs, alpha_exponent)
        for _ in range(steps_per_epoch):
            step = len(rows)
            encoders, loss, ratio = train_step(
                encoders, prepared, bags, config, step=step, alpha=alpha,
                learning_rate=learning_rate, temperature=temperature,
            )
            if not math.isfinite(loss):
                raise ConvergenceError(f"loss is {loss} at step {step}")
            rows.append((step, loss, alpha, ratio))
    if not (np.isfinite(encoders.w_image).all() and np.isfinite(encoders.w_text).all()):
        raise ConvergenceError(f"weights are not finite after step {len(rows) - 1}")
    return encoders, rows
