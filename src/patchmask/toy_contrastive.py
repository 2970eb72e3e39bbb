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
from .errors import ConfigError, ConvergenceError, DataError
from .patch_grid import patchify

_NORM_GUARD = 1e-12

# sub-seed namespaces: (seed, namespace, ...) feeds np.random.default_rng
_NS_MASK = 0  # (seed, 0, step, image_index)
_NS_SHAPE = 1  # (seed, 1, step)
_NS_ENCODER = 2  # (seed, 2)


@dataclass
class TrainState:
    """Progress counters plus the schedule/temperature constants."""

    epoch_total: int
    epoch_current: int = 0
    alpha_exponent: float = 1.0
    temperature: float = 0.07
    step: int = 0

    def __post_init__(self):
        if self.epoch_total <= 0:
            raise ConfigError(f"epoch_total must be positive, got {self.epoch_total}")
        if not 0 <= self.epoch_current <= self.epoch_total:
            raise ConfigError(
                f"epoch_current must lie in [0, {self.epoch_total}], got {self.epoch_current}"
            )
        if self.alpha_exponent <= 0.0:
            raise ConfigError(f"alpha_exponent must be positive, got {self.alpha_exponent}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


def alpha_schedule(state):
    """Blend coefficient (E_c / E_t) ** k; 0 at the start, 1 at the end."""
    return float(state.epoch_current / state.epoch_total) ** state.alpha_exponent


@dataclass
class ToyEncoders:
    """Linear projections to the shared embedding space (rows = output dims)."""

    w_image: np.ndarray  # (dim, patch_dim)
    w_text: np.ndarray  # (dim, vocab_size)


def init_encoders(patch_dim, vocab_size, dim, seed):
    rng = np.random.default_rng((seed, _NS_ENCODER))
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
    """
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
    an image with no real slots pools to the zero vector.
    """
    pooled = np.zeros((len(prepared), prepared[0].grid.patch_dim))
    for i, record in enumerate(prepared):
        real = shaped.kept_indices[i][shaped.attention[i]]
        if real.size:
            pooled[i] = record.grid.patches[real].mean(axis=0)
    return pooled


@dataclass
class StepInputs:
    """Everything train_step derives from the prepared images before the loss."""

    masks: list
    shaped: object
    pooled: np.ndarray
    alpha: float
    mean_mask_ratio: float


def prepare_step_inputs(prepared, config, state, beta):
    """Masks, shaped batch, and pooled features for one training step.

    prepared holds the images' PreparedImage records, made once per run.
    Masks are regenerated per step with sub-seeds derived from
    (config.seed, step, image index), so repeating a step is bit-exact
    while successive steps see fresh masks.
    """
    alpha = alpha_schedule(state)
    masks, shaped = mask_batch(
        prepared, config, beta, alpha,
        (config.seed, _NS_MASK, state.step), (config.seed, _NS_SHAPE, state.step),
    )
    return StepInputs(
        masks=masks,
        shaped=shaped,
        pooled=pool_visible_patches(prepared, shaped),
        alpha=alpha,
        mean_mask_ratio=float(np.mean([mask_ratio(m) for m in masks])),
    )


@dataclass
class StepResult:
    loss: float
    alpha: float
    mean_mask_ratio: float


def train_step(encoders, prepared, bags, config, state, beta, learning_rate):
    """One full-batch gradient-descent step on the symmetric loss, over the
    images' PreparedImage records.

    Returns (updated encoders, StepResult). The caller owns the state and
    advances state.step / state.epoch_current between calls.
    """
    inputs = prepare_step_inputs(prepared, config, state, beta)
    # weights that overflow make the loss non-finite, which train_loop
    # reports; numpy's warnings on the way would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        loss, d_wi, d_wt = loss_and_grads(inputs.pooled, bags, encoders, state.temperature)
        updated = ToyEncoders(
            w_image=encoders.w_image - learning_rate * d_wi,
            w_text=encoders.w_text - learning_rate * d_wt,
        )
    return updated, StepResult(loss=loss, alpha=inputs.alpha, mean_mask_ratio=inputs.mean_mask_ratio)


def train_loop(
    images,
    bags,
    config,
    epochs,
    patch_size,
    beta,
    learning_rate,
    embed_dim=16,
    steps_per_epoch=1,
    alpha_exponent=1.0,
    temperature=0.07,
):
    """Run epochs x steps_per_epoch full-batch steps over a fixed dataset.

    The blend coefficient advances once per epoch. Returns the final
    encoders and one StepResult-shaped log row (step, loss, alpha,
    mean_mask_ratio) per step.

    Once per run, each image is patchified into one PreparedImage record.
    Each step draws the masks (blending the drawn anchors' cosine rows with
    that epoch's alpha, or running K-Means), shapes the batch, pools and
    takes the gradient step. A record computes its normalized vectors, its
    embedding and each cosine row the first time a mask reads them and
    keeps them, so over the run none of these is computed twice.

    A step whose loss is not finite, as after a learning rate large enough
    to overflow the weights, raises ConvergenceError, and so do non-finite
    weights after the last step (earlier ones make the next step's loss
    non-finite).
    """
    if steps_per_epoch < 1:
        raise ConfigError(f"steps_per_epoch must be >= 1, got {steps_per_epoch}")
    if embed_dim < 1:
        raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
    if not learning_rate > 0.0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    if len(images) < 2:
        raise ConfigError(f"InfoNCE needs at least 2 images, got {len(images)}")
    state = TrainState(
        epoch_total=epochs,
        alpha_exponent=alpha_exponent,
        temperature=temperature,
    )
    bags = np.asarray(bags, dtype=np.float64)
    prepared = [PreparedImage(patchify(image, patch_size), config.seed) for image in images]
    encoders = init_encoders(prepared[0].grid.patch_dim, bags.shape[1], embed_dim, config.seed)
    rows = []
    for epoch in range(epochs):
        state.epoch_current = epoch
        for _ in range(steps_per_epoch):
            encoders, result = train_step(
                encoders, prepared, bags, config, state, beta, learning_rate
            )
            if not math.isfinite(result.loss):
                raise ConvergenceError(f"loss is {result.loss} at step {state.step}")
            rows.append((state.step, result.loss, result.alpha, result.mean_mask_ratio))
            state.step += 1
    if not (np.isfinite(encoders.w_image).all() and np.isfinite(encoders.w_text).all()):
        raise ConvergenceError(f"weights are not finite after step {state.step - 1}")
    return encoders, rows
