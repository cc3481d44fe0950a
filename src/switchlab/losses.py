"""Segmentation and representation losses with analytic gradients.

Dice and cross-entropy share two batch-only cores over (N, H, W) labels and
pixel weights; batch losses are the mean of per-sample losses. Zero pixel
weights restrict a loss to a region: an all-zero raster gives a zero loss
(and zero gradient) rather than a division error. The training losses take
(N, 2, H, W) logit batches; ``dice_loss`` and ``cross_entropy_loss`` also
accept a single sample.

Each differentiable loss has a ``*_grad`` companion returning
``(value, gradient)`` with the gradient taken with respect to the first
argument (logits, foreground probabilities, or embeddings). Gradients are
exercised against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError
from .grid import softmax_channels

_DICE_EPS = 1e-5  # smooths the Dice ratio; an empty prediction on an empty label scores 0
# query rows per InfoNCE block, which holds B x rows x K similarities; of 32 to
# 512 rows, 64 and 128 were fastest (K = 4096, B = 4 and 8, float64)
_INFONCE_ROWS = 128


@dataclass(frozen=True)
class LossWeights:
    base_weight: float = 1.0        # weight of the mask-true region term
    patch_weight: float = 0.5       # weight of the mask-false region term
    lambda_contrastive: float = 0.1
    lambda_consistency: float = 0.1
    temperature: float = 0.07
    include_positive_in_denominator: bool = False

    def __post_init__(self) -> None:
        for name in ("base_weight", "patch_weight", "lambda_contrastive", "lambda_consistency"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")


def _batched(arr: np.ndarray, ndim: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(arr)
    if arr.ndim == ndim:
        return arr[None], True
    if arr.ndim == ndim + 1:
        return arr, False
    raise ValueError(f"expected {ndim}- or {ndim + 1}-D array, got shape {arr.shape}")


def _labels_and_weights(shape: tuple, labels, pixel_weights) -> tuple[np.ndarray, np.ndarray]:
    """Float labels and pixel weights (default 1) for an (N, H, W) batch."""
    g = np.asarray(labels, dtype=np.float64)
    if g.shape != shape:
        raise ValueError(f"shape mismatch: labels {g.shape} vs batch {shape}")
    w = np.broadcast_to(np.asarray(1.0 if pixel_weights is None else pixel_weights, np.float64), shape)
    if w.min() < 0:
        raise ValueError("pixel weights must be non-negative")
    return g, w


# ---------------------------------------------------------------------------
# Dice and cross-entropy


def _dice_grad(p: np.ndarray, g: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice of (N, H, W) foreground probabilities and its gradient."""
    n = p.shape[0]
    num = 2.0 * (w * p * g).sum(axis=(1, 2)) + _DICE_EPS
    den = (w * p).sum(axis=(1, 2)) + (w * g).sum(axis=(1, 2)) + _DICE_EPS
    loss = float(np.mean(1.0 - num / den))
    dp = w * (num[:, None, None] - 2.0 * g * den[:, None, None]) / den[:, None, None] ** 2 / n
    return loss, dp


def _ce_grad(probs: np.ndarray, g: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Weighted CE of an (N, 2, H, W) probability batch and its logits gradient."""
    n = probs.shape[0]
    fg = g != 0
    p_true = np.where(fg, probs[:, 1], probs[:, 0])
    wsum = w.sum(axis=(1, 2))
    safe = np.maximum(wsum, 1.0)
    per_img = np.where(wsum > 0, (w * -np.log(np.maximum(p_true, 1e-300))).sum(axis=(1, 2)) / safe, 0.0)
    onehot = np.stack([~fg, fg], axis=1).astype(np.float64)
    scale = np.where(wsum > 0, 1.0 / safe, 0.0)[:, None, None, None] / n
    return float(per_img.mean()), (probs - onehot) * w[:, None] * scale


def dice_loss(prob_fg: np.ndarray, gt: np.ndarray, pixel_weights=None) -> float:
    """Weighted soft Dice loss 1 - (2*sum(w p g) + eps) / (sum(w p) + sum(w g) + eps)."""
    return dice_loss_grad(prob_fg, gt, pixel_weights)[0]


def dice_loss_grad(prob_fg: np.ndarray, gt: np.ndarray, pixel_weights=None) -> tuple[float, np.ndarray]:
    p, single = _batched(prob_fg, 2)
    g, w = _labels_and_weights(p.shape, _batched(gt, 2)[0], pixel_weights)
    loss, dp = _dice_grad(p.astype(np.float64), g, w)
    return loss, (dp[0] if single else dp)


def cross_entropy_loss(logits: np.ndarray, gt: np.ndarray, pixel_weights=None) -> float:
    """Weighted mean of -log softmax(true class), normalized by the weight sum."""
    return cross_entropy_loss_grad(logits, gt, pixel_weights)[0]


def cross_entropy_loss_grad(
    logits: np.ndarray, gt: np.ndarray, pixel_weights=None
) -> tuple[float, np.ndarray]:
    z, single = _batched(logits, 3)
    probs = softmax_channels(z)
    g, w = _labels_and_weights(probs[:, 1].shape, _batched(gt, 2)[0], pixel_weights)
    loss, dz = _ce_grad(probs, g, w)
    return loss, (dz[0] if single else dz)


def _seg_terms_grad(probs: np.ndarray, labels, pixel_weights) -> tuple[float, float, np.ndarray]:
    """Dice and CE on one weighted region, plus the logits gradient of their sum."""
    p_fg = probs[:, 1]
    g, w = _labels_and_weights(p_fg.shape, labels, pixel_weights)
    dice, dp = _dice_grad(p_fg, g, w)
    ce, dce = _ce_grad(probs, g, w)
    # two-class softmax chain: dp_fg/dz_fg = p(1-p), dp_fg/dz_bg = -p(1-p)
    jac = p_fg * (1.0 - p_fg)
    return dice, ce, np.stack([-dp * jac, dp * jac], axis=1) + dce


def mixed_region_terms_grad(
    pred_logits: np.ndarray,
    base_label: np.ndarray,
    patch_label: np.ndarray,
    mask: np.ndarray,
    w: LossWeights,
) -> tuple[float, float, np.ndarray]:
    """Region-weighted dice and ce terms of a logit batch plus the gradient of their sum.

    Each term is ``base_weight`` times its value on the mask-true region
    against ``base_label`` plus ``patch_weight`` times its value on the
    complement against ``patch_label``; the mixed loss of one switched
    sample is half their sum.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != np.shape(base_label)[-2:]:
        raise ValueError(f"mask shape {m.shape} does not match labels")
    probs = softmax_channels(pred_logits)
    d_b, c_b, g_b = _seg_terms_grad(probs, base_label, m.astype(np.float64))
    d_p, c_p, g_p = _seg_terms_grad(probs, patch_label, (~m).astype(np.float64))
    dice_term = w.base_weight * d_b + w.patch_weight * d_p
    ce_term = w.base_weight * c_b + w.patch_weight * c_p
    return dice_term, ce_term, w.base_weight * g_b + w.patch_weight * g_p


def mss_loss(dice_ux: float, ce_ux: float, dice_xu: float, ce_xu: float) -> float:
    """Arithmetic mean of the four region-weighted mixed-loss components."""
    parts = (dice_ux, ce_ux, dice_xu, ce_xu)
    if not all(np.isfinite(parts)):
        raise NonFiniteError(f"non-finite loss components: {parts}")
    return 0.25 * sum(parts)


def pretrain_loss(logits: np.ndarray, gt: np.ndarray) -> float:
    """Uniform-weight (dice + ce) / 2 of a logit batch, used by the supervised phase."""
    return pretrain_loss_grad(logits, gt)[0]


def pretrain_loss_grad(logits: np.ndarray, gt: np.ndarray) -> tuple[float, np.ndarray]:
    dice, ce, dlogits = _seg_terms_grad(softmax_channels(logits), gt, None)
    return 0.5 * (dice + ce), 0.5 * dlogits


# ---------------------------------------------------------------------------
# Contrastive and consistency


def infonce_contrastive(
    h: np.ndarray, h_r: np.ndarray, tau: float, include_positive: bool = False
) -> float:
    """Position-wise InfoNCE between (B, dim, K) query and key embeddings.

    Similarities are raw per-position dot products scaled by ``tau``.
    Positives pair identical positions; negatives are the other positions of
    the same sample. Following the formulation implemented here, the positive
    is excluded from the denominator unless ``include_positive`` is set.
    Keys receive no gradient (see :func:`infonce_grad`).
    """
    return infonce_grad(h, h_r, tau, include_positive)[0]


def infonce_grad(
    h: np.ndarray, h_r: np.ndarray, tau: float, include_positive: bool = False
) -> tuple[float, np.ndarray]:
    # arithmetic follows the embeddings' dtype (float32 nets keep float32 here)
    h = np.asarray(h)
    if h.dtype not in (np.float32, np.float64):
        h = h.astype(np.float64)
    h_r = np.asarray(h_r, dtype=h.dtype)
    if h.shape != h_r.shape or h.ndim != 3:
        raise ValueError(f"expected matching (B, dim, K) embeddings, got {h.shape} and {h_r.shape}")
    b, _, k = h.shape
    if k < 2:
        raise ValueError(f"need at least 2 positions for negatives, got K={k}")
    if tau <= 0:
        raise ValueError("temperature must be positive")
    n = b * k
    mix = np.empty_like(h_r)  # softmax-weighted key mix of every query position
    block = np.empty((b, min(k, _INFONCE_ROWS), k), dtype=h.dtype)
    total = 0.0
    # Each block holds complete rows of the (B, K, K) similarity matrix, so every
    # row's softmax is exact and memory stays at B x rows x K.
    for start in range(0, k, _INFONCE_ROWS):
        q = np.swapaxes(h[:, :, start : start + _INFONCE_ROWS], 1, 2)  # (B, rows, dim)
        rows = np.arange(q.shape[1])
        sims = np.matmul(q, h_r, out=block[:, : rows.size])  # row = query position
        sims /= tau
        pos = sims[:, rows, start + rows]
        if not include_positive:
            sims[:, rows, start + rows] = -np.inf
        m = sims.max(axis=2, keepdims=True)
        sims -= m
        np.exp(sims, out=sims)
        den = sims.sum(axis=2, keepdims=True)
        total += float((m[:, :, 0] + np.log(den[:, :, 0]) - pos).sum())
        sims /= den
        np.matmul(h_r, np.swapaxes(sims, 1, 2), out=mix[:, :, start : start + rows.size])
    # d loss / d h_i = (softmax-weighted key mix - positive key) / (N * tau)
    return total / n, (mix - h_r) / (n * tau)


NORMALIZE_EPS = 1e-2


def l2_normalize_positions(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize each per-position embedding vector of a (B, dim, K) array.

    Uses the smooth norm sqrt(|v|^2 + eps^2), which is differentiable at the
    origin (dead embedding positions would otherwise produce unbounded
    gradients) and indistinguishable from the true norm for healthy vectors.
    Returns the normalized array and the smooth norms for the backward pass.
    """
    h = np.asarray(h)
    norms = np.sqrt((h * h).sum(axis=1, keepdims=True) + NORMALIZE_EPS**2)
    return h / norms, norms


def l2_normalize_backward(
    normed: np.ndarray, norms: np.ndarray, dnormed: np.ndarray
) -> np.ndarray:
    """Gradient of the per-position normalization w.r.t. its input."""
    dot = (normed * dnormed).sum(axis=1, keepdims=True)
    return (dnormed - normed * dot) / norms


def consistency_mse_grad(
    logits_a: np.ndarray, logits_b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean squared difference between two pre-softmax outputs, with the
    gradients with respect to both."""
    a = np.asarray(logits_a, dtype=np.float64)
    c = np.asarray(logits_b, dtype=np.float64)
    if a.shape != c.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {c.shape}")
    diff = a - c
    loss = float(np.mean(diff**2))
    da = 2.0 * diff / diff.size
    return loss, da, -da


def total_loss(mss: float, cont: float, consist: float, w: LossWeights) -> float:
    """Weighted combination: mss + lambda_cont * cont + lambda_consist * consist."""
    parts = (mss, cont, consist)
    if not all(np.isfinite(parts)):
        raise NonFiniteError(f"non-finite loss components: {parts}")
    return mss + w.lambda_contrastive * cont + w.lambda_consistency * consist
