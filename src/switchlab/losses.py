"""Segmentation and representation losses with analytic gradients.

Value functions accept a single sample (logits of shape (2, H, W), labels
(H, W)) or a batch with a leading axis; batch losses are the mean of
per-sample losses. Pixel weights implement region restriction: a weight
raster of zeros contributes a zero loss (and zero gradient) rather than a
division error.

Each differentiable loss has a ``*_grad`` companion returning
``(value, gradient)`` with the gradient taken with respect to the first
argument (logits, foreground probabilities, or embeddings). Gradients are
exercised against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import softmax_channels


@dataclass(frozen=True)
class LossWeights:
    base_weight: float = 1.0        # weight of the mask-true region term
    patch_weight: float = 0.5       # weight of the mask-false region term
    lambda_contrastive: float = 0.1
    lambda_consistency: float = 0.1
    temperature: float = 0.07
    dice_epsilon: float = 1e-5
    include_positive_in_denominator: bool = False

    def validate(self) -> None:
        for name in ("base_weight", "patch_weight", "lambda_contrastive", "lambda_consistency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.dice_epsilon < 0:
            raise ValueError("dice_epsilon must be non-negative")


def _batched(arr: np.ndarray, ndim: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(arr)
    if arr.ndim == ndim:
        return arr[None], True
    if arr.ndim == ndim + 1:
        return arr, False
    raise ValueError(f"expected {ndim}- or {ndim + 1}-D array, got shape {arr.shape}")


def _weights_for(gt: np.ndarray, pixel_weights) -> np.ndarray:
    if pixel_weights is None:
        return np.ones_like(gt, dtype=np.float64)
    w = np.asarray(pixel_weights, dtype=np.float64)
    if w.ndim == gt.ndim - 1:
        w = np.broadcast_to(w[None], gt.shape)
    if w.shape != gt.shape:
        raise ValueError(f"weights shape {w.shape} does not match labels {gt.shape}")
    if w.min() < 0:
        raise ValueError("pixel weights must be non-negative")
    return w


# ---------------------------------------------------------------------------
# Dice and cross-entropy


def dice_loss(prob_fg: np.ndarray, gt: np.ndarray, pixel_weights=None) -> float:
    """Weighted soft Dice loss 1 - (2*sum(w p g) + eps) / (sum(w p) + sum(w g) + eps)."""
    return dice_loss_grad(prob_fg, gt, pixel_weights)[0]


def dice_loss_grad(
    prob_fg: np.ndarray, gt: np.ndarray, pixel_weights=None, eps: float = 1e-5
) -> tuple[float, np.ndarray]:
    p, single = _batched(prob_fg, 2)
    g, _ = _batched(gt, 2)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    w = _weights_for(g, pixel_weights)
    p = p.astype(np.float64)
    g = g.astype(np.float64)
    n = p.shape[0]
    num = 2.0 * (w * p * g).sum(axis=(1, 2)) + eps
    den = (w * p).sum(axis=(1, 2)) + (w * g).sum(axis=(1, 2)) + eps
    loss = float(np.mean(1.0 - num / den))
    dp = w * (num[:, None, None] - 2.0 * g * den[:, None, None]) / den[:, None, None] ** 2 / n
    return loss, (dp[0] if single else dp)


def cross_entropy_loss(logits: np.ndarray, gt: np.ndarray, pixel_weights=None) -> float:
    """Weighted mean of -log softmax(true class), normalized by the weight sum."""
    return cross_entropy_loss_grad(logits, gt, pixel_weights)[0]


def cross_entropy_loss_grad(
    logits: np.ndarray, gt: np.ndarray, pixel_weights=None
) -> tuple[float, np.ndarray]:
    z, single = _batched(logits, 3)
    g, _ = _batched(gt, 2)
    if z.shape[0] != g.shape[0] or z.shape[2:] != g.shape[1:]:
        raise ValueError(f"shape mismatch: logits {z.shape} vs labels {g.shape}")
    w = _weights_for(g, pixel_weights)
    probs = softmax_channels(z)
    n = z.shape[0]
    gi = (g != 0).astype(np.int64)
    p_true = np.take_along_axis(probs, gi[:, None], axis=1)[:, 0]
    wsum = w.sum(axis=(1, 2))
    safe = np.maximum(wsum, 1.0)
    per_img = np.where(wsum > 0, (w * -np.log(np.maximum(p_true, 1e-300))).sum(axis=(1, 2)) / safe, 0.0)
    loss = float(per_img.mean())
    onehot = np.stack([1.0 - gi, gi.astype(np.float64)], axis=1)
    scale = np.where(wsum > 0, 1.0 / safe, 0.0)[:, None, None, None] / n
    dz = (probs - onehot) * w[:, None] * scale
    return loss, (dz[0] if single else dz)


def _seg_terms_grad(
    logits: np.ndarray, gt: np.ndarray, pixel_weights, eps: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Dice and CE on one region, plus gradients of each w.r.t. the logits."""
    z, single = _batched(logits, 3)
    probs = softmax_channels(z)
    p_fg = probs[:, 1]
    g, _ = _batched(gt, 2)
    dice, dp = dice_loss_grad(p_fg, g, pixel_weights, eps=eps)
    # two-class softmax chain: dp_fg/dz_fg = p(1-p), dp_fg/dz_bg = -p(1-p)
    jac = p_fg * (1.0 - p_fg)
    ddice = np.stack([-dp * jac, dp * jac], axis=1)
    ce, dce = cross_entropy_loss_grad(z, g, pixel_weights)
    if single:
        ddice, dce = ddice[0], dce[0]
    return dice, ce, ddice, dce


def mixed_region_terms_grad(
    pred_logits: np.ndarray,
    base_label: np.ndarray,
    patch_label: np.ndarray,
    mask: np.ndarray,
    w: LossWeights,
) -> tuple[float, float, np.ndarray]:
    """Region-weighted dice and ce terms plus the gradient of their sum.

    Each term is ``base_weight`` times its value on the mask-true region
    against ``base_label`` plus ``patch_weight`` times its value on the
    complement against ``patch_label``; the mixed loss of one switched
    sample is half their sum.
    """
    m = np.asarray(mask)
    if m.shape != np.asarray(base_label).shape[-2:]:
        raise ValueError(f"mask shape {m.shape} does not match labels")
    w_base = m.astype(np.float64)
    w_patch = (~m.astype(bool)).astype(np.float64)
    d_b, c_b, dd_b, dc_b = _seg_terms_grad(pred_logits, base_label, w_base, w.dice_epsilon)
    d_p, c_p, dd_p, dc_p = _seg_terms_grad(pred_logits, patch_label, w_patch, w.dice_epsilon)
    dice_term = w.base_weight * d_b + w.patch_weight * d_p
    ce_term = w.base_weight * c_b + w.patch_weight * c_p
    dlogits = w.base_weight * (dd_b + dc_b) + w.patch_weight * (dd_p + dc_p)
    return dice_term, ce_term, dlogits


def mss_loss(dice_ux: float, ce_ux: float, dice_xu: float, ce_xu: float) -> float:
    """Arithmetic mean of the four region-weighted mixed-loss components."""
    parts = (dice_ux, ce_ux, dice_xu, ce_xu)
    if not all(np.isfinite(parts)):
        raise ValueError(f"non-finite loss components: {parts}")
    return 0.25 * sum(parts)


def pretrain_loss(logits: np.ndarray, gt: np.ndarray) -> float:
    """Uniform-weight (dice + ce) / 2, used by the supervised phase."""
    return pretrain_loss_grad(logits, gt)[0]


def pretrain_loss_grad(logits: np.ndarray, gt: np.ndarray) -> tuple[float, np.ndarray]:
    dice, ce, ddice, dce = _seg_terms_grad(logits, gt, None, eps=1e-5)
    return 0.5 * (dice + ce), 0.5 * (ddice + dce)


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
    sims = np.einsum("bei,bej->bij", h, h_r) / tau  # (B, K, K); row = query position
    pos = np.einsum("bii->bi", sims).copy()
    den = sims if include_positive else np.where(np.eye(k, dtype=bool), -np.inf, sims)
    m = den.max(axis=2, keepdims=True)
    expd = np.exp(den - m)
    lse = m[:, :, 0] + np.log(expd.sum(axis=2))
    n = b * k
    loss = float(-(pos - lse).sum() / n)
    # d loss / d h_i = (softmax-weighted key mix - positive key) / (N * tau)
    p = expd / expd.sum(axis=2, keepdims=True)  # (B, K, K)
    mix = np.einsum("bij,bej->bei", p, h_r)
    dh = (mix - h_r) / (n * tau)
    return loss, dh


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
        raise ValueError(f"non-finite loss components: {parts}")
    return mss + w.lambda_contrastive * cont + w.lambda_consistency * consist
