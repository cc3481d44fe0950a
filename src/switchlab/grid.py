"""Core raster types and channel-wise probability operations.

Array conventions shared across the package:

- Image:      2-D float64 array; values nominally in [0, 1] (frequency-domain
              reconstruction may push them slightly outside).
- LabelMask:  2-D integer array with class ids in {0, 1}.
- BinaryMask: 2-D bool array.
- Logits:     (N, 2, H, W) float64 batch of pre-softmax scores.
- ProbMap:    same shape as Logits; per-pixel channel sums equal 1.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError

NUM_CLASSES = 2


def softmax_channels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the channel axis of an (N, C, H, W) array.

    Computed with max-subtraction so large logits do not overflow.
    Raises NonFiniteError (a ValueError) on non-finite input.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) logits, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("logits contain non-finite values")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def argmax_channels(probs: np.ndarray) -> np.ndarray:
    """Label each pixel of an (N, C, H, W) batch with its max-probability channel.

    Ties resolve to the lower class index (background), so a uniform
    prediction yields an all-background mask.
    """
    probs = np.asarray(probs)
    if probs.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) probabilities, got shape {probs.shape}")
    return np.argmax(probs, axis=1)
