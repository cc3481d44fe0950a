"""Teacher-side pseudo-label generation with largest-connected-component filtering.

Connectivity is 4-neighborhood throughout (the stricter choice; declared here
and exercised exhaustively in the tests against flood-fill and union-find
references).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .grid import NUM_CLASSES, argmax_channels, softmax_channels

# cross-shaped structuring element = 4-connectivity
_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def largest_connected_component(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 4-connected foreground component of a {0, 1} mask.

    Empty masks pass through unchanged. Exact size ties are broken in favor
    of the component whose first pixel comes first in row-major order:
    ``ndimage.label`` numbers components in that order, and argmax keeps the
    first of equal sizes.
    """
    mask = np.asarray(mask)
    labels, n = ndimage.label(mask != 0, structure=_FOUR_CONNECTED)
    if n <= 1:
        return (mask != 0).astype(np.uint8)
    sizes = np.bincount(labels.ravel())[1:]  # skip background
    return (labels == np.argmax(sizes) + 1).astype(np.uint8)


def pseudo_labels(logits: np.ndarray) -> np.ndarray:
    """Pseudo-labels of an (N, 2, H, W) logit batch: argmax of the softmax, then
    the largest connected component of each image, as an (N, H, W) uint8 array."""
    logits = np.asarray(logits)
    if logits.ndim != 4 or logits.shape[1] != NUM_CLASSES:
        raise ValueError(f"expected (N, {NUM_CLASSES}, H, W) logits, got shape {logits.shape}")
    raw = argmax_channels(softmax_channels(logits))
    return np.stack([largest_connected_component(m) for m in raw])
