"""Multiscale switch: hierarchical binary mask generation and pair switching.

A switch mask is the union of ``coarse_patches`` large squares and
``fine_patches`` small squares with uniformly random upper-left corners
(overlaps merge by union). The same mask mixes an image pair in both
directions and is reused for the frequency-switched pair downstream.

Also provides the Monte Carlo machinery behind the mask-strategy study:
per-pixel switch-probability maps and the variance of their gradient
magnitudes, compared against a single-square baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class MssConfig:
    coarse_patches: int = 2
    fine_patches: int = 2
    coarse_size: int = 128
    fine_size: int = 32

    def __post_init__(self) -> None:
        if self.coarse_patches < 0 or self.fine_patches < 0:
            raise ConfigError("patch counts must be non-negative")
        if self.coarse_patches + self.fine_patches < 1:
            raise ConfigError("at least one patch is required")
        if self.coarse_size < 1 or self.fine_size < 1:
            raise ConfigError("patch sizes must be positive")

    def validate(self, h: int, w: int) -> None:
        """Check that every patch fits an ``h`` x ``w`` raster."""
        for size in (self.coarse_size, self.fine_size):
            if size > h or size > w:
                raise ConfigError(f"patch size {size} exceeds image size {h}x{w}")


def generate_multiscale_mask(h: int, w: int, cfg: MssConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a switch mask as the union of random coarse and fine squares.

    Upper-left corners are uniform over [0, H-s] x [0, W-s] inclusive, so a
    full-size patch is placed at the origin. Coarse patches are drawn first.
    """
    cfg.validate(h, w)
    mask = np.zeros((h, w), dtype=bool)
    for count, size in ((cfg.coarse_patches, cfg.coarse_size), (cfg.fine_patches, cfg.fine_size)):
        for _ in range(count):
            i = int(rng.integers(0, h - size + 1))
            j = int(rng.integers(0, w - size + 1))
            mask[i : i + size, j : j + size] = True
    return mask


def generate_bcp_mask(h: int, w: int, side_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Single-square baseline mask with side ``floor(side_ratio * min(h, w))``."""
    if not 0.0 < side_ratio <= 1.0:
        raise ValueError(f"side_ratio must be in (0, 1], got {side_ratio}")
    side = int(np.floor(side_ratio * min(h, w)))
    if side < 1:
        raise ValueError(f"side_ratio {side_ratio} yields an empty square on {h}x{w}")
    i = int(rng.integers(0, h - side + 1))
    j = int(rng.integers(0, w - side + 1))
    mask = np.zeros((h, w), dtype=bool)
    mask[i : i + side, j : j + side] = True
    return mask


def switch_pair(
    x1: np.ndarray, x2: np.ndarray, u1: np.ndarray, u2: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mix two image pairs in both directions through one shared mask.

    Returns the unlabeled-base mixture (``u1`` inside the mask, ``x1``
    outside) and the labeled-base mixture (``x2`` inside, ``u2`` outside).
    The mask broadcasts over leading batch axes.
    """
    return np.where(m, u1, x1), np.where(m, x2, u2)


def max_coverage_fraction(cfg: MssConfig, h: int, w: int) -> float:
    """Largest attainable true-pixel fraction (no overlaps), capped at 1."""
    cfg.validate(h, w)
    area = cfg.coarse_patches * cfg.coarse_size**2 + cfg.fine_patches * cfg.fine_size**2
    return min(1.0, area / (h * w))


def switch_probability_map(
    sampler: Callable[[np.random.Generator], np.ndarray],
    n_iter: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-pixel fraction of ``n_iter`` sampled masks in which the pixel is true."""
    if n_iter < 1:
        raise ValueError("n_iter must be at least 1")
    acc = sampler(rng).astype(np.float64)
    for _ in range(n_iter - 1):
        acc += sampler(rng)
    return acc / n_iter


def mask_gradient_variance(prob_map: np.ndarray) -> float:
    """Variance of per-pixel gradient magnitudes of a probability map.

    Gradients use central differences in the interior and one-sided
    differences at the borders.
    """
    gy, gx = np.gradient(np.asarray(prob_map, dtype=np.float64))
    return float(np.var(np.hypot(gy, gx)))
