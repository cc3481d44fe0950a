"""Weak/strong augmentation pipeline with paired image-mask semantics.

Weak (geometric) operations apply identically to the image and its mask, the
mask via nearest-neighbor resampling; strong (intensity) operations touch the
image only. Everything operates on the [0, 1] float scale; 8-bit parameters
(posterize bits, solarize threshold) are translated to that scale. Intensity
outputs are clamped back into [0, 1].

Weak:   resize_crop (scale 0.8..1.2, re-cropped/zero-padded to input size),
        hflip, vflip.
Strong: autocontrast, gaussian_blur (sigma 0.1..1.0), contrast (0.75..1.25),
        brightness (0.75..1.25), sharpness (0.75..1.25), posterize (4..8 bits),
        solarize (threshold 1/256..1, strictly-above pixels inverted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import ndimage

from .errors import ConfigError

WEAK_KINDS = ("resize_crop", "hflip", "vflip")
STRONG_KINDS = (
    "autocontrast",
    "gaussian_blur",
    "contrast",
    "brightness",
    "sharpness",
    "posterize",
    "solarize",
)


@dataclass(frozen=True)
class AugmentationOp:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AugmentPolicy:
    max_ops: int = 3  # 0 turns augmentation off

    def __post_init__(self) -> None:
        if self.max_ops < 0:
            raise ConfigError("max_ops must be non-negative")


def sample_augmentations(policy: AugmentPolicy, rng: np.random.Generator) -> list[AugmentationOp]:
    """Draw an ordered pipeline of 0..max_ops distinct operations.

    Kinds come uniformly from the weak and strong catalogs and each
    operation's parameters are uniform over its catalog range.
    """
    if policy.max_ops == 0:
        return []
    pool = WEAK_KINDS + STRONG_KINDS
    n = min(int(rng.integers(0, policy.max_ops + 1)), len(pool))
    kinds = rng.choice(pool, size=n, replace=False) if n else []
    return [_sample_params(str(kind), rng) for kind in kinds]


def _sample_params(kind: str, rng: np.random.Generator) -> AugmentationOp:
    if kind == "resize_crop":
        return AugmentationOp(kind, {"scale": float(rng.uniform(0.8, 1.2))})
    if kind == "gaussian_blur":
        return AugmentationOp(kind, {"sigma": float(rng.uniform(0.1, 1.0))})
    if kind in ("contrast", "brightness", "sharpness"):
        return AugmentationOp(kind, {"factor": float(rng.uniform(0.75, 1.25))})
    if kind == "posterize":
        return AugmentationOp(kind, {"bits": int(rng.integers(4, 9))})
    if kind == "solarize":
        return AugmentationOp(kind, {"threshold": float(rng.uniform(1.0, 256.0)) / 256.0})
    return AugmentationOp(kind)


def apply_augmentations(
    img: np.ndarray, mask: np.ndarray, ops: Sequence[AugmentationOp]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a sampled pipeline to an image and its mask.

    Output shape always equals input shape. The mask passes through
    geometric operations only.
    """
    img = np.asarray(img, dtype=np.float64)
    mask = np.asarray(mask)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a nonempty 2-D image, got shape {img.shape}")
    if img.shape != mask.shape:
        raise ValueError(f"image/mask shape mismatch: {img.shape} vs {mask.shape}")
    for op in ops:
        if op.kind == "resize_crop":
            img, mask = _resize_crop(img, mask, op.params["scale"])
        elif op.kind == "hflip":
            img, mask = img[:, ::-1].copy(), mask[:, ::-1].copy()
        elif op.kind == "vflip":
            img, mask = img[::-1, :].copy(), mask[::-1, :].copy()
        else:
            img = _apply_intensity(img, op)
    return img, mask


def _apply_intensity(img: np.ndarray, op: AugmentationOp) -> np.ndarray:
    if op.kind == "autocontrast":
        lo, hi = img.min(), img.max()
        return img if hi <= lo else (img - lo) / (hi - lo)
    if op.kind == "gaussian_blur":
        return ndimage.gaussian_filter(img, sigma=op.params["sigma"], mode="reflect")
    if op.kind == "contrast":
        f = op.params["factor"]
        return np.clip(img.mean() + f * (img - img.mean()), 0.0, 1.0)
    if op.kind == "brightness":
        return np.clip(op.params["factor"] * img, 0.0, 1.0)
    if op.kind == "sharpness":
        # blend against a 3x3 box smoothing, PIL-style
        smooth = ndimage.uniform_filter(img, size=3, mode="reflect")
        return np.clip(smooth + op.params["factor"] * (img - smooth), 0.0, 1.0)
    if op.kind == "posterize":
        levels = 2 ** op.params["bits"]
        return np.clip(np.floor(img * levels) / levels, 0.0, 1.0)
    if op.kind == "solarize":
        t = op.params["threshold"]
        return np.where(img > t, 1.0 - img, img)
    raise ValueError(f"unknown augmentation kind {op.kind!r}")


def _resize_crop(img: np.ndarray, mask: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    h, w = img.shape
    h2 = max(1, int(round(scale * h)))
    w2 = max(1, int(round(scale * w)))
    img_r = _resize_bilinear(img, h2, w2)
    mask_r = _resize_nearest(mask, h2, w2)
    return _center_fit(img_r, h, w, 0.0), _center_fit(mask_r, h, w, 0)


def _sample_coords(n_out: int, n_in: int) -> np.ndarray:
    # pixel-center alignment between grids
    return (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5


def _resize_bilinear(img: np.ndarray, h2: int, w2: int) -> np.ndarray:
    h, w = img.shape
    ys = np.clip(_sample_coords(h2, h), 0, h - 1)
    xs = np.clip(_sample_coords(w2, w), 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def _resize_nearest(mask: np.ndarray, h2: int, w2: int) -> np.ndarray:
    h, w = mask.shape
    ys = np.clip(np.rint(_sample_coords(h2, h)).astype(int), 0, h - 1)
    xs = np.clip(np.rint(_sample_coords(w2, w)).astype(int), 0, w - 1)
    return mask[np.ix_(ys, xs)]


def _center_fit(arr: np.ndarray, h: int, w: int, fill) -> np.ndarray:
    """Center-crop or zero-pad ``arr`` to (h, w)."""
    h2, w2 = arr.shape
    if h2 >= h:
        top = (h2 - h) // 2
        arr = arr[top : top + h, :]
    if w2 >= w:
        left = (w2 - w) // 2
        arr = arr[:, left : left + w]
    h2, w2 = arr.shape
    if h2 < h or w2 < w:
        out = np.full((h, w), fill, dtype=arr.dtype)
        top = (h - h2) // 2
        left = (w - w2) // 2
        out[top : top + h2, left : left + w2] = arr
        arr = out
    return arr
