"""Synthetic ultrasound-like dataset: speckled images with elliptical ROIs.

Each sample is a dark-ish background carrying one hypoechoic (darker)
ellipse with a blurred low-contrast boundary, multiplicative speckle
texture, and an optional vertical shadow band. The ground-truth mask is the
exact ellipse support, so every mask has exactly one connected foreground
component and a known area.

Dataset content is a pure function of (config, seed): every item derives
its own generator from the master seed, so generation order (or
parallelism) cannot change the data.

Ground truth of items designated "unlabeled" is retained only behind
:meth:`DatasetSplit.sealed_mask`, which counts accesses; training code must
never call it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from . import pgm
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class SynthConfig:
    height: int = 256
    width: int = 256
    count: int = 500
    roi_fraction: tuple[float, float] = (0.05, 0.2)  # foreground area fraction range
    speckle: float = 0.5        # multiplicative noise strength
    shadow_prob: float = 0.3
    contrast: float = 0.3       # guaranteed background-vs-ROI mean separation
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("count must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.height < 16 or self.width < 16:
            raise ConfigError("images must be at least 16x16")
        lo, hi = self.roi_fraction
        if not 0.0 < lo <= hi < 0.9:
            raise ConfigError(f"roi_fraction must satisfy 0 < lo <= hi < 0.9, got {self.roi_fraction}")
        if not 0.0 <= self.speckle <= 1.0 or not 0.0 <= self.shadow_prob <= 1.0:
            raise ConfigError("speckle and shadow_prob must lie in [0, 1]")
        if not 0.0 < self.contrast < 0.4:
            raise ConfigError("contrast must be in (0, 0.4)")
        # largest deformed ellipse (max area, thinnest aspect, max wobble)
        # must fit with margin
        max_r1 = math.sqrt(hi * self.height * self.width / (math.pi * _MIN_ASPECT))
        if max_r1 * (1.0 + _DEFORM_TOTAL) + 2 > (min(self.height, self.width) - 2) / 2:
            raise ConfigError("roi_fraction upper bound too large for the image size")


_MIN_ASPECT = 0.45
_MAX_ASPECT = 0.95
_DEFORM_TOTAL = 0.18  # max combined radial deformation amplitude


def generate_sample(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One (image, mask) pair; image float64 in [0, 1], mask uint8 {0, 1}."""
    h, w = cfg.height, cfg.width
    area = rng.uniform(*cfg.roi_fraction) * h * w
    # separation margin soaks up boundary blur, speckle, and shadow
    # attenuation so the realized ROI/background mean gap stays above
    # cfg.contrast; the speckle term grows for small ROIs whose mean sees
    # fewer independent grain cells
    margin = rng.uniform(0.25, 0.33) + cfg.speckle * min(0.2, 0.08 + 1.6 / math.sqrt(area))
    background = rng.uniform(min(0.8, cfg.contrast + margin + 0.05), 0.88)
    roi_level = background - cfg.contrast - margin

    aspect = rng.uniform(_MIN_ASPECT, _MAX_ASPECT)
    r1 = math.sqrt(area / (math.pi * aspect))
    r2 = aspect * r1
    theta = rng.uniform(0.0, math.pi)
    reach = r1 * (1.0 + _DEFORM_TOTAL) + 2
    cy = rng.uniform(reach, h - reach - 1)
    cx = rng.uniform(reach, w - reach - 1)

    yy, xx = np.mgrid[0:h, 0:w]
    dy = yy - cy
    dx = xx - cx
    major = (dy * math.sin(theta) + dx * math.cos(theta)) / r1
    minor = (dy * math.cos(theta) - dx * math.sin(theta)) / r2
    # low-order radial deformation keeps the support star-shaped (hence
    # 4-connected) while varying the outline beyond plain ellipses
    phi = np.arctan2(minor, major)
    wobble = np.ones_like(phi)
    for order in (2, 3, 4):
        amp = rng.uniform(0.0, _DEFORM_TOTAL / 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        wobble += amp * np.cos(order * phi + phase)
    mask = major**2 + minor**2 <= wobble**2

    img = np.full((h, w), background)
    img[mask] = roi_level

    # boundary softness is limited by the minor axis so small ROIs are not
    # blurred away
    blur_hi = max(0.85, min(1.5, 0.25 * r2))
    img = ndimage.gaussian_filter(img, sigma=rng.uniform(0.8, blur_hi), mode="reflect")

    if cfg.speckle > 0:
        # per-image grain scale and strength: appearance diversity is what
        # makes small labeled subsets undersample the family
        grain_sigma = rng.uniform(0.7, 1.8)
        strength = rng.uniform(0.4, 1.0) * cfg.speckle
        grain = ndimage.gaussian_filter(rng.standard_normal((h, w)), sigma=grain_sigma, mode="reflect")
        grain /= grain.std()
        img = img * np.maximum(1.0 + strength * grain, 0.05)

    if rng.uniform() < cfg.shadow_prob:
        center = rng.uniform(0, w)
        sigma = rng.uniform(0.12, 0.25) * w
        depth = rng.uniform(0.15, 0.3)
        profile = 1.0 - depth * np.exp(-((np.arange(w) - center) ** 2) / (2 * sigma**2))
        img = img * profile[None, :]

    # depth-gain ramp: mild acquisition-style intensity trend down the rows
    gain = rng.uniform(-0.3, 0.3)
    img = img * (1.0 + gain * (np.arange(h)[:, None] / max(1, h - 1) - 0.5))

    return np.clip(img, 0.0, 1.0), mask.astype(np.uint8)


@dataclass
class Item:
    id: str
    image: np.ndarray
    mask: Optional[np.ndarray] = None


class DatasetSplit:
    """Labeled/unlabeled/val/test partitions with sealed unlabeled ground truth."""

    def __init__(self, labeled, unlabeled, val, test, sealed_masks):
        self.labeled: list[Item] = labeled
        self.unlabeled: list[Item] = unlabeled
        self.val: list[Item] = val
        self.test: list[Item] = test
        self._sealed: dict[str, np.ndarray] = dict(sealed_masks)
        self.sealed_access_count = 0

    def sealed_mask(self, item_id: str) -> np.ndarray:
        """Ground truth of an unlabeled training item. Evaluation/audit only."""
        self.sealed_access_count += 1
        return self._sealed[item_id]

    def id_sets(self) -> dict[str, set]:
        return {
            "labeled": {it.id for it in self.labeled},
            "unlabeled": {it.id for it in self.unlabeled},
            "val": {it.id for it in self.val},
            "test": {it.id for it in self.test},
        }


def make_dataset(
    cfg: SynthConfig,
    labeled_ratio: float,
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int | None = None,
) -> DatasetSplit:
    """Generate and partition a dataset deterministically.

    Validation/test counts are floors of their ratios; the remainder trains.
    The labeled subset is a uniform sample (floor rounding) of the training
    portion.
    """
    if seed is None:
        seed = cfg.seed
    if not 0.0 < labeled_ratio <= 1.0:
        raise ConfigError(f"labeled_ratio must be in (0, 1], got {labeled_ratio}")
    if len(split_ratios) != 3 or any(r < 0 for r in split_ratios):
        raise ConfigError(f"split_ratios must be three non-negative values, got {split_ratios}")
    if abs(sum(split_ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split_ratios must sum to 1, got {split_ratios}")

    n_val = int(np.floor(cfg.count * split_ratios[1]))
    n_test = int(np.floor(cfg.count * split_ratios[2]))
    n_train = cfg.count - n_val - n_test
    if n_train < 1:
        raise ConfigError("split leaves no training items")

    items = []
    for i in range(cfg.count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, i)))
        image, mask = generate_sample(cfg, rng)
        items.append(Item(id=f"{i:05d}", image=image, mask=mask))

    train = items[:n_train]
    val = items[n_train : n_train + n_val]
    test = items[n_train + n_val :]

    n_labeled = int(np.floor(labeled_ratio * n_train))
    if n_labeled < 1:
        raise DataError(
            f"labeled_ratio {labeled_ratio} over {n_train} training items yields 0 labeled "
            "items; the minimum is 1"
        )
    rng_split = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    labeled_idx = set(map(int, rng_split.choice(n_train, size=n_labeled, replace=False)))
    return _partition(train, [idx in labeled_idx for idx in range(n_train)], val, test)


def _partition(train: list, is_labeled: list, val: list, test: list) -> DatasetSplit:
    """Labeled training items keep their masks; unlabeled ones lose them to the sealed store."""
    labeled, unlabeled, sealed = [], [], {}
    for item, flag in zip(train, is_labeled):
        if flag:
            labeled.append(item)
        else:
            unlabeled.append(Item(id=item.id, image=item.image, mask=None))
            sealed[item.id] = item.mask
    return DatasetSplit(labeled, unlabeled, val, test, sealed)


# ---------------------------------------------------------------------------
# on-disk layout: data/{train,val,test}/img_%05d.pgm + msk_%05d.pgm + manifest


def save_dataset(split: DatasetSplit, root) -> None:
    labeled_ids = {it.id for it in split.labeled}
    parts = {
        "train": split.labeled + [Item(it.id, it.image, split._sealed[it.id]) for it in split.unlabeled],
        "val": split.val,
        "test": split.test,
    }
    manifest = {"train": [], "val": [], "test": []}
    for part, items in parts.items():
        d = os.path.join(root, part)
        os.makedirs(d, exist_ok=True)
        for item in sorted(items, key=lambda it: it.id):
            pgm.write_pgm(os.path.join(d, f"img_{item.id}.pgm"), item.image)
            pgm.write_mask_pgm(os.path.join(d, f"msk_{item.id}.pgm"), item.mask)
            entry = {"id": item.id}
            if part == "train":
                entry["labeled"] = item.id in labeled_ids
            manifest[part].append(entry)
    with open(os.path.join(root, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def load_dataset(root) -> DatasetSplit:
    path = os.path.join(root, "manifest.json")
    try:
        with open(path, encoding="ascii") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read dataset manifest {path}: {exc}") from exc

    def entries(part: str) -> list:
        listed = manifest.get(part, []) if isinstance(manifest, dict) else None
        if not isinstance(listed, list) or not all(isinstance(e, dict) and "id" in e for e in listed):
            raise DataError(f"dataset manifest {path}: '{part}' is not a list of entries with an 'id'")
        return listed

    def load_item(part: str, item_id: str) -> Item:
        img_path = os.path.join(root, part, f"img_{item_id}.pgm")
        msk_path = os.path.join(root, part, f"msk_{item_id}.pgm")
        if not os.path.exists(img_path) or not os.path.exists(msk_path):
            raise DataError(f"dataset item {part}/{item_id} is missing files")
        return Item(id=item_id, image=pgm.read_pgm(img_path), mask=pgm.read_mask_pgm(msk_path))

    parts = {part: entries(part) for part in ("train", "val", "test")}
    labeled = [e.get("labeled", False) for e in parts["train"]]
    if not all(isinstance(flag, bool) for flag in labeled):
        raise DataError(f"dataset manifest {path}: a train entry's 'labeled' is neither true nor false")
    items = {part: [load_item(part, e["id"]) for e in listed] for part, listed in parts.items()}
    return _partition(items["train"], labeled, items["val"], items["test"])
