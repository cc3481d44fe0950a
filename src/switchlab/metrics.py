"""Segmentation evaluation: Dice, IoU, HD95, and average surface distance.

Boundary pixels are foreground pixels 4-adjacent to background or to the
image edge. Directed nearest-boundary distances from both directions are
pooled together; HD95 is their 95th percentile (linear interpolation
between order statistics) and ASD their mean. Distances are exact Euclidean
pixel distances on the raster grid.

Images where either mask is empty have undefined surface distances; they
are recorded as NaN and excluded from the aggregate means, with the
exclusion count reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage


def dice_coef(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice overlap in percent; two empty masks count as a perfect 100."""
    p, g = _binary_pair(pred, gt)
    inter = np.logical_and(p, g).sum()
    total = p.sum() + g.sum()
    if total == 0:
        return 100.0
    return 100.0 * 2.0 * inter / total


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Jaccard index in percent; two empty masks count as 100."""
    p, g = _binary_pair(pred, gt)
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 100.0
    return 100.0 * np.logical_and(p, g).sum() / union


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels 4-adjacent to background, counting off-image as background."""
    m = np.asarray(mask) != 0
    padded = np.pad(m, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return m & ~interior


def _surface_distances(p: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """(HD95, ASD) of two nonempty boolean masks from one pooled distance set."""
    pb = boundary_pixels(p)
    gb = boundary_pixels(g)
    if not pb.any() or not gb.any():
        raise ValueError("surface distances require two nonempty masks")
    # distance_transform_edt gives each pixel's exact distance to the nearest zero
    dist_to_g = ndimage.distance_transform_edt(~gb)
    dist_to_p = ndimage.distance_transform_edt(~pb)
    pooled = np.concatenate([dist_to_g[pb], dist_to_p[gb]])
    return float(np.percentile(pooled, 95, method="linear")), float(np.mean(pooled))


def hd95(pred: np.ndarray, gt: np.ndarray) -> float:
    """95th percentile of pooled directed boundary distances, both directions."""
    return _surface_distances(*_binary_pair(pred, gt))[0]


def asd(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean of pooled directed boundary distances, both directions."""
    return _surface_distances(*_binary_pair(pred, gt))[1]


def _binary_pair(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    return p != 0, g != 0


@dataclass
class MetricReport:
    """Per-image metric rows plus aggregate means.

    ``hd95`` / ``asd`` entries are NaN for images where either mask was
    empty; ``surface_excluded`` counts them and the aggregates skip them.
    """

    image_ids: list = field(default_factory=list)
    dice: list = field(default_factory=list)
    iou: list = field(default_factory=list)
    hd95: list = field(default_factory=list)
    asd: list = field(default_factory=list)

    def add(self, image_id, pred: np.ndarray, gt: np.ndarray) -> None:
        self.image_ids.append(image_id)
        self.dice.append(dice_coef(pred, gt))
        self.iou.append(iou(pred, gt))
        p, g = _binary_pair(pred, gt)
        hd, sd = _surface_distances(p, g) if p.any() and g.any() else (float("nan"), float("nan"))
        self.hd95.append(hd)
        self.asd.append(sd)

    @property
    def surface_excluded(self) -> int:
        return int(np.count_nonzero(np.isnan(self.hd95)))

    def aggregate(self) -> dict:
        defined = [v for v in self.hd95 if not np.isnan(v)]
        defined_asd = [v for v in self.asd if not np.isnan(v)]
        return {
            "count": len(self.image_ids),
            "dice_mean": float(np.mean(self.dice)) if self.dice else float("nan"),
            "iou_mean": float(np.mean(self.iou)) if self.iou else float("nan"),
            "hd95_mean": float(np.mean(defined)) if defined else None,
            "asd_mean": float(np.mean(defined_asd)) if defined_asd else None,
            "surface_excluded": self.surface_excluded,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("image_id,dice,iou,hd95,asd\n")
            for i, image_id in enumerate(self.image_ids):
                fh.write(
                    f"{image_id},{self.dice[i]:.6f},{self.iou[i]:.6f},"
                    f"{self.hd95[i]:.6f},{self.asd[i]:.6f}\n"
                )
