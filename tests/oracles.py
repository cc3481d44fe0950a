"""Independent brute-force reference implementations used by the tests.

These deliberately avoid the library's own code paths (and its scipy
shortcuts): direct O(N^2) DFT sums, flood fill, union-find labeling,
all-pairs boundary distances, and nested-loop losses.
"""

from __future__ import annotations

import math

import numpy as np


def direct_dft2(img: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT by explicit double sum (no FFT)."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            acc = 0.0 + 0.0j
            for y in range(h):
                for x in range(w):
                    acc += img[y, x] * np.exp(-2j * np.pi * (u * y / h + v * x / w))
            out[u, v] = acc
    return out


def direct_idft2(spec: np.ndarray) -> np.ndarray:
    """Inverse 2-D DFT by explicit double sum, with the 1/(HW) factor."""
    h, w = spec.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for y in range(h):
        for x in range(w):
            acc = 0.0 + 0.0j
            for u in range(h):
                for v in range(w):
                    acc += spec[u, v] * np.exp(2j * np.pi * (u * y / h + v * x / w))
            out[y, x] = acc
    return out / (h * w)


def centered_shift(spec: np.ndarray) -> np.ndarray:
    """Move the DC bin to (H//2, W//2) by index rolling (fftshift equivalent)."""
    h, w = spec.shape
    return np.roll(np.roll(spec, h // 2, axis=0), w // 2, axis=1)


def flood_fill_components(mask: np.ndarray) -> list[set]:
    """4-connected foreground components via BFS flood fill."""
    mask = np.asarray(mask) != 0
    h, w = mask.shape
    seen = np.zeros_like(mask)
    components = []
    for i in range(h):
        for j in range(w):
            if mask[i, j] and not seen[i, j]:
                comp = set()
                stack = [(i, j)]
                seen[i, j] = True
                while stack:
                    y, x = stack.pop()
                    comp.add((y, x))
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
                components.append(comp)
    return components


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_lcc(mask: np.ndarray) -> np.ndarray:
    """Largest 4-connected component via union-find; ties to the earliest
    top-left pixel in row-major order. Independent of any scipy machinery."""
    mask = np.asarray(mask) != 0
    h, w = mask.shape
    uf = UnionFind(h * w)
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            if i + 1 < h and mask[i + 1, j]:
                uf.union(i * w + j, (i + 1) * w + j)
            if j + 1 < w and mask[i, j + 1]:
                uf.union(i * w + j, i * w + j + 1)
    roots: dict[int, list[int]] = {}
    for i in range(h):
        for j in range(w):
            if mask[i, j]:
                roots.setdefault(uf.find(i * w + j), []).append(i * w + j)
    out = np.zeros((h, w), dtype=np.uint8)
    if not roots:
        return out
    best = max(roots.values(), key=lambda px: (len(px), -min(px)))
    for p in best:
        out[p // w, p % w] = 1
    return out


def boundary_pixels_ref(mask: np.ndarray) -> list[tuple[int, int]]:
    mask = np.asarray(mask) != 0
    h, w = mask.shape
    out = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            edge = i == 0 or j == 0 or i == h - 1 or j == w - 1
            if edge or not (mask[i - 1, j] and mask[i + 1, j] and mask[i, j - 1] and mask[i, j + 1]):
                out.append((i, j))
    return out


def pooled_distances_ref(pred: np.ndarray, gt: np.ndarray) -> list[float]:
    """All directed nearest boundary-to-boundary distances, both directions."""
    pb = boundary_pixels_ref(pred)
    gb = boundary_pixels_ref(gt)
    assert pb and gb, "reference distances need nonempty boundaries"
    dists = []
    for a, bs in ((pb, gb), (gb, pb)):
        for (i, j) in a:
            dists.append(min(math.hypot(i - y, j - x) for (y, x) in bs))
    return dists


def percentile_linear(values, q: float) -> float:
    """Linear-interpolation percentile between order statistics."""
    vals = sorted(values)
    if len(vals) == 1:
        return float(vals[0])
    pos = (len(vals) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(vals) - 1)
    frac = pos - lo
    return float(vals[lo] * (1 - frac) + vals[hi] * frac)


def infonce_loops(h: np.ndarray, h_r: np.ndarray, tau: float, include_positive: bool = False) -> float:
    """Nested-loop InfoNCE with the positive excluded from the denominator."""
    b, dim, k = h.shape
    total = 0.0
    for bi in range(b):
        for i in range(k):
            pos = sum(h[bi, e, i] * h_r[bi, e, i] for e in range(dim)) / tau
            den = 0.0
            for j in range(k):
                if j == i and not include_positive:
                    continue
                s = sum(h[bi, e, i] * h_r[bi, e, j] for e in range(dim)) / tau
                den += math.exp(s)
            total += -(pos - math.log(den))
    return total / (b * k)


def conv3_edge_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-size 3x3 convolution by direct sums, borders edge-replicated.

    ``x`` is a channels-last (N, H, W, C) batch, ``w`` is (F, C, 3, 3) and
    ``b`` is (F,). An edge-replicated border is a clamped index, so no padded
    copy is made. Returns float64 (N, H, W, F).
    """
    n, h, wd, c = x.shape
    f = w.shape[0]
    out = np.zeros((n, h, wd, f))
    for k in range(n):
        for i in range(h):
            for j in range(wd):
                for o in range(f):
                    acc = float(b[o])
                    for di in range(3):
                        y = min(max(i + di - 1, 0), h - 1)
                        for dj in range(3):
                            xx = min(max(j + dj - 1, 0), wd - 1)
                            for ci in range(c):
                                acc += float(x[k, y, xx, ci]) * float(w[o, ci, di, dj])
                    out[k, i, j, o] = acc
    return out


def conv3_backward_edge_loops(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """Gradients of ``conv3_edge_loops`` by direct sums, as float64 (dx, dw, db).

    ``dout`` is the (N, H, W, F) gradient at the output. Each output pixel
    sends its gradient back along its nine clamped taps: to the input pixel
    a tap reads (dx) and to the weight that reads it (dw).
    """
    n, h, wd, c = x.shape
    f = w.shape[0]
    dx = np.zeros((n, h, wd, c))
    dw = np.zeros((f, c, 3, 3))
    db = np.zeros(f)
    for k in range(n):
        for i in range(h):
            for j in range(wd):
                for o in range(f):
                    g = float(dout[k, i, j, o])
                    db[o] += g
                    for di in range(3):
                        y = min(max(i + di - 1, 0), h - 1)
                        for dj in range(3):
                            xx = min(max(j + dj - 1, 0), wd - 1)
                            for ci in range(c):
                                dw[o, ci, di, dj] += g * float(x[k, y, xx, ci])
                                dx[k, y, xx, ci] += g * float(w[o, ci, di, dj])
    return dx, dw, db
