"""Independent output checks for the benchmark.

Each check recomputes a property of the program's output from first
principles (plain numpy, no switchlab code) and returns a list of failure
messages; an empty list means the output passed. The benchmark reports a
run as incorrect when any check returns a failure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# InfoNCE


def plain_infonce_rows(
    h: np.ndarray, keys: np.ndarray, tau: float, include_positive: bool, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row InfoNCE terms and the gradient columns of the given query rows.

    For query position i of sample b, with s_j = h_i . k_j / tau over the
    denominator set (every j, or every j != i), the row term is
    log-sum-exp(s) - s_i and its gradient is (sum_j softmax(s)_j k_j - k_i) /
    (B K tau). Computed in float64 with a max-shifted log-sum-exp.
    """
    h = np.asarray(h, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    b, _, k = h.shape
    terms = np.empty((b, rows.size))
    grad = np.empty((b, h.shape[1], rows.size))
    for s in range(b):
        q = h[s][:, rows].T                       # (R, E)
        sims = q @ keys[s] / tau                  # (R, K)
        pos = sims[np.arange(rows.size), rows].copy()
        if not include_positive:
            sims[np.arange(rows.size), rows] = -np.inf
        top = sims.max(axis=1, keepdims=True)
        w = np.exp(sims - top)
        total = w.sum(axis=1, keepdims=True)
        terms[s] = top[:, 0] + np.log(total[:, 0]) - pos
        mix = (w / total) @ keys[s].T             # (R, E)
        grad[s] = (mix - keys[s][:, rows].T).T / (b * k * tau)
    return terms, grad


def check_infonce(
    h: np.ndarray,
    keys: np.ndarray,
    tau: float,
    include_positive: bool,
    loss: float,
    grad: np.ndarray,
    rows: np.ndarray,
    rtol: float,
    chunk: int = 512,
) -> list[str]:
    """Compare the program's InfoNCE loss (all rows) and gradient (``rows``)."""
    b, _, k = np.shape(h)
    total = 0.0
    for start in range(0, k, chunk):
        terms, _ = plain_infonce_rows(h, keys, tau, include_positive, np.arange(start, min(k, start + chunk)))
        total += float(terms.sum())
    want_loss = total / (b * k)
    _, want_grad = plain_infonce_rows(h, keys, tau, include_positive, rows)
    got_grad = np.asarray(grad, dtype=np.float64)[:, :, rows]
    failures = []
    if not _close(float(loss), want_loss, rtol):
        failures.append(f"infonce loss {loss!r} != plain log-sum-exp {want_loss!r}")
    # measured against the size of one summand, max|k| / (B K tau): the
    # gradient is a difference of two such sums and can be far smaller
    scale = max(float(np.abs(keys).max()) / (b * k * tau), 1e-300)
    err = float(np.abs(got_grad - want_grad).max()) / scale
    if not err <= rtol:
        failures.append(f"infonce gradient off by {err:.3e} of its summand scale on {rows.size} checked rows")
    return failures


# ---------------------------------------------------------------------------
# frequency-domain switch


def low_freq_square(h: int, w: int, rho: float) -> np.ndarray:
    """Bins of an unshifted FFT whose offset from DC is at most floor(n rho)/2 per axis.

    The offset of bin i is measured in the DC-centred layout, where DC sits
    at floor(n/2) and the centre is taken as n/2.
    """
    def axis(n: int) -> np.ndarray:
        centred = np.abs(np.arange(n) - n / 2.0) <= np.floor(n * rho) / 2.0
        return np.fft.ifftshift(centred)

    return axis(h)[:, None] & axis(w)[None, :]


def check_fds(
    x: np.ndarray,
    u: np.ndarray,
    x_out: np.ndarray,
    u_out: np.ndarray,
    x_back: np.ndarray,
    u_back: np.ndarray,
    rho: float,
    tol: float = 1e-9,
) -> list[str]:
    """Phase kept, amplitudes outside the square kept, energy per bin kept, involution."""
    failures = []
    fx, fu = np.fft.fft2(x), np.fft.fft2(u)
    gx, gu = np.fft.fft2(x_out), np.fft.fft2(u_out)
    scale = max(float(np.abs(fx).max()), float(np.abs(fu).max()), 1e-300)
    outside = ~low_freq_square(x.shape[-2], x.shape[-1], rho)
    for name, f, g in (("x", fx, gx), ("u", fu, gu)):
        # same phase: g equals its own modulus times the input's unit phasor
        # (phase 0 where the input amplitude is exactly 0)
        mod = np.abs(f)
        unit = np.where(mod > 0, f / np.where(mod > 0, mod, 1.0), 1.0)
        err = float(np.abs(g - np.abs(g) * unit).max()) / scale
        if not err <= tol:
            failures.append(f"fds changed the phase of {name} (off by {err:.3e} of the spectrum scale)")
        err = float(np.abs(np.abs(g) - np.abs(f))[..., outside].max()) / scale
        if not err <= tol:
            failures.append(f"fds changed amplitudes of {name} outside the low-frequency square ({err:.3e})")
    energy_in = np.abs(fx) ** 2 + np.abs(fu) ** 2
    energy_out = np.abs(gx) ** 2 + np.abs(gu) ** 2
    err = float(np.abs(energy_out - energy_in).max()) / scale**2
    if not err <= tol:
        failures.append(f"fds does not conserve |A_x|^2+|A_u|^2 per bin ({err:.3e})")
    err = max(float(np.abs(x_back - x).max()), float(np.abs(u_back - u).max()))
    if not err <= tol * max(1.0, float(np.abs(x).max()), float(np.abs(u).max())):
        failures.append(f"fds applied twice does not give back its inputs (max error {err:.3e})")
    return failures


# ---------------------------------------------------------------------------
# pseudo-labels


def components4(mask: np.ndarray) -> list[int]:
    """Sizes of the 4-connected foreground components, by breadth-first search."""
    fg = np.asarray(mask) != 0
    h, w = fg.shape
    seen = np.zeros_like(fg)
    sizes = []
    for i0, j0 in zip(*np.nonzero(fg)):
        if seen[i0, j0]:
            continue
        seen[i0, j0] = True
        queue = deque([(i0, j0)])
        size = 0
        while queue:
            i, j = queue.popleft()
            size += 1
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < h and 0 <= b < w and fg[a, b] and not seen[a, b]:
                    seen[a, b] = True
                    queue.append((a, b))
        sizes.append(size)
    return sizes


def check_pseudo_labels(raw: np.ndarray, pseudo: np.ndarray) -> list[str]:
    """Each pseudo-label is one 4-connected component of its raw argmax, the largest one."""
    failures = []
    for idx, (r, p) in enumerate(zip(raw, pseudo)):
        r, p = np.asarray(r) != 0, np.asarray(p) != 0
        parts = components4(p)
        if len(parts) > 1:
            failures.append(f"pseudo-label {idx} has {len(parts)} 4-connected components")
        if np.any(p & ~r):
            failures.append(f"pseudo-label {idx} marks pixels outside the raw argmax")
        raw_parts = components4(r)
        if sum(parts) != (max(raw_parts) if raw_parts else 0):
            failures.append(f"pseudo-label {idx} is not the largest component of the raw argmax")
    return failures


# ---------------------------------------------------------------------------
# metrics


def check_iou_dice(dice: list, iou: list, tol: float) -> list[str]:
    """Per image, IoU = Dice / (2 - Dice), both in percent; ``tol`` in percent points."""
    failures = []
    for idx, (d, j) in enumerate(zip(dice, iou)):
        want = 100.0 * d / (200.0 - d)
        if not abs(j - want) <= tol:
            failures.append(f"image {idx}: iou {j!r} != dice/(2-dice) = {want!r}")
    return failures


def brute_force_surface(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """HD95 and ASD from all pairs of 4-boundary pixels (off-image counts as background)."""

    def boundary(m: np.ndarray) -> np.ndarray:
        m = np.asarray(m) != 0
        h, w = m.shape
        pts = []
        for i, j in zip(*np.nonzero(m)):
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if not (0 <= a < h and 0 <= b < w) or not m[a, b]:
                    pts.append((i, j))
                    break
        return np.array(pts, dtype=np.float64)

    p, g = boundary(pred), boundary(gt)
    dist = np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(axis=2))
    pooled = np.concatenate([dist.min(axis=1), dist.min(axis=0)])
    return float(np.percentile(pooled, 95, method="linear")), float(pooled.mean())


def check_surface(pairs: list, hd95: list, asd: list, tol: float = 1e-9) -> list[str]:
    failures = []
    for idx, ((pred, gt), got_hd, got_asd) in enumerate(zip(pairs, hd95, asd)):
        want_hd, want_asd = brute_force_surface(pred, gt)
        if not (_close(got_hd, want_hd, tol) and _close(got_asd, want_asd, tol)):
            failures.append(
                f"pair {idx}: hd95/asd {got_hd!r}/{got_asd!r} != brute force {want_hd!r}/{want_asd!r}"
            )
    return failures


def mask_pairs(size: int, count: int, rng: np.random.Generator) -> list:
    """Non-empty (pred, gt) ellipse pairs; every other pred gets a detached blob."""
    yy, xx = np.mgrid[0:size, 0:size]
    pairs = []
    for k in range(count):
        cy, cx = rng.uniform(0.3, 0.7, size=2) * size
        ry, rx = rng.uniform(0.08, 0.2, size=2) * size
        gt = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        dy, dx = rng.uniform(-0.05, 0.05, size=2) * size
        pred = ((yy - cy - dy) / (ry * 1.1)) ** 2 + ((xx - cx - dx) / (rx * 0.9)) ** 2 <= 1.0
        if k % 2:
            pred |= (yy - 0.1 * size) ** 2 + (xx - 0.1 * size) ** 2 <= (0.04 * size) ** 2
        pairs.append((pred.astype(np.uint8), gt.astype(np.uint8)))
    return pairs


def blob_masks(size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Masks with several 4-connected components of different sizes."""
    out = np.zeros((count, size, size), dtype=np.uint8)
    yy, xx = np.mgrid[0:size, 0:size]
    for k in range(count):
        for _ in range(int(rng.integers(2, 6))):
            cy, cx = rng.uniform(0, size, size=2)
            r = rng.uniform(0.02, 0.12) * size
            out[k][(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1
    return out


# ---------------------------------------------------------------------------
# training


def check_gradient(
    loss_at: Callable[[np.ndarray], float],
    theta: np.ndarray,
    grad: np.ndarray,
    eps: float,
    rtol: float,
) -> tuple[list[str], float]:
    """Central difference along the unit gradient direction against |grad|."""
    norm = float(np.linalg.norm(grad))
    if not np.isfinite(norm) or norm == 0.0:
        return [f"gradient norm is {norm!r}"], float("nan")
    d = grad / norm
    fd = (loss_at(theta + eps * d) - loss_at(theta - eps * d)) / (2.0 * eps)
    rel = abs(fd - norm) / norm
    if not rel <= rtol:
        return [f"directional derivative {fd!r} vs analytic {norm!r} (rel {rel:.3e} > {rtol})"], rel
    return [], rel


def check_finite(named_values: dict) -> list[str]:
    return [f"{name} is not finite: {v!r}" for name, v in named_values.items() if not np.isfinite(v)]


def check_sealed(access_count: int) -> list[str]:
    if access_count:
        return [f"sealed unlabeled ground truth was read {access_count} times during training"]
    return []
