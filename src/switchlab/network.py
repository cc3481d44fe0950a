"""Small encoder-decoder segmentation network with analytic gradients.

The network is a desk-scale U-Net-style model written directly in numpy:
per stage two 3x3 same-size convolutions (edge-replicate padding, so a
constant raster stays constant) with ReLU, 2x2 mean pooling between encoder
stages, nearest-neighbor upsampling with skip concatenation in the decoder,
and a 1x1 convolution head producing 2-class logits. A projection head
(conv, 2x2 max pool, conv, 2x2 max pool, 1x1 conv) maps the decoder's last
pre-logit feature map to a (dim, H/4, W/4) embedding grid for contrastive
training. Mean pooling in the encoder keeps the trunk smooth, which the
finite-difference gradient checks rely on; the projector's max pooling
follows the published head design.

All parameters live in one flat float64 vector with a named layout, which
makes EMA blending, SGD with momentum, finite-difference gradient checks,
and binary checkpointing straightforward. Forward passes are deterministic;
backward passes accumulate into a gradient vector aligned with the layout.

Public tensors are channels-first; internally activations are kept
channels-last so the im2col buffers feed the matmuls without transposes.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .grid import NUM_CLASSES

CHECKPOINT_MAGIC = b"SWCH"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetConfig:
    height: int = 256
    width: int = 256
    widths: tuple[int, ...] = (8, 16, 32)
    embed_dim: int = 16
    compute_dtype: str = "float64"  # forward/backward arithmetic; parameters stay float64

    def validate(self) -> None:
        if len(self.widths) < 2:
            raise ValueError("need at least two stages")
        if any(c < 1 for c in self.widths):
            raise ValueError("channel widths must be positive")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(f"compute_dtype must be float64 or float32, got {self.compute_dtype}")
        div = max(2 ** len(self.widths), 4)
        if self.height % div or self.width % div:
            raise ValueError(f"input size {self.height}x{self.width} must be divisible by {div}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.compute_dtype)


def build_layout(cfg: NetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs defining the flat parameter vector."""
    cfg.validate()
    ws = cfg.widths
    stages = len(ws)
    layout: list[tuple[str, tuple[int, ...]]] = []
    c_in = 1
    for s in range(stages):
        layout.append((f"enc{s}.conv1.w", (ws[s], c_in, 3, 3)))
        layout.append((f"enc{s}.conv1.b", (ws[s],)))
        layout.append((f"enc{s}.conv2.w", (ws[s], ws[s], 3, 3)))
        layout.append((f"enc{s}.conv2.b", (ws[s],)))
        c_in = ws[s]
    for s in reversed(range(stages - 1)):
        layout.append((f"dec{s}.conv1.w", (ws[s], ws[s + 1] + ws[s], 3, 3)))
        layout.append((f"dec{s}.conv1.b", (ws[s],)))
        layout.append((f"dec{s}.conv2.w", (ws[s], ws[s], 3, 3)))
        layout.append((f"dec{s}.conv2.b", (ws[s],)))
    layout.append(("head.w", (NUM_CLASSES, ws[0])))
    layout.append(("head.b", (NUM_CLASSES,)))
    layout.append(("proj.conv1.w", (cfg.embed_dim, ws[0], 3, 3)))
    layout.append(("proj.conv1.b", (cfg.embed_dim,)))
    layout.append(("proj.conv2.w", (cfg.embed_dim, cfg.embed_dim, 3, 3)))
    layout.append(("proj.conv2.b", (cfg.embed_dim,)))
    layout.append(("proj.out.w", (cfg.embed_dim, cfg.embed_dim)))
    layout.append(("proj.out.b", (cfg.embed_dim,)))
    return layout


def layout_hash(layout) -> int:
    text = ";".join(f"{name}:{','.join(map(str, shape))}" for name, shape in layout)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


class SegNetParams:
    """Flat float64 parameter vector with named views.

    Views share the vector's memory, so in-place updates (SGD, EMA) keep
    them valid. Teacher and student instances of the same config share an
    identical layout.
    """

    def __init__(self, cfg: NetConfig, vector: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        self.layout = build_layout(cfg)
        self.size = sum(int(np.prod(shape)) for _, shape in self.layout)
        if vector is None:
            vector = np.zeros(self.size, dtype=np.float64)
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        if vector.shape != (self.size,):
            raise ValueError(f"vector shape {vector.shape} does not match layout size {self.size}")
        self.vector = vector
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.layout:
            size = int(np.prod(shape))
            self._views[name] = self.vector[offset : offset + size].reshape(shape)
            offset += size

    def view(self, name: str) -> np.ndarray:
        return self._views[name]

    def copy(self) -> "SegNetParams":
        return SegNetParams(self.cfg, self.vector.copy())

    def layout_hash(self) -> int:
        return layout_hash(self.layout)


def init_params(cfg: NetConfig, rng: np.random.Generator) -> SegNetParams:
    """He fan-in initialization for weights, small random biases.

    Biases are drawn from N(0, 0.01) rather than set to zero: with zero
    biases a dead (all-zero) receptive field puts the pre-activation exactly
    on the ReLU kink, where gradients are not finite-difference-checkable.
    """
    params = SegNetParams(cfg)
    for name, shape in params.layout:
        if name.endswith(".w"):
            fan_in = int(np.prod(shape[1:]))
            params.view(name)[...] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
        else:
            params.view(name)[...] = rng.normal(0.0, 0.01, size=shape)
    return params


class ForwardOutput(NamedTuple):
    logits: np.ndarray    # (N, 2, H, W)
    features: np.ndarray  # (N, widths[0], H, W), the projector input


# ---------------------------------------------------------------------------
# primitive layers (channels-last activations)
#
# 3x3 convolutions run as nine GEMM-accumulates over shifted views of the
# padded input: cheaper in memory traffic than a materialized im2col matrix,
# and the padded input doubles as the backward cache.


def _pad_edge(x: np.ndarray) -> np.ndarray:
    n, h, wd, c = x.shape
    xp = np.empty((n, h + 2, wd + 2, c), dtype=x.dtype)
    xp[:, 1:-1, 1:-1, :] = x
    xp[:, 0, 1:-1, :] = x[:, 0, :, :]
    xp[:, -1, 1:-1, :] = x[:, -1, :, :]
    xp[:, :, 0, :] = xp[:, :, 1, :]
    xp[:, :, -1, :] = xp[:, :, -2, :]
    return xp


def _conv3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, h, wd, c = x.shape
    f = w.shape[0]
    dtype = x.dtype
    xp = _pad_edge(x)
    wk = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=dtype)  # (3, 3, C, F)
    out = np.empty((n * h * wd, f), dtype=dtype)
    out[:] = b.astype(dtype)
    buf = np.empty((n, h, wd, c), dtype=dtype)
    tmp = np.empty((n * h * wd, f), dtype=dtype)
    bufm = buf.reshape(n * h * wd, c)
    for di in range(3):
        for dj in range(3):
            np.copyto(buf, xp[:, di : di + h, dj : dj + wd, :])
            np.matmul(bufm, wk[di, dj], out=tmp)
            out += tmp
    return out.reshape(n, h, wd, f), xp


def _conv3_backward(xp, w, dout):
    n, hp, wp, c = xp.shape
    h, wd = hp - 2, wp - 2
    f = w.shape[0]
    dtype = xp.dtype
    dmat = np.ascontiguousarray(dout.reshape(n * h * wd, f))
    wk = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=dtype)
    dwk = np.empty((3, 3, c, f), dtype=dtype)
    dxp = np.zeros_like(xp)
    buf = np.empty((n, h, wd, c), dtype=dtype)
    bufm = buf.reshape(n * h * wd, c)
    for di in range(3):
        for dj in range(3):
            np.copyto(buf, xp[:, di : di + h, dj : dj + wd, :])
            np.matmul(bufm.T, dmat, out=dwk[di, dj])
            # the window is spent once dwk has it; reuse its buffer for dx
            np.matmul(dmat, wk[di, dj].T, out=bufm)
            dxp[:, di : di + h, dj : dj + wd, :] += buf
    dw = dwk.transpose(3, 2, 0, 1)
    db = dmat.sum(axis=0)
    # fold the edge-replicated borders back (reverse of _pad_edge)
    dxp[:, :, 1, :] += dxp[:, :, 0, :]
    dxp[:, :, -2, :] += dxp[:, :, -1, :]
    dxp[:, 1, 1:-1, :] += dxp[:, 0, 1:-1, :]
    dxp[:, -2, 1:-1, :] += dxp[:, -1, 1:-1, :]
    return dxp[:, 1:-1, 1:-1, :], dw, db


def _conv1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, h, wd, c = x.shape
    wt = w.T.astype(x.dtype, copy=False)
    out = x.reshape(n * h * wd, c) @ wt + b.astype(x.dtype, copy=False)
    return out.reshape(n, h, wd, w.shape[0])


def _conv1_backward(x, w, dout):
    n, h, wd, c = x.shape
    f = w.shape[0]
    dmat = np.ascontiguousarray(dout.reshape(n * h * wd, f))
    xmat = x.reshape(n * h * wd, c)
    dw = dmat.T @ xmat
    db = dmat.sum(axis=0)
    dx = (dmat @ w.astype(x.dtype, copy=False)).reshape(n, h, wd, c)
    return dx, dw, db


def _avgpool2(x: np.ndarray) -> np.ndarray:
    return 0.25 * (
        x[:, 0::2, 0::2, :] + x[:, 0::2, 1::2, :] + x[:, 1::2, 0::2, :] + x[:, 1::2, 1::2, :]
    )


def _avgpool2_backward(dout: np.ndarray) -> np.ndarray:
    n, hh, ww, c = dout.shape
    dx = np.empty((n, hh * 2, ww * 2, c), dtype=dout.dtype)
    q = 0.25 * dout
    dx[:, 0::2, 0::2, :] = q
    dx[:, 0::2, 1::2, :] = q
    dx[:, 1::2, 0::2, :] = q
    dx[:, 1::2, 1::2, :] = q
    return dx


def _maxpool2(x: np.ndarray):
    # windows enumerated row-major: (0,0), (0,1), (1,0), (1,1); ties keep the first
    a = x[:, 0::2, 0::2, :]
    b = x[:, 0::2, 1::2, :]
    c = x[:, 1::2, 0::2, :]
    d = x[:, 1::2, 1::2, :]
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    idx = np.where(out == a, 0, np.where(out == b, 1, np.where(out == c, 2, 3))).astype(np.uint8)
    return out, idx


def _maxpool2_backward(dout: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n, hh, ww, c = dout.shape
    dx = np.zeros((n, hh * 2, ww * 2, c), dtype=dout.dtype)
    dx[:, 0::2, 0::2, :] = dout * (idx == 0)
    dx[:, 0::2, 1::2, :] = dout * (idx == 1)
    dx[:, 1::2, 0::2, :] = dout * (idx == 2)
    dx[:, 1::2, 1::2, :] = dout * (idx == 3)
    return dx


def _upsample2(x: np.ndarray) -> np.ndarray:
    return x.repeat(2, axis=1).repeat(2, axis=2)


def _upsample2_backward(dout: np.ndarray) -> np.ndarray:
    return (
        dout[:, 0::2, 0::2, :]
        + dout[:, 0::2, 1::2, :]
        + dout[:, 1::2, 0::2, :]
        + dout[:, 1::2, 1::2, :]
    )


def _conv_relu(x, params: SegNetParams, name: str, cache: dict | None):
    out, xp = _conv3(x, params.view(f"{name}.w"), params.view(f"{name}.b"))
    np.maximum(out, 0.0, out=out)
    if cache is not None:
        cache[name] = (xp, out > 0.0)
    return out


def _conv_relu_backward(params, grads, name, cache, dout):
    xp, relu_mask = cache.pop(name)
    dpre = dout * relu_mask
    dx, dw, db = _conv3_backward(xp, params.view(f"{name}.w"), dpre)
    grads.view(f"{name}.w")[...] += dw
    grads.view(f"{name}.b")[...] += db
    return dx


# ---------------------------------------------------------------------------
# network forward / backward


def forward(params: SegNetParams, images: np.ndarray, cache: dict | None = None) -> ForwardOutput:
    """Run the segmentation network on (N, H, W) images; pass ``cache={}`` to enable backward."""
    cfg = params.cfg
    batch = np.asarray(images, dtype=cfg.dtype)
    if batch.ndim != 3 or batch.shape[1:] != (cfg.height, cfg.width):
        raise ValueError(f"expected (N, {cfg.height}, {cfg.width}) images, got shape {batch.shape}")
    stages = len(cfg.widths)
    h = batch[..., None]  # (N, H, W, 1)
    skips = []
    for s in range(stages):
        h = _conv_relu(h, params, f"enc{s}.conv1", cache)
        h = _conv_relu(h, params, f"enc{s}.conv2", cache)
        if s < stages - 1:
            skips.append(h)
            h = _avgpool2(h)
    for s in reversed(range(stages - 1)):
        h = _upsample2(h)
        h = np.concatenate([h, skips[s]], axis=3)
        h = _conv_relu(h, params, f"dec{s}.conv1", cache)
        h = _conv_relu(h, params, f"dec{s}.conv2", cache)
    logits = _conv1(h, params.view("head.w"), params.view("head.b"))
    if cache is not None:
        cache["features"] = h
    return ForwardOutput(
        np.ascontiguousarray(logits.transpose(0, 3, 1, 2)), np.ascontiguousarray(h.transpose(0, 3, 1, 2))
    )


def backward(
    params: SegNetParams,
    cache: dict,
    dlogits: np.ndarray,
    dfeatures: np.ndarray | None = None,
    grads: SegNetParams | None = None,
) -> SegNetParams:
    """Accumulate parameter gradients for one cached forward pass.

    ``dlogits`` is the upstream gradient at the logits; ``dfeatures``
    optionally adds a gradient arriving at the decoder feature map (the
    projector path). Returns a gradient vector aligned with the layout.
    The cache is consumed: each entry is dropped once its layer is done.
    """
    cfg = params.cfg
    if grads is None:
        grads = SegNetParams(cfg)
    dlogits = np.asarray(dlogits, dtype=cfg.dtype).transpose(0, 2, 3, 1)  # to channels-last
    features = cache.pop("features")
    dx, dw, db = _conv1_backward(features, params.view("head.w"), dlogits)
    grads.view("head.w")[...] += dw
    grads.view("head.b")[...] += db
    dh = dx
    if dfeatures is not None:
        dh = dh + np.asarray(dfeatures, dtype=cfg.dtype).transpose(0, 2, 3, 1)
    stages = len(cfg.widths)
    dskips: dict[int, np.ndarray] = {}
    for s in range(stages - 1):
        dh = _conv_relu_backward(params, grads, f"dec{s}.conv2", cache, dh)
        dh = _conv_relu_backward(params, grads, f"dec{s}.conv1", cache, dh)
        up_ch = cfg.widths[s + 1]
        dskips[s] = dh[..., up_ch:]
        dh = _upsample2_backward(dh[..., :up_ch])
    for s in reversed(range(stages)):
        if s < stages - 1:
            dh = _avgpool2_backward(dh)
            dh = dh + dskips[s]
        dh = _conv_relu_backward(params, grads, f"enc{s}.conv2", cache, dh)
        dh = _conv_relu_backward(params, grads, f"enc{s}.conv1", cache, dh)
    return grads


def project(params: SegNetParams, features: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Project (N, C, H, W) feature maps to (N, embed_dim, K) embeddings, K = H*W/16."""
    x = np.asarray(features, dtype=params.cfg.dtype)
    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # to channels-last
    n, h, w, _ = x.shape
    if h % 4 or w % 4:
        raise ValueError(f"feature size {h}x{w} not divisible by 4")
    h1 = _conv_relu(x, params, "proj.conv1", cache)
    p1, idx1 = _maxpool2(h1)
    h2 = _conv_relu(p1, params, "proj.conv2", cache)
    p2, idx2 = _maxpool2(h2)
    emb = _conv1(p2, params.view("proj.out.w"), params.view("proj.out.b"))
    if cache is not None:
        cache["proj.pool1.idx"] = idx1
        cache["proj.pool2.idx"] = idx2
        cache["proj.p2"] = p2
    return np.ascontiguousarray(emb.reshape(n, (h // 4) * (w // 4), params.cfg.embed_dim).transpose(0, 2, 1))


def project_backward(
    params: SegNetParams, cache: dict, demb: np.ndarray, grads: SegNetParams
) -> np.ndarray:
    """Backward through the projector; returns the gradient at its input features
    in channels-first layout. Consumes the cache, as ``backward`` does."""
    demb = np.asarray(demb, dtype=params.cfg.dtype)
    p2 = cache.pop("proj.p2")
    n, hh, ww, _ = p2.shape
    dout = demb.transpose(0, 2, 1).reshape(n, hh, ww, params.cfg.embed_dim)
    dp2, dw, db = _conv1_backward(p2, params.view("proj.out.w"), dout)
    grads.view("proj.out.w")[...] += dw
    grads.view("proj.out.b")[...] += db
    dh2 = _maxpool2_backward(dp2, cache.pop("proj.pool2.idx"))
    dp1 = _conv_relu_backward(params, grads, "proj.conv2", cache, dh2)
    dh1 = _maxpool2_backward(dp1, cache.pop("proj.pool1.idx"))
    dx = _conv_relu_backward(params, grads, "proj.conv1", cache, dh1)
    return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))


# ---------------------------------------------------------------------------
# optimization, EMA, checkpoints


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine-annealed learning rate: lr0/2 * (1 + cos(pi * step / total))."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(
    params: SegNetParams,
    grads: SegNetParams,
    lr: float,
    momentum: float,
    velocity: np.ndarray,
) -> None:
    """In-place SGD with momentum: v = m*v + g; p -= lr*v."""
    if velocity.shape != params.vector.shape:
        raise ValueError("velocity shape mismatch")
    velocity *= momentum
    velocity += grads.vector
    params.vector -= lr * velocity


def ema_update(teacher: SegNetParams, student: SegNetParams, alpha: float) -> SegNetParams:
    """In-place EMA blend of teacher toward student: t = alpha*t + (1-alpha)*s."""
    if teacher.layout != student.layout:
        raise ValueError("teacher/student layout mismatch")
    teacher.vector *= alpha
    teacher.vector += (1.0 - alpha) * student.vector
    return teacher


def _write_atomic(path, chunks) -> None:
    """Write byte chunks to a temporary file beside ``path``, then rename it
    over ``path``: an interrupted write leaves the previous file as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_params(path, params: SegNetParams) -> None:
    """Binary checkpoint: magic, version, layout hash, little-endian doubles."""
    header = CHECKPOINT_MAGIC + struct.pack("<IQQ", CHECKPOINT_VERSION, params.layout_hash(), params.size)
    _write_atomic(path, (header, params.vector.astype("<f8").tobytes()))


def load_params(path, cfg: NetConfig) -> SegNetParams:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    head = len(CHECKPOINT_MAGIC) + struct.calcsize("<IQQ")
    if len(raw) < head or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a parameter checkpoint")
    version, lhash, count = struct.unpack("<IQQ", raw[4:head])
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    expected = layout_hash(build_layout(cfg))
    if lhash != expected:
        raise DataError(f"{path}: checkpoint layout does not match the configured network")
    if len(raw) - head != 8 * count:
        raise DataError(f"{path}: truncated checkpoint ({len(raw) - head} of {8 * count} payload bytes)")
    vector = np.frombuffer(raw[head:], dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(vector)):
        raise DataError(f"{path}: checkpoint holds non-finite parameters")
    return SegNetParams(cfg, vector)
