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

Images, logits (N, 2, H, W) and embeddings (N, dim, K) are channels-first,
the layout the losses use. Every activation inside the network is
channels-last, (N, H, W, C), so a (pixels, channels) view of it feeds a
matmul without a transpose; so are the decoder features that ``forward``
returns for ``project``.

A 3x3 convolution runs nine GEMMs straight on the edge-padded input in both
passes, with no window copies: flattened to rows, each tap is one
contiguous slice of it. The padded input exists one chunk of images at a
time, in a reused buffer; a decoder conv1 reads the half-resolution
decoder activation and the skip as two parts and upsamples and
concatenates them only inside that buffer. The tap GEMMs run over
cache-sized bands of a chunk's rows, and a conv with one input channel (the
first) runs as multiply-adds of a weight and a shifted image plane instead;
neither changes a bit of the outputs or the input gradients. The backward
cache of a conv is its bool ReLU mask plus references to its input parts,
arrays the forward keeps anyway (the image, a ReLU output, a pooled input),
and the backward pads each chunk again. The weight gradient sums over the
flat rows band by band; see the comment on the primitive layers.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
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

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ConfigError("need at least two stages")
        if any(c < 1 for c in (*self.widths, self.embed_dim)):
            raise ConfigError("channel widths and embed_dim must be positive")
        if self.compute_dtype not in ("float64", "float32"):
            raise ConfigError(f"compute_dtype must be float64 or float32, got {self.compute_dtype}")
        div = max(2 ** len(self.widths), 4)
        if self.height % div or self.width % div:
            raise ConfigError(f"input size {self.height}x{self.width} must be divisible by {div}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.compute_dtype)


def build_layout(cfg: NetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs defining the flat parameter vector."""
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
    features: np.ndarray  # (N, H, W, widths[0]), channels-last: the projector input


# ---------------------------------------------------------------------------
# primitive layers (channels-last activations)
#
# 3x3 convolutions run over the edge-padded input; neither pass copies a
# window. A conv's input is the channel-wise concatenation of its parts: one
# array, or for a decoder conv1 the half-resolution decoder activation
# (repeated 2x2, nearest-neighbor upsampling) and then the skip. No
# full-batch padded, upsampled or concatenated input is ever built: both
# passes walk chunks of whole images, at most _CONV_CHUNK_BYTES of padded
# input and of one tap's product, and write each chunk's padded input into
# one reused chunk-sized buffer (one image at 256x256 float64). The backward
# cache of a conv is its bool ReLU mask plus references to its parts, arrays
# the forward keeps anyway; the backward pads each chunk again.
#
# Flatten a chunk's padded input to rows of C values: output pixel (i, j) is
# row p = i*(W+2) + j, and its tap (di, dj) is row p + di*(W+2) + dj, so each
# tap is one contiguous slice and one GEMM. Of the W+2 output rows per image
# row, the two wrap-around rows are dropped from the forward's products and
# are zero in the backward's output gradient. The tap GEMMs run over bands
# of those rows whose tap product fits _CONV_BAND_BYTES, an L2-sized block,
# so a band's product and output stay in cache through its nine taps: runs
# of image rows inside one image, or the whole chunk when one image fits (as
# at 64x64). The forward sets an output band to the bias, then adds the nine
# taps' products in order. The backward walks a chunk's bands once for both
# gradients: a band adds its rows' share of dW, one GEMM per tap on its
# padded input and output gradient, then sums its dx on the same buffer rows
# (dx row q takes g[q - s] @ W_t^T for the taps t, at row offsets s, in order,
# where that row of g exists); a band's dW reads padded rows up to two image
# rows past its end, which the next bands have not overwritten yet. It then
# folds the borders back and hands each part its share (an upsampled part the
# sum over each 2x2 block, written in place). A conv with one input channel
# would run K = 1 GEMMs; it runs per output channel as nine multiply-adds of
# a weight times a shifted plane of the padded chunk, the same single
# products in the same order. So a forward output and a dx element each sum
# the same products in the same order whatever the chunks and bands, and
# their bits do not depend on them (with C = 1, BLAS may round dx's
# matrix-vector products by row position). dW sums each tap's product band by
# band; when a chunk is one band, as at 64x64, that is one GEMM per tap per
# chunk.


# bytes of padded input, and of one tap's product, per chunk of the 3x3 conv
_CONV_CHUNK_BYTES = 4 << 20
# bytes of one tap's product per band of a chunk's rows: an L2-sized block
_CONV_BAND_BYTES = 256 << 10


def _chunk_plan(parts, f: int) -> tuple[int, int, int, int, int]:
    """(n, h, w, c, images per chunk) of a 3x3 conv's input; the last part has
    the input's raster, and any part at half that raster is upsampled."""
    n, h, wd, _ = parts[-1].shape
    c = sum(p.shape[3] for p in parts)
    step = max(1, _CONV_CHUNK_BYTES // ((h + 2) * (wd + 2) * max(c, f) * parts[-1].dtype.itemsize))
    return n, h, wd, c, min(step, n)


def _band_rows(h: int, wp: int, width: int, itemsize: int) -> int:
    """Image rows per band, of ``wp`` flat rows each, when one tap's product is
    ``width`` wide: ``h``, the whole chunk, when one image of ``h`` rows fits
    _CONV_BAND_BYTES, else as many rows as fit, at least one."""
    rows = _CONV_BAND_BYTES // (wp * width * itemsize)
    return h if rows >= h else max(1, rows)


def _bands(k: int, h: int, rows: int) -> list[tuple[int, int, int, int]]:
    """(first image, first row, images, rows) of each band of a chunk of ``k``
    images of ``h`` rows: the whole chunk, or runs of ``rows`` rows inside one image."""
    if rows == h:
        return [(0, 0, k, h)]
    return [(j, i0, 1, min(rows, h - i0)) for j in range(k) for i0 in range(0, h, rows)]


def _phases(x: np.ndarray) -> list[np.ndarray]:
    """The views ``x[:, i::2, j::2]`` of the 2x2 blocks of (N, H, W, C) ``x``, in row-major
    order; that order breaks max-pool ties and fixes the bits of every 2x2 sum."""
    return [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def _pad_chunk(buf: np.ndarray, parts, images: slice) -> np.ndarray:
    """Write the edge-padded input of ``images`` into ``buf``; return it as flat rows."""
    k = len(parts[-1][images])
    xp = buf[:k]
    c0 = 0
    for part in parts:
        x = part[images]
        dst = xp[:, 1:-1, 1:-1, c0 : c0 + x.shape[3]]
        if x.shape[1] == dst.shape[1]:
            dst[...] = x
        else:  # nearest-neighbor 2x upsampling
            for phase in _phases(dst):
                phase[...] = x
        c0 += x.shape[3]
    xp[:, 0, 1:-1] = xp[:, 1, 1:-1]
    xp[:, -1, 1:-1] = xp[:, -2, 1:-1]
    xp[:, :, 0] = xp[:, :, 1]
    xp[:, :, -1] = xp[:, :, -2]
    return xp.reshape(-1, xp.shape[3])


def _conv3(parts, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 edge-padded conv of the concatenation of ``parts`` (see above)."""
    f = w.shape[0]
    n, h, wd, c, step = _chunk_plan(parts, f)
    hp, wp = h + 2, wd + 2
    dtype = parts[-1].dtype
    wk = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=dtype).reshape(9, c, f)
    bias = b.astype(dtype)
    out = np.empty((n, h, wd, f), dtype=dtype)
    buf = np.empty((step, hp, wp, c), dtype=dtype)
    if c == 1:
        planes = np.empty((f, step, h, wd), dtype=dtype)  # channels-first, one plane per output channel
        term = np.empty((step, h, wd), dtype=dtype)
    else:
        rows = _band_rows(h, wp, f, dtype.itemsize)
        tmp = np.empty(((step * hp if rows == h else rows) * wp, f), dtype=dtype)
    for k0 in range(0, n, step):
        images = slice(k0, k0 + step)
        flat = _pad_chunk(buf, parts, images)
        k = len(flat) // (hp * wp)
        if c == 1:  # per output channel, the bias plus nine weight-times-plane products
            xp = flat.reshape(k, hp, wp)
            for o in range(f):
                plane = planes[o, :k]
                plane[...] = bias[o]
                for t in range(9):
                    di, dj = divmod(t, 3)
                    np.multiply(xp[:, di : di + h, dj : dj + wd], wk[t, 0, o], out=term[:k])
                    plane += term[:k]
            out[images] = planes[:, :k].transpose(1, 2, 3, 0)
            continue
        for j, i0, nimg, nr in _bands(k, h, rows):
            p0 = (j * hp + i0) * wp
            cnt = ((nimg - 1) * hp + nr) * wp - 2  # the band's last real pixel is row cnt - 1
            rs = hp if nr == h else nr  # rows per image in the band's product
            prod = tmp[: nimg * rs * wp].reshape(nimg, rs, wp, f)[:, :nr, :wd]  # drops the wrap-around rows
            acc = out[k0 + j : k0 + j + nimg, i0 : i0 + nr]
            acc[...] = bias
            for t in range(9):  # tap (di, dj) = divmod(t, 3)
                s = p0 + t // 3 * wp + t % 3
                np.matmul(flat[s : s + cnt], wk[t], out=tmp[:cnt])
                acc += prod
    return out


def _conv3_backward(parts, w, dout, input_grad: bool = True):
    """(dx per part or None, dW, dB) of ``_conv3(parts, w, b)`` for output gradient ``dout``."""
    f = w.shape[0]
    n, h, wd, c, step = _chunk_plan(parts, f)
    hp, wp = h + 2, wd + 2
    dtype = parts[-1].dtype
    wk = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=dtype).reshape(9, c, f)
    buf = np.empty((step, hp, wp, c), dtype=dtype)
    g = np.zeros((step * hp * wp, f), dtype=dtype)  # dout on the flat rows
    dwk = np.zeros_like(wk)
    rows = _band_rows(hp, wp, c, dtype.itemsize)
    if input_grad:
        tmp = np.empty(((step if rows == hp else 1) * rows * wp, c), dtype=dtype)
        dxs = [np.empty_like(p) for p in parts]
    for k0 in range(0, n, step):
        images = slice(k0, k0 + step)
        flat = _pad_chunk(buf, parts, images)
        m = len(flat) - 2 * wp - 2
        g[: len(flat)].reshape(-1, hp, wp, f)[:, :h, :wd] = dout[images]  # wrap-around rows stay 0
        for j, i0, nimg, nr in _bands(len(flat) // (hp * wp), hp, rows):
            q0 = (j * hp + i0) * wp
            q1 = q0 + nimg * nr * wp
            e = min(q1, m)  # rows from m on are padding: their g is 0
            for t in range(9 if q0 < e else 0):  # dW, before dx overwrites the band's padded input
                s = t // 3 * wp + t % 3
                dwk[t] += flat[q0 + s : e + s].T @ g[q0:e]
            if not input_grad:
                continue
            flat[q0:q1] = 0.0
            for t in range(9):  # dx row q takes g[q - s] @ W_t^T where that row exists
                s = t // 3 * wp + t % 3
                lo, hi = max(q0, s), min(q1, s + m)
                if lo < hi:
                    np.matmul(g[lo - s : hi - s], wk[t].T, out=tmp[: hi - lo])
                    flat[lo:hi] += tmp[: hi - lo]
        if not input_grad:
            continue
        # fold the edge-replicated borders back (reverse of _pad_chunk)
        dxp = flat.reshape(-1, hp, wp, c)
        dxp[:, :, 1] += dxp[:, :, 0]
        dxp[:, :, -2] += dxp[:, :, -1]
        dxp[:, 1, 1:-1] += dxp[:, 0, 1:-1]
        dxp[:, -2, 1:-1] += dxp[:, -1, 1:-1]
        c0 = 0
        for dx in dxs:
            inner = dxp[:, 1:-1, 1:-1, c0 : c0 + dx.shape[3]]
            if dx.shape[1] == h:
                dx[images] = inner
            else:
                _upsample2_backward(inner, dx[images])
            c0 += dx.shape[3]
    dw = dwk.reshape(3, 3, c, f).transpose(3, 2, 0, 1)
    db = dout.reshape(-1, f).sum(axis=0)
    return (dxs if input_grad else None), dw, db


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
    a, b, c, d = _phases(x)
    return 0.25 * (a + b + c + d)


def _avgpool2_backward(dout: np.ndarray) -> np.ndarray:
    n, hh, ww, c = dout.shape
    dx = np.empty((n, hh * 2, ww * 2, c), dtype=dout.dtype)
    q = 0.25 * dout
    for phase in _phases(dx):
        phase[...] = q
    return dx


def _maxpool2(x: np.ndarray):
    a, b, c, d = _phases(x)  # ties keep the first
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    idx = np.where(out == a, 0, np.where(out == b, 1, np.where(out == c, 2, 3))).astype(np.uint8)
    return out, idx


def _maxpool2_backward(dout: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n, hh, ww, c = dout.shape
    dx = np.empty((n, hh * 2, ww * 2, c), dtype=dout.dtype)  # the four phases cover it
    for i, phase in enumerate(_phases(dx)):
        np.multiply(dout, idx == i, out=phase)
    return dx


def _upsample2_backward(dout: np.ndarray, dx: np.ndarray) -> None:
    """Write the sum over each 2x2 block of ``dout`` into ``dx``, blocks in row-major order."""
    a, b, c, d = _phases(dout)
    np.add(a, b, out=dx)
    dx += c
    dx += d


def _conv_relu(parts, params: SegNetParams, name: str, cache: dict | None):
    out = _conv3(parts, params.view(f"{name}.w"), params.view(f"{name}.b"))
    np.maximum(out, 0.0, out=out)
    if cache is not None:
        cache[name] = (out > 0.0, *parts)  # a flat tuple of arrays; the parts are references
    return out


def _conv_relu_backward(params, grads, name, cache, dout, input_grad: bool = True):
    """Gradient per input part (None without ``input_grad``); masks ``dout`` in place."""
    relu_mask, *parts = cache.pop(name)
    dout *= relu_mask
    dxs, dw, db = _conv3_backward(parts, params.view(f"{name}.w"), dout, input_grad)
    grads.view(f"{name}.w")[...] += dw
    grads.view(f"{name}.b")[...] += db
    return dxs


# ---------------------------------------------------------------------------
# network forward / backward


def forward(params: SegNetParams, images: np.ndarray, cache: dict | None = None) -> ForwardOutput:
    """Run the segmentation network on (N, H, W) images; pass ``cache={}`` to enable backward.

    The cache refers to ``images`` (when already of the compute dtype) and to
    the returned features rather than copying them: leave both unchanged
    until ``backward``."""
    cfg = params.cfg
    batch = np.asarray(images, dtype=cfg.dtype)
    if batch.ndim != 3 or batch.shape[1:] != (cfg.height, cfg.width):
        raise ValueError(f"expected (N, {cfg.height}, {cfg.width}) images, got shape {batch.shape}")
    stages = len(cfg.widths)
    h = batch[..., None]  # (N, H, W, 1)
    skips = []
    for s in range(stages):
        h = _conv_relu((h,), params, f"enc{s}.conv1", cache)
        h = _conv_relu((h,), params, f"enc{s}.conv2", cache)
        if s < stages - 1:
            skips.append(h)
            h = _avgpool2(h)
    for s in reversed(range(stages - 1)):
        h = _conv_relu((h, skips[s]), params, f"dec{s}.conv1", cache)  # h is upsampled 2x2
        h = _conv_relu((h,), params, f"dec{s}.conv2", cache)
    logits = _conv1(h, params.view("head.w"), params.view("head.b"))
    if cache is not None:
        cache["features"] = h
    return ForwardOutput(np.ascontiguousarray(logits.transpose(0, 3, 1, 2)), h)


def backward(
    params: SegNetParams,
    cache: dict,
    dlogits: np.ndarray,
    dfeatures: np.ndarray | None = None,
    grads: SegNetParams | None = None,
) -> SegNetParams:
    """Accumulate parameter gradients for one cached forward pass.

    ``dlogits`` is the upstream gradient at the logits; ``dfeatures``
    optionally adds a gradient arriving at the channels-last decoder feature
    map (the projector path) of the leading ``len(dfeatures)`` images only.
    Returns a gradient vector aligned with the layout. The cache is consumed:
    each entry is dropped once its layer is done, the features after the head.
    """
    cfg = params.cfg
    if grads is None:
        grads = SegNetParams(cfg)
    dlogits = np.asarray(dlogits, dtype=cfg.dtype).transpose(0, 2, 3, 1)  # to channels-last
    dh, dw, db = _conv1_backward(cache.pop("features"), params.view("head.w"), dlogits)
    grads.view("head.w")[...] += dw
    grads.view("head.b")[...] += db
    if dfeatures is not None:
        dh[: len(dfeatures)] += np.asarray(dfeatures, dtype=cfg.dtype)
    stages = len(cfg.widths)
    dskips: dict[int, np.ndarray] = {}
    for s in range(stages - 1):
        (dh,) = _conv_relu_backward(params, grads, f"dec{s}.conv2", cache, dh)
        dh, dskips[s] = _conv_relu_backward(params, grads, f"dec{s}.conv1", cache, dh)
    for s in reversed(range(stages)):
        if s < stages - 1:
            dh = _avgpool2_backward(dh)
            dh += dskips.pop(s)
        (dh,) = _conv_relu_backward(params, grads, f"enc{s}.conv2", cache, dh)
        if s > 0:
            (dh,) = _conv_relu_backward(params, grads, f"enc{s}.conv1", cache, dh)
    # the first conv's input is the image batch: nothing reads its gradient
    _conv_relu_backward(params, grads, "enc0.conv1", cache, dh, input_grad=False)
    return grads


def project(params: SegNetParams, features: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Project channels-last (N, H, W, C) feature maps to (N, embed_dim, K) embeddings, K = H*W/16."""
    x = np.asarray(features, dtype=params.cfg.dtype)
    n, h, w, _ = x.shape
    if h % 4 or w % 4:
        raise ValueError(f"feature size {h}x{w} not divisible by 4")
    h1 = _conv_relu((x,), params, "proj.conv1", cache)
    p1, idx1 = _maxpool2(h1)
    h2 = _conv_relu((p1,), params, "proj.conv2", cache)
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
    """Backward through the projector; returns the gradient at its input features,
    channels-last. Consumes the cache, as ``backward`` does."""
    demb = np.asarray(demb, dtype=params.cfg.dtype)
    p2 = cache.pop("proj.p2")
    n, hh, ww, _ = p2.shape
    dout = demb.transpose(0, 2, 1).reshape(n, hh, ww, params.cfg.embed_dim)
    dp2, dw, db = _conv1_backward(p2, params.view("proj.out.w"), dout)
    grads.view("proj.out.w")[...] += dw
    grads.view("proj.out.b")[...] += db
    dh2 = _maxpool2_backward(dp2, cache.pop("proj.pool2.idx"))
    (dp1,) = _conv_relu_backward(params, grads, "proj.conv2", cache, dh2)
    dh1 = _maxpool2_backward(dp1, cache.pop("proj.pool1.idx"))
    (dx,) = _conv_relu_backward(params, grads, "proj.conv1", cache, dh1)
    return dx


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
