"""Binary PGM (P5, 8-bit) reading and writing.

Images are scaled linearly between [0, 1] floats and 0..255 grey levels.
Label and binary masks are stored with the two levels {0, 255} only.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def write_pgm(path, img: np.ndarray) -> None:
    """Write a [0, 1] float image as an 8-bit P5 file (values clipped)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit P5 file into a [0, 1] float image."""
    data, (h, w) = _read_p5(path)
    return data.reshape(h, w).astype(np.float64) / 255.0


def write_mask_pgm(path, mask: np.ndarray) -> None:
    """Write a {0, 1} mask as a P5 file with levels {0, 255}."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {mask.shape}")
    values = np.unique(mask)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"mask values must be in {{0, 1}}, got {values}")
    data = (mask.astype(np.uint8) * 255)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_mask_pgm(path) -> np.ndarray:
    """Read a {0, 255} P5 file into a {0, 1} uint8 mask."""
    data, (h, w) = _read_p5(path)
    if not np.all(np.isin(data, (0, 255))):
        raise DataError(f"{path}: mask PGM must contain only values 0 and 255")
    return (data.reshape(h, w) > 0).astype(np.uint8)


def _read_p5(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read PGM {path}: {exc.strerror}") from exc
    tokens = []
    pos = 0
    # header = 4 whitespace-separated tokens, '#' comments allowed
    while len(tokens) < 4:
        if pos >= len(raw):
            raise DataError(f"{path}: truncated PGM header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                raise DataError(f"{path}: truncated PGM comment")
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise DataError(f"{path}: not a P5 PGM file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise DataError(f"{path}: malformed PGM header") from exc
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PGM supported, got maxval {maxval}")
    if w < 1 or h < 1:
        raise DataError(f"{path}: PGM width and height must be positive, got {w}x{h}")
    body = raw[pos : pos + h * w]
    if len(body) != h * w:
        raise DataError(f"{path}: PGM payload has {len(body)} bytes, expected {h * w}")
    return np.frombuffer(body, dtype=np.uint8), (h, w)
