"""Frequency-domain switch: low-frequency amplitude exchange between image pairs.

Pipeline: center-shifted 2-D FFT -> amplitude/phase split -> exchange of
amplitudes inside a small centered square region -> phase-preserving
reconstruction. Because each image keeps its own phase, the reconstructed
images stay pixel-aligned with their segmentation labels; only texture and
global style move between the pair.

Every transform works over the last two axes, so one (H, W) image pair and
an (N, H, W) batch of pairs take the same path.

Conventions (fixed for reproducibility):
- forward transform unnormalized, inverse carries the 1/(HW) factor
  (numpy default);
- the zero-frequency bin sits at (floor(H/2), floor(W/2)) after shifting;
- everything is computed in double precision, and reconstructed images are
  NOT clamped to [0, 1] (clamping would break the involution and
  phase-preservation guarantees).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FdsConfig:
    area_ratio: float = 0.0175  # fraction of each image dimension forming the region

    def __post_init__(self) -> None:
        if not 0.0 < self.area_ratio < 1.0:
            raise ConfigError(f"area_ratio must be in (0, 1), got {self.area_ratio}")


class AmplitudePhase(NamedTuple):
    amplitude: np.ndarray  # non-negative, same shape as the spectrum
    phase: np.ndarray      # in (-pi, pi], zero where amplitude is zero


def fft2_shifted(img: np.ndarray) -> np.ndarray:
    """2-D FFT of the last two axes with the quadrants swapped so DC sits at the center."""
    img = np.asarray(img, dtype=np.float64)
    return np.fft.fftshift(np.fft.fft2(img), axes=(-2, -1))


def amplitude_phase(spec: np.ndarray) -> AmplitudePhase:
    """Split a spectrum binwise into modulus and argument."""
    spec = np.asarray(spec, dtype=np.complex128)
    return AmplitudePhase(amplitude=np.abs(spec), phase=np.angle(spec))


def low_freq_region_mask(h: int, w: int, rho: float) -> np.ndarray:
    """Centered square of bins with |i - H/2| <= floor(H*rho)/2 per axis.

    The half-width is kept as the exact rational floor(H*rho)/2 and compared
    against integer bin offsets from the real-valued center H/2.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    r_h = np.floor(h * rho) / 2.0
    r_w = np.floor(w * rho) / 2.0
    di = np.abs(np.arange(h) - h / 2.0)
    dj = np.abs(np.arange(w) - w / 2.0)
    return (di[:, None] <= r_h) & (dj[None, :] <= r_w)


def amplitude_switch(
    a_x: np.ndarray, a_u: np.ndarray, region: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange the two amplitude rasters inside ``region``; keep them outside.

    ``region`` is (H, W) and applies to every raster of a batch.
    """
    a_x = np.asarray(a_x)
    a_u = np.asarray(a_u)
    if a_x.shape != a_u.shape or a_x.shape[-2:] != region.shape:
        raise ValueError(f"shape mismatch: {a_x.shape}, {a_u.shape}, {region.shape}")
    a_x_r = np.where(region, a_u, a_x)
    a_u_r = np.where(region, a_x, a_u)
    return a_x_r, a_u_r


def reconstruct(ap: AmplitudePhase) -> np.ndarray:
    """Rebuild an image from amplitude and phase: unshift, invert, take the real part.

    A warning is logged if the discarded imaginary residue exceeds
    1e-6 of the amplitude scale, which indicates a non-conjugate-symmetric
    spectrum was supplied.
    """
    spec = ap.amplitude * np.exp(1j * ap.phase)
    out = np.fft.ifft2(np.fft.ifftshift(spec, axes=(-2, -1)))
    scale = float(ap.amplitude.max()) if ap.amplitude.size else 0.0
    residue = float(np.abs(out.imag).max()) if out.size else 0.0
    if scale > 0.0 and residue > 1e-6 * scale:
        log.warning("reconstruct: imaginary residue %.3e exceeds 1e-6 of amplitude scale %.3e", residue, scale)
    return out.real


def fds_pair(x: np.ndarray, u: np.ndarray, cfg: FdsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Swap low-frequency amplitudes between ``x`` and ``u``, preserving phases.

    Takes one (H, W) pair or two (N, H, W) batches paired image by image.
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape != u.shape or x.ndim not in (2, 3):
        raise ValueError(f"expected two (H, W) or (N, H, W) arrays of one shape, got {x.shape} and {u.shape}")
    region = low_freq_region_mask(x.shape[-2], x.shape[-1], cfg.area_ratio)
    amp_x, phase_x = amplitude_phase(fft2_shifted(x))
    amp_u, phase_u = amplitude_phase(fft2_shifted(u))
    amp_x_r, amp_u_r = amplitude_switch(amp_x, amp_u, region)
    x_r = reconstruct(AmplitudePhase(amp_x_r, phase_x))
    u_r = reconstruct(AmplitudePhase(amp_u_r, phase_u))
    return x_r, u_r


fds_batch = fds_pair  # the name the training step calls on (N, H, W) batches
