"""Fast-time / slow-time DFT frontend: raw frames to per-receiver range-Doppler maps.

A frame is one (rx, chirp, sample) complex array. ``process_frame`` computes
the Hann-tapered, unnormalized 2-D DFT of each receiver's frame at the bins
asked for only, as two complex matrix products and no FFT: the Doppler DFT
at the requested bins over chirps, then the range DFT at the lower half of
the range spectrum over samples. Each taper bounds leakage from strong static
clutter and is folded into its DFT matrix, made once per length and bin set;
thresholds downstream are relative, so only consistency matters. The Doppler
axis is centered so zero velocity sits at bin chirps_per_frame // 2, and
phase across receivers is preserved for the later spatial processing.

The cube, a plain complex128 (rx, range_bin, doppler_bin) array, holds every
Doppler bin by default; the pipeline asks for the zero-Doppler window's only.
It is within a few eps of the FFTs' (relative to the absolute sum of the
tapered frame per receiver), not bit for bit. Samples are checked where they
enter, by ``Recording``; the cube is not checked again.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import RadarConfig


@functools.lru_cache(maxsize=64)
def _tapered_dft(n: int, bins: tuple[int, ...]) -> np.ndarray:
    """Read-only (len(bins), n) matrix: row i is ``np.hanning(n)[t] * exp(-2j pi bins[i] t / n)``.

    Each phase index bins[i] * t is reduced modulo n in integers, to [-n/2, n/2), before
    it is scaled by 2 pi / n, so each twiddle is within about 2 eps of its value."""
    t = np.arange(n)
    phase = (np.outer(bins, t) + n // 2) % n - n // 2
    m = np.hanning(n) * np.exp(-2j * np.pi / n * phase)
    m.flags.writeable = False
    return m


def process_frame(frame: np.ndarray, cfg: RadarConfig,
                  window: np.ndarray | None = None) -> np.ndarray:
    """Hann-windowed range DFT of the lower range half and Hann-windowed Doppler DFT:
    the centered Doppler bins ``window`` (default: all; bin b is DFT bin (b - n // 2) % n)
    of the frame's (rx, range_bin, doppler_bin) cube, in a fresh array."""
    if frame.shape != cfg.frame_shape:
        raise ValueError(f"frame shape {frame.shape} does not match config {cfg.frame_shape}")
    n = cfg.chirps_per_frame
    if window is None:
        window = np.arange(n)
    doppler = _tapered_dft(n, tuple(((window - n // 2) % n).tolist()))
    ranges = _tapered_dft(cfg.samples_per_chirp, tuple(range(cfg.num_range_bins)))
    # (window, chirp) @ (rx, chirp, sample) @ (sample, range); the window's bins are rows of
    # both products, so a cell's sums do not depend on which other bins are computed (on
    # BLAS kernels whose rows are independent). The first widens complex64 samples.
    return ((doppler @ frame) @ ranges.T).transpose(0, 2, 1).copy()


def zero_doppler_window(num_doppler_bins: int, half_width: int = 2) -> np.ndarray:
    """Doppler bins 2*half_width + 1 wide around zero velocity, bin num_doppler_bins // 2."""
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    lo = num_doppler_bins // 2 - half_width
    hi = num_doppler_bins // 2 + half_width
    if lo < 0 or hi >= num_doppler_bins:
        raise ValueError(f"Doppler window exceeds the recording's {num_doppler_bins} Doppler "
                         f"bins: doppler_half_width {half_width} needs bins {lo} to {hi}")
    return np.arange(lo, hi + 1)
