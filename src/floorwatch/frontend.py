"""Fast-time / slow-time FFT frontend: raw frames to per-receiver range-Doppler maps.

A frame is one (rx, chirp, sample) complex array. Both stages apply a Hann
taper, which bounds leakage from strong static clutter (each taper is made
once per length, as a read-only complex128 array), and use
unnormalized forward FFTs; thresholds downstream are relative, so only
consistency matters. The range axis keeps the lower half
of the spectrum; the Doppler axis is centered so zero velocity sits at bin
chirps_per_frame // 2. Complex phase across receivers is preserved
throughout for the later spatial processing.

The cube ``process_frame`` returns, and the clutter filter, DBF and Capon
take, is a plain complex128 (rx, range_bin, doppler_bin) array; the
pipeline keeps only the zero-Doppler window's bins of it. Samples are
checked where they enter, by ``Recording``; the cube is not checked again.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import RadarConfig


@functools.lru_cache(maxsize=None)
def _hann(n: int) -> np.ndarray:
    """Read-only complex128 ``np.hanning(n)``: the product numpy makes with the float
    taper, without casting the taper on every frame."""
    w = np.hanning(n).astype(np.complex128)
    w.flags.writeable = False
    return w


def range_fft(frame: np.ndarray, cfg: RadarConfig) -> np.ndarray:
    """Hann-windowed FFT over fast time; returns [rx][chirp][range_bin] keeping the lower half.

    A pure beat tone at a bin-center frequency concentrates in that bin.
    """
    if frame.shape != cfg.frame_shape:
        raise ValueError(f"frame shape {frame.shape} does not match config {cfg.frame_shape}")
    # the product widens complex64 samples to complex128 as it goes, with no copy first
    spectrum = np.fft.fft(frame * _hann(cfg.samples_per_chirp), axis=2)
    return spectrum[:, :, : cfg.num_range_bins]


def doppler_fft(profiles: np.ndarray, cfg: RadarConfig) -> np.ndarray:
    """Hann-windowed FFT across chirps, spectrum centered on zero Doppler.

    ``profiles`` is the [rx][chirp][range_bin] output of range_fft.
    """
    profiles = np.asarray(profiles, dtype=np.complex128)
    expected = (cfg.num_rx, cfg.chirps_per_frame, cfg.num_range_bins)
    if profiles.shape != expected:
        raise ValueError(f"profiles shape {profiles.shape} does not match {expected}")
    spectrum = np.fft.fft(profiles * _hann(cfg.chirps_per_frame)[:, None], axis=1)
    spectrum = np.fft.fftshift(spectrum, axes=1)
    return np.moveaxis(spectrum, 1, 2)  # -> [rx][range_bin][doppler_bin]


def process_frame(frame: np.ndarray, cfg: RadarConfig) -> np.ndarray:
    """Range FFT followed by Doppler FFT: the frame's (rx, range_bin, doppler_bin) cube."""
    return doppler_fft(range_fft(frame, cfg), cfg)


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
