"""Fast-time / slow-time FFT frontend: raw frames to per-receiver range-Doppler maps.

A frame is one (rx, chirp, sample) complex array. Both stages apply a Hann
taper, which bounds leakage from strong static clutter, and use
unnormalized forward FFTs; thresholds downstream are relative, so only
consistency matters. The range axis keeps the lower half
of the spectrum; the Doppler axis is centered so zero velocity sits at bin
chirps_per_frame // 2. Complex phase across receivers is preserved
throughout for the later spatial processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RadarConfig


@dataclass(frozen=True)
class RangeDopplerCube:
    """Per-receiver complex range-Doppler maps, indexed [rx][range_bin][doppler_bin]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise ValueError("values must be [rx][range_bin][doppler_bin]")
        if not np.all(np.isfinite(v)):
            raise ValueError("range-Doppler values contain non-finite entries")

    @property
    def num_rx(self) -> int:
        return self.values.shape[0]

    @property
    def num_range_bins(self) -> int:
        return self.values.shape[1]

    @property
    def num_doppler_bins(self) -> int:
        return self.values.shape[2]


def range_fft(frame: np.ndarray, cfg: RadarConfig) -> np.ndarray:
    """Hann-windowed FFT over fast time; returns [rx][chirp][range_bin] keeping the lower half.

    A pure beat tone at a bin-center frequency concentrates in that bin.
    """
    if frame.shape != cfg.frame_shape:
        raise ValueError(f"frame shape {frame.shape} does not match config {cfg.frame_shape}")
    samples = np.asarray(frame, dtype=np.complex128)
    spectrum = np.fft.fft(samples * np.hanning(cfg.samples_per_chirp), axis=2)
    return spectrum[:, :, : cfg.num_range_bins]


def doppler_fft(profiles: np.ndarray, cfg: RadarConfig) -> RangeDopplerCube:
    """Hann-windowed FFT across chirps, spectrum centered on zero Doppler.

    ``profiles`` is the [rx][chirp][range_bin] output of range_fft.
    """
    profiles = np.asarray(profiles, dtype=np.complex128)
    expected = (cfg.num_rx, cfg.chirps_per_frame, cfg.num_range_bins)
    if profiles.shape != expected:
        raise ValueError(f"profiles shape {profiles.shape} does not match {expected}")
    w = np.hanning(cfg.chirps_per_frame)
    spectrum = np.fft.fft(profiles * w[None, :, None], axis=1)
    spectrum = np.fft.fftshift(spectrum, axes=1)
    return RangeDopplerCube(values=np.moveaxis(spectrum, 1, 2))  # -> [rx][range_bin][doppler_bin]


def process_frame(frame: np.ndarray, cfg: RadarConfig) -> RangeDopplerCube:
    """Range FFT followed by Doppler FFT."""
    return doppler_fft(range_fft(frame, cfg), cfg)


def zero_doppler_window(num_doppler_bins: int, half_width: int = 2) -> np.ndarray:
    """Doppler bins 2*half_width + 1 wide around zero velocity, bin num_doppler_bins // 2."""
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    lo = num_doppler_bins // 2 - half_width
    hi = num_doppler_bins // 2 + half_width
    if lo < 0 or hi >= num_doppler_bins:
        raise ValueError("Doppler window exceeds cube bounds")
    return np.arange(lo, hi + 1)
