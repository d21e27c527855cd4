"""Fast-time / slow-time FFT frontend: raw frames to per-receiver range-Doppler maps.

A frame is one (rx, chirp, sample) complex array, and ``process_frame`` is the
frontend's one FFT function. Both of its stages apply a Hann taper, which
bounds leakage from strong static clutter (each taper is made once per length,
as a read-only complex128 array), and use unnormalized forward FFTs;
thresholds downstream are relative, so only consistency matters. The range
axis keeps the lower half of the spectrum; the Doppler axis is centered so
zero velocity sits at bin chirps_per_frame // 2. Complex phase across
receivers is preserved throughout for the later spatial processing.

The cube ``process_frame`` returns, and the clutter filter, DBF and Capon
take, is a plain complex128 (rx, range_bin, doppler_bin) array. By default
it holds every Doppler bin; the pipeline asks for the zero-Doppler window's
bins only, which are gathered from the unshifted spectrum (no ``fftshift``
copy), and passes ``frame_buffers`` made once per recording, so both FFTs
run in place in the same two arrays on every frame. The cube is a fresh
array either way. Samples are checked where they enter, by ``Recording``;
the cube is not checked again.
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


def frame_buffers(cfg: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """The two complex128 arrays ``process_frame`` computes the range and Doppler
    spectra in. A recording's loop makes one pair for all its frames, so the heap
    does not trim and fault these temporaries back in on every frame."""
    return (np.empty(cfg.frame_shape, dtype=np.complex128),
            np.empty((cfg.num_rx, cfg.chirps_per_frame, cfg.num_range_bins), dtype=np.complex128))


def process_frame(frame: np.ndarray, cfg: RadarConfig, window: np.ndarray | None = None,
                  buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Hann-windowed range FFT, then Hann-windowed Doppler FFT of the lower range half:
    the centered Doppler bins ``window`` (default: all) of the frame's
    (rx, range_bin, doppler_bin) cube, in a fresh array.

    Both FFTs run in ``buffers`` (``frame_buffers(cfg)``; fresh if None). The Doppler
    spectrum is never shifted: centered bin b is bin (b - n // 2) % n of it.
    """
    if frame.shape != cfg.frame_shape:
        raise ValueError(f"frame shape {frame.shape} does not match config {cfg.frame_shape}")
    spectrum, doppler = (None, None) if buffers is None else buffers
    # the product widens complex64 samples to complex128 as it goes, with no copy first
    spectrum = np.multiply(frame, _hann(cfg.samples_per_chirp), out=spectrum)
    np.fft.fft(spectrum, axis=2, out=spectrum)
    n = cfg.chirps_per_frame
    doppler = np.multiply(spectrum[:, :, : cfg.num_range_bins], _hann(n)[:, None], out=doppler)
    np.fft.fft(doppler, axis=1, out=doppler)
    if window is None:
        window = np.arange(n)  # (arange(n) - n // 2) % n is the fftshift permutation
    return np.moveaxis(doppler, 1, 2)[:, :, (window - n // 2) % n]


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
