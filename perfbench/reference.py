"""Plain-numpy reference chain, written apart from floorwatch.

It reads FWR1 recordings with its own parser and recomputes, for chosen
frames, what the program's stream computes: Hann-windowed range and Doppler
FFTs, the clutter-map recursion over every frame in order, the range-azimuth
map (Capon through the closed-form 2x2 inverse, or DBF as an explicit
phase-and-sum), CA-CFAR training means by ring-kernel correlation, and
8-connected max suppression. Nothing here imports floorwatch.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

SPEED_OF_LIGHT = 299_792_458.0


def read_fwr1(path):
    """Return (header dict, complex64 samples [frame][rx][chirp][sample])."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"FWR1":
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    header_len = int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8:8 + header_len].decode("utf-8"))
    cfg = header["config"]
    shape = (int(header["n_frames"]), cfg["num_rx"], cfg["chirps_per_frame"],
             cfg["samples_per_chirp"])
    pairs = np.frombuffer(raw, dtype="<f4", offset=8 + header_len)
    if pairs.size != 2 * math.prod(shape):
        raise ValueError(f"{path}: payload holds {pairs.size} floats, "
                         f"header implies {2 * math.prod(shape)}")
    pairs = pairs.reshape(shape + (2,))
    return header, pairs[..., 0] + 1j * pairs[..., 1]


def hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def range_doppler(samples: np.ndarray) -> np.ndarray:
    """[frame][rx][chirp][sample] -> [frame][rx][range_bin][doppler_bin], zero Doppler centred."""
    n_chirps, n_samples = samples.shape[-2:]
    x = samples.astype(np.complex128) * hann(n_samples)
    profiles = np.fft.fft(x, axis=-1)[..., : n_samples // 2]
    profiles = profiles * hann(n_chirps)[:, None]
    spectrum = np.fft.fftshift(np.fft.fft(profiles, axis=-2), axes=-2)
    return np.swapaxes(spectrum, -1, -2)


def clutter_filtered(samples: np.ndarray, alpha: float, keep, chunk: int = 32) -> dict:
    """Run C_k = alpha C_(k-1) + (1 - alpha) X_k, Y_k = X_k - C_k over every frame.

    ``samples`` is [frame][rx][chirp][sample]; the FFTs run a chunk of
    frames at a time. Returns {frame index: Y_k} for the frames in ``keep``.
    """
    keep = set(int(i) for i in keep)
    clutter = 0.0
    out = {}
    for first in range(0, samples.shape[0], chunk):
        for i, x in enumerate(range_doppler(samples[first:first + chunk]), start=first):
            clutter = alpha * clutter + (1.0 - alpha) * x
            if i in keep:
                out[i] = x - clutter
    return out


def doppler_window(n_doppler: int, half_width: int) -> np.ndarray:
    zero = n_doppler // 2
    return np.arange(zero - half_width, zero + half_width + 1)


def capon_map(y: np.ndarray, pair, azimuth_rad: np.ndarray, half_width: int):
    """Capon power 1 / (a^H R^-1 a) on a two-receiver pair, per range bin.

    R = X X^H / N over the zero-Doppler window; the 2x2 inverse is written
    out, and a = [1, exp(-j pi sin(theta))]. Returns (map, singular cells),
    a cell being singular when its quadratic form is at or below 1e-30.
    """
    win = doppler_window(y.shape[2], half_width)
    x0 = y[pair[0]][:, win]
    x1 = y[pair[1]][:, win]
    n = win.size
    p = np.sum(np.abs(x0) ** 2, axis=1) / n
    s = np.sum(np.abs(x1) ** 2, axis=1) / n
    q = np.sum(x0 * np.conj(x1), axis=1) / n            # R[0, 1]
    det = p * s - np.abs(q) ** 2
    a1 = np.exp(-1j * np.pi * np.sin(azimuth_rad))       # second steering entry
    quad = (s[:, None] + p[:, None] - 2.0 * np.real(q[:, None] * a1[None, :])) / det[:, None]
    singular = int(np.count_nonzero(quad <= 1e-30))
    return 1.0 / quad, singular


def dbf_map(y: np.ndarray, offsets, wavelength: float, azimuth_rad: np.ndarray,
            elevation_rad: np.ndarray, half_width: int) -> np.ndarray:
    """Sum over elevations and zero-Doppler bins of |sum_m z_m w_m|, one term at a time."""
    win = doppler_window(y.shape[2], half_width)
    z = y[:, :, win]                                      # (rx, range, doppler)
    power = np.zeros((y.shape[1], azimuth_rad.size))
    for t, theta in enumerate(azimuth_rad):
        for phi in elevation_rad:
            beam = np.zeros((y.shape[1], win.size), dtype=np.complex128)
            for m, (dx, dy) in enumerate(offsets):
                phase = 2.0 * np.pi / wavelength * (dx * math.sin(theta) * math.cos(phi)
                                                    + dy * math.sin(phi))
                beam += z[m] * complex(math.cos(phase), math.sin(phase))
            power[:, t] += np.abs(beam).sum(axis=1)
    return power


def ring_mean(power: np.ndarray, guard, training) -> np.ndarray:
    """Mean over the training ring, windows clipped at the map edge (shrink-window)."""
    er, ec = guard[0] + training[0], guard[1] + training[1]
    kernel = np.ones((2 * er + 1, 2 * ec + 1))
    kernel[training[0]:training[0] + 2 * guard[0] + 1,
           training[1]:training[1] + 2 * guard[1] + 1] = 0.0
    sums = ndimage.correlate(power, kernel, mode="constant", cval=0.0)
    counts = ndimage.correlate(np.ones_like(power), kernel, mode="constant", cval=0.0)
    return sums / counts


def suppress_max(mask: np.ndarray, power: np.ndarray) -> list:
    """Strongest cell of each 8-connected group of ``mask``, as (row, col) in group order."""
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return []
    peaks = ndimage.maximum_position(power, labels, index=np.arange(1, n + 1))
    return [tuple(int(v) for v in p) for p in peaks]


def hit(cells, truth: list, range_step: float, azimuth_rad: np.ndarray) -> bool:
    """True when a cell centre lies inside a truth box given in header units."""
    for r, c in cells:
        for box in truth:
            if (abs(r * range_step - box["center_range_m"]) <= box["half_extent_range_m"]
                    and abs(azimuth_rad[c] - math.radians(box["center_azimuth_deg"]))
                    <= math.radians(box["half_extent_azimuth_deg"])):
                return True
    return False
