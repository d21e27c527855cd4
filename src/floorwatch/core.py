"""Radar configuration, receive-array geometry, and closed-form FMCW quantities.

Everything downstream (FFT frontend, beamformers, simulator) consumes the
types defined here. All values are SI: Hz, seconds, meters, radians.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Bundled 60 GHz short-range profile: 500 MHz sweep, 10 Hz frames,
# 128 chirps x 64 samples on 3 receive channels.  The chirp repetition
# interval is set so that a 3 m/s target is just unambiguous at 60 GHz
# (lambda / (4 * v_max)), and the chirp duration fills the interval.
DEFAULT_CENTER_FREQUENCY = 60e9
DEFAULT_CHIRP_INTERVAL = SPEED_OF_LIGHT / DEFAULT_CENTER_FREQUENCY / (4.0 * 3.0)


@dataclass(frozen=True)
class RadarConfig:
    """Waveform and frame parameters of the FMCW sensor."""

    center_frequency: float = DEFAULT_CENTER_FREQUENCY
    bandwidth: float = 500e6
    chirp_duration: float = DEFAULT_CHIRP_INTERVAL
    frame_rate: float = 10.0
    chirps_per_frame: int = 128
    samples_per_chirp: int = 64
    num_rx: int = 3
    chirp_repetition_interval: float = DEFAULT_CHIRP_INTERVAL

    def __post_init__(self):
        if self.center_frequency <= 0:
            raise ValueError("center_frequency must be > 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.chirp_duration <= 0:
            raise ValueError("chirp_duration must be > 0")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be > 0")
        if self.chirp_repetition_interval <= 0:
            raise ValueError("chirp_repetition_interval must be > 0")
        if self.chirps_per_frame < 2:
            raise ValueError("chirps_per_frame must be >= 2 for a Doppler axis")
        if self.chirps_per_frame % 2 != 0:
            raise ValueError("chirps_per_frame must be even (centered Doppler spectrum)")
        if self.samples_per_chirp < 2:
            raise ValueError("samples_per_chirp must be >= 2")
        if self.samples_per_chirp % 2 != 0:
            raise ValueError("samples_per_chirp must be even (half-spectrum range axis)")
        if self.num_rx < 2:
            raise ValueError("num_rx must be >= 2 for azimuth beamforming")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.center_frequency

    @property
    def num_range_bins(self) -> int:
        return self.samples_per_chirp // 2


def chirp_slope(cfg: RadarConfig) -> float:
    """Sweep slope in Hz/s: bandwidth over chirp duration."""
    return cfg.bandwidth / cfg.chirp_duration


def beat_frequency(slope: float, target_range: float) -> float:
    """Dechirped beat frequency in Hz for a reflector at ``target_range`` meters."""
    if target_range < 0:
        raise ValueError("target_range must be >= 0")
    return slope * 2.0 * target_range / SPEED_OF_LIGHT


def range_resolution(cfg: RadarConfig) -> float:
    """Range bin width in meters, c / (2 B)."""
    return SPEED_OF_LIGHT / (2.0 * cfg.bandwidth)


def max_range(cfg: RadarConfig) -> float:
    """Largest usable range in meters.

    Only the lower half of the range bins is kept, so the limit is
    (samples_per_chirp / 2) * range_resolution.
    """
    return cfg.num_range_bins * range_resolution(cfg)


@dataclass(frozen=True)
class ArrayGeometry:
    """Receive element layout.

    ``element_offsets`` holds one (d_x, d_y) pair per receiver in meters,
    d_x along the azimuth axis, d_y along the elevation axis.
    ``azimuth_pair`` names (reference, offset) receiver indices forming the
    azimuth baseline used by the two-channel adaptive beamformer; the
    reference element maps to the leading 1 of the steering vector.
    """

    wavelength: float
    element_offsets: tuple = ()
    azimuth_pair: tuple = (0, 1)

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")
        n = len(self.element_offsets)
        if n < 2:
            raise ValueError("element_offsets must list >= 2 receivers")
        i, j = self.azimuth_pair
        if i == j:
            raise ValueError("azimuth_pair indices must be distinct")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("azimuth_pair indices out of range")

    @property
    def num_rx(self) -> int:
        return len(self.element_offsets)

    @property
    def azimuth_baseline(self) -> float:
        """Spacing in meters between the azimuth-pair elements along x."""
        i, j = self.azimuth_pair
        return abs(self.element_offsets[j][0] - self.element_offsets[i][0])

    def offsets_array(self) -> np.ndarray:
        """Element offsets as a (num_rx, 2) float array."""
        return np.asarray(self.element_offsets, dtype=float)


def default_geometry(cfg: RadarConfig) -> ArrayGeometry:
    """L-shaped three-element layout with half-wavelength baselines.

    Receiver 0 sits half a wavelength along the azimuth axis, receiver 1
    half a wavelength along the elevation axis, receiver 2 at the origin.
    The azimuth pair is (origin, x-offset) so the pair's arrival-phase
    ratio for a source at azimuth theta is exactly exp(-j pi sin(theta)).
    """
    lam = cfg.wavelength
    if cfg.num_rx == 3:
        offsets = ((lam / 2.0, 0.0), (0.0, lam / 2.0), (0.0, 0.0))
        return ArrayGeometry(wavelength=lam, element_offsets=offsets, azimuth_pair=(2, 0))
    # uniform line along x for other channel counts
    offsets = tuple((m * lam / 2.0, 0.0) for m in range(cfg.num_rx))
    return ArrayGeometry(wavelength=lam, element_offsets=offsets, azimuth_pair=(0, 1))


@dataclass(frozen=True)
class FrameCube:
    """One frame of complex baseband samples indexed [rx][chirp][sample]."""

    samples: np.ndarray
    frame_index: int = 0
    timestamp: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 3:
            raise ValueError("samples must be a 3-d [rx][chirp][sample] array")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain non-finite values")

    def check_config(self, cfg: RadarConfig) -> None:
        expected = (cfg.num_rx, cfg.chirps_per_frame, cfg.samples_per_chirp)
        if self.samples.shape != expected:
            raise ValueError(
                f"frame shape {self.samples.shape} does not match config {expected}"
            )


def config_to_dict(cfg: RadarConfig) -> dict:
    return asdict(cfg)


def config_from_dict(d: dict) -> RadarConfig:
    extra = set(d) - {f.name for f in fields(RadarConfig)}
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    return RadarConfig(**d)


def geometry_to_dict(geom: ArrayGeometry) -> dict:
    return asdict(geom)


def geometry_from_dict(d: dict) -> ArrayGeometry:
    return ArrayGeometry(
        wavelength=float(d["wavelength"]),
        element_offsets=tuple(tuple(float(x) for x in o) for o in d["element_offsets"]),
        azimuth_pair=tuple(int(i) for i in d["azimuth_pair"]),
    )
