"""Radar configuration, receive-array geometry, and closed-form FMCW quantities.

Everything downstream (FFT frontend, beamformers, simulator) consumes the
types defined here; a frame of samples is a plain complex array of shape
``RadarConfig.frame_shape``. All values are SI: Hz, seconds, meters, radians.
"""

from __future__ import annotations

import numbers
import sys
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
        for f in fields(self):
            value = getattr(self, f.name)
            integer = isinstance(f.default, int)
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integer else numbers.Real):
                raise ValueError(f"{f.name} must be {'an integer' if integer else 'a number'}, "
                                 f"got {value!r}")
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite and > 0")
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

    @property
    def frame_shape(self) -> tuple:
        """Shape of one frame of samples: (rx, chirp, sample)."""
        return (self.num_rx, self.chirps_per_frame, self.samples_per_chirp)


def chirp_slope(cfg: RadarConfig) -> float:
    """Sweep slope in Hz/s: bandwidth over chirp duration."""
    return cfg.bandwidth / cfg.chirp_duration


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
        if any(len(o) != 2 for o in self.element_offsets):
            raise ValueError("each element offset must be a (d_x, d_y) pair")
        i, j = self.azimuth_pair
        if i == j:
            raise ValueError("azimuth_pair indices must be distinct")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("azimuth_pair indices out of range")

    @property
    def num_rx(self) -> int:
        return len(self.element_offsets)

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


def config_to_dict(cfg: RadarConfig) -> dict:
    return asdict(cfg)


def config_from_dict(d: dict) -> RadarConfig:
    if not isinstance(d, dict):
        raise ValueError("config: expected a JSON object")
    extra = set(d) - {f.name for f in fields(RadarConfig)}
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    return RadarConfig(**d)


def geometry_to_dict(geom: ArrayGeometry) -> dict:
    return asdict(geom)


def json_int(name: str, value) -> int:
    """A JSON integer field; a bool, float or string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return value


def json_number(name: str, value) -> float:
    """A JSON number field as a float; a bool, a string, NaN and +/-inf are refused."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= sys.float_info.max):  # False for NaN
        raise ValueError(f"{name}: expected a number, got {value!r}")
    return float(value)


def geometry_from_dict(d: dict) -> ArrayGeometry:
    return ArrayGeometry(
        wavelength=json_number("wavelength", d["wavelength"]),
        element_offsets=tuple(tuple(json_number("element_offsets", x) for x in o)
                              for o in d["element_offsets"]),
        azimuth_pair=tuple(json_int("azimuth_pair", i) for i in d["azimuth_pair"]),
    )
