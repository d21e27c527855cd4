"""Radar configuration, receive-array geometry, closed-form FMCW quantities, and
the JSON record schema.

Everything downstream (FFT frontend, beamformers, simulator) consumes the
types defined here; a frame of samples is a plain complex array of shape
``RadarConfig.frame_shape``. All values are SI: Hz, seconds, meters, radians.
``from_json`` and ``to_json`` read and write every JSON record a file holds
(scenes, radar configs, recording headers and truth boxes, ``--trials``
entries) from the fields of its dataclass.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import typing
from dataclasses import MISSING, astuple, dataclass, fields, is_dataclass

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
    element_offsets: tuple[tuple[float, float], ...] = ()
    azimuth_pair: tuple[int, int] = (0, 1)

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


# --- The JSON record schema, derived from the dataclass fields ---
# A field's JSON kind comes from its annotation: an int a JSON integer, a float
# a finite JSON number, a str a string, "str | None" a string or null, a
# dataclass its JSON object, and tuple[X, ...] or tuple[X, Y] an array of those.
# A field whose metadata names a "record" holds that record's values as a
# plain tuple and is stored as its object. A "*_rad" field is stored in degrees
# under the "*_deg" key. A float field must be at least the "minimum" in its
# metadata, 0 by default; an int field and numbers in arrays have no bound
# unless one is given. A field with a default may be left out, and a key that
# no field maps to is an error, at every level.

SIGNED = {"minimum": None}  # field metadata: a float field that may be negative


def json_number(name: str, value) -> float:
    """A JSON number field as a float; a bool, a string, NaN and +/-inf are refused."""
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and abs(value) <= sys.float_info.max):  # False for NaN
        raise ValueError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _json_key(name: str) -> str:
    return name[:-len("_rad")] + "_deg" if name.endswith("_rad") else name


def _json_value(value):
    if is_dataclass(value):
        return to_json(value)
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


def to_json(record) -> dict:
    """The JSON object of a record; ``from_json`` reads it back."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if "record" in f.metadata:
            value = f.metadata["record"](*value)
        out[_json_key(f.name)] = (math.degrees(value) if f.name.endswith("_rad")
                                  else _json_value(value))
    return out


@functools.cache
def _kinds(spec) -> dict:
    return typing.get_type_hints(spec)


def _read(kind, value, where: str, minimum):
    """One JSON value of ``kind``; an error names ``where`` it is."""
    if is_dataclass(kind):
        return from_json(kind, value, where)
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        size = "" if kinds[-1] is ... else f" of {len(kinds)} items"
        if kinds[-1] is ... and isinstance(value, list):
            kinds = kinds[:1] * len(value)
        if not isinstance(value, list) or len(value) != len(kinds):
            raise ValueError(f"{where}: expected a JSON array{size}, got {value!r}")
        return tuple(_read(k, v, f"{where}[{i}]", minimum)
                     for i, (k, v) in enumerate(zip(kinds, value)))
    if kind in (str, str | None):
        if not (isinstance(value, str) or (value is None and kind is not str)):
            nullable = "" if kind is str else " or null"
            raise ValueError(f"{where}: expected a string{nullable}, got {value!r}")
        return value
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    value = value if kind is int else json_number(where, value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{where}: must be >= {minimum}")
    return value


def from_json(spec, d, path: str = "", name: str = ""):
    """Build the record ``spec`` from its JSON object.

    An error names the path of the bad key or value: ``path`` is this
    object's own (fields of a top-level object have bare keys), and ``name``
    labels a top-level object in errors about the object itself.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{path or name}: expected a JSON object, got {d!r}")
    by_key = {_json_key(f.name): f for f in fields(spec)}
    for key in d:
        if key not in by_key:
            raise ValueError(f"{path or name}: unknown key {key!r}")
    values = {}
    for key, f in by_key.items():
        if key not in d and f.default is not MISSING:
            continue
        kind = f.metadata.get("record", _kinds(spec)[f.name])
        value = _read(kind, d.get(key), f"{path}.{key}" if path else key,
                      f.metadata.get("minimum", 0.0 if kind is float else None))
        if "record" in f.metadata:
            value = astuple(value)
        values[f.name] = math.radians(value) if f.name.endswith("_rad") else value
    return spec(**values)
