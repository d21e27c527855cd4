"""Synthetic SIMO FMCW scene generation with ground truth.

Each scatterer contributes, per chirp, a fast-time complex tone at the beat
frequency of its (possibly micro-motion modulated) range, with the carrier
phase -4*pi*r/lambda advancing chirp to chirp, multiplied across receivers
by the arrival vector (the conjugate of the beamformer steering weights).
Per-sample complex white noise is drawn from a counter-based stream keyed
by (seed, frame index), so frames synthesize identically in any order. A
recording fills its frames into one preallocated (frame, rx, chirp, sample) array.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, astuple, dataclass, field, fields, make_dataclass

import numpy as np

from .cfar import GroundTruthBox
from .core import (SPEED_OF_LIGHT, ArrayGeometry, RadarConfig, chirp_slope, json_int,
                   json_number, max_range)
from .dbf import element_phases

DEFAULT_BOX_HALF_EXTENTS = (0.45, math.radians(10.0))
_SIGNED = {"minimum": None}  # field metadata read by the JSON scene schema


@dataclass(frozen=True)
class TargetSpec:
    """Quasi-static subject: a reflector with millimetric sinusoidal range jitter."""

    range_m: float
    azimuth_rad: float = field(default=0.0, metadata=_SIGNED)
    elevation_rad: float = field(default=0.0, metadata=_SIGNED)
    amplitude: float = 1.0
    micro_motion_amplitude_m: float = 1e-3
    micro_motion_rate_hz: float = 0.25


@dataclass(frozen=True)
class ClutterSpec:
    """Static reflector (furniture, walls, multipath stand-in)."""

    range_m: float
    azimuth_rad: float = field(default=0.0, metadata=_SIGNED)
    elevation_rad: float = field(default=0.0, metadata=_SIGNED)
    amplitude: float = 1.0


@dataclass(frozen=True)
class SceneSpec:
    targets: tuple = ()
    clutter: tuple = ()
    noise_std: float = 0.0
    seed: int = 0
    n_frames: int = field(default=1, metadata={"minimum": 1})
    view_tag: str = ""
    location_tag: str = ""
    subject_tag: str = ""
    box_half_extents: tuple = DEFAULT_BOX_HALF_EXTENTS

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        for t in self.targets:
            if t.amplitude < 0 or t.micro_motion_amplitude_m < 0:
                raise ValueError("target amplitudes must be >= 0")
            if abs(t.azimuth_rad) > np.pi / 2:
                raise ValueError("target azimuth must satisfy |azimuth| <= pi/2")
        for c in self.clutter:
            if c.amplitude < 0:
                raise ValueError("clutter amplitude must be >= 0")
            if abs(c.azimuth_rad) > np.pi / 2:
                raise ValueError("clutter azimuth must satisfy |azimuth| <= pi/2")

    @property
    def label(self) -> str:
        return "occupied" if self.targets else "empty"


def validate_scene(scene: SceneSpec, cfg: RadarConfig) -> None:
    """Reject scatterers outside the unambiguous range span."""
    r_max = max_range(cfg)
    for t in scene.targets:
        if not 0.0 < t.range_m - t.micro_motion_amplitude_m:
            raise ValueError(f"target range {t.range_m} m reaches zero under micro-motion")
        if t.range_m + t.micro_motion_amplitude_m >= r_max:
            raise ValueError(f"target range {t.range_m} m outside unambiguous span {r_max:.2f} m")
    for c in scene.clutter:
        if not 0.0 < c.range_m < r_max:
            raise ValueError(f"clutter range {c.range_m} m outside unambiguous span {r_max:.2f} m")


def arrival_vector(theta: float, phi: float, geom: ArrayGeometry) -> np.ndarray:
    """Per-receiver arrival phases: elementwise conjugate of the steering weights."""
    return np.exp(-1j * element_phases(geom, theta, phi))


def _frame_rng(seed: int, frame_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(frame_idx,)))


def synthesize_frame(scene: SceneSpec, cfg: RadarConfig, geom: ArrayGeometry,
                     frame_idx: int) -> np.ndarray:
    """Deterministic (rx, chirp, sample) complex128 frame for (scene.seed, frame_idx)."""
    validate_scene(scene, cfg)
    slope = chirp_slope(cfg)
    lam = geom.wavelength
    t_frame = frame_idx / cfg.frame_rate
    chirp_times = t_frame + np.arange(cfg.chirps_per_frame) * cfg.chirp_repetition_interval
    sample_times = np.arange(cfg.samples_per_chirp) * (cfg.chirp_duration / cfg.samples_per_chirp)

    cube = np.zeros(cfg.frame_shape, dtype=np.complex128)

    def add_scatterer(r0, az, el, amp, mm_amp, mm_rate):
        if amp == 0.0:
            return
        r = r0 + mm_amp * np.sin(2.0 * np.pi * mm_rate * chirp_times)  # (chirps,)
        f_beat = slope * 2.0 * r / SPEED_OF_LIGHT
        phase = (2.0 * np.pi * f_beat[:, None] * sample_times[None, :]
                 - (4.0 * np.pi / lam) * r[:, None])                    # (chirps, samples)
        v = arrival_vector(az, el, geom)                                # (rx,)
        cube[...] += amp * v[:, None, None] * np.exp(1j * phase)[None, :, :]

    for t in scene.targets:
        add_scatterer(t.range_m, t.azimuth_rad, t.elevation_rad, t.amplitude,
                      t.micro_motion_amplitude_m, t.micro_motion_rate_hz)
    for c in scene.clutter:
        add_scatterer(c.range_m, c.azimuth_rad, c.elevation_rad, c.amplitude, 0.0, 0.0)

    if scene.noise_std > 0:
        rng = _frame_rng(scene.seed, frame_idx)
        shape = cube.shape
        scale = scene.noise_std / np.sqrt(2.0)
        cube += scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return cube


@dataclass(frozen=True)
class Recording:
    """An ordered run of frames with its configuration and ground truth.

    ``samples`` is one (frame, rx, chirp, sample) array: complex128 when
    synthesized, complex64 when read from a file."""

    config: RadarConfig
    geometry: ArrayGeometry
    samples: np.ndarray
    truth: tuple
    label: str
    seed: int = 0
    view_tag: str = ""
    location_tag: str = ""
    subject_tag: str = ""

    def __post_init__(self):
        if self.label not in ("occupied", "empty"):
            raise ValueError("label must be 'occupied' or 'empty'")
        if (self.label == "empty") != (len(self.truth) == 0):
            raise ValueError("truth boxes must be present exactly for occupied recordings")
        if self.samples.ndim != 4 or self.samples.shape[1:] != self.config.frame_shape:
            raise ValueError(f"samples shape {self.samples.shape} is not (frames,) + frame_shape")
        for i, frame in enumerate(self.samples):  # frame by frame: no whole-array temporary
            if not np.isfinite(frame).all():
                raise ValueError(f"frame {i}: samples contain non-finite values")

    @property
    def n_frames(self) -> int:
        return self.samples.shape[0]


def truth_boxes(scene: SceneSpec) -> tuple:
    return tuple(
        GroundTruthBox(center=(t.range_m, t.azimuth_rad),
                       half_extents=scene.box_half_extents,
                       view_tag=scene.view_tag, location_tag=scene.location_tag)
        for t in scene.targets
    )


def synthesize_recording(scene: SceneSpec, cfg: RadarConfig, geom: ArrayGeometry) -> Recording:
    samples = np.empty((scene.n_frames,) + cfg.frame_shape, dtype=np.complex128)
    for i in range(scene.n_frames):
        samples[i] = synthesize_frame(scene, cfg, geom, i)
    return Recording(config=cfg, geometry=geom, samples=samples, truth=truth_boxes(scene),
                     label=scene.label, seed=scene.seed, view_tag=scene.view_tag,
                     location_tag=scene.location_tag, subject_tag=scene.subject_tag)


# --- JSON scene schema, derived from the spec fields ---
# A "*_rad" field is stored in degrees under the "*_deg" key, and a field with
# a default may be left out. A number must be a finite JSON number (an integer
# field takes an integer) and at least the "minimum" in its field's metadata,
# which defaults to 0 for floats and to none for integers.
# A key that no field maps to is an error, at every level.

_BoxHalfExtents = make_dataclass("_BoxHalfExtents", [("range_m", float), ("azimuth_rad", float)])
_LISTS = {"targets": TargetSpec, "clutter": ClutterSpec}


def _json_key(name: str) -> str:
    return name[:-len("_rad")] + "_deg" if name.endswith("_rad") else name


def _to_json(record) -> dict:
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name in _LISTS:
            value = [_to_json(item) for item in value]
        elif f.name == "box_half_extents":
            value = _to_json(_BoxHalfExtents(*value))
        out[_json_key(f.name)] = math.degrees(value) if f.name.endswith("_rad") else value
    return out


def _from_json(spec, d, path: str):
    """Build ``spec`` from its JSON object; errors name the path of the bad field or key."""
    if not isinstance(d, dict):
        raise ValueError(f"{path or 'scene'}: expected a JSON object")
    known = {_json_key(f.name) for f in fields(spec)}
    for key in d:
        if key not in known:
            raise ValueError(f"{path or 'scene'}: unknown key {key!r}")
    values = {}
    for f in fields(spec):
        key = _json_key(f.name)
        if key not in d and f.default is not MISSING:
            continue
        where, value = f"{path}.{key}" if path else key, d.get(key)
        if f.name in _LISTS:
            if not isinstance(value, list):
                raise ValueError(f"{where}: expected a JSON array")
            value = tuple(_from_json(_LISTS[f.name], item, f"{where}[{i}]")
                          for i, item in enumerate(value))
        elif f.name == "box_half_extents":
            value = astuple(_from_json(_BoxHalfExtents, value, where))
        elif isinstance(f.default, str):
            value = str(value)
        else:
            integer = isinstance(f.default, int)
            value = json_int(where, value) if integer else json_number(where, value)
            minimum = f.metadata.get("minimum", None if integer else 0.0)
            if minimum is not None and value < minimum:
                raise ValueError(f"{where}: must be >= {minimum}")
            if f.name.endswith("_rad"):
                value = math.radians(value)
        values[f.name] = value
    return spec(**values)


def scene_from_dict(d: dict) -> SceneSpec:
    return _from_json(SceneSpec, d, "")


def scene_to_dict(scene: SceneSpec) -> dict:
    return _to_json(scene)
