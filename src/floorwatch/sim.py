"""Synthetic SIMO FMCW scene generation with ground truth.

Each scatterer contributes, per chirp, a fast-time complex tone at the beat
frequency of its (possibly micro-motion modulated) range, with the carrier
phase -4*pi*r/lambda advancing chirp to chirp, multiplied across receivers
by the arrival vector (the conjugate of the beamformer steering weights).
A scatterer without micro-motion has the same tone on every chirp, so its
tone is computed on one chirp row and broadcast over the chirps; every
element still adds the same operands in the same order.
Per-sample complex white noise is drawn from a counter-based stream keyed
by (seed, frame index), so frames synthesize identically in any order and
one at a time: ``scene_recording`` makes each frame as a pass over it reaches
it (``simulate`` writes it and drops it), and ``synthesize_recording`` fills
every frame into one preallocated (frame, rx, chirp, sample) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, make_dataclass, replace

import numpy as np

from .cfar import GroundTruthBox
from .core import (SIGNED, SPEED_OF_LIGHT, ArrayGeometry, RadarConfig, chirp_slope, from_json,
                   max_range, to_json)
from .dbf import element_phases

DEFAULT_BOX_HALF_EXTENTS = (0.45, math.radians(10.0))
# the JSON object of SceneSpec.box_half_extents, which holds its values as a tuple
_BoxHalfExtents = make_dataclass("_BoxHalfExtents", [("range_m", float), ("azimuth_rad", float)])


@dataclass(frozen=True)
class TargetSpec:
    """Quasi-static subject: a reflector with millimetric sinusoidal range jitter."""

    range_m: float
    azimuth_rad: float = field(default=0.0, metadata=SIGNED)
    elevation_rad: float = field(default=0.0, metadata=SIGNED)
    amplitude: float = 1.0
    micro_motion_amplitude_m: float = 1e-3
    micro_motion_rate_hz: float = 0.25


@dataclass(frozen=True)
class ClutterSpec:
    """Static reflector (furniture, walls, multipath stand-in)."""

    range_m: float
    azimuth_rad: float = field(default=0.0, metadata=SIGNED)
    elevation_rad: float = field(default=0.0, metadata=SIGNED)
    amplitude: float = 1.0


@dataclass(frozen=True)
class SceneSpec:
    targets: tuple[TargetSpec, ...] = ()
    clutter: tuple[ClutterSpec, ...] = ()
    noise_std: float = 0.0
    seed: int = 0
    n_frames: int = field(default=1, metadata={"minimum": 1})
    view_tag: str = ""
    location_tag: str = ""
    subject_tag: str = ""
    box_half_extents: tuple = field(default=DEFAULT_BOX_HALF_EXTENTS,
                                    metadata={"record": _BoxHalfExtents})

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
        times = chirp_times if mm_amp else chirp_times[:1]  # a static tone: one chirp row
        r = r0 + mm_amp * np.sin(2.0 * np.pi * mm_rate * times)         # (chirps or 1,)
        f_beat = slope * 2.0 * r / SPEED_OF_LIGHT
        phase = (2.0 * np.pi * f_beat[:, None] * sample_times[None, :]
                 - (4.0 * np.pi / lam) * r[:, None])                    # (chirps or 1, samples)
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
        noise = np.empty(shape, dtype=np.complex128)
        np.multiply(scale, rng.standard_normal(shape), out=noise.real)
        np.multiply(scale, rng.standard_normal(shape), out=noise.imag)
        cube += noise

    return cube


@dataclass(frozen=True)
class Recording:
    """An ordered run of frames with its configuration and ground truth.

    ``samples`` holds the (rx, chirp, sample) frames in order: either one
    (frame, rx, chirp, sample) array, checked finite here, or a sized
    iterable that makes them on each pass over it: ``SceneFrames``, whose
    frames ``write_recording`` checks as it writes them, or a recording
    file's ``recordings.FileFrames``, whose payload ``read_recording`` checked."""

    config: RadarConfig
    geometry: ArrayGeometry
    samples: object
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
        if not isinstance(self.samples, np.ndarray):
            return
        if self.samples.ndim != 4 or self.samples.shape[1:] != self.config.frame_shape:
            raise ValueError(f"samples shape {self.samples.shape} is not (frames,) + frame_shape")
        for i, frame in enumerate(self.samples):  # frame by frame: no whole-array temporary
            if not np.isfinite(frame).all():
                raise ValueError(f"frame {i}: samples contain non-finite values")

    @property
    def n_frames(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class SceneFrames:
    """A scene's frames, each synthesized by ``synthesize_frame`` as a pass reaches it."""

    scene: SceneSpec
    config: RadarConfig
    geometry: ArrayGeometry

    def __len__(self) -> int:
        return self.scene.n_frames

    def __iter__(self):
        for i in range(self.scene.n_frames):
            yield synthesize_frame(self.scene, self.config, self.geometry, i)


def truth_boxes(scene: SceneSpec) -> tuple:
    return tuple(
        GroundTruthBox(center=(t.range_m, t.azimuth_rad),
                       half_extents=scene.box_half_extents,
                       view_tag=scene.view_tag, location_tag=scene.location_tag)
        for t in scene.targets
    )


def scene_recording(scene: SceneSpec, cfg: RadarConfig, geom: ArrayGeometry) -> Recording:
    """The scene's recording, its frames synthesized on each pass (``SceneFrames``)."""
    return Recording(config=cfg, geometry=geom, samples=SceneFrames(scene, cfg, geom),
                     truth=truth_boxes(scene), label=scene.label, seed=scene.seed,
                     view_tag=scene.view_tag, location_tag=scene.location_tag,
                     subject_tag=scene.subject_tag)


def synthesize_recording(scene: SceneSpec, cfg: RadarConfig, geom: ArrayGeometry) -> Recording:
    """The scene's recording with every frame synthesized into one complex128 array."""
    rec = scene_recording(scene, cfg, geom)
    samples = np.empty((scene.n_frames,) + cfg.frame_shape, dtype=np.complex128)
    for i, frame in enumerate(rec.samples):
        samples[i] = frame
    return replace(rec, samples=samples)


def scene_from_dict(d: dict) -> SceneSpec:
    return from_json(SceneSpec, d, name="scene")


def scene_to_dict(scene: SceneSpec) -> dict:
    return to_json(scene)
