"""Binary recording files and run manifests.

A recording file is a 4-byte magic, a little-endian uint32 header length, a
UTF-8 JSON header (config, geometry, label, truth boxes, tags, seed, frame
count, format version), and a little-endian complex64 payload laid out
[frame][rx][chirp][sample] row-major, which the reader keeps as one
read-only array over the file's bytes. Angles are degrees in all external
files and radians in memory. The header is the ``_Header`` record of the
JSON record schema (``core.from_json``), so a key that no field maps to, or
a value of the wrong JSON kind, is refused with its path. The reader raises
``ValueError`` for that, a bad magic, a file cut short before the end of its
header, a header nested too deeply to parse, an unknown format version, a
negative frame count, a payload whose length disagrees with the header, a
non-finite sample, and a geometry whose receiver count differs from the
config's or whose wavelength is more than 1e-9 (relative) away from
c / center_frequency: Capon steering assumes a half-wavelength pair. A run
manifest has its own reader, whose integer fields take integral floats; it
refuses a bad field when it is made, by ``manifest_from_dict``,
``RunManifest`` or ``replace``."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .cfar import CfarConfig, GroundTruthBox
from .core import SIGNED, ArrayGeometry, RadarConfig, from_json, json_number, to_json
from .dbf import default_grid
from .sim import Recording

MAGIC = b"FWR1"
FORMAT_VERSION = 1
BYTES_PER_SAMPLE = 8  # float32 real + float32 imag


@dataclass(frozen=True)
class _TruthBox:
    """A ``GroundTruthBox`` as the header stores it: flat keys, azimuths in degrees."""

    center_range_m: float
    center_azimuth_rad: float = field(metadata=SIGNED)
    half_extent_range_m: float
    half_extent_azimuth_rad: float
    view_tag: str = ""
    location_tag: str = ""


@dataclass(frozen=True)
class _Header:
    """The JSON header of a recording file."""

    format_version: int
    config: RadarConfig
    geometry: ArrayGeometry
    label: str
    n_frames: int = field(metadata={"minimum": 0})
    seed: int = 0
    view_tag: str = ""
    location_tag: str = ""
    subject_tag: str = ""
    truth: tuple[_TruthBox, ...] = ()


def payload_nbytes(cfg: RadarConfig, n_frames: int) -> int:
    return n_frames * math.prod(cfg.frame_shape) * BYTES_PER_SAMPLE


def write_recording(path, rec: Recording) -> None:
    """Write ``rec``; a real or imaginary part beyond float32's range, or NaN, raises first."""
    limit = np.finfo(np.float32).max
    for i, frame in enumerate(rec.samples):  # frame by frame: no whole-array temporary
        if not (np.abs(frame.real) <= limit).all() or not (np.abs(frame.imag) <= limit).all():
            raise ValueError(f"frame {i}: a sample component exceeds the float32 range "
                             "of the recording format")
    header = _Header(
        format_version=FORMAT_VERSION, config=rec.config, geometry=rec.geometry,
        label=rec.label, n_frames=rec.n_frames, seed=rec.seed, view_tag=rec.view_tag,
        location_tag=rec.location_tag, subject_tag=rec.subject_tag,
        truth=tuple(_TruthBox(*b.center, *b.half_extents, b.view_tag, b.location_tag)
                    for b in rec.truth))
    header_bytes = json.dumps(to_json(header), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(header_bytes)).tobytes())
        fh.write(header_bytes)
        fh.write(rec.samples.astype("<c8").tobytes())


def read_recording(path) -> Recording:
    """Read a recording file; any malformed part of it raises ``ValueError``."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC[:len(raw)]:  # a file shorter than the magic is checked as far as it goes
        raise ValueError(f"not a recording file (bad magic {raw[:4]!r})")
    if len(raw) < 8:
        raise ValueError(f"recording file cut short: {len(raw)} bytes, under the 8 of its "
                         "magic and header length")
    header_len = int.from_bytes(raw[4:8], "little")
    if 8 + header_len > len(raw):
        raise ValueError(f"recording file cut short: its {header_len}-byte header runs past "
                         f"the end of the file at byte {len(raw)}")
    header = _parse_json(raw[8:8 + header_len].decode("utf-8"), f"recording {path}")
    if not isinstance(header, dict):
        raise ValueError("recording header: expected a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {header.get('format_version')}")
    h = from_json(_Header, header, name="recording header")
    cfg, geom = h.config, h.geometry
    if geom.num_rx != cfg.num_rx:
        raise ValueError(f"geometry has {geom.num_rx} receivers, config {cfg.num_rx}")
    if abs(geom.wavelength - cfg.wavelength) > 1e-9 * cfg.wavelength:
        raise ValueError(f"geometry wavelength {geom.wavelength} m differs from the "
                         f"config's c / center_frequency = {cfg.wavelength} m")
    payload = len(raw) - 8 - header_len
    expected = payload_nbytes(cfg, h.n_frames)
    if payload != expected:
        raise ValueError(f"payload length mismatch: expected {expected} bytes, got {payload}")
    samples = np.frombuffer(raw, "<c8", offset=8 + header_len)
    truth = tuple(GroundTruthBox(center=(b.center_range_m, b.center_azimuth_rad),
                                 half_extents=(b.half_extent_range_m, b.half_extent_azimuth_rad),
                                 view_tag=b.view_tag, location_tag=b.location_tag)
                  for b in h.truth)
    return Recording(config=cfg, geometry=geom,
                     samples=samples.reshape((h.n_frames,) + cfg.frame_shape), truth=truth,
                     label=h.label, seed=h.seed, view_tag=h.view_tag,
                     location_tag=h.location_tag, subject_tag=h.subject_tag)


@dataclass(frozen=True)
class RunManifest:
    """Frozen processing parameters for one pipeline run.

    k is the per-method operating point; the two pipelines are tuned
    separately, so a manifest records the method it applies to. Capon always
    runs on the geometry's azimuth pair; ``capon_channels`` records that as
    its only legal value, "pair". Making a manifest builds its ``cfar``
    (``CfarConfig``) and ``grid`` (``SteeringGrid``) once; neither is a field.
    """

    method: str = "capon"
    k: float = 2.4
    guard_cells: tuple = (2, 2)
    training_cells: tuple = (4, 4)
    edge_policy: str = "shrink_window"
    theta_max_deg: float = 60.0
    theta_step_deg: float = 1.0
    elevations_deg: tuple = (-10.0, 0.0, 10.0)
    doppler_half_width: int = 2
    mti_alpha: float = 0.01
    capon_channels: str = "pair"

    def __post_init__(self):
        if self.method not in ("dbf", "capon"):
            raise ValueError("method must be 'dbf' or 'capon'")
        if self.capon_channels != "pair":
            raise ValueError("capon_channels must be 'pair'")
        if not (0.0 < self.theta_max_deg <= 90.0 and 0.0 < self.theta_step_deg < math.inf):
            raise ValueError("theta_max_deg must be in (0, 90] and theta_step_deg finite and > 0")
        el = self.elevations_deg
        if not (len(el) >= 1 and all(-90.0 <= e <= 90.0 for e in el)
                and all(a < b for a, b in zip(el, el[1:]))):
            raise ValueError("elevations_deg must be a non-empty, strictly increasing list "
                             "of angles in [-90, 90]")
        if not 0.0 <= self.mti_alpha <= 1.0:
            raise ValueError("mti_alpha must be in [0, 1]")
        if self.doppler_half_width < 0:
            raise ValueError("doppler_half_width must be >= 0")
        object.__setattr__(self, "cfar", CfarConfig(self.guard_cells, self.training_cells,
                                                    self.k, self.edge_policy))
        object.__setattr__(self, "grid", default_grid(self.theta_max_deg, self.theta_step_deg,
                                                      self.elevations_deg))


# Fields stored in the nested "cfar" and "grid" JSON objects; the rest sit at the top level.
_GROUP_OF = {"guard_cells": "cfar", "training_cells": "cfar", "edge_policy": "cfar",
             "theta_max_deg": "grid", "theta_step_deg": "grid", "elevations_deg": "grid"}


def manifest_to_dict(m: RunManifest) -> dict:
    out = {}
    for f in fields(RunManifest):
        value = getattr(m, f.name)
        group = _GROUP_OF.get(f.name)
        target = out.setdefault(group, {}) if group else out
        target[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _coerce(name, default, value):
    """Convert a JSON value to its field's type; 1.5 is no integer, true and "3" no number."""
    if isinstance(default, tuple):
        return tuple(_coerce(name, default[0], x) for x in value)
    if isinstance(default, str):
        return value
    number = json_number(name, value)
    if isinstance(default, int) and not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return type(default)(value)


def manifest_from_dict(d: dict) -> RunManifest:
    """Build a manifest from its JSON form; absent fields take their defaults."""
    if not isinstance(d, dict):
        raise ValueError("manifest: expected a JSON object")
    groups = set(_GROUP_OF.values())
    entries = [(None, name, value) for name, value in d.items() if name not in groups]
    for group in sorted(groups & d.keys()):
        if not isinstance(d[group], dict):
            raise ValueError(f"manifest: {group!r} must be a JSON object")
        entries += [(group, name, value) for name, value in d[group].items()]
    defaults = {f.name: f.default for f in fields(RunManifest)}
    unknown = [f"{group}.{name}" if group else name for group, name, _ in entries
               if name not in defaults or _GROUP_OF.get(name) != group]
    if unknown:
        raise ValueError(f"manifest: unknown fields {sorted(unknown)}")
    try:
        return RunManifest(**{name: _coerce(name, defaults[name], value)
                              for _, name, value in entries})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest: {exc}") from exc


def _parse_json(text: str, source: str):
    """``json.loads(text)``; a document nested too deep to parse raises ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to read") from None


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read(), str(path))


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
