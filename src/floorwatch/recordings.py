"""Binary recording files and run manifests.

A recording file is a 4-byte magic, a little-endian uint32 header length, a
UTF-8 JSON header (config, geometry, label, truth boxes, tags, seed, frame
count, format version), and a float32 payload of interleaved (real, imag)
samples laid out [frame][rx][chirp][sample] row-major. Angles are degrees
in all external files and radians in memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cfar import GroundTruthBox
from .core import (FrameCube, RadarConfig, config_from_dict, config_to_dict,
                   geometry_from_dict, geometry_to_dict)
from .sim import Recording

MAGIC = b"FWR1"
FORMAT_VERSION = 1
BYTES_PER_SAMPLE = 8  # float32 real + float32 imag


def _box_to_dict(box: GroundTruthBox) -> dict:
    return {
        "center_range_m": box.center[0],
        "center_azimuth_deg": math.degrees(box.center[1]),
        "half_extent_range_m": box.half_extents[0],
        "half_extent_azimuth_deg": math.degrees(box.half_extents[1]),
        "view_tag": box.view_tag,
        "location_tag": box.location_tag,
    }


def _box_from_dict(d: dict) -> GroundTruthBox:
    return GroundTruthBox(
        center=(float(d["center_range_m"]), math.radians(float(d["center_azimuth_deg"]))),
        half_extents=(float(d["half_extent_range_m"]),
                      math.radians(float(d["half_extent_azimuth_deg"]))),
        view_tag=str(d.get("view_tag", "")),
        location_tag=str(d.get("location_tag", "")),
    )


def payload_nbytes(cfg: RadarConfig, n_frames: int) -> int:
    return n_frames * cfg.num_rx * cfg.chirps_per_frame * cfg.samples_per_chirp * BYTES_PER_SAMPLE


def write_recording(path, rec: Recording) -> None:
    cfg = rec.config
    header = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(cfg),
        "geometry": geometry_to_dict(rec.geometry),
        "label": rec.label,
        "seed": rec.seed,
        "n_frames": rec.n_frames,
        "view_tag": rec.view_tag,
        "location_tag": rec.location_tag,
        "subject_tag": rec.subject_tag,
        "truth": [_box_to_dict(b) for b in rec.truth],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    shape = (rec.n_frames, cfg.num_rx, cfg.chirps_per_frame, cfg.samples_per_chirp)
    interleaved = np.empty(shape + (2,), dtype="<f4")
    for i, frame in enumerate(rec.frames):
        interleaved[i, ..., 0] = frame.samples.real
        interleaved[i, ..., 1] = frame.samples.imag
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(header_bytes)).tobytes())
        fh.write(header_bytes)
        fh.write(interleaved.tobytes())


def read_recording(path) -> Recording:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"not a recording file (bad magic {raw[:4]!r})")
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    header = json.loads(raw[8:8 + header_len].decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {header.get('format_version')}")
    cfg = config_from_dict(header["config"])
    geom = geometry_from_dict(header["geometry"])
    n_frames = int(header["n_frames"])
    payload = raw[8 + header_len:]
    expected = payload_nbytes(cfg, n_frames)
    if len(payload) != expected:
        raise ValueError(f"payload length mismatch: expected {expected} bytes, got {len(payload)}")
    shape = (n_frames, cfg.num_rx, cfg.chirps_per_frame, cfg.samples_per_chirp, 2)
    interleaved = np.frombuffer(payload, dtype="<f4").reshape(shape)
    frames = []
    for i in range(n_frames):
        samples = interleaved[i, ..., 0].astype(np.complex64)
        samples += 1j * interleaved[i, ..., 1].astype(np.complex64)
        frames.append(FrameCube(samples=samples, frame_index=i,
                                timestamp=i / cfg.frame_rate))
    return Recording(
        config=cfg, geometry=geom, frames=tuple(frames),
        truth=tuple(_box_from_dict(b) for b in header.get("truth", [])),
        label=header["label"], seed=int(header.get("seed", 0)),
        view_tag=str(header.get("view_tag", "")),
        location_tag=str(header.get("location_tag", "")),
        subject_tag=str(header.get("subject_tag", "")),
    )


@dataclass(frozen=True)
class RunManifest:
    """Frozen processing parameters for one pipeline run.

    k is the per-method operating point; the two pipelines are tuned
    separately, so a manifest records the method it applies to.
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
    fast_time_window: str = "hann"
    slow_time_window: str = "hann"
    capon_channels: str = "pair"     # 'pair' = azimuth baseline, 'all' = every receiver

    def __post_init__(self):
        if self.method not in ("dbf", "capon"):
            raise ValueError("method must be 'dbf' or 'capon'")
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if self.capon_channels not in ("pair", "all"):
            raise ValueError("capon_channels must be 'pair' or 'all'")
        if not 0.0 <= self.mti_alpha <= 1.0:
            raise ValueError("mti_alpha must be in [0, 1]")
        if self.doppler_half_width < 0:
            raise ValueError("doppler_half_width must be >= 0")


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


def _coerce(default, value):
    """Convert a JSON value to the type of the field's default."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in value)
    if isinstance(default, (int, float)):
        return type(default)(value)
    return value


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
        return RunManifest(**{name: _coerce(defaults[name], value)
                              for _, name, value in entries})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest: {exc}") from exc


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
