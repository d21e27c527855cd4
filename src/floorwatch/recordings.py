"""Binary recording files and run manifests.

A recording file is a 4-byte magic, a little-endian uint32 header length, a
UTF-8 JSON header (config, geometry, label, truth boxes, tags, seed, frame
count, format version), and a little-endian complex64 payload laid out
[frame][rx][chirp][sample] row-major. Both ends stream frames, so memory does
not grow with the frame count: the writer checks and writes one frame at a
time, and the reader checks the header and scans the payload in fixed blocks,
then hands the frames out one at a time on each pass (``FileFrames``). Angles
are degrees in all external files and radians in memory. The header is the
``_Header`` record of the JSON record schema (``core.from_json``), so a key
that no field maps to, or a value of the wrong JSON kind, is refused with its
path. The reader raises ``ValueError`` for that, a bad magic, a file cut short
before the end of its header, a header that is no JSON or is nested too
deeply to parse, an unknown format version, a negative frame count, a payload
whose length disagrees with the header, a non-finite sample, and a geometry
whose receiver count differs from the config's or whose wavelength is more
than 1e-9 (relative) away from c / center_frequency: Capon steering assumes a
half-wavelength pair. A run manifest file is the ``_ManifestFile`` record, made
from ``RunManifest``'s fields; its errors start with "manifest: ", and its
``INTEGRAL`` fields take integral floats."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, make_dataclass
from pathlib import Path

import numpy as np

from .cfar import CfarConfig, GroundTruthBox
from .core import INTEGRAL, SIGNED, ArrayGeometry, RadarConfig, _kinds, from_json, to_json
from .dbf import default_grid
from .sim import Recording

MAGIC = b"FWR1"
FORMAT_VERSION = 1
BYTES_PER_SAMPLE = 8  # float32 real + float32 imag
SCAN_BYTES = 1 << 22  # the block the payload's finiteness scan reads at a time


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
    """Write ``rec`` frame by frame, as its frames are made.

    Each frame is checked before it is written: a real or imaginary part
    beyond float32's range, or NaN, raises. The file is written under a
    temporary name in the same directory and renamed to ``path`` once whole,
    so a recording that raises leaves no file. A ``path`` that exists and is
    no regular file, such as a device or a pipe, is refused, since the
    rename would replace it."""
    limit = np.finfo(np.float32).max
    header = _Header(
        format_version=FORMAT_VERSION, config=rec.config, geometry=rec.geometry,
        label=rec.label, n_frames=rec.n_frames, seed=rec.seed, view_tag=rec.view_tag,
        location_tag=rec.location_tag, subject_tag=rec.subject_tag,
        truth=tuple(_TruthBox(*b.center, *b.half_extents, b.view_tag, b.location_tag)
                    for b in rec.truth))
    header_bytes = json.dumps(to_json(header), sort_keys=True).encode("utf-8")
    target = Path(path).resolve()  # through a symlink, to the file it names
    if target.exists() and not target.is_file():
        raise ValueError(f"{path}: not a regular file")
    part = target.with_name(target.name + ".part")
    try:
        with open(part, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.uint32(len(header_bytes)).tobytes())
            fh.write(header_bytes)
            for i, frame in enumerate(rec.samples):
                if not ((np.abs(frame.real) <= limit).all()
                        and (np.abs(frame.imag) <= limit).all()):
                    raise ValueError(f"frame {i}: a sample component exceeds the float32 "
                                     "range of the recording format")
                fh.write(frame.astype("<c8"))
        os.replace(part, target)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def read_recording(path) -> Recording:
    """Read a recording file's header and check its payload; its frames are read on iteration.

    Any malformed part of the file raises ``ValueError`` here, before a frame
    is handed out: the payload is scanned for non-finite samples in blocks
    of ``SCAN_BYTES``, read into one reused buffer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != MAGIC[:len(head)]:  # a file under 4 bytes is checked as far as it goes
            raise ValueError(f"not a recording file (bad magic {head[:4]!r})")
        if size < 8:
            raise ValueError(f"recording file cut short: {size} bytes, under the 8 of its "
                             "magic and header length")
        header_len = int.from_bytes(head[4:8], "little")
        if 8 + header_len > size:
            raise ValueError(f"recording file cut short: its {header_len}-byte header runs "
                             f"past the end of the file at byte {size}")
        header = _parse_json(fh.read(header_len).decode("utf-8"), f"recording {path}")
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
        payload = size - 8 - header_len
        expected = payload_nbytes(cfg, h.n_frames)
        if payload != expected:
            raise ValueError(f"payload length mismatch: expected {expected} bytes, got {payload}")
        _scan_payload(fh, payload, payload_nbytes(cfg, 1))
    truth = tuple(GroundTruthBox(center=(b.center_range_m, b.center_azimuth_rad),
                                 half_extents=(b.half_extent_range_m, b.half_extent_azimuth_rad),
                                 view_tag=b.view_tag, location_tag=b.location_tag)
                  for b in h.truth)
    frames = FileFrames(os.fspath(path), 8 + header_len, h.n_frames, cfg.frame_shape)
    return Recording(config=cfg, geometry=geom, samples=frames, truth=truth,
                     label=h.label, seed=h.seed, view_tag=h.view_tag,
                     location_tag=h.location_tag, subject_tag=h.subject_tag)


def _scan_payload(fh, nbytes: int, frame_nbytes: int) -> None:
    """Read the ``nbytes`` of payload that follow in ``fh``; a non-finite float32 raises,
    naming its frame."""
    block = np.empty(SCAN_BYTES // 4, "<f4")
    done = 0
    while done < nbytes:
        n = fh.readinto(block[:min(nbytes - done, SCAN_BYTES) // 4])
        if n == 0:
            raise ValueError(f"recording file cut short: its payload ends at byte {done}")
        values = block[:n // 4]
        if not np.isfinite(values).all():
            first = done + 4 * int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(f"frame {first // frame_nbytes}: samples contain non-finite values")
        done += n


@dataclass(frozen=True)
class FileFrames:
    """The frames of a recording file, read on each pass over them.

    A pass opens the file once and reads each frame with one ``readinto``
    into one read-only complex64 buffer of its own, reused for every frame:
    a frame holds until the pass reads the next. Passes are independent, and
    a frame the file no longer holds raises ``ValueError`` naming it."""

    path: str
    offset: int
    n_frames: int
    frame_shape: tuple

    def __len__(self) -> int:
        return self.n_frames

    def __iter__(self):
        buffer = np.empty(self.frame_shape, "<c8")
        frame = buffer.view()
        frame.flags.writeable = False
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            for i in range(self.n_frames):
                if fh.readinto(buffer) != buffer.nbytes:
                    raise ValueError(f"recording {self.path}: frame {i} is cut short")
                yield frame


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
    guard_cells: tuple[int, int] = field(default=(2, 2), metadata=INTEGRAL)
    training_cells: tuple[int, int] = field(default=(4, 4), metadata=INTEGRAL)
    edge_policy: str = "shrink_window"
    theta_max_deg: float = 60.0
    theta_step_deg: float = 1.0
    elevations_deg: tuple[float, ...] = (-10.0, 0.0, 10.0)
    doppler_half_width: int = field(default=2, metadata=INTEGRAL)
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


def _file_record(name: str, names, *extra) -> type:
    """A record of the ``RunManifest`` fields ``names`` (their types, defaults and metadata),
    then the fields ``extra``; ``eq=False`` keeps it hashable, so it can be a default."""
    kinds = _kinds(RunManifest)
    own = [(f.name, kinds[f.name], field(default=f.default, metadata=f.metadata))
           for f in fields(RunManifest) if f.name in names]
    return make_dataclass(name, own + list(extra), eq=False)


# The manifest file: its "cfar" and "grid" objects hold six of the fields, the top level the rest.
_NESTED = {"cfar": _file_record("_Cfar", ("guard_cells", "training_cells", "edge_policy")),
           "grid": _file_record("_Grid", ("theta_max_deg", "theta_step_deg", "elevations_deg"))}
_ManifestFile = _file_record(
    "_ManifestFile", ("method", "k", "doppler_half_width", "mti_alpha", "capon_channels"),
    *((key, record, field(default=record())) for key, record in _NESTED.items()))


def manifest_to_dict(m: RunManifest) -> dict:
    """The JSON form of ``m``; ``manifest_from_dict`` reads it back."""
    values = {f.name: getattr(m, f.name) for f in fields(m)}
    for key, record in _NESTED.items():
        values[key] = record(**{f.name: values.pop(f.name) for f in fields(record)})
    return to_json(_ManifestFile(**values))


def manifest_from_dict(d: dict) -> RunManifest:
    """Build a manifest from its JSON form; absent fields take their defaults."""
    try:
        values = asdict(from_json(_ManifestFile, d))
        for key in _NESTED:
            values |= values.pop(key)
        return RunManifest(**values)
    except ValueError as exc:
        raise ValueError(f"manifest: {exc}") from exc


def _parse_json(text: str, source: str):
    """``json.loads(text)``; text that is no JSON, or nested too deep to parse, raises
    ``ValueError`` naming ``source``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to read") from None


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read(), str(path))


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
