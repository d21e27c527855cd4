import contextlib
import dataclasses
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch import recordings
from floorwatch.bench import bench_manifest
from floorwatch.cfar import CfarConfig
from floorwatch.cli import main
from floorwatch.core import ArrayGeometry, RadarConfig, default_geometry
from floorwatch.dbf import default_grid
from floorwatch.recordings import (RunManifest, manifest_from_dict, manifest_to_dict,
                                   payload_nbytes, read_recording, write_recording)
from floorwatch.sim import ClutterSpec, SceneSpec, TargetSpec, synthesize_recording

CFG = RadarConfig(chirps_per_frame=16, samples_per_chirp=32, num_rx=3)


def make_recording(n_frames=3, occupied=True):
    targets = (TargetSpec(range_m=2.5, azimuth_rad=0.3),) if occupied else ()
    clutter = (ClutterSpec(range_m=4.0, azimuth_rad=-0.5, amplitude=2.0),)
    scene = SceneSpec(targets=targets, clutter=clutter, noise_std=0.05, seed=17,
                      n_frames=n_frames, view_tag="tv", location_tag="P3",
                      subject_tag="S4")
    return synthesize_recording(scene, CFG, default_geometry(CFG))


def read_frames(rec):
    """Every frame of a read recording, copied out of the buffer the reader reuses."""
    return np.stack([frame.copy() for frame in rec.samples])


def test_round_trip_bit_identical(tmp_path):
    rec = make_recording()
    path = tmp_path / "a.rec"
    write_recording(path, rec)
    back = read_recording(path)
    # payload is float32; writing the read-back recording must be byte-identical
    path2 = tmp_path / "b.rec"
    write_recording(path2, back)
    assert path.read_bytes() == path2.read_bytes()
    samples = read_frames(back)
    assert rec.samples.dtype == np.complex128 and samples.dtype == np.complex64
    assert np.array_equal(samples.real, rec.samples.real.astype(np.float32))
    assert np.array_equal(samples.imag, rec.samples.imag.astype(np.float32))


def test_header_metadata_round_trip(tmp_path):
    rec = make_recording()
    path = tmp_path / "a.rec"
    write_recording(path, rec)
    back = read_recording(path)
    assert back.label == "occupied"
    assert back.view_tag == "tv" and back.location_tag == "P3" and back.subject_tag == "S4"
    assert back.seed == 17
    assert len(back.truth) == 1
    assert back.truth[0].center[0] == pytest.approx(2.5)
    assert back.truth[0].center[1] == pytest.approx(0.3)
    assert back.config == CFG
    assert back.geometry.azimuth_pair == rec.geometry.azimuth_pair


def test_payload_size_formula():
    assert payload_nbytes(RadarConfig(), 1200) == 1200 * 3 * 128 * 64 * 8 == 235_929_600


def test_truncated_payload_reports_byte_counts(tmp_path):
    rec = make_recording()
    path = tmp_path / "a.rec"
    write_recording(path, rec)
    data = path.read_bytes()
    bad = tmp_path / "bad.rec"
    bad.write_bytes(data[:-100])
    with pytest.raises(ValueError, match=r"expected \d+ bytes, got \d+"):
        read_recording(bad)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.rec"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_recording(p)


def test_empty_recording_round_trip(tmp_path):
    rec = make_recording(occupied=False)
    path = tmp_path / "e.rec"
    write_recording(path, rec)
    back = read_recording(path)
    assert back.label == "empty"
    assert back.truth == ()


NON_DEFAULT_MANIFEST = RunManifest(method="dbf", k=1.4, guard_cells=(1, 2), training_cells=(3, 5),
                                   edge_policy="skip_cell", theta_max_deg=45.0,
                                   theta_step_deg=0.5, elevations_deg=(0.0,),
                                   doppler_half_width=3, mti_alpha=0.99)


def test_manifest_round_trip():
    back = manifest_from_dict(manifest_to_dict(NON_DEFAULT_MANIFEST))
    assert back == NON_DEFAULT_MANIFEST


# The manifest files as dump_json writes them: the default, the two stream manifests of
# perfbench/gen.py, and one with every field but capon_channels away from its default.
MANIFEST_TEXTS = {
    "default": (RunManifest(), """\
{
  "capon_channels": "pair",
  "cfar": {
    "edge_policy": "shrink_window",
    "guard_cells": [
      2,
      2
    ],
    "training_cells": [
      4,
      4
    ]
  },
  "doppler_half_width": 2,
  "grid": {
    "elevations_deg": [
      -10.0,
      0.0,
      10.0
    ],
    "theta_max_deg": 60.0,
    "theta_step_deg": 1.0
  },
  "k": 2.4,
  "method": "capon",
  "mti_alpha": 0.01
}"""),
    "bench_dbf": (bench_manifest("dbf", 7.5441), """\
{
  "capon_channels": "pair",
  "cfar": {
    "edge_policy": "shrink_window",
    "guard_cells": [
      2,
      2
    ],
    "training_cells": [
      4,
      4
    ]
  },
  "doppler_half_width": 5,
  "grid": {
    "elevations_deg": [
      -10.0,
      0.0,
      10.0
    ],
    "theta_max_deg": 60.0,
    "theta_step_deg": 1.0
  },
  "k": 7.5441,
  "method": "dbf",
  "mti_alpha": 0.99
}"""),
    "bench_capon": (bench_manifest("capon", 4.6352), """\
{
  "capon_channels": "pair",
  "cfar": {
    "edge_policy": "shrink_window",
    "guard_cells": [
      2,
      2
    ],
    "training_cells": [
      4,
      4
    ]
  },
  "doppler_half_width": 5,
  "grid": {
    "elevations_deg": [
      -10.0,
      0.0,
      10.0
    ],
    "theta_max_deg": 60.0,
    "theta_step_deg": 1.0
  },
  "k": 4.6352,
  "method": "capon",
  "mti_alpha": 0.99
}"""),
    "non_default": (NON_DEFAULT_MANIFEST, """\
{
  "capon_channels": "pair",
  "cfar": {
    "edge_policy": "skip_cell",
    "guard_cells": [
      1,
      2
    ],
    "training_cells": [
      3,
      5
    ]
  },
  "doppler_half_width": 3,
  "grid": {
    "elevations_deg": [
      0.0
    ],
    "theta_max_deg": 45.0,
    "theta_step_deg": 0.5
  },
  "k": 1.4,
  "method": "dbf",
  "mti_alpha": 0.99
}"""),
}


@pytest.mark.parametrize("name", list(MANIFEST_TEXTS))
def test_manifest_file_bytes_are_pinned(name):
    manifest, text = MANIFEST_TEXTS[name]
    assert json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) == text
    assert manifest_from_dict(json.loads(text)) == manifest


@pytest.mark.parametrize("manifest", [
    {"smooth_frames": 3},                       # a removed option must not be ignored
    {"normalize_map": True},
    {"seed": 9},
    {"cfar": {"k": 2.0}},                       # a field under the wrong object
    {"guard_cells": [1, 1]},
    {"grid": {"theta_max_deg": 45.0, "theta_min_deg": -45.0}},
])
def test_manifest_unknown_fields_rejected(manifest):
    with pytest.raises(ValueError, match=r"^manifest: (cfar: |grid: )?unknown key '"):
        manifest_from_dict(manifest)


def test_manifest_nested_objects_must_be_objects():
    with pytest.raises(ValueError, match=re.escape("manifest: grid: expected a JSON object, "
                                                   "got [60.0]")):
        manifest_from_dict({"grid": [60.0]})
    with pytest.raises(ValueError, match=re.escape("manifest: expected a JSON object, got [1]")):
        manifest_from_dict([1])


@pytest.mark.parametrize("manifest", [
    {"k": float("nan")}, {"k": float("inf")},
    {"grid": {"theta_step_deg": 0.0}}, {"grid": {"theta_step_deg": -1.0}},
    {"grid": {"theta_max_deg": 0.0}}, {"grid": {"theta_max_deg": float("nan")}},
    {"grid": {"theta_max_deg": float("inf")}},
    {"doppler_half_width": 1.5}, {"cfar": {"guard_cells": [1.5, 2]}},
    {"cfar": {"training_cells": [4, float("inf")]}},
    {"grid": {"theta_max_deg": 90.5}}, {"grid": {"theta_max_deg": 120.0}},
    {"grid": {"elevations_deg": []}}, {"grid": {"elevations_deg": [float("nan")]}},
    {"grid": {"elevations_deg": [0.0, float("inf")]}}, {"grid": {"elevations_deg": [-91.0]}},
    {"grid": {"elevations_deg": [90.5]}}, {"grid": {"elevations_deg": [0.0, 0.0]}},
    {"grid": {"elevations_deg": [10.0, -10.0]}},
    # read as k = 1.0, k = 3.0 and mti_alpha = 0.0 (no detections at all) at the parent
    {"k": True}, {"k": "3"}, {"mti_alpha": False},
    {"doppler_half_width": True}, {"cfar": {"training_cells": ["4", 4]}},
    {"cfar": {"guard_cells": "22"}}, {"grid": {"theta_step_deg": "1"}},
    # the CFAR settings were built, and refused, only after process opened --out
    {"cfar": {"edge_policy": "bogus"}}, {"cfar": {"guard_cells": [1]}},
    {"cfar": {"guard_cells": [-1, 2]}}, {"cfar": {"training_cells": [0, 4]}},
])
def test_manifest_rejects_non_finite_k_bad_theta_grid_and_non_integers(manifest):
    with pytest.raises(ValueError, match="^manifest: "):
        manifest_from_dict(manifest)


def test_manifest_builds_and_checks_its_cfar_and_grid_when_made():
    m = RunManifest(method="dbf", k=3.0, guard_cells=(1, 2), training_cells=(3, 5),
                    edge_policy="skip_cell", theta_max_deg=45.0, theta_step_deg=0.5,
                    elevations_deg=(0.0,))
    assert m.cfar == CfarConfig(guard_cells=(1, 2), training_cells=(3, 5), k=3.0,
                                edge_policy="skip_cell")
    assert np.array_equal(m.grid.azimuth_angles, default_grid(45.0, 0.5, (0.0,)).azimuth_angles)
    assert np.array_equal(m.grid.elevation_angles, [0.0])
    assert dataclasses.replace(m, k=4.5).cfar.k == 4.5
    assert set(manifest_to_dict(m)) == {"method", "k", "cfar", "grid", "doppler_half_width",
                                        "mti_alpha", "capon_channels"}
    for bad in ({"edge_policy": "bogus"}, {"guard_cells": (1,)}, {"training_cells": (0, 4)},
                {"k": 0.0}, {"theta_step_deg": 150.0}):  # a one-direction grid
        with pytest.raises(ValueError):
            RunManifest(**bad)
        with pytest.raises(ValueError):
            dataclasses.replace(m, **bad)


def test_manifest_grid_limits_stay_valid():
    m = manifest_from_dict({"grid": {"theta_max_deg": 90.0, "elevations_deg": [-90.0, 90.0]}})
    assert m.theta_max_deg == 90.0 and m.elevations_deg == (-90.0, 90.0)


def test_manifest_integral_floats_stay_valid():
    m = manifest_from_dict({"doppler_half_width": 2.0, "cfar": {"guard_cells": [1.0, 2.0]}})
    assert m.doppler_half_width == 2 and type(m.doppler_half_width) is int
    assert m.guard_cells == (1, 2)


@pytest.mark.parametrize("method", ["dbf", "capon"])
def test_bench_manifest_holds_every_key_the_benchmark_reads(method):
    # perfbench/checks.py reads these keys from the manifest JSON of its streams
    d = json.loads(json.dumps(manifest_to_dict(bench_manifest(method, 4.0))))
    assert d["method"] == method and d["k"] == 4.0
    assert {"mti_alpha", "doppler_half_width"} <= d.keys()
    assert d["capon_channels"] == "pair"
    assert {"guard_cells", "training_cells", "edge_policy"} <= d["cfar"].keys()
    assert {"theta_max_deg", "theta_step_deg", "elevations_deg"} <= d["grid"].keys()


def test_manifest_defaults_and_validation():
    m = manifest_from_dict({})
    assert m.method == "capon" and m.k == 2.4
    with pytest.raises(ValueError):
        manifest_from_dict({"method": "music"})
    with pytest.raises(ValueError):
        manifest_from_dict({"k": -1.0})
    with pytest.raises(ValueError):
        manifest_from_dict({"mti_alpha": 1.5})
    for channels in ("some", "all"):
        with pytest.raises(ValueError):
            RunManifest(capon_channels=channels)


@pytest.mark.parametrize("name", ["single_target.json", "empty_room.json"])
def test_bundled_scenes_parse_and_round_trip(tmp_path, name):
    from importlib import resources
    from floorwatch.sim import scene_from_dict
    raw = json.loads((resources.files("floorwatch") / "data" / "scenes" / name).read_text())
    scene = scene_from_dict(raw)
    scene = dataclasses.replace(scene, n_frames=2)
    full_cfg = RadarConfig()  # bundled scenes span the full 9.6 m profile
    rec = synthesize_recording(scene, full_cfg, default_geometry(full_cfg))
    p1, p2 = tmp_path / "a.rec", tmp_path / "b.rec"
    write_recording(p1, rec)
    write_recording(p2, read_recording(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_angles_are_degrees_in_header(tmp_path):
    rec = make_recording()
    path = tmp_path / "a.rec"
    write_recording(path, rec)
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    header = json.loads(raw[8:8 + header_len])
    assert header["truth"][0]["center_azimuth_deg"] == pytest.approx(math.degrees(0.3))


def write_with_geometry(path, geometry):
    rec = dataclasses.replace(make_recording(), geometry=geometry)
    write_recording(path, rec)
    return path


@pytest.mark.parametrize("geometry, message", [
    (ArrayGeometry(wavelength=9.9, element_offsets=((0.0, 0.0), (4.95, 0.0))), "receivers"),
    (ArrayGeometry(wavelength=9.9, element_offsets=((4.95, 0.0), (0.0, 4.95), (0.0, 0.0)),
                   azimuth_pair=(2, 0)), "wavelength"),
    (dataclasses.replace(default_geometry(CFG), wavelength=CFG.wavelength * (1 + 1e-8)),
     "wavelength"),
])
def test_geometry_disagreeing_with_config_is_rejected(tmp_path, capsys, geometry, message):
    path = write_with_geometry(tmp_path / "bad.rec", geometry)
    with pytest.raises(ValueError, match=message):
        read_recording(path)
    assert main(["process", "--recording", str(path), "--method", "capon",
                 "--out", str(tmp_path / "d.csv")]) != 0
    assert message in json.loads(capsys.readouterr().err.strip())["message"]


def test_capon_rejects_an_azimuth_pair_that_is_not_half_a_wavelength(tmp_path, capsys):
    # the config's wavelength and receiver count, so the file reads; but the
    # pair is 1.0 m apart where the Capon pair steering assumes 2.5 mm
    lam = CFG.wavelength
    wide = ArrayGeometry(wavelength=lam, element_offsets=((1.0, 0.0), (0.0, lam / 2), (0.0, 0.0)),
                         azimuth_pair=(2, 0))
    path = write_with_geometry(tmp_path / "wide.rec", wide)
    assert read_recording(path).geometry == wide
    assert main(["process", "--recording", str(path), "--method", "capon",
                 "--out", str(tmp_path / "capon.csv")]) != 0
    error = json.loads(capsys.readouterr().err.strip())
    assert error["error"] == "ValueError" and "half a wavelength" in error["message"]
    # no header-only detections file that evaluate --detections could replay
    assert not (tmp_path / "capon.csv").exists()
    # DBF steers from every element offset and takes the same recording
    assert main(["process", "--recording", str(path), "--method", "dbf",
                 "--out", str(tmp_path / "dbf.csv")]) == 0


def test_geometry_wavelength_within_tolerance_reads(tmp_path):
    geometry = dataclasses.replace(default_geometry(CFG), wavelength=CFG.wavelength * (1 + 1e-12))
    assert read_recording(write_with_geometry(tmp_path / "ok.rec", geometry)).geometry == geometry


def with_header(path, out, edit):
    """Copy the recording at ``path`` to ``out`` with its JSON header replaced by ``edit(header)``."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[4:8], "little")
    body = json.dumps(edit(json.loads(raw[8:8 + n]))).encode()
    out.write_bytes(raw[:4] + len(body).to_bytes(4, "little") + body + raw[8 + n:])
    return out


def replaced(keys, value):
    """A header edit that sets the subtree at ``keys`` (the whole header for ()) to ``value``."""
    def edit(header):
        if not keys:
            return value
        node = header
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return header
    return edit


def json_path(keys):
    """The path the JSON record schema gives a header value, e.g. truth[0].view_tag."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def process_exit_and_error(path, out_csv, method="capon"):
    """Run ``process`` on a recording; the exit code and the parsed JSON error, if any."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["process", "--recording", str(path), "--method", method,
                   "--out", str(out_csv)])
    return rc, (json.loads(err.getvalue()) if err.getvalue() else None)


@pytest.mark.parametrize("keys, value", [
    ((), [1, 2]),                               # AttributeError at the parent
    (("geometry", "element_offsets"), 5),       # TypeError at the parent
    (("geometry", "element_offsets"), [[0.0], [1.0], [2.0]]),
    (("truth",), 5),                            # TypeError at the parent
    (("truth",), [{"center_range_m": 1.0}]),
    (("config", "num_rx"), "3"),                # TypeError at the parent
    (("config", "samples_per_chirp"), 32.0),
    (("config",), [1]),
    (("seed",), None),
    (("n_frames",), 3.7),                       # read as 3 frames at the parent
    (("n_frames",), "3"),
    (("n_frames",), 3.0),
    (("n_frames",), True),
    (("seed",), 17.9),                          # read as 17 at the parent
    (("seed",), "1"),
    (("geometry", "azimuth_pair"), [2.9, 0.2]),  # read as (2, 0) at the parent
    (("geometry", "azimuth_pair"), [2, False]),
    (("geometry", "wavelength"), repr(CFG.wavelength)),  # read as a number at the parent
    (("geometry", "wavelength"), True),
    (("geometry", "wavelength"), float("nan")),  # passed the wavelength-vs-config check
    (("geometry", "element_offsets", 0, 0), float("inf")),
    (("truth", 0, "half_extent_range_m"), float("nan")),  # a box that contains nothing
    (("truth", 0, "center_range_m"), "2.5"),
    (("truth", 0, "center_azimuth_deg"), float("-inf")),
    # a key that no field maps to; the first three were ignored at the parent
    (("subject",), "S4"),
    (("truth", 0, "view_tags"), "tv"),
    (("geometry", "azimuth_pairs"), [[2, 0]]),
    (("config", "sample_rate"), 2e6),
])
def test_malformed_header_is_a_value_error_and_a_json_error(tmp_path, keys, value):
    good = tmp_path / "good.rec"
    write_recording(good, make_recording())
    bad = with_header(good, tmp_path / "bad.rec", replaced(keys, value))
    with pytest.raises(ValueError):
        read_recording(bad)
    rc, error = process_exit_and_error(bad, tmp_path / "d.csv")
    assert rc == 1 and error["error"] == "ValueError"


@pytest.mark.parametrize("keys, message", [
    (("subject",), "recording header: unknown key 'subject'"),
    (("truth", 0, "view_tags"), "truth[0]: unknown key 'view_tags'"),
    (("geometry", "azimuth_pairs"), "geometry: unknown key 'azimuth_pairs'"),
    (("config", "sample_rate"), "config: unknown key 'sample_rate'"),
])
def test_unknown_header_key_is_refused_with_its_path(tmp_path, keys, message):
    good = tmp_path / "good.rec"
    write_recording(good, make_recording())
    bad = with_header(good, tmp_path / "bad.rec", replaced(keys, "x"))
    rc, error = process_exit_and_error(bad, tmp_path / "d.csv")
    assert rc == 1 and error == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("keys, value, message", [
    (("view_tag",), None, "view_tag: expected a string, got None"),  # read as "None"
    (("location_tag",), 3, "location_tag: expected a string, got 3"),
    (("subject_tag",), 7, "subject_tag: expected a string, got 7"),  # read as "7"
    (("truth", 0, "view_tag"), None, "view_tag: expected a string, got None"),
    (("truth", 0, "location_tag"), ["P1"], "location_tag: expected a string, got ['P1']"),
])
def test_header_tags_must_be_json_strings(tmp_path, keys, value, message):
    # at the parent any JSON value was turned into a tag with str(); the error
    # names the tag by its path in the header, e.g. truth[0].view_tag
    message = json_path(keys) + message[len(keys[-1]):]
    good = tmp_path / "good.rec"
    write_recording(good, make_recording())
    bad = with_header(good, tmp_path / "bad.rec", replaced(keys, value))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_recording(bad)
    rc, error = process_exit_and_error(bad, tmp_path / "d.csv")
    assert rc == 1 and error == {"error": "ValueError", "message": message}


def test_negative_frame_count_is_named_as_one(tmp_path):
    # at the parent it read "payload length mismatch: expected -... bytes"
    good = tmp_path / "good.rec"
    write_recording(good, make_recording())
    bad = with_header(good, tmp_path / "bad.rec", replaced(("n_frames",), -1))
    rc, error = process_exit_and_error(bad, tmp_path / "d.csv")
    assert rc == 1 and error == {"error": "ValueError", "message": "n_frames: must be >= 0"}


@pytest.mark.parametrize("cut, message", [
    (0, "recording file cut short: 0 bytes, under the 8 of its magic and header length"),
    (2, "recording file cut short: 2 bytes, under the 8 of its magic and header length"),
    # "buffer size must be a multiple of element size" at the parent
    (6, "recording file cut short: 6 bytes, under the 8 of its magic and header length"),
    # a JSONDecodeError about the header's text at the parent
    (40, "recording file cut short: its {n}-byte header runs past the end of the file "
         "at byte 40"),
])
def test_file_cut_short_in_its_header_is_named_as_one(tmp_path, cut, message):
    good = tmp_path / "good.rec"
    write_recording(good, make_recording())
    raw = good.read_bytes()
    bad = tmp_path / "bad.rec"
    bad.write_bytes(raw[:cut])
    message = message.format(n=int.from_bytes(raw[4:8], "little"))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_recording(bad)
    rc, error = process_exit_and_error(bad, tmp_path / "d.csv")
    assert rc == 1 and error == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("raw", [b"N", b"NOPE", b"NOPE\x00\x00"])
def test_short_file_with_another_magic_is_not_a_recording(tmp_path, raw):
    path = tmp_path / "x.rec"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="not a recording file"):
        read_recording(path)


def test_header_holds_the_documented_keys_and_values(tmp_path):
    # the key list of README "Recording file format", its values built here
    targets = (TargetSpec(range_m=2.5, azimuth_rad=0.3), TargetSpec(range_m=4.0, azimuth_rad=-0.2))
    scene = SceneSpec(targets=targets, noise_std=0.05, seed=23, n_frames=2, view_tag="window",
                      location_tag="P2", subject_tag="S7", box_half_extents=(0.5, 0.14))
    path = tmp_path / "a.rec"
    write_recording(path, synthesize_recording(scene, CFG, default_geometry(CFG)))
    lam = CFG.wavelength

    def box(range_m, azimuth_rad):
        return {"center_range_m": range_m, "center_azimuth_deg": math.degrees(azimuth_rad),
                "half_extent_range_m": 0.5, "half_extent_azimuth_deg": math.degrees(0.14),
                "view_tag": "window", "location_tag": "P2"}

    expected = {
        "format_version": 1,
        "config": {"center_frequency": CFG.center_frequency, "bandwidth": CFG.bandwidth,
                   "chirp_duration": CFG.chirp_duration, "frame_rate": CFG.frame_rate,
                   "chirps_per_frame": 16, "samples_per_chirp": 32, "num_rx": 3,
                   "chirp_repetition_interval": CFG.chirp_repetition_interval},
        "geometry": {"wavelength": lam, "azimuth_pair": [2, 0],
                     "element_offsets": [[lam / 2, 0.0], [0.0, lam / 2], [0.0, 0.0]]},
        "label": "occupied", "seed": 23, "n_frames": 2,
        "view_tag": "window", "location_tag": "P2", "subject_tag": "S7",
        "truth": [box(2.5, 0.3), box(4.0, -0.2)],
    }
    raw = path.read_bytes()
    assert raw[8:8 + int.from_bytes(raw[4:8], "little")] == json.dumps(
        expected, sort_keys=True).encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [0, 1])
def test_non_finite_sample_in_file_is_rejected(tmp_path, bad, part):
    path = tmp_path / "a.rec"
    write_recording(path, make_recording())
    raw = bytearray(path.read_bytes())
    # the last frame's last sample; part 0 is its real half, 1 its imaginary half
    np.frombuffer(raw, "<f4", offset=len(raw) - 8)[part] = bad
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="frame 2: samples contain non-finite values"):
        read_recording(path)


def test_write_failing_mid_stream_leaves_no_file_and_keeps_the_old_one(tmp_path):
    path = tmp_path / "a.rec"
    write_recording(path, make_recording())
    before = path.read_bytes()
    rec = make_recording(n_frames=4)
    samples = rec.samples.copy()
    samples[2, 0, 0, 0] = 1e39
    with pytest.raises(ValueError, match="^frame 2: a sample component exceeds the float32"):
        write_recording(path, dataclasses.replace(rec, samples=samples))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.rec"]


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_write_refuses_a_path_that_is_no_regular_file(tmp_path, kind):
    # the file is renamed into place, which would replace a device node or a pipe
    path = tmp_path / "out"
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a regular file")):
        write_recording(path, make_recording())
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_write_through_a_symlink_replaces_the_file_it_names(tmp_path):
    target, link = tmp_path / "a.rec", tmp_path / "link.rec"
    target.write_bytes(b"old")
    link.symlink_to(target)
    write_recording(link, make_recording())
    assert link.is_symlink() and read_recording(target).n_frames == 3


def test_read_frames_come_one_at_a_time_in_one_read_only_buffer(tmp_path):
    path = tmp_path / "a.rec"
    rec = make_recording()
    write_recording(path, rec)
    back = read_recording(path)
    assert len(back.samples) == back.n_frames == 3
    first = None
    for i, frame in enumerate(back.samples):
        assert frame.shape == CFG.frame_shape and frame.dtype == np.complex64
        assert not frame.flags.writeable
        assert np.array_equal(frame, rec.samples[i].astype(np.complex64))
        first = frame if first is None else first
        assert np.shares_memory(frame, first)  # one buffer, reused for every frame
    # two passes at once each read into a buffer of their own
    for a, b, want in zip(back.samples, back.samples, rec.samples):
        assert not np.shares_memory(a, b) and np.array_equal(a, want.astype(np.complex64))


def test_frame_gone_from_the_file_after_reading_is_named(tmp_path):
    path = tmp_path / "a.rec"
    write_recording(path, make_recording())
    back = read_recording(path)
    path.write_bytes(path.read_bytes()[:-8])
    frames = iter(back.samples)
    next(frames), next(frames)
    with pytest.raises(ValueError, match=re.escape(f"recording {path}: frame 2 is cut short")):
        next(frames)


def test_payload_is_scanned_in_blocks_naming_the_non_finite_frame(tmp_path, monkeypatch):
    # blocks of 40 bytes end inside frames, so the frame comes from the byte offset
    monkeypatch.setattr(recordings, "SCAN_BYTES", 40)
    path = tmp_path / "a.rec"
    write_recording(path, make_recording(n_frames=5))
    read_recording(path)
    raw = bytearray(path.read_bytes())
    frame_bytes = payload_nbytes(CFG, 1)
    start = len(raw) - 5 * frame_bytes
    np.frombuffer(raw, "<f4", offset=start + 3 * frame_bytes + 44, count=1)[0] = np.nan
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="^frame 3: samples contain non-finite values$"):
        read_recording(path)


# --- property: no damage to a recording file gives a traceback ---

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


def _subtree_keys(node, keys=()):
    yield keys
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _subtree_keys(value, keys + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _subtree_keys(value, keys + (i,))


def _at(node, keys):
    for key in keys:
        node = node[key]
    return node


@st.composite
def _damage(draw, header):
    kind = draw(st.sampled_from(["header", "key", "payload", "sample"]))
    if kind == "header":
        return kind, draw(st.sampled_from(list(_subtree_keys(header)))), draw(_JSON)
    if kind == "key":  # a key that no field maps to, in one of the header's objects
        where = draw(st.sampled_from([keys for keys in _subtree_keys(header)
                                      if isinstance(_at(header, keys), dict)]))
        key = draw(st.text(max_size=4).filter(lambda k: k not in _at(header, where)))
        return kind, where + (key,), draw(_JSON)
    if kind == "payload":
        return kind, draw(st.integers(-64, 64).filter(bool)), None
    return kind, draw(st.integers(0, 2 * 2 * math.prod(CFG.frame_shape) - 1)), \
        draw(st.sampled_from([np.nan, np.inf, -np.inf]))


def test_damaged_recording_gives_exit_0_or_the_json_error(tmp_path_factory):
    directory = tmp_path_factory.mktemp("damaged")
    valid = directory / "valid.rec"
    write_recording(valid, make_recording(n_frames=2))
    raw = valid.read_bytes()
    header = json.loads(raw[8:8 + int.from_bytes(raw[4:8], "little")])

    @settings(max_examples=80, deadline=None)
    @given(damage=_damage(header), method=st.sampled_from(["dbf", "capon"]))
    def check(damage, method):
        kind, where, value = damage
        bad = directory / "bad.rec"
        if kind in ("header", "key"):
            with_header(valid, bad, replaced(where, value))
        elif kind == "payload":
            bad.write_bytes(raw[:where] if where < 0 else raw + b"\x01" * where)
        else:
            damaged = bytearray(raw)
            offset = len(raw) - 8 * 2 * math.prod(CFG.frame_shape)
            np.frombuffer(damaged, "<f4", offset=offset)[where] = value
            bad.write_bytes(bytes(damaged))
        rc, error = process_exit_and_error(bad, directory / "d.csv", method)
        if kind == "key":
            assert rc == 1 and error["error"] == "ValueError"
            assert "unknown key" in error["message"]
        assert rc in (0, 1)
        if rc == 1:
            assert set(error) == {"error", "message"}
        else:
            assert kind == "header"

    check()
