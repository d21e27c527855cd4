import json
import math

import numpy as np
import pytest

from floorwatch.core import RadarConfig, default_geometry
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


def test_round_trip_bit_identical(tmp_path):
    rec = make_recording()
    path = tmp_path / "a.rec"
    write_recording(path, rec)
    back = read_recording(path)
    # payload is float32; writing the read-back recording must be byte-identical
    path2 = tmp_path / "b.rec"
    write_recording(path2, back)
    assert path.read_bytes() == path2.read_bytes()
    for f1, f2 in zip(rec.frames, back.frames):
        assert np.array_equal(f2.samples.real, f1.samples.real.astype(np.float32))
        assert np.array_equal(f2.samples.imag, f1.samples.imag.astype(np.float32))


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


def test_manifest_round_trip():
    m = RunManifest(method="dbf", k=1.4, guard_cells=(1, 2), training_cells=(3, 5),
                    edge_policy="skip_cell", theta_max_deg=45.0, theta_step_deg=0.5,
                    elevations_deg=(0.0,), doppler_half_width=3, mti_alpha=0.99,
                    capon_channels="all")
    back = manifest_from_dict(manifest_to_dict(m))
    assert back == m


@pytest.mark.parametrize("manifest", [
    {"smooth_frames": 3},                       # a removed option must not be ignored
    {"normalize_map": True},
    {"seed": 9},
    {"cfar": {"k": 2.0}},                       # a field under the wrong object
    {"guard_cells": [1, 1]},
    {"grid": {"theta_max_deg": 45.0, "theta_min_deg": -45.0}},
])
def test_manifest_unknown_fields_rejected(manifest):
    with pytest.raises(ValueError, match="unknown fields"):
        manifest_from_dict(manifest)


def test_manifest_nested_objects_must_be_objects():
    with pytest.raises(ValueError, match="'grid' must be a JSON object"):
        manifest_from_dict({"grid": [60.0]})


def test_manifest_defaults_and_validation():
    m = manifest_from_dict({})
    assert m.method == "capon" and m.k == 2.4
    with pytest.raises(ValueError):
        manifest_from_dict({"method": "music"})
    with pytest.raises(ValueError):
        manifest_from_dict({"k": -1.0})
    with pytest.raises(ValueError):
        manifest_from_dict({"mti_alpha": 1.5})
    with pytest.raises(ValueError):
        RunManifest(capon_channels="some")


@pytest.mark.parametrize("name", ["single_target.json", "empty_room.json"])
def test_bundled_scenes_parse_and_round_trip(tmp_path, name):
    import dataclasses
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
