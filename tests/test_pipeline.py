import dataclasses

import numpy as np
import pytest

from floorwatch import cfar, pipeline
from floorwatch.capon import check_pair_geometry
from floorwatch.cfar import GroundTruthBox
from floorwatch.core import ArrayGeometry, RadarConfig, default_geometry
from floorwatch.pipeline import (cache_recording, flags_at_k, process_recording,
                                 score_recording)
from floorwatch.recordings import RunManifest
from floorwatch.sim import ClutterSpec, SceneSpec, TargetSpec, synthesize_recording

CFG = RadarConfig()
GEOM = default_geometry(CFG)


def occupied_recording(n_frames=12, seed=3):
    scene = SceneSpec(
        targets=(TargetSpec(range_m=4.5, azimuth_rad=np.deg2rad(10.0), amplitude=1.0),),
        clutter=(ClutterSpec(range_m=7.0, azimuth_rad=np.deg2rad(-40.0), amplitude=5.0),),
        noise_std=0.05, seed=seed, n_frames=n_frames,
        view_tag="tv", location_tag="P1", subject_tag="S1")
    return synthesize_recording(scene, CFG, GEOM)


@pytest.mark.parametrize("method", ["dbf", "capon"])
def test_process_recording_yields_frames(method):
    rec = occupied_recording(4)
    manifest = RunManifest(method=method, k=3.0, mti_alpha=0.99)
    outs = list(process_recording(rec, manifest))
    assert len(outs) == 4
    for i, out in enumerate(outs):
        assert out.frame_index == i
        assert out.power.shape == (CFG.num_range_bins, 121)
        assert np.all(out.power >= 0)
        assert out.detections.map_shape == out.power.shape


def test_first_frame_has_detection_at_target():
    # with the clutter map initialized to zero, frame 0 passes the scene
    # almost unfiltered; the target must be detected in its own box
    rec = occupied_recording(2)
    manifest = RunManifest(method="capon", k=3.0, mti_alpha=0.99)
    trial = score_recording(rec, manifest)
    assert trial.label == "occupied"
    assert trial.flags.shape == (2,)
    assert trial.flags[0]


def test_score_empty_needs_candidates():
    scene = SceneSpec(clutter=(ClutterSpec(range_m=7.0, azimuth_rad=-0.7, amplitude=5.0),),
                      noise_std=0.05, seed=5, n_frames=2, view_tag="tv")
    rec = synthesize_recording(scene, CFG, GEOM)
    manifest = RunManifest(method="dbf", k=2.0, mti_alpha=0.99)
    with pytest.raises(ValueError):
        score_recording(rec, manifest)
    box = GroundTruthBox(center=(4.5, 0.0), half_extents=(0.45, np.deg2rad(10)))
    trial = score_recording(rec, manifest, candidate_boxes=(box,))
    assert trial.label == "empty"
    assert trial.flags.shape == (2,)


def test_empty_without_candidates_raises_same_error_when_cached_or_scored():
    scene = SceneSpec(clutter=(ClutterSpec(range_m=7.0, azimuth_rad=-0.7, amplitude=5.0),),
                      noise_std=0.05, seed=5, n_frames=2, view_tag="tv")
    rec = synthesize_recording(scene, CFG, GEOM)
    manifest = RunManifest(method="dbf", k=2.0, mti_alpha=0.99)
    messages = []
    for fn in (score_recording, cache_recording):
        for candidates in (None, ()):
            with pytest.raises(ValueError) as info:
                fn(rec, manifest, candidates)
            messages.append(str(info.value))
    assert len(set(messages)) == 1 and "'tv'" in messages[0]


@pytest.mark.parametrize("method", ["dbf", "capon"])
def test_stream_detections_match_standalone_detector(method):
    rec = occupied_recording(3)
    manifest = RunManifest(method=method, k=3.0, mti_alpha=0.99)
    for out in process_recording(rec, manifest):
        alone = cfar.suppress(cfar.ca_cfar_2d(out.power, manifest.cfar))
        assert out.detections.detections == alone.detections


def test_score_recording_flags_each_frame_before_the_next(monkeypatch):
    calls = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((pipeline, "process_frame"), (cfar, "hit_test")):
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    score_recording(occupied_recording(3), RunManifest(method="dbf", k=3.0, mti_alpha=0.99))
    assert calls == ["process_frame", "hit_test"] * 3


def test_cached_flags_match_direct_scoring():
    rec = occupied_recording(6)
    # a tight box around the target: Capon's kept cell falls outside it on some frames
    tight = GroundTruthBox(center=(4.5, np.deg2rad(10.0)), half_extents=(0.3, np.deg2rad(3.0)))
    for r in (rec, dataclasses.replace(rec, truth=(tight,))):
        for method in ("dbf", "capon"):
            manifest = RunManifest(method=method, k=3.0, mti_alpha=0.99)
            cached = cache_recording(r, manifest)
            assert cached.powers.dtype == cached.bases.dtype == np.float64
            for k in (2.0, 3.0, 5.0):
                direct = score_recording(r, dataclasses.replace(manifest, k=k))
                assert np.array_equal(direct.flags, flags_at_k(cached, k))


def test_flags_at_k_monotone_shrinkage():
    rec = occupied_recording(6)
    manifest = RunManifest(method="dbf", k=2.0, mti_alpha=0.99)
    cached = cache_recording(rec, manifest)
    hits_low = flags_at_k(cached, 1.5).sum()
    hits_high = flags_at_k(cached, 30.0).sum()
    assert hits_high <= hits_low


def test_mti_state_reset_between_recordings():
    rec = occupied_recording(3)
    manifest = RunManifest(method="dbf", k=2.0, mti_alpha=0.99)
    a = [o.power for o in process_recording(rec, manifest)]
    b = [o.power for o in process_recording(rec, manifest)]
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize("num_rx", [2, 3, 4])
def test_default_geometries_pass_the_capon_pair_geometry_check(num_rx):
    # both branches of default_geometry: the L-shaped 3-receiver layout and the line
    check_pair_geometry(default_geometry(RadarConfig(num_rx=num_rx)))


@pytest.mark.parametrize("dx, dy, ok", [
    (0.5, 0.0, True), (0.5 + 1e-10, -1e-10, True),
    (0.5 + 1e-8, 0.0, False), (0.5, 1e-8, False), (-0.5, 0.0, False), (200.0, 0.0, False),
])
def test_capon_pair_must_be_half_a_wavelength_along_azimuth(dx, dy, ok):
    lam = CFG.wavelength
    geom = ArrayGeometry(wavelength=lam, element_offsets=((0.0, lam / 2), (dx * lam, dy * lam),
                                                          (0.0, 0.0)), azimuth_pair=(2, 1))
    rec = dataclasses.replace(occupied_recording(2), geometry=geom)
    if ok:
        check_pair_geometry(geom)
        assert len(list(process_recording(rec, RunManifest(method="capon")))) == 2
    else:
        with pytest.raises(ValueError, match="half a wavelength"):
            check_pair_geometry(geom)
        with pytest.raises(ValueError, match="half a wavelength"):
            process_recording(rec, RunManifest(method="capon"))  # at the call, not at next()
    assert len(list(process_recording(rec, RunManifest(method="dbf")))) == 2
