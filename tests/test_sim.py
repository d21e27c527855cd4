import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch.bench import (empty_benchmark_scenes, localization_scenes,
                              occupied_benchmark_scenes)
from floorwatch.capon import capon_range_azimuth
from floorwatch.core import RadarConfig, default_geometry, max_range, range_resolution
from floorwatch.dbf import dbf_power, dbf_range_azimuth, dbf_weights, default_grid, element_phases
from floorwatch.frontend import process_frame, zero_doppler_window
from floorwatch.mti import init_clutter, mti_step
from floorwatch.sim import (ClutterSpec, Recording, SceneSpec, TargetSpec, arrival_vector,
                            scene_from_dict, scene_to_dict, synthesize_frame,
                            synthesize_recording, truth_boxes, validate_scene)

CFG = RadarConfig()
GEOM = default_geometry(CFG)


def test_arrival_vector_boresight():
    v = arrival_vector(0.0, 0.0, GEOM)
    assert np.allclose(v, [1.0, 1.0, 1.0])


def test_arrival_vector_degenerate_geometry():
    from floorwatch.core import ArrayGeometry
    geom = ArrayGeometry(wavelength=5e-3,
                         element_offsets=((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
                         azimuth_pair=(0, 1))
    assert np.allclose(arrival_vector(0.7, -0.2, geom), [1.0, 1.0, 1.0])


def test_arrival_conjugate_pair_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = float(rng.uniform(-1.0, 1.0))
        phi = float(rng.uniform(-0.3, 0.3))
        v = arrival_vector(theta, phi, GEOM)
        w = np.exp(1j * element_phases(GEOM, theta, phi))
        assert np.sum(v * w) == pytest.approx(GEOM.num_rx, rel=1e-12)


def test_empty_noiseless_scene_is_zero():
    scene = SceneSpec(noise_std=0.0, seed=1, n_frames=1)
    frame = synthesize_frame(scene, CFG, GEOM, 0)
    assert frame.shape == CFG.frame_shape and frame.dtype == np.complex128
    assert np.all(frame == 0)


def test_static_reflector_peaks_at_range_bin_zero_doppler():
    r0 = 3.6
    scene = SceneSpec(clutter=(ClutterSpec(range_m=r0, azimuth_rad=0.3, amplitude=1.0),),
                      noise_std=0.0, seed=2, n_frames=1)
    frame = synthesize_frame(scene, CFG, GEOM, 0)
    cube = process_frame(frame, CFG)
    bin_expected = round(r0 / range_resolution(CFG))
    for m in range(CFG.num_rx):
        mag = np.abs(cube.values[m])
        r, d = np.unravel_index(np.argmax(mag), mag.shape)
        assert r == bin_expected
        assert d == cube.num_doppler_bins // 2


def test_determinism_bit_identical():
    scene = SceneSpec(targets=(TargetSpec(range_m=4.0, azimuth_rad=0.2),),
                      clutter=(ClutterSpec(range_m=2.0, azimuth_rad=-0.4, amplitude=3.0),),
                      noise_std=0.1, seed=33, n_frames=3)
    rec1 = synthesize_recording(scene, CFG, GEOM)
    rec2 = synthesize_recording(scene, CFG, GEOM)
    assert np.array_equal(rec1.samples, rec2.samples)


def test_frames_differ_across_indices():
    scene = SceneSpec(targets=(TargetSpec(range_m=4.0, azimuth_rad=0.2),),
                      noise_std=0.1, seed=33, n_frames=2)
    rec = synthesize_recording(scene, CFG, GEOM)
    assert not np.array_equal(rec.samples[0], rec.samples[1])


def test_superposition_exact():
    a = SceneSpec(targets=(TargetSpec(range_m=3.0, azimuth_rad=0.1),), noise_std=0.0,
                  seed=5, n_frames=1)
    b = SceneSpec(clutter=(ClutterSpec(range_m=6.0, azimuth_rad=-0.5, amplitude=2.0),),
                  noise_std=0.0, seed=5, n_frames=1)
    both = SceneSpec(targets=a.targets, clutter=b.clutter, noise_std=0.0, seed=5, n_frames=1)
    fa = synthesize_frame(a, CFG, GEOM, 0)
    fb = synthesize_frame(b, CFG, GEOM, 0)
    fab = synthesize_frame(both, CFG, GEOM, 0)
    assert np.allclose(fab, fa + fb, rtol=1e-12, atol=1e-12 * np.abs(fab).max())


def test_out_of_range_scatterer_rejected():
    r_max = max_range(CFG)
    with pytest.raises(ValueError):
        validate_scene(SceneSpec(clutter=(ClutterSpec(range_m=r_max + 0.1, azimuth_rad=0.0),)), CFG)
    with pytest.raises(ValueError):
        synthesize_frame(
            SceneSpec(targets=(TargetSpec(range_m=r_max - 1e-4, azimuth_rad=0.0),)),
            CFG, GEOM, 0)


def test_micro_motion_survives_clutter_filter():
    # after 50 filter steps the static reflector is annihilated while the
    # breathing-scale target keeps leaking energy; margin well over 20 dB
    r_t, r_c = 3.0, 6.0
    scene = SceneSpec(
        targets=(TargetSpec(range_m=r_t, azimuth_rad=0.0, amplitude=1.0,
                            micro_motion_amplitude_m=1e-3, micro_motion_rate_hz=0.25),),
        clutter=(ClutterSpec(range_m=r_c, azimuth_rad=0.0, amplitude=1.0),),
        noise_std=0.0, seed=9, n_frames=51)
    state = init_clutter((CFG.num_rx, CFG.num_range_bins, CFG.chirps_per_frame), alpha=0.01)
    out = None
    for i in range(51):
        frame = synthesize_frame(scene, CFG, GEOM, i)
        state, out = mti_step(state, process_frame(frame, CFG))
    dr = range_resolution(CFG)
    bin_t, bin_c = round(r_t / dr), round(r_c / dr)
    energy_t = np.sum(np.abs(out.values[:, bin_t, :]) ** 2)
    energy_c = np.sum(np.abs(out.values[:, bin_c, :]) ** 2)
    ratio_db = 10 * np.log10(energy_t / max(energy_c, 1e-300))
    assert ratio_db >= 20.0


def test_localization_consistency_near_noise_free():
    # a target on a grid angle and bin-center range is recovered exactly by
    # both beamformers; a 60 dB noise floor keeps the sample covariance full
    # rank (an exactly rank-one covariance has no inverse and the loaded-free
    # pseudoinverse spectrum dips at the source instead of peaking)
    grid = default_grid()
    dr = range_resolution(CFG)
    bin_true, theta_idx = 12, 80  # 3.6 m, +20 deg
    scene = SceneSpec(
        targets=(TargetSpec(range_m=bin_true * dr,
                            azimuth_rad=float(grid.azimuth_angles[theta_idx]),
                            micro_motion_amplitude_m=0.0),),
        noise_std=1e-3, seed=4, n_frames=1)
    frame = synthesize_frame(scene, CFG, GEOM, 0)
    cube = process_frame(frame, CFG)
    state = init_clutter(cube.values.shape, 0.01)
    _, filt = mti_step(state, cube)
    window = zero_doppler_window(filt.num_doppler_bins, 2)
    ra_dbf = dbf_range_azimuth(dbf_power(filt, dbf_weights(grid, GEOM), window))
    ra_cap = capon_range_azimuth(filt, grid, window, GEOM.azimuth_pair)
    for ra in (ra_dbf, ra_cap):
        r, t = np.unravel_index(np.argmax(ra.power), ra.power.shape)
        assert r == bin_true
        assert t == theta_idx


def test_recording_metadata_and_truth():
    scene = SceneSpec(targets=(TargetSpec(range_m=4.0, azimuth_rad=0.25),),
                      noise_std=0.0, seed=1, n_frames=2, view_tag="tv",
                      location_tag="P2", subject_tag="S1")
    rec = synthesize_recording(scene, CFG, GEOM)
    assert rec.label == "occupied"
    assert rec.n_frames == 2
    assert len(rec.truth) == 1
    box = rec.truth[0]
    assert box.center == (4.0, 0.25)
    assert box.view_tag == "tv"
    assert rec.samples.shape == (2,) + CFG.frame_shape
    assert np.array_equal(rec.samples[1], synthesize_frame(scene, CFG, GEOM, 1))


def test_recording_checks_sample_shape_and_finiteness():
    cfg = RadarConfig(chirps_per_frame=4, samples_per_chirp=8, num_rx=2)
    geom = default_geometry(cfg)

    def recording(samples):
        return Recording(config=cfg, geometry=geom, samples=samples, truth=(), label="empty")

    assert cfg.frame_shape == (2, 4, 8)
    assert recording(np.zeros((3, 2, 4, 8), dtype=complex)).n_frames == 3
    for shape in ((3, 2, 4, 6), (2, 4, 8)):
        with pytest.raises(ValueError, match="shape"):
            recording(np.zeros(shape, dtype=complex))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        samples = np.zeros((3, 2, 4, 8), dtype=np.complex64)
        samples[2, 1, 3, 7] = bad
        with pytest.raises(ValueError, match="frame 2: samples contain non-finite values"):
            recording(samples)


def test_empty_scene_has_no_truth():
    scene = SceneSpec(clutter=(ClutterSpec(range_m=2.0, azimuth_rad=0.0),),
                      noise_std=0.0, seed=1, n_frames=1)
    assert scene.label == "empty"
    assert truth_boxes(scene) == ()
    rec = synthesize_recording(scene, CFG, GEOM)
    assert rec.label == "empty"


def test_two_minute_recording_length():
    scene = SceneSpec(noise_std=0.0, seed=0, n_frames=1200)
    assert scene.n_frames / CFG.frame_rate == pytest.approx(120.0)


def test_scene_json_round_trip():
    scene = SceneSpec(
        targets=(TargetSpec(range_m=4.2, azimuth_rad=math.radians(18.0), amplitude=1.5,
                            micro_motion_amplitude_m=2e-3, micro_motion_rate_hz=0.3),),
        clutter=(ClutterSpec(range_m=2.0, azimuth_rad=math.radians(-30.0), amplitude=4.0),),
        noise_std=0.1, seed=7, n_frames=5, view_tag="tv", location_tag="P1",
        subject_tag="S2", box_half_extents=(0.6, math.radians(12.0)))
    back = scene_from_dict(scene_to_dict(scene))
    assert back.targets[0].range_m == scene.targets[0].range_m
    assert back.targets[0].azimuth_rad == pytest.approx(scene.targets[0].azimuth_rad)
    assert back.clutter[0].amplitude == 4.0
    assert back.box_half_extents[1] == pytest.approx(scene.box_half_extents[1])
    assert back.seed == 7 and back.n_frames == 5


def test_scene_schema_errors_carry_field_paths():
    with pytest.raises(ValueError, match=r"targets\[0\]\.range_m"):
        scene_from_dict({"targets": [{"azimuth_deg": 10}]})
    with pytest.raises(ValueError, match="n_frames"):
        scene_from_dict({"n_frames": 0})
    with pytest.raises(ValueError, match=r"clutter\[1\]\.amplitude"):
        scene_from_dict({"clutter": [{"range_m": 1.0},
                                     {"range_m": 2.0, "amplitude": "big"}]})
    with pytest.raises(ValueError, match=r"box_half_extents\.azimuth_deg: must be >= 0"):
        scene_from_dict({"box_half_extents": {"range_m": 0.45, "azimuth_deg": -10.0}})
    with pytest.raises(ValueError, match=r"box_half_extents\.azimuth_deg: expected a number"):
        scene_from_dict({"box_half_extents": {"range_m": 0.45}})
    with pytest.raises(ValueError, match=r"targets\[0\]\.micro_motion_rate_hz: must be >= 0"):
        scene_from_dict({"targets": [{"range_m": 3.0, "micro_motion_rate_hz": -0.1}]})
    with pytest.raises(ValueError, match="seed: expected an integer"):
        scene_from_dict({"seed": 1.5})
    with pytest.raises(ValueError, match="targets: expected a JSON array"):
        scene_from_dict({"targets": None})
    with pytest.raises(ValueError, match=r"clutter\[0\]: expected a JSON object"):
        scene_from_dict({"clutter": [3.0]})
    # NaN passed the ">= 0" check: a scene with no noise, and a box that holds every detection
    with pytest.raises(ValueError, match="noise_std: expected a number, got nan"):
        scene_from_dict({"noise_std": float("nan")})
    with pytest.raises(ValueError, match=r"box_half_extents\.range_m: expected a number, got inf"):
        scene_from_dict({"box_half_extents": {"range_m": float("inf"), "azimuth_deg": 10.0}})
    with pytest.raises(ValueError, match=r"targets\[0\]\.azimuth_deg: expected a number"):
        scene_from_dict({"targets": [{"range_m": 3.0, "azimuth_deg": float("-inf")}]})
    with pytest.raises(ValueError, match=r"targets\[0\]\.range_m: expected a number"):
        scene_from_dict({"targets": [{"range_m": "3.0"}]})


@pytest.mark.parametrize("doc, message", [
    ({"targets": [], "n_frame": 3}, "scene: unknown key 'n_frame'"),
    ({"targets": [{"range_m": 3.0, "azimuth_degs": 20.0}]},
     r"targets\[0\]: unknown key 'azimuth_degs'"),
    ({"clutter": [{"range_m": 1.0}, {"range_m": 2.0, "amplitude_db": 3.0}]},
     r"clutter\[1\]: unknown key 'amplitude_db'"),
    ({"box_half_extents": {"range_m": 0.45, "azimuth_deg": 10.0, "elevation_deg": 5.0}},
     r"box_half_extents: unknown key 'elevation_deg'"),
    ({"targets": [{"range_m": 3.0, "azimuth_rad": 0.3}]},
     r"targets\[0\]: unknown key 'azimuth_rad'"),
])
def test_scene_unknown_keys_are_rejected_with_their_path(doc, message):
    # a misspelt key used to be ignored: the target above read as azimuth 0
    with pytest.raises(ValueError, match=message):
        scene_from_dict(doc)


def test_scene_validation():
    with pytest.raises(ValueError):
        SceneSpec(noise_std=-0.1)
    with pytest.raises(ValueError):
        SceneSpec(targets=(TargetSpec(range_m=1.0, azimuth_rad=2.0),))


def assert_same_json(got, want, key=""):
    """Same keys and values; degree values may differ by the radian round trip."""
    assert type(got) is type(want), key
    if isinstance(want, dict):
        assert got.keys() == want.keys(), key
        for k in want:
            assert_same_json(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            assert_same_json(g, w, key)
    elif key.endswith("_deg"):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), key
    else:
        assert got == want, key


@pytest.mark.parametrize("name", ["single_target.json", "empty_room.json"])
def test_bundled_scene_json_round_trips_key_for_key(name):
    raw = json.loads((resources.files("floorwatch") / "data" / "scenes" / name).read_text())
    assert_same_json(scene_to_dict(scene_from_dict(raw)), raw)


def test_benchmark_scenes_parse_back():
    scenes = (occupied_benchmark_scenes(2, seed=1) + empty_benchmark_scenes(None, 2, seed=1)
              + localization_scenes(2))
    for scene in scenes:
        d = json.loads(json.dumps(scene_to_dict(scene)))
        assert_same_json(scene_to_dict(scene_from_dict(d)), d)


finite = dict(allow_nan=False, allow_infinity=False)
angles = st.floats(-1.5, 1.5, **finite)
non_negative = st.floats(0.0, 50.0, **finite)
targets = st.builds(TargetSpec, range_m=non_negative, azimuth_rad=angles,
                    elevation_rad=angles, amplitude=non_negative,
                    micro_motion_amplitude_m=non_negative, micro_motion_rate_hz=non_negative)
clutter = st.builds(ClutterSpec, range_m=non_negative, azimuth_rad=angles,
                    elevation_rad=angles, amplitude=non_negative)
scenes = st.builds(SceneSpec, targets=st.lists(targets, max_size=3).map(tuple),
                   clutter=st.lists(clutter, max_size=3).map(tuple), noise_std=non_negative,
                   seed=st.integers(0, 2**32), n_frames=st.integers(1, 10_000),
                   view_tag=st.text(max_size=5), location_tag=st.text(max_size=5),
                   subject_tag=st.text(max_size=5),
                   box_half_extents=st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 1.5)))


@settings(max_examples=200, deadline=None)
@given(scenes)
def test_scene_json_round_trip_property(scene):
    d = json.loads(json.dumps(scene_to_dict(scene)))
    back = scene_from_dict(d)
    assert_same_json(scene_to_dict(back), d)
    for got, want in zip(back.targets + back.clutter, scene.targets + scene.clutter):
        assert got.range_m == want.range_m and got.amplitude == want.amplitude
        assert got.azimuth_rad == pytest.approx(want.azimuth_rad, rel=1e-12, abs=1e-15)
    assert (back.noise_std, back.seed, back.n_frames) == (scene.noise_std, scene.seed,
                                                        scene.n_frames)
