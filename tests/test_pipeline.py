import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import floorwatch
from floorwatch import capon, cfar, cli, dbf, frontend, pipeline
from floorwatch.bench import bench_manifest, occupied_benchmark_scenes
from floorwatch.capon import check_pair_geometry
from floorwatch.cfar import EDGE_POLICIES, CfarConfig, GroundTruthBox
from floorwatch.core import ArrayGeometry, RadarConfig, default_geometry
from floorwatch.frontend import process_frame, zero_doppler_window
from floorwatch.mti import init_clutter, mti_step
from floorwatch.pipeline import (cache_recording, detections_from_maps, flags_at_k,
                                 process_recording, score_recording, stack_maps)
from floorwatch.recordings import (RunManifest, dump_json, manifest_to_dict, read_recording,
                                   write_recording)
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


def replayed_flags(tmp_path, rec_path, manifest, monkeypatch):
    """Per-frame flags of ``evaluate --detections`` replaying the CSV ``process`` writes."""
    manifest_path = tmp_path / "manifest.json"
    dump_json(manifest_to_dict(manifest), manifest_path)
    csv_path = tmp_path / "detections.csv"
    common = ["--recording", str(rec_path), "--manifest", str(manifest_path)]
    assert cli.main(["process", *common, "--out", str(csv_path)]) == 0
    trials = []

    def kept(rec, method, flags):
        trials.append(flags)
        return pipeline.trial_record(rec, method, flags)

    argv = ["evaluate", *common, "--detections", str(csv_path), "--out", str(tmp_path / "ev")]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "trial_record", kept)
        assert cli.main(argv) == 0
    (flags,) = trials
    return flags


def test_cached_flags_match_direct_scoring(tmp_path, monkeypatch):
    rec = occupied_recording(6)
    # a tight box around the target: Capon's kept cell falls outside it on some frames
    tight = GroundTruthBox(center=(4.5, np.deg2rad(10.0)), half_extents=(0.3, np.deg2rad(3.0)))
    for r in (rec, dataclasses.replace(rec, truth=(tight,))):
        rec_path = tmp_path / "rec.rec"
        write_recording(rec_path, r)
        from_file = read_recording(rec_path)  # process and evaluate see its complex64 samples
        for method in ("dbf", "capon"):
            manifest = RunManifest(method=method, k=3.0, mti_alpha=0.99)
            cached = cache_recording(r, manifest)
            assert cached.powers.dtype == cached.bases.dtype == np.float64
            for k in (2.0, 3.0, 5.0):
                at_k = dataclasses.replace(manifest, k=k)
                direct = score_recording(r, at_k)
                assert np.array_equal(direct.flags, flags_at_k(cached, k))
                replayed = replayed_flags(tmp_path, rec_path, at_k, monkeypatch)
                assert np.array_equal(replayed, score_recording(from_file, at_k).flags)


@pytest.mark.parametrize("method", ["dbf", "capon"])
@pytest.mark.parametrize("edge_policy", EDGE_POLICIES)
def test_cached_maps_are_the_stream_maps_bit_for_bit(method, edge_policy):
    rec = occupied_recording(5)
    manifest = RunManifest(method=method, k=3.0, mti_alpha=0.99, edge_policy=edge_policy)
    cached = cache_recording(rec, manifest)
    outs = list(process_recording(rec, manifest))
    assert cached.powers.shape[0] == len(outs) == rec.n_frames
    for i, out in enumerate(outs):
        for stack, frame_map in ((cached.powers, out.power), (cached.bases, out.threshold_base),
                                 (cached.evaluable, out.evaluable)):
            assert stack.dtype == frame_map.dtype
            assert stack[i, :-1].tobytes() == frame_map.tobytes()
            assert not stack[i, -1].any()  # the separator row


def test_caching_makes_no_detections(monkeypatch):
    calls = []
    monkeypatch.setattr(cfar, "suppress", lambda *args: calls.append(args))
    monkeypatch.setattr(cfar, "threshold", lambda *args: calls.append(args))
    for method in ("dbf", "capon"):
        cache_recording(occupied_recording(3), RunManifest(method=method, k=3.0, mti_alpha=0.99))
    assert calls == []


@pytest.mark.parametrize("method", ["dbf", "capon"])
def test_stream_frames_after_the_first_make_no_fft_and_no_dft_matrix(monkeypatch, method):
    # the frontend is two products with DFT matrices made once per length and bin set
    rec = occupied_recording(4)

    def no_fft(*args, **kwargs):
        raise AssertionError("the frontend called an FFT")

    for name in ("fft", "ifft", "fft2", "fftn", "rfft", "fftshift"):
        monkeypatch.setattr(np.fft, name, no_fft)
    frontend._tapered_dft.cache_clear()
    built = [frontend._tapered_dft.cache_info().misses
             for _ in process_recording(rec, RunManifest(method=method, k=3.0, mti_alpha=0.99))]
    assert built == [2] * rec.n_frames  # the Doppler and the range matrix, at the first frame


def test_frame_outputs_carry_the_capon_clamp_count():
    # identical samples on the azimuth pair make R rank one in every range bin, along
    # [1, 1]; its null direction [1, -1] is the steering at +-90 degrees, so those cells clamp
    rec = occupied_recording(4)
    i, j = rec.geometry.azimuth_pair
    samples = rec.samples.copy()
    samples[:, j] = samples[:, i]
    rec = dataclasses.replace(rec, samples=samples)
    manifest = RunManifest(method="capon", k=3.0, mti_alpha=0.99, theta_max_deg=90.0)
    window = zero_doppler_window(CFG.chirps_per_frame, manifest.doppler_half_width)
    state = init_clutter((CFG.num_rx, CFG.num_range_bins, window.size), manifest.mti_alpha)
    outs = list(process_recording(rec, manifest))
    assert len(outs) == rec.n_frames
    for frame, out in zip(rec.samples, outs):
        state, filtered = mti_step(state, process_frame(frame, CFG, window))
        ra = capon.capon_range_azimuth(filtered, manifest.grid, np.arange(window.size), (i, j))
        assert out.clamp_count == ra.clamp_count == 2 * CFG.num_range_bins
        assert np.array_equal(out.power, ra.power)
    dbf_outs = process_recording(rec, dataclasses.replace(manifest, method="dbf"))
    assert [out.clamp_count for out in dbf_outs] == [0] * rec.n_frames


@pytest.mark.parametrize("pair_offset, manifest, message", [
    (1.0, RunManifest(method="capon"), "half a wavelength"),
    (0.5, RunManifest(method="dbf", doppler_half_width=64), "Doppler window"),
    (0.5, RunManifest(method="capon", doppler_half_width=64), "Doppler window"),
])
def test_cache_and_stream_refuse_at_the_call_before_any_frame(monkeypatch, pair_offset, manifest,
                                                              message):
    lam = CFG.wavelength  # the pair's offset receiver sits pair_offset wavelengths along azimuth
    geom = ArrayGeometry(wavelength=lam, azimuth_pair=(0, 1),
                         element_offsets=((0.0, 0.0), (pair_offset * lam, 0.0), (0.0, lam / 2)))
    rec = dataclasses.replace(occupied_recording(2), geometry=geom)
    frames = []
    monkeypatch.setattr(pipeline, "process_frame", lambda *args: frames.append(args))
    with pytest.raises(ValueError, match=message):
        process_recording(rec, manifest)  # at the call, not at next()
    with pytest.raises(ValueError, match=message):
        cache_recording(rec, manifest)
    assert frames == []


def test_flags_at_k_monotone_shrinkage():
    rec = occupied_recording(6)
    manifest = RunManifest(method="dbf", k=2.0, mti_alpha=0.99)
    cached = cache_recording(rec, manifest)
    hits_low = flags_at_k(cached, 1.5).sum()
    hits_high = flags_at_k(cached, 30.0).sum()
    assert hits_high <= hits_low


@st.composite
def sweep_cases(draw):
    """Small integer maps, so equal powers are common, with their training stats, boxes and k.

    A frame is drawn, flat (no crossing), or drawn with a strong cell on its
    first and last range rows, next to the neighbouring frames' rows in the
    stack. k runs from below the smallest power/base ratio to above the largest.
    """
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cfg = CfarConfig(guard_cells=(draw(st.integers(0, 1)), draw(st.integers(0, 1))),
                     training_cells=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
                     edge_policy=draw(st.sampled_from(EDGE_POLICIES)))
    maps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("drawn", "flat", "edge_rows")))
        if kind == "flat":
            power = np.full((rows, cols), float(draw(st.integers(0, 3))))
        else:
            power = draw(arrays(np.float64, (rows, cols), elements=st.integers(0, 4)))
        if kind == "edge_rows":
            power[0, draw(st.integers(0, cols - 1))] = 9.0
            power[-1, draw(st.integers(0, cols - 1))] = 9.0
        maps.append((power, *cfar.training_stats(power, cfg)))
    axes = cfar.MapAxes(range_m=np.arange(rows) * 1.0, azimuth_rad=np.arange(cols, dtype=float))
    boxes = tuple(GroundTruthBox(center=(draw(st.integers(0, rows - 1)),
                                         draw(st.integers(0, cols - 1))),
                                 half_extents=(draw(st.sampled_from((0.5, 1.5, 9.0))),
                                               draw(st.sampled_from((0.5, 1.5, 9.0)))))
                  for _ in range(draw(st.integers(1, 2))))
    ratios = sorted({float(p / b) for power, base, ev in maps
                     for p, b in zip(power[ev], base[ev]) if p > 0 and b > 0})
    ks = ([ratios[0] / 2, *ratios, *np.add(ratios[:-1], ratios[1:]) / 2, ratios[-1] * 2]
          if ratios else [0.5, 1.0, 2.0])
    return maps, boxes, axes, draw(st.sampled_from(ks))


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_tall_map_sweep_flags_each_frame_as_its_own_map_would(case):
    maps, boxes, axes, k = case
    cached = stack_maps(boxes, axes, len(maps), maps)
    want = [cfar.hit_test(detections_from_maps(power, base, ev, k), boxes, axes)
            for power, base, ev in maps]
    assert flags_at_k(cached, k).tolist() == want


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


F32 = np.finfo(np.float32)


@pytest.mark.parametrize("method", ["dbf", "capon"])
@pytest.mark.parametrize("value", [F32.max, F32.tiny, F32.smallest_subnormal],
                         ids=["max", "smallest_normal", "smallest_subnormal"])
def test_recording_files_at_the_float32_limits_give_finite_maps(tmp_path, method, value):
    # the chain checks its input once, where a recording enters; every legal file must
    # then give finite maps without a further check on the range-Doppler cube
    rec = occupied_recording(3)
    signs = np.random.default_rng(7).choice([-1.0, 1.0], (2,) + rec.samples.shape)
    path = tmp_path / "limit.rec"
    write_recording(path, dataclasses.replace(rec, samples=value * (signs[0] + 1j * signs[1])))
    outs = list(process_recording(read_recording(path), RunManifest(method=method)))
    assert len(outs) == 3
    for out in outs:
        assert np.isfinite(out.power).all() and np.isfinite(out.threshold_base).all()


@pytest.mark.parametrize("method, amplitude, message", [
    ("dbf", 1e306, "power map contains non-finite values"),
    ("capon", 1e306, "snapshots contain non-finite values"),
    ("capon", 1e-155, "power map contains non-finite values"),
])
def test_in_memory_recordings_beyond_the_chain_range_are_refused(method, amplitude, message):
    # complex128 recordings made in memory can leave the range a file can hold: at 1e306
    # the FFT overflows, and at 1e-155 Capon's pseudoinverse does; the map or snapshot
    # check must refuse the frame rather than yield a non-finite map
    rec = occupied_recording(3)
    scaled = dataclasses.replace(rec, samples=amplitude / np.abs(rec.samples).max() * rec.samples)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        list(process_recording(scaled, RunManifest(method=method)))


def test_dbf_at_a_tiny_in_memory_amplitude_stays_finite():
    rec = occupied_recording(3)
    scaled = dataclasses.replace(rec, samples=1e-155 / np.abs(rec.samples).max() * rec.samples)
    for out in process_recording(scaled, RunManifest(method="dbf")):
        assert np.isfinite(out.power).all() and np.isfinite(out.threshold_base).all()


def test_in_memory_dbf_recording_whose_map_total_overflows_is_refused():
    # Gaussian samples at 1e306 give a finite DBF map (max about 2e307) whose total passes
    # the float64 maximum; the training means used to come back NaN with no detections
    rng = np.random.default_rng(0)
    rec = occupied_recording(3)
    noise = rng.standard_normal(rec.samples.shape) + 1j * rng.standard_normal(rec.samples.shape)
    scaled = dataclasses.replace(rec, samples=1e306 * noise)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="float64 range"):
        for out in process_recording(scaled, RunManifest(method="dbf")):
            assert np.isfinite(out.threshold_base).all()


# --- the windowed chain equals the full-cube composition it replaced ---

def full_cube_outputs(rec, manifest):
    """Clutter filter on all Doppler bins; DBF or Capon picks the zero-Doppler window."""
    cfg = rec.config
    window = zero_doppler_window(cfg.chirps_per_frame, manifest.doppler_half_width)
    weights = dbf.dbf_weights(manifest.grid, rec.geometry)
    state = init_clutter((cfg.num_rx, cfg.num_range_bins, cfg.chirps_per_frame),
                         alpha=manifest.mti_alpha)
    for frame in rec.samples:
        state, filtered = mti_step(state, process_frame(frame, cfg))
        if manifest.method == "dbf":
            ra = dbf.dbf_range_azimuth(dbf.dbf_power(filtered, weights, window))
        else:
            ra = capon.capon_range_azimuth(filtered, manifest.grid, window,
                                           rec.geometry.azimuth_pair)
        base, evaluable = cfar.training_stats(ra.power, manifest.cfar)
        yield ra.power, base, evaluable, detections_from_maps(ra.power, base, evaluable,
                                                              manifest.k)


@pytest.fixture(scope="module")
def bench_recording_pair(tmp_path_factory):
    scene = dataclasses.replace(occupied_benchmark_scenes(1, seed=1)[0], n_frames=40)
    rec = synthesize_recording(scene, CFG, GEOM)
    path = tmp_path_factory.mktemp("bench") / "bench.rec"
    write_recording(path, rec)
    return {"memory": rec, "file": read_recording(path)}


@pytest.mark.parametrize("source", ["memory", "file"])
@pytest.mark.parametrize("method", ["dbf", "capon"])
def test_windowed_chain_equals_the_full_cube_composition(bench_recording_pair, method, source):
    rec = bench_recording_pair[source]
    assert rec.samples.dtype == (np.complex128 if source == "memory" else np.complex64)
    manifest = bench_manifest(method, 4.6352 if method == "capon" else 7.5441)
    outs = list(process_recording(rec, manifest))
    assert len(outs) == rec.n_frames == 40
    n_detections = 0
    for out, (power, base, evaluable, dets) in zip(outs, full_cube_outputs(rec, manifest)):
        assert np.array_equal(out.power, power)
        assert np.array_equal(out.threshold_base, base)
        assert np.array_equal(out.evaluable, evaluable)
        got = out.detections
        for name in ("range_bins", "azimuth_bins", "power", "threshold"):
            assert np.array_equal(getattr(got, name), getattr(dets, name))
        n_detections += len(got)
    assert n_detections > 0


@pytest.mark.parametrize("method", ["dbf", "capon"])
@pytest.mark.parametrize("edge_policy", EDGE_POLICIES)
def test_writing_into_one_frame_output_leaves_the_next_frame_alone(method, edge_policy):
    # the ring geometry is cached per map shape and config; no frame may hand it out
    rec = occupied_recording(4)
    manifest = RunManifest(method=method, k=3.0, mti_alpha=0.99, edge_policy=edge_policy)
    want = [(out.power.copy(), out.threshold_base.copy(), out.evaluable.copy())
            for out in process_recording(rec, manifest)]
    for _ in range(2):  # a second recording must not see the first one's writes either
        for out, (power, base, evaluable) in zip(process_recording(rec, manifest), want):
            assert np.array_equal(out.power, power)
            assert np.array_equal(out.threshold_base, base)
            assert np.array_equal(out.evaluable, evaluable)
            out.power[...] = -1.0
            out.threshold_base[...] = -1.0
            out.evaluable[...] = ~out.evaluable


# Minor page faults per Capon frame of a 40-frame bench recording, after 5 warm-up
# frames. Run in a fresh process, as earlier tests leave the heap in another state.
FAULTS_PER_FRAME = """
import dataclasses, resource
from floorwatch.bench import bench_manifest, occupied_benchmark_scenes
from floorwatch.core import RadarConfig, default_geometry
from floorwatch.pipeline import process_recording
from floorwatch.sim import synthesize_recording
cfg = RadarConfig()
scene = dataclasses.replace(occupied_benchmark_scenes(1, seed=1)[0], n_frames=40)
rec = synthesize_recording(scene, cfg, default_geometry(cfg))
faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt
          for _ in process_recording(rec, bench_manifest("capon", 4.6352))]
print((faults[-1] - faults[4]) / (len(faults) - 5))
"""


def test_a_capon_frame_does_not_fault_its_heap_back_in():
    # the frontend's temporaries used to be trimmed from the heap and faulted back in
    # on every frame: 160 minor faults per frame
    pytest.importorskip("resource")
    src = str(Path(floorwatch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_FRAME], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 10
