"""The program's stream outputs against the benchmark's independent reference chain.

``perfbench/reference.py`` is a plain-numpy chain written apart from
floorwatch, with its own recording parser, Hann FFTs, clutter recursion,
closed-form 2x2 Capon, explicit DBF phase-and-sum, ring-kernel CA-CFAR and
8-connected max suppression; ``perfbench/checks.check_stream_frames``
compares maps and training means to 1e-6 relative and detections and hit
flags exactly, apart from cells within 4e-6 of their threshold. Here it
checks every frame of small recordings drawn over the radar config, both
methods and the manifest's clutter, Doppler and CFAR settings. The reference
covers only pair-mode Capon and ``shrink_window`` CFAR; the other paths keep
their brute-force tests.
"""

import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch import cfar, pipeline
from floorwatch.core import RadarConfig, default_geometry, max_range
from floorwatch.recordings import RunManifest, manifest_to_dict, read_recording, write_recording
from floorwatch.sim import ClutterSpec, SceneSpec, TargetSpec, synthesize_recording

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_checks():
    sys.path.insert(0, str(PERFBENCH))  # checks.py imports its sibling reference.py by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


checks = load_checks()

_EVEN = st.integers(8, 32).map(lambda n: 2 * n)  # 16..64, even


@st.composite
def stream_case(draw):
    cfg = RadarConfig(chirps_per_frame=draw(_EVEN), samples_per_chirp=draw(_EVEN), num_rx=3)
    r_max = max_range(cfg)
    fraction = st.floats(0.15, 0.85)
    azimuth = st.floats(-math.radians(50.0), math.radians(50.0))
    scene = SceneSpec(
        targets=(TargetSpec(range_m=draw(fraction) * r_max, azimuth_rad=draw(azimuth),
                            amplitude=draw(st.floats(0.3, 1.5))),),
        clutter=tuple(ClutterSpec(range_m=draw(fraction) * r_max, azimuth_rad=draw(azimuth),
                                  amplitude=draw(st.floats(0.5, 3.0)))
                      for _ in range(draw(st.integers(0, 2)))),
        noise_std=draw(st.floats(0.02, 0.2)), seed=draw(st.integers(0, 2**16)),
        n_frames=draw(st.integers(1, 8)))
    manifest = RunManifest(
        method=draw(st.sampled_from(["dbf", "capon"])), k=draw(st.floats(1.5, 6.0)),
        guard_cells=(draw(st.integers(0, 2)), draw(st.integers(0, 3))),
        training_cells=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        doppler_half_width=draw(st.integers(1, min(5, cfg.chirps_per_frame // 2 - 1))),
        mti_alpha=draw(st.floats(0.01, 1.0)))
    return cfg, scene, manifest


@settings(max_examples=100, deadline=None)
@given(case=stream_case())
def test_stream_outputs_match_the_reference_chain(case):
    cfg, scene, manifest = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.rec"
        write_recording(path, synthesize_recording(scene, cfg, default_geometry(cfg)))
        rec = read_recording(path)
        axes = pipeline.build_axes(cfg, pipeline.build_grid(manifest))
        outputs = {}
        for out in pipeline.process_recording(rec, manifest):
            outputs[out.frame_index] = {
                "power": out.power, "base": out.threshold_base, "evaluable": out.evaluable,
                "detections": np.array([(d.range_bin, d.azimuth_bin, d.power, d.threshold)
                                        for d in out.detections.detections]).reshape(-1, 4),
                "flag": cfar.hit_test(out.detections, rec.truth, axes)}
        assert len(outputs) == scene.n_frames
        manifest_json = json.loads(json.dumps(manifest_to_dict(manifest)))
        assert checks.check_stream_frames(path, manifest_json, outputs) == []
