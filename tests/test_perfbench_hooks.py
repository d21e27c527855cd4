"""The benchmark in perfbench/ patches program functions by module and name.

These tests keep those names alive: every pair its tracer wraps and every
function its worker hooks must exist, and a traced CLI run must pass through
each of them, so that no per-layer metric silently reads 0.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from floorwatch.cli import main
from floorwatch.recordings import RunManifest, manifest_to_dict

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, attribute) pairs the benchmark worker wraps in untraced runs
WORKER_HOOKS = (("floorwatch.cfar", "hit_test"),
                ("floorwatch.pipeline", "process_frame"),
                ("floorwatch.sim", "synthesize_frame"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr",
                         [t[:2] for t in load_tracing().TARGETS] + list(WORKER_HOOKS))
def test_benchmark_hook_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_traced_cli_run_reaches_every_target(tmp_path):
    config = write_json(tmp_path / "config.json", {
        "center_frequency": 60e9, "bandwidth": 500e6, "chirp_duration": 416.7e-6,
        "frame_rate": 10.0, "chirps_per_frame": 32, "samples_per_chirp": 64,
        "num_rx": 3, "chirp_repetition_interval": 416.7e-6})
    clutter = [{"range_m": 7.6, "azimuth_deg": -40.0, "amplitude": 6.0}]
    scenes = [
        {"targets": [{"range_m": 4.2, "azimuth_deg": 12.0, "amplitude": 1.0,
                      "micro_motion_amplitude_m": 0.001, "micro_motion_rate_hz": 0.25}],
         "clutter": clutter, "noise_std": 0.05, "seed": 3, "n_frames": 4, "view_tag": "tv"},
        {"targets": [], "clutter": clutter, "noise_std": 0.05, "seed": 4, "n_frames": 4,
         "view_tag": "tv"},
    ]
    manifests = {m: write_json(tmp_path / f"{m}.json",
                               manifest_to_dict(RunManifest(method=m, mti_alpha=0.99)))
                 for m in ("dbf", "capon")}
    recs = [str(tmp_path / f"rec{i}.rec") for i in range(len(scenes))]
    trials = write_json(tmp_path / "trials.json", [{"recording": r} for r in recs])

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, (scene, rec) in enumerate(zip(scenes, recs)):
            path = write_json(tmp_path / f"scene{i}.json", scene)
            assert main(["simulate", "--scene", path, "--config", config, "--out", rec]) == 0
        for method, manifest in manifests.items():
            assert main(["tune", "--recordings", *recs, "--manifest", manifest,
                         "--k-grid", "1.5,3.0", "--out", str(tmp_path / f"tune_{method}")]) == 0
            assert main(["evaluate", "--trials", trials, "--manifest", manifest,
                         "--out", str(tmp_path / f"eval_{method}")]) == 0
    finally:
        tracer.remove()
    assert {span[0] for span in tracer.spans} == {name for _, _, name in tracing.TARGETS}
