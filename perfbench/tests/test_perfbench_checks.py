"""Each output check of the benchmark passes on the program's real outputs
and fails on one planted fault.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

import checks
import gen
import speed
import worker
from floorwatch import cli, pipeline
from floorwatch.bench import bench_manifest, occupied_benchmark_scenes
from floorwatch.core import RadarConfig, default_geometry
from floorwatch.recordings import manifest_to_dict, read_recording, write_recording
from floorwatch.sim import synthesize_recording

STREAM_FRAMES = 12


@pytest.fixture(scope="module", params=["capon", "dbf"])
def stream(request, tmp_path_factory):
    """The program's outputs for every frame of a short bench recording."""
    method = request.param
    path = tmp_path_factory.mktemp(method) / "stream.rec"
    cfg = RadarConfig()
    scene = replace(occupied_benchmark_scenes(1, seed=5)[0], n_frames=STREAM_FRAMES)
    write_recording(path, synthesize_recording(scene, cfg, default_geometry(cfg)))
    m = bench_manifest(method, gen.STREAM_K[method])
    rec = read_recording(path)
    axes = pipeline.build_axes(rec.config, pipeline.build_grid(m))
    _, flags, kept = worker.replay(rec, m, axes, keep=set(range(STREAM_FRAMES)))
    worker.save_outputs(path.with_suffix(".npz"), kept, flags)
    outputs = checks.load_stream_outputs(path.with_suffix(".npz"), range(STREAM_FRAMES))
    return path, manifest_to_dict(m), outputs


def planted(outputs, frame, **changes):
    out = {f: dict(v) for f, v in outputs.items()}
    out[frame].update(changes)
    return out


def test_stream_outputs_match_reference(stream):
    path, manifest, outputs = stream
    assert checks.check_stream_frames(path, manifest, outputs) == []


def test_perturbed_map_cell_fails(stream):
    path, manifest, outputs = stream
    power = outputs[7]["power"].copy()
    power[10, 60] *= 1 + 1e-5
    failures = checks.check_stream_frames(path, manifest, planted(outputs, 7, power=power))
    assert any("frame 7: map differs" in f for f in failures)


def test_perturbed_training_mean_fails(stream):
    path, manifest, outputs = stream
    base = outputs[3]["base"].copy()
    base[0, 0] *= 1 - 1e-5
    failures = checks.check_stream_frames(path, manifest, planted(outputs, 3, base=base))
    assert any("frame 3: training mean" in f for f in failures)


def test_extra_detection_fails(stream):
    path, manifest, outputs = stream
    out = outputs[4]
    k = manifest["k"]
    spurious = [0, 0, out["power"][0, 0], k * out["base"][0, 0]]
    dets = np.vstack([out["detections"], spurious])
    failures = checks.check_stream_frames(path, manifest, planted(outputs, 4, detections=dets))
    assert any("frame 4: detections" in f for f in failures)


def test_flipped_frame_flag_fails(stream):
    path, manifest, outputs = stream
    flag = np.array(not outputs[5]["flag"])
    failures = checks.check_stream_frames(path, manifest, planted(outputs, 5, flag=flag))
    assert any("frame 5: hit flag" in f for f in failures)


def test_stream_properties():
    assert checks.check_stream_properties(["0110", "0110"], 4, 12.0) == []
    assert checks.check_stream_properties(["0110", "0100"], 4, 12.0)
    assert checks.check_stream_properties(["0110", "011"], 4, 12.0)
    assert checks.check_stream_properties(["0110"], 4, 100.0)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Two rounds of a 10-frame study run through the CLI."""
    base = tmp_path_factory.mktemp("study")
    inputs = gen.make_study(seed=2, out=base, frames=10)
    hooks = worker.StudyHooks(None, inputs["frames_per_recording"])
    result = {"attempted": 0, "failed": 0, "errors": []}
    with hooks.installed():
        for i in range(2):
            worker.study_round(cli, inputs, base / f"round{i}", hooks, result)
    assert result["failed"] == 0, result["errors"]
    return inputs, base


@pytest.fixture
def round_dir(study, tmp_path):
    inputs, base = study
    copy = tmp_path / "round"
    shutil.copytree(base / "round0", copy)
    return inputs, copy


def test_study_outputs_pass(study):
    inputs, base = study
    assert checks.check_study(base / "round0", inputs) == []
    assert checks.check_study_rounds_agree([base / "round0", base / "round1"]) == []


def edit_json(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def edit_csv_cell(path, row, column, value):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_wrong_selected_k_fails(round_dir):
    inputs, d = round_dir
    point = json.loads((d / "tune_capon" / "operating_point.json").read_text())
    other = next(k for k in inputs["k_grids"]["capon"] if k != point["k"])
    edit_json(d / "tune_capon" / "operating_point.json", k=other)
    assert any("selected k" in f for f in checks.check_study(d, inputs))


def test_wrong_macro_f1_fails(round_dir):
    inputs, d = round_dir
    edit_csv_cell(d / "tune_dbf" / "sweep.csv", 3, "macro_f1", "0.123")
    assert any("macro_f1" in f for f in checks.check_study(d, inputs))


def test_wrong_feasible_flag_fails(round_dir):
    inputs, d = round_dir
    rows = (d / "tune_dbf" / "sweep.csv").read_text().splitlines()
    flag = rows[1].rsplit(",", 1)[1]
    edit_csv_cell(d / "tune_dbf" / "sweep.csv", 0, "feasible", "0" if flag == "1" else "1")
    assert any("feasible flag" in f for f in checks.check_study(d, inputs))


def test_evaluate_disagreeing_with_sweep_fails(round_dir):
    inputs, d = round_dir
    path = d / "eval_capon" / "metrics.json"
    trials = json.loads(path.read_text())
    occupied = next(t for t in trials if t["label"] == "occupied")
    occupied["frame_positive_rate"] = (round(occupied["frame_positive_rate"] * 10) % 10 + 1) / 10
    path.write_text(json.dumps(trials))
    assert any("pooled hits" in f for f in checks.check_study(d, inputs))


def test_capon_below_dbf_fails(round_dir):
    inputs, d = round_dir
    path = d / "eval_capon" / "metrics.json"
    trials = json.loads(path.read_text())
    for t in trials:
        if t["label"] == "occupied":
            t["frame_positive_rate"] = 0.0
    path.write_text(json.dumps(trials))
    assert any("mean occupied rate" in f for f in checks.check_study(d, inputs))


def test_wrong_paired_delta_fails(round_dir):
    inputs, d = round_dir
    edit_csv_cell(d / "report" / "paired_deltas.csv", 0, "delta", "0.5")
    assert any("paired_deltas" in f for f in checks.check_study(d, inputs))


def test_rounds_that_differ_fail(study, round_dir):
    inputs, base = study
    _, d = round_dir
    edit_csv_cell(d / "tune_dbf" / "sweep.csv", 0, "macro_f1", "0.5")
    assert checks.check_study_rounds_agree([base / "round0", d])


def test_reference_ms_scales_by_probe_time():
    probe = speed.SpeedProbe()
    probe._starts, probe._ends = [100, 300], [110, 320]
    unit = speed.REFERENCE_MS * 1e6
    # work 0-100 closed by a 10 ns probe, 110-300 by a 20 ns probe, 320-400 by the last
    want = (100 * unit / 10 + 190 * unit / 20 + 80 * unit / 20) / 1e6
    assert probe.reference_ms(0, 400) == pytest.approx(want)
