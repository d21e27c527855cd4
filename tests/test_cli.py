import csv
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from floorwatch import scoring
from floorwatch.bench import CAPON_K_GRID, DBF_K_GRID
from floorwatch.cfar import DetectionSet, hit_test
from floorwatch.cli import DETECTION_COLUMNS, CliError, _fmt, _parse_k_grid, main
from floorwatch.core import RadarConfig, default_geometry
from floorwatch.pipeline import build_axes, build_grid
from floorwatch.recordings import manifest_to_dict, RunManifest, write_recording
from floorwatch.sim import SceneSpec, TargetSpec, synthesize_recording

SMALL_CONFIG = {
    "center_frequency": 60e9,
    "bandwidth": 500e6,
    "chirp_duration": 416.7e-6,
    "frame_rate": 10.0,
    "chirps_per_frame": 32,
    "samples_per_chirp": 64,
    "num_rx": 3,
    "chirp_repetition_interval": 416.7e-6,
}

SCENE = {
    "targets": [{"range_m": 4.2, "azimuth_deg": 12.0, "amplitude": 1.0,
                 "micro_motion_amplitude_m": 0.001, "micro_motion_rate_hz": 0.25}],
    "clutter": [{"range_m": 7.6, "azimuth_deg": -40.0, "amplitude": 6.0}],
    "noise_std": 0.05,
    "seed": 3,
    "n_frames": 8,
    "view_tag": "tv",
    "location_tag": "P1",
    "subject_tag": "S1",
}

EMPTY_SCENE = {
    "targets": [],
    "clutter": [{"range_m": 7.6, "azimuth_deg": -40.0, "amplitude": 6.0}],
    "noise_std": 0.05,
    "seed": 4,
    "n_frames": 8,
    "view_tag": "tv",
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def workspace(tmp_path):
    cfg = write_json(tmp_path / "config.json", SMALL_CONFIG)
    scene = write_json(tmp_path / "scene.json", SCENE)
    empty = write_json(tmp_path / "empty.json", EMPTY_SCENE)
    manifest = write_json(tmp_path / "manifest.json",
                          manifest_to_dict(RunManifest(method="capon", k=4.0, mti_alpha=0.99)))
    return tmp_path, cfg, scene, empty, manifest


def test_manifest_with_unknown_field_is_a_json_error(workspace, capsys):
    tmp, cfg, scene, _, _ = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    manifest = write_json(tmp / "old.json", {"method": "dbf", "smooth_frames": 3})
    capsys.readouterr()
    rc = main(["process", "--recording", str(rec), "--manifest", manifest,
               "--out", str(tmp / "det.csv")])
    assert rc != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and "smooth_frames" in err["message"]


@pytest.mark.parametrize("command", ["process", "tune", "evaluate"])
def test_seed_is_only_a_simulate_option(command):
    with pytest.raises(SystemExit):
        main([command, "--seed", "3", "--out", "x"])


def test_simulate_is_deterministic(workspace):
    tmp, cfg, scene, _, _ = workspace
    out1, out2 = tmp / "a.rec", tmp / "b.rec"
    assert main(["simulate", "--scene", scene, "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--scene", scene, "--config", cfg, "--out", str(out2)]) == 0
    assert sha256(out1) == sha256(out2)


def test_simulate_seed_override_changes_bytes(workspace):
    tmp, cfg, scene, _, _ = workspace
    out1, out2 = tmp / "a.rec", tmp / "b.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(out1)])
    main(["simulate", "--scene", scene, "--config", cfg, "--seed", "99", "--out", str(out2)])
    assert sha256(out1) != sha256(out2)


def test_process_writes_detections_and_maps(workspace):
    tmp, cfg, scene, _, manifest = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    det = tmp / "det.csv"
    maps = tmp / "maps.npy"
    assert main(["process", "--recording", str(rec), "--manifest", manifest,
                 "--out", str(det), "--dump-maps", str(maps)]) == 0
    rows = list(csv.DictReader(det.open()))
    assert rows, "expected at least one detection"
    cols = list(rows[0].keys())
    assert cols == ["frame_index", "range_bin", "azimuth_bin", "range_m",
                    "azimuth_deg", "power", "threshold"]
    for row in rows:
        assert float(row["power"]) > float(row["threshold"])
    arr = np.load(maps)
    assert arr.shape == (8, 32, 121)


def test_evaluate_single_trial(workspace):
    tmp, cfg, scene, _, manifest = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    out = tmp / "eval"
    assert main(["evaluate", "--recording", str(rec), "--manifest", manifest,
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics) == 1
    assert metrics[0]["method"] == "capon"
    assert metrics[0]["n_frames"] == 8
    assert 0.0 <= metrics[0]["frame_positive_rate"] <= 1.0
    rows = list(csv.DictReader((out / "table.csv").open()))
    assert rows[0]["view"] == "tv" and rows[0]["subject"] == "S1"


def test_evaluate_replays_detections(workspace):
    tmp, cfg, scene, _, manifest = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    det = tmp / "det.csv"
    main(["process", "--recording", str(rec), "--manifest", manifest, "--out", str(det)])
    out1, out2 = tmp / "eval1", tmp / "eval2"
    main(["evaluate", "--recording", str(rec), "--manifest", manifest, "--out", str(out1)])
    main(["evaluate", "--recording", str(rec), "--detections", str(det),
          "--manifest", manifest, "--out", str(out2)])
    m1 = json.loads((out1 / "metrics.json").read_text())
    m2 = json.loads((out2 / "metrics.json").read_text())
    assert m1[0]["frame_positive_rate"] == m2[0]["frame_positive_rate"]


def test_evaluate_trials_listing_with_empty_room(workspace):
    tmp, cfg, scene, empty, manifest = workspace
    occ, emp = tmp / "occ.rec", tmp / "emp.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(occ)])
    main(["simulate", "--scene", empty, "--config", cfg, "--out", str(emp)])
    trials = write_json(tmp / "trials.json",
                        [{"recording": str(occ)}, {"recording": str(emp)}])
    out = tmp / "eval"
    assert main(["evaluate", "--trials", trials, "--manifest", manifest,
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    labels = {m["label"] for m in metrics}
    assert labels == {"occupied", "empty"}


def test_replayed_detections_of_an_empty_recording_score_as_the_stream_does(workspace):
    # an empty recording is scored against the truth boxes of its view's occupied
    # recordings; replaying its detections was refused before
    tmp, cfg, scene, empty, manifest = workspace
    listing = []
    for name, spec in (("occ", scene), ("emp", empty)):
        rec, det = tmp / f"{name}.rec", tmp / f"{name}.csv"
        main(["simulate", "--scene", spec, "--config", cfg, "--out", str(rec)])
        main(["process", "--recording", str(rec), "--manifest", manifest, "--k", "2.0",
              "--out", str(det)])
        listing.append({"recording": str(rec), "detections": str(det)})
    streamed = write_json(tmp / "stream.json", [{"recording": e["recording"]} for e in listing])
    replayed = write_json(tmp / "replay.json", listing)
    for trials, out in ((streamed, "stream"), (replayed, "replay")):
        assert main(["evaluate", "--trials", trials, "--manifest", manifest, "--k", "2.0",
                     "--out", str(tmp / out)]) == 0
    table = tmp / "stream" / "table.csv"
    assert [r["rate"] for r in csv.DictReader(table.open())] == ["1.0", "0.125"]  # 1 of 8 empty
    assert (tmp / "replay" / "table.csv").read_bytes() == table.read_bytes()


def test_replaying_an_empty_recording_without_its_view_is_a_json_error(workspace, capsys):
    tmp, cfg, _, empty, manifest = workspace
    rec, det = tmp / "emp.rec", tmp / "emp.csv"
    main(["simulate", "--scene", empty, "--config", cfg, "--out", str(rec)])
    main(["process", "--recording", str(rec), "--manifest", manifest, "--out", str(det)])
    capsys.readouterr()
    rc = main(["evaluate", "--recording", str(rec), "--detections", str(det),
               "--manifest", manifest, "--out", str(tmp / "eval")])
    assert rc != 0
    assert json_error(capsys) == {
        "error": "ValueError",
        "message": "empty recording of view 'tv' has no candidate boxes to score against"}


@pytest.mark.parametrize("entry, message", [
    pytest.param("recording.rec", "trials[1]: expected a JSON object, got 'recording.rec'",
                 id="string"),
    pytest.param(5, "trials[1]: expected a JSON object, got 5", id="number"),
    pytest.param({"recording": 0}, "trials[1].recording: expected a string, got 0",
                 id="recording_number"),
    pytest.param({"recording": "s0.rec", "detections": 1},
                 "trials[1].detections: expected a string or null, got 1", id="detections_number"),
    pytest.param({"recording": "s0.rec", "detections": True},
                 "trials[1].detections: expected a string or null, got True",
                 id="detections_true"),
    pytest.param({"recording": "s0.rec", "detection": "d.csv"},
                 "trials[1]: unknown key 'detection'", id="misspelled_key"),
    pytest.param({"detections": "d.csv"}, "trials[1].recording: expected a string, got None",
                 id="no_recording"),
])
def test_evaluate_trials_entry_of_the_wrong_type_is_a_json_error(workspace, capsys, entry,
                                                                  message):
    # at the parent the first three were TypeError tracebacks, a number for
    # "detections" was opened as a file descriptor, and a misspelled key was
    # ignored, so the recording was processed instead of its detections replayed;
    # entries are read by the JSON record schema, whose errors are ValueErrors
    tmp, _, _, _, manifest = workspace
    trials = write_json(tmp / "trials.json", [{"recording": str(tmp / "s0.rec")}, entry])
    rc = main(["evaluate", "--trials", trials, "--manifest", manifest,
               "--out", str(tmp / "eval")])
    assert rc == 1 and json_error(capsys) == {"error": "ValueError", "message": message}
    assert not (tmp / "eval").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["--recording", "a.rec"], id="trials_with_recording"),
    pytest.param(["--detections", "d.csv"], id="trials_with_detections"),
    pytest.param(["--recording", "a.rec", "--detections", "d.csv"], id="trials_with_both"),
])
def test_evaluate_trials_takes_no_recording_or_detections(tmp_path, capsys, argv):
    # at the parent --recording or --detections was dropped without a word; none of
    # the files named here exist, so the error comes before any file is read
    argv = [a if a.startswith("--") else str(tmp_path / a) for a in argv]
    rc = main(["evaluate", "--trials", str(tmp_path / "t.json"), *argv,
               "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / "eval")])
    assert rc == 1 and json_error(capsys) == {
        "error": "CliError",
        "message": "--trials lists every trial; it takes no --recording or --detections"}
    assert not (tmp_path / "eval").exists()


def test_evaluate_detections_need_a_recording(tmp_path, capsys):
    # at the parent --detections without --recording was dropped without a word
    rc = main(["evaluate", "--detections", str(tmp_path / "d.csv"),
               "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / "eval")])
    assert rc == 1 and json_error(capsys) == {
        "error": "CliError", "message": "--detections needs the --recording it was made from"}
    assert not (tmp_path / "eval").exists()


def test_simulate_refuses_a_tag_that_is_not_a_string(workspace, capsys):
    # at the parent this scene simulated, as view "None" and subject "7"
    tmp, cfg, _, _, _ = workspace
    scene = write_json(tmp / "scene.json", dict(SCENE, view_tag=None, subject_tag=7))
    rc = main(["simulate", "--scene", scene, "--config", cfg, "--out", str(tmp / "a.rec")])
    assert rc == 1 and json_error(capsys) == {
        "error": "ValueError", "message": "view_tag: expected a string, got None"}
    assert not (tmp / "a.rec").exists()


def test_simulate_refuses_samples_beyond_the_float32_range(workspace, capsys):
    # at the parent this wrote inf samples after a numpy overflow warning, and every
    # command then refused the file
    tmp, cfg, _, _, _ = workspace
    loud = dict(SCENE, targets=[dict(SCENE["targets"][0], amplitude=1e39)])
    scene = write_json(tmp / "loud.json", loud)
    rc = main(["simulate", "--scene", scene, "--config", cfg, "--out", str(tmp / "a.rec")])
    assert rc == 1 and json_error(capsys) == {
        "error": "ValueError",
        "message": "frame 0: a sample component exceeds the float32 range of the recording format"}
    assert not (tmp / "a.rec").exists()


def test_evaluate_empty_alone_fails(workspace, capsys):
    tmp, cfg, _, empty, manifest = workspace
    emp = tmp / "emp.rec"
    main(["simulate", "--scene", empty, "--config", cfg, "--out", str(emp)])
    rc = main(["evaluate", "--recording", str(emp), "--manifest", manifest,
               "--out", str(tmp / "eval")])
    assert rc != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert "candidate" in err["message"]


def test_tune_outputs_operating_point(workspace):
    tmp, cfg, scene, empty, manifest = workspace
    occ, emp = tmp / "occ.rec", tmp / "emp.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(occ)])
    main(["simulate", "--scene", empty, "--config", cfg, "--out", str(emp)])
    out = tmp / "tune"
    assert main(["tune", "--recordings", str(occ), str(emp), "--manifest", manifest,
                 "--k-grid", "1.0:8.0:0.5", "--fpr-cap", "0.1", "--out", str(out)]) == 0
    op = json.loads((out / "operating_point.json").read_text())
    sweep_rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert len(sweep_rows) == 15
    if op["feasible"]:
        assert op["fpr"] <= 0.1
        ks = [float(r["k"]) for r in sweep_rows]
        assert op["k"] in ks


def test_report_outputs(workspace):
    tmp, _, _, _, _ = workspace
    table = tmp / "table.csv"
    rows = []
    for view in ("tv", "window"):
        for loc in ("P1", "P2"):
            for subj in ("S1", "S2"):
                base = 0.5 if view == "tv" else 0.7
                delta = -0.1 if (view, loc, subj) == ("window", "P1", "S2") else 0.2
                rows.append([view, loc, subj, "dbf", base])
                rows.append([view, loc, subj, "capon", base + delta])
    rows.reverse()  # so that no output order is the input order by chance
    with table.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["view", "location", "subject", "method", "rate"])
        w.writerows(rows)
    out = tmp / "report"
    assert main(["report", "--table", str(table), "--out", str(out)]) == 0
    cov = list(csv.DictReader((out / "coverage.csv").open()))
    both = {r["method"] for r in cov}
    assert both == {"dbf", "capon"}
    at_zero = [r for r in cov if float(r["tau"]) == 0.0]
    assert all(float(r["coverage"]) == 1.0 for r in at_zero)
    deltas = list(csv.DictReader((out / "paired_deltas.csv").open()))
    assert len(deltas) == 8
    assert [float(r["delta"]) for r in deltas] == pytest.approx([-0.1] + [0.2] * 7)
    quarts = list(csv.DictReader((out / "view_quartiles.csv").open()))
    assert len(quarts) == 4

    # paired deltas by delta; equal deltas in (view, location, subject) order
    order = [(float(r["delta"]), r["view"], r["location"], r["subject"]) for r in deltas]
    assert order == sorted(order) and order[0][1:] == ("window", "P1", "S2")
    # coverage: each method, sorted, over the 21 tau values
    taus = [_fmt(round(0.05 * i, 2)) for i in range(21)]
    assert [(r["method"], r["tau"]) for r in cov] == [(m, t) for m in ("capon", "dbf")
                                                       for t in taus]
    # quartiles: by (view, method), the numbers of scoring.viewpoint_stats
    stats = scoring.viewpoint_stats([(v, m, float(rate)) for v, _, _, m, rate in rows])
    assert [list(r.values()) for r in quarts] == [
        [view, method, *(_fmt(x) for x in (s.minimum, s.q1, s.median, s.q3, s.maximum))]
        for (view, method), s in sorted(stats.items())]
    assert [(r["view"], r["method"]) for r in quarts] == [
        ("tv", "capon"), ("tv", "dbf"), ("window", "capon"), ("window", "dbf")]


def test_report_empty_table_fails(workspace, capsys):
    tmp, _, _, _, _ = workspace
    table = tmp / "table.csv"
    table.write_text("view,location,subject,method,rate\n")
    out = tmp / "report"
    assert main(["report", "--table", str(table), "--out", str(out)]) != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert "message" in err and "error" in err


def test_error_json_on_stderr(workspace, capsys):
    tmp, cfg, _, _, _ = workspace
    bad_scene = tmp / "bad.json"
    bad_scene.write_text(json.dumps({"targets": [{"azimuth_deg": 3}]}))
    rc = main(["simulate", "--scene", str(bad_scene), "--config", cfg,
               "--out", str(tmp / "x.rec")])
    assert rc != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert "targets[0].range_m" in err["message"]


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("role", ["manifest", "scene", "config", "trials", "recording"])
def test_json_nested_too_deeply_is_a_json_error_naming_the_file(workspace, capsys, role):
    # at the parent json raised RecursionError, a traceback out of main
    tmp, cfg, scene, _, manifest = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    deep = tmp / "deep.json"
    deep.write_text(DEEP)
    message = f"{deep}: JSON nested too deeply to read"
    if role == "recording":  # the header of a recording file
        raw = rec.read_bytes()
        body = DEEP.encode()
        rec.write_bytes(raw[:4] + len(body).to_bytes(4, "little") + body
                        + raw[8 + int.from_bytes(raw[4:8], "little"):])
        message = f"recording {rec}: JSON nested too deeply to read"
    files = {"manifest": manifest, "scene": scene, "config": cfg,
             "trials": write_json(tmp / "trials.json", [{"recording": str(rec)}]),
             role: str(deep)}
    if role in ("scene", "config"):
        argv = ["simulate", "--scene", files["scene"], "--config", files["config"],
                "--out", str(tmp / "x.rec")]
    else:
        argv = ["evaluate", "--trials", files["trials"], "--manifest", files["manifest"],
                "--out", str(tmp / "eval")]
    capsys.readouterr()
    assert main(argv) == 1
    assert json_error(capsys) == {"error": "ValueError", "message": message}


def test_corrupt_recording_error(workspace, capsys):
    tmp, cfg, scene, _, manifest = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    data = rec.read_bytes()
    rec.write_bytes(data[:-64])
    rc = main(["process", "--recording", str(rec), "--manifest", manifest,
               "--out", str(tmp / "d.csv")])
    assert rc != 0
    err = json.loads(capsys.readouterr().err.strip())
    assert "expected" in err["message"] and "got" in err["message"]


def test_full_chain_reproducible(workspace):
    tmp, cfg, scene, _, manifest = workspace

    def run(tag):
        base = tmp / tag
        base.mkdir()
        rec = base / "run.rec"
        det = base / "detections.csv"
        out = base / "eval"
        main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
        main(["process", "--recording", str(rec), "--manifest", manifest, "--out", str(det)])
        main(["evaluate", "--recording", str(rec), "--manifest", manifest, "--out", str(out)])
        return sha256(rec), sha256(det), sha256(out / "metrics.json"), sha256(out / "table.csv")

    assert run("r1") == run("r2")


def json_error(capsys):
    return json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize("command", ["process", "evaluate"])
@pytest.mark.parametrize("k", ["nan", "inf"])
def test_non_finite_k_is_a_json_error(workspace, capsys, command, k):
    tmp, cfg, scene, _, manifest = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    capsys.readouterr()
    rc = main([command, "--recording", str(rec), "--manifest", manifest, "--k", k,
               "--out", str(tmp / "out")])
    assert rc != 0
    assert "k must be finite" in json_error(capsys)["message"]


@pytest.fixture()
def tune_inputs(workspace):
    tmp, cfg, scene, empty, manifest = workspace
    occ, emp = tmp / "occ.rec", tmp / "emp.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(occ)])
    main(["simulate", "--scene", empty, "--config", cfg, "--out", str(emp)])
    return ["tune", "--recordings", str(occ), str(emp), "--manifest", manifest,
            "--out", str(tmp / "tune")]


@pytest.mark.parametrize("grid", ["-1,0,nan,inf", "0,2.0", "nan", "2.0,inf",
                                  "0:4:1", "1:nan:0.5", "1:inf:0.5", "nan:4:1", "1:4:inf",
                                  "1e-12:1e-11:1e-12"])  # a range that rounds to k = 0
def test_tune_rejects_non_positive_or_non_finite_k_grid(tune_inputs, capsys, grid):
    capsys.readouterr()
    assert main(tune_inputs + [f"--k-grid={grid}"]) != 0
    assert json_error(capsys)["error"] == "CliError"


def test_k_grid_point_count_is_capped_before_the_grid_is_built():
    # at the parent the first grid ended in an OverflowError traceback
    for grid in ("1:1e308:1e-300", "1:10001:1"):
        with pytest.raises(CliError, match="more than 10000 points"):
            _parse_k_grid(grid)
    assert len(_parse_k_grid("1:10000:1")) == 10_000


@pytest.mark.parametrize("grid, k", [("1:1.00000000009:1e-11", "1.0"),  # range rounded to 1e-10
                                     ("2,3,2", "2.0"), ("2.0,2", "2.0")])
def test_tune_refuses_a_k_grid_with_a_repeated_point(tune_inputs, capsys, grid, k):
    # the range gave five 1.0 and five 1.0000000001, and tune swept and wrote each again
    capsys.readouterr()
    assert main(tune_inputs + [f"--k-grid={grid}"]) == 1
    assert json_error(capsys) == {
        "error": "CliError",
        "message": f"k grid {grid!r} repeats k={k}; its values must be distinct"}


def test_bundled_k_grids_have_distinct_points():
    spec = importlib.util.spec_from_file_location(
        "digests", Path(__file__).resolve().parents[1] / "tools" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    for grid in (DBF_K_GRID, CAPON_K_GRID, digests.DENSE_K_GRID):
        assert _parse_k_grid(",".join(repr(k) for k in grid)) == list(grid)


@pytest.mark.parametrize("grid", ["1:1e308:1e-300", "1:2:1e-9", "1:10001:1"])
def test_tune_refuses_a_huge_k_grid_before_reading_recordings(tmp_path, capsys, grid):
    # the recordings named here do not exist, so the grid error must come first; at the
    # parent the grid was parsed after every recording was read and processed
    rc = main(["tune", "--recordings", str(tmp_path / "occ.rec"), str(tmp_path / "emp.rec"),
               f"--k-grid={grid}", "--out", str(tmp_path / "tune")])
    assert rc == 1 and json_error(capsys) == {
        "error": "CliError", "message": f"k grid {grid!r} has more than 10000 points"}
    assert not (tmp_path / "tune").exists()


@pytest.mark.parametrize("cap", ["nan", "-0.1", "1.5"])
def test_tune_rejects_fpr_cap_outside_unit_interval(tune_inputs, capsys, cap):
    capsys.readouterr()
    assert main(tune_inputs + [f"--fpr-cap={cap}", "--k-grid", "2.0,4.0"]) != 0
    assert "--fpr-cap" in json_error(capsys)["message"]


@pytest.mark.parametrize("manifest, message", [
    ({"grid": {"theta_step_deg": 0.0}}, "theta_step_deg"),
    ({"grid": {"theta_max_deg": 0.0}}, "theta_max_deg"),
    ({"doppler_half_width": 1.5}, "doppler_half_width must be an integer"),
    ({"cfar": {"guard_cells": [1.5, 2]}}, "guard_cells must be an integer"),
    # a folded sin(theta) grid: DBF exited 0 and Capon failed after --out was opened
    ({"method": "dbf", "grid": {"theta_max_deg": 120.0}}, "theta_max_deg"),
    ({"method": "capon", "grid": {"theta_max_deg": 120.0}}, "theta_max_deg"),
    ({"method": "dbf", "grid": {"elevations_deg": [float("nan")]}}, "elevations_deg"),
    ({"method": "dbf", "grid": {"elevations_deg": []}}, "elevations_deg"),
    # 90 / 0.7 rounds to 129 steps, so the grid ends at 90.3 degrees
    ({"method": "capon", "grid": {"theta_max_deg": 90.0, "theta_step_deg": 0.7}}, "90 degrees"),
])
def test_bad_manifest_grid_or_integer_is_a_json_error(workspace, capsys, manifest, message):
    tmp, cfg, scene, _, _ = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    capsys.readouterr()
    rc = main(["process", "--recording", str(rec), "--manifest",
               write_json(tmp / "bad.json", manifest), "--out", str(tmp / "d.csv")])
    assert rc != 0
    assert message in json_error(capsys)["message"]
    assert not (tmp / "d.csv").exists()  # nothing for evaluate --detections to replay


# name: (cfar object, a part of the error message)
BAD_CFAR = {
    "edge_policy": ({"edge_policy": "bogus"}, "manifest: edge_policy must be one of"),
    "one_guard_count": ({"guard_cells": [1]}, "manifest: guard_cells must be two"),
    "negative_guard": ({"guard_cells": [-1, 2]}, "manifest: guard_cells must be two"),
    "guard_string": ({"guard_cells": [1, "2"]}, "manifest: guard_cells: expected a number, got '2'"),
    "no_training": ({"training_cells": [0, 4]}, "manifest: training_cells must be >= 1"),
}
BAD_RUN = {
    **{name: ({"cfar": cfar}, message) for name, (cfar, message) in BAD_CFAR.items()},
    "k_true": ({"k": True}, "manifest: k: expected a number, got True"),
    "k_string": ({"k": "3"}, "manifest: k: expected a number, got '3'"),
    "mti_alpha_false": ({"mti_alpha": False}, "manifest: mti_alpha: expected a number, got False"),
    # SMALL_CONFIG has 32 Doppler bins
    "doppler_too_wide": ({"doppler_half_width": 16}, "Doppler window exceeds the recording's "
                         "32 Doppler bins: doppler_half_width 16"),
}


@pytest.mark.parametrize("method", ["dbf", "capon"])
@pytest.mark.parametrize("name", list(BAD_RUN))
def test_bad_run_manifest_fails_before_process_opens_out(workspace, capsys, method, name):
    # at the parent each exited 0, or exited 1 after writing a header-only CSV
    # that evaluate --detections replayed as a trial with no hits
    tmp, cfg, scene, _, _ = workspace
    rec = tmp / "a.rec"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    capsys.readouterr()
    manifest, message = BAD_RUN[name]
    bad = write_json(tmp / "bad.json", dict(manifest, method=method))
    rc = main(["process", "--recording", str(rec), "--manifest", bad, "--out", str(tmp / "d.csv")])
    error = json_error(capsys)
    assert rc == 1 and error["error"] == "ValueError" and message in error["message"]
    assert not (tmp / "d.csv").exists()


@pytest.mark.parametrize("method", ["dbf", "capon"])
@pytest.mark.parametrize("name", list(BAD_CFAR))
def test_replay_refuses_a_bad_cfar_manifest(workspace, capsys, method, name):
    tmp, cfg, scene, _, _ = workspace
    rec, det = tmp / "a.rec", tmp / "det.csv"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])
    good = write_json(tmp / "good.json", {"method": method, "k": 4.0, "mti_alpha": 0.99})
    assert main(["process", "--recording", str(rec), "--manifest", good, "--out", str(det)]) == 0
    capsys.readouterr()
    bad = write_json(tmp / "bad.json", {"method": method, "k": 4.0, "cfar": BAD_CFAR[name][0]})
    rc = main(["evaluate", "--recording", str(rec), "--detections", str(det),
               "--manifest", bad, "--out", str(tmp / "eval")])
    assert rc == 1 and json_error(capsys)["error"] == "ValueError"
    assert not (tmp / "eval").exists()


@pytest.mark.parametrize("config", [
    {"num_rx": "3"},                            # TypeError at the parent
    {"samples_per_chirp": 64.0},                # TypeError at the parent
    {"center_frequency": "60e9"},               # TypeError at the parent
    {"bandwidth": float("nan")},
    {"frame_rate": 10**400},
])
def test_simulate_config_of_the_wrong_type_is_a_json_error(workspace, capsys, config):
    tmp, _, scene, _, _ = workspace
    path = write_json(tmp / "bad_config.json", dict(SMALL_CONFIG, **config))
    rc = main(["simulate", "--scene", scene, "--config", path, "--out", str(tmp / "x.rec")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and next(iter(config)) in err["message"]


@pytest.mark.parametrize("first_index", ["+50 on every row", 8, -1])
def test_evaluate_rejects_replayed_rows_outside_the_recording(workspace, capsys, first_index):
    tmp, cfg, scene, _, manifest = workspace
    rec, det = tmp / "a.rec", tmp / "det.csv"
    main(["simulate", "--scene", scene, "--config", cfg, "--out", str(rec)])  # 8 frames
    main(["process", "--recording", str(rec), "--manifest", manifest, "--out", str(det)])
    with open(det, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    if first_index == "+50 on every row":  # exited 0 with rate 0.0 at the parent
        rows = [dict(row, frame_index=int(row["frame_index"]) + 50) for row in rows]
    else:
        rows[0]["frame_index"] = first_index
    shifted = tmp / "shifted.csv"
    with open(shifted, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    rc = main(["evaluate", "--recording", str(rec), "--detections", str(shifted),
               "--manifest", manifest, "--out", str(tmp / "eval")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError"
    assert f"line 2: frame_index {rows[0]['frame_index']} is outside" in err["message"]
    assert not (tmp / "eval" / "metrics.json").exists()


def replay_case(tmp):
    """A 2-frame recording whose truth box has its azimuth edge on the -12 deg grid bin."""
    scene = SceneSpec(targets=(TargetSpec(range_m=3.0, azimuth_rad=math.radians(-14.5),
                                          amplitude=1.0),),
                      n_frames=2, box_half_extents=(0.45, math.radians(2.5)), view_tag="tv")
    cfg = RadarConfig()
    rec = synthesize_recording(scene, cfg, default_geometry(cfg))
    write_recording(tmp / "a.rec", rec)
    return rec, build_axes(cfg, build_grid(RunManifest()))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTION_COLUMNS)
        writer.writerows(rows)
    return str(path)


def test_replay_scores_the_grid_angle_hit_test_uses(tmp_path):
    # radians(float(repr(degrees(a)))) differs from a in the last bit at -12 deg, so
    # scoring the re-parsed degrees put this cell inside the box: rate 0.5 at the parent
    rec, axes = replay_case(tmp_path)
    assert math.radians(float(_fmt(math.degrees(axes.azimuth_rad[48])))) != axes.azimuth_rad[48]
    det = write_rows(tmp_path / "d.csv", [[0, 10, 48, _fmt(axes.range_m[10]),
                                           _fmt(math.degrees(axes.azimuth_rad[48])), 1.0, 0.5]])
    assert main(["evaluate", "--recording", str(tmp_path / "a.rec"), "--detections", det,
                 "--out", str(tmp_path / "eval")]) == 0
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert metrics[0]["frame_positive_rate"] == 0.0
    cell = DetectionSet(np.array([10]), np.array([48]), np.array([1.0]), np.array([0.5]),
                        map_shape=(32, 121))
    assert not hit_test(cell, rec.truth, axes)  # the stream's verdict on the same cell


@pytest.mark.parametrize("bins, step_deg, message", [
    ((10, 48), 2.0, "range_m/azimuth_deg are not bin (10, 48)"),  # +36 deg, not -12 deg
    ((10, 130), 0.5, "bin (10, 130) is outside"),  # the 0.5-degree grid has 241 azimuths
    ((-1, 48), 1.0, "bin (-1, 48) is outside"),
], ids=["other-grid", "azimuth-bin-outside", "negative-range-bin"])
def test_replay_refuses_rows_from_another_grid(tmp_path, capsys, bins, step_deg, message):
    # each row is what ``process`` writes for that cell on a grid of step_deg degrees
    other = build_axes(RadarConfig(), build_grid(RunManifest(theta_step_deg=step_deg)))
    rb, ab = bins
    row = [0, rb, ab, _fmt(other.range_m[rb]), _fmt(math.degrees(other.azimuth_rad[ab])), 1.0, 0.5]
    replay_case(tmp_path)
    det = write_rows(tmp_path / "d.csv", [row])
    capsys.readouterr()
    assert main(["evaluate", "--recording", str(tmp_path / "a.rec"), "--detections", det,
                 "--out", str(tmp_path / "eval")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "CliError" and f"line 2: {message}" in err["message"]
    assert not (tmp_path / "eval" / "metrics.json").exists()


@pytest.mark.parametrize("content", ["", "x,y\n1,2\n", "frame_index,range_bin\n0,10\n",
                                     ",".join(DETECTION_COLUMNS[::-1]) + "\n"],
                         ids=["zero-bytes", "x-y", "two-columns", "reordered"])
def test_replay_refuses_a_file_not_headed_as_process_writes(tmp_path, capsys, content):
    # at the parent each scored as rate 0.0 with exit 0
    replay_case(tmp_path)
    det = tmp_path / "d.csv"
    det.write_text(content)
    capsys.readouterr()
    assert main(["evaluate", "--recording", str(tmp_path / "a.rec"), "--detections", str(det),
                 "--out", str(tmp_path / "eval")]) == 1
    err = json_error(capsys)
    assert err["error"] == "CliError"
    header = ",".join(DETECTION_COLUMNS)
    assert err["message"] == f"{det}: not a process CSV: its header is not {header}"
    assert not (tmp_path / "eval" / "metrics.json").exists()


@pytest.mark.parametrize("rate, line", [("nan", 3), ("2.5", 3), ("-1", 3), ("inf", 3),
                                        ("-0.0001", 2)])
def test_report_refuses_a_rate_outside_the_unit_interval(tmp_path, capsys, rate, line):
    # at the parent nan, 2.5 and -1 exited 0 with nan quartiles and a nan delta
    rows = [["tv", "P1", "S1", "dbf", "0.5"], ["tv", "P1", "S1", "capon", "0.75"]]
    rows[line - 2][4] = rate
    table = tmp_path / "table.csv"
    with table.open("w", newline="") as fh:
        csv.writer(fh).writerows([["view", "location", "subject", "method", "rate"], *rows])
    capsys.readouterr()
    assert main(["report", "--table", str(table), "--out", str(tmp_path / "report")]) == 1
    err = json_error(capsys)
    assert err == {"error": "CliError", "message": f"{table} line {line}: rate {rate!r} "
                                                   "is not a number in [0, 1]"}
    assert not (tmp_path / "report").exists()


def test_report_takes_rates_at_the_unit_interval_bounds_and_repeated_keys(tmp_path):
    # several empty recordings of one view share (view, "", "", method)
    table = tmp_path / "table.csv"
    table.write_text("view,location,subject,method,rate\ntv,,,dbf,0.0\ntv,,,dbf,1.0\n"
                     "tv,,,capon,0\ntv,,,capon,1\n")
    assert main(["report", "--table", str(table), "--out", str(tmp_path / "report")]) == 0


def test_report_pairs_repeated_keys_row_by_row_in_table_order(tmp_path):
    # at the parent the last dbf and the last capon rate of a key made its only
    # pair, so this table gave the one delta 0.2 - 0.3
    rows = "view,location,subject,method,rate\ntv,,,dbf,0.1\ntv,,,dbf,0.3\ntv,,,capon,0.4\n" \
           "tv,,,capon,0.2\n"
    for extra in ("", "tv,,,dbf,0.9\n"):  # a third dbf row has no capon row to pair with
        table = tmp_path / "table.csv"
        table.write_text(rows + extra)
        out = tmp_path / f"report{len(extra)}"
        assert main(["report", "--table", str(table), "--out", str(out)]) == 0
        deltas = list(csv.DictReader((out / "paired_deltas.csv").open()))
        assert [(r["dbf"], r["capon"]) for r in deltas] == [("0.3", "0.2"), ("0.1", "0.4")]
        assert [float(r["delta"]) for r in deltas] == pytest.approx([-0.1, 0.3])


def test_rows_cut_short_are_json_errors(tmp_path, capsys):
    # at the parent a row cut short raised a TypeError traceback in both commands
    replay_case(tmp_path)
    det = write_rows(tmp_path / "d.csv", [[0, 10]])
    assert main(["evaluate", "--recording", str(tmp_path / "a.rec"), "--detections", det,
                 "--out", str(tmp_path / "eval")]) == 1
    assert json_error(capsys)["error"] == "ValueError"
    table = tmp_path / "table.csv"
    table.write_text("view,location,subject,method,rate\ntv,P1,S1,dbf\n")
    assert main(["report", "--table", str(table), "--out", str(tmp_path / "report")]) == 1
    assert json_error(capsys)["error"] == "ValueError"
