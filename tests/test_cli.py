import csv
import hashlib
import json
import math

import numpy as np
import pytest

from floorwatch.cfar import DetectionSet, hit_test
from floorwatch.cli import DETECTION_COLUMNS, _fmt, main
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
    with table.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["view", "location", "subject", "method", "rate"])
        for view in ("tv", "window"):
            for loc in ("P1", "P2"):
                for subj in ("S1", "S2"):
                    base = 0.5 if view == "tv" else 0.7
                    w.writerow([view, loc, subj, "dbf", base])
                    w.writerow([view, loc, subj, "capon", base + 0.2])
    out = tmp / "report"
    assert main(["report", "--table", str(table), "--out", str(out)]) == 0
    cov = list(csv.DictReader((out / "coverage.csv").open()))
    both = {r["method"] for r in cov}
    assert both == {"dbf", "capon"}
    at_zero = [r for r in cov if float(r["tau"]) == 0.0]
    assert all(float(r["coverage"]) == 1.0 for r in at_zero)
    deltas = list(csv.DictReader((out / "paired_deltas.csv").open()))
    assert len(deltas) == 8
    assert all(float(r["delta"]) == pytest.approx(0.2) for r in deltas)
    quarts = list(csv.DictReader((out / "view_quartiles.csv").open()))
    assert len(quarts) == 4


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
                                  "0:4:1", "1:nan:0.5", "1:inf:0.5", "nan:4:1", "1:4:inf"])
def test_tune_rejects_non_positive_or_non_finite_k_grid(tune_inputs, capsys, grid):
    capsys.readouterr()
    assert main(tune_inputs + [f"--k-grid={grid}"]) != 0
    assert json_error(capsys)["error"] == "CliError"


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
    "doppler_too_wide": ({"doppler_half_width": 16}, "Doppler window exceeds"),
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
