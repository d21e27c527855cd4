import csv
import hashlib
import json

import numpy as np
import pytest

from floorwatch.cli import main
from floorwatch.recordings import manifest_to_dict, RunManifest

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
