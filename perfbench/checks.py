"""Output checks, run after the timed phase. Each returns a list of failures.

The stream checks compare the program's maps, training means, detections
and hit flags on the checked frames with ``reference``. The study checks
recompute the scores in the CLI's outputs from the counts they imply.
Neither compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import ndimage

import reference

# Largest relative difference allowed between a program map (or training
# mean) cell and the reference. Both chains run in float64 from the same
# float32 samples; they differ in summation order and in the 2x2 inverse
# (pinv through an eigendecomposition against the closed form), which on
# the clutter-dominated bins is conditioned up to about 1e9.
MAP_RTOL = 1e-6
# A cell within this share of its threshold may fall either side of it.
THRESHOLD_RTOL = 4 * MAP_RTOL
FRAME_PERIOD_MS = 100.0
EXACT = 1e-12


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want) / scale))


def load_stream_outputs(path, frames) -> dict:
    """Read the checked frames' outputs that the worker saved with ``np.savez``."""
    with np.load(path) as saved:
        return {f: {"power": saved[f"power_{f}"], "base": saved[f"base_{f}"],
                    "evaluable": saved[f"evaluable_{f}"],
                    "detections": saved[f"detections_{f}"], "flag": saved[f"flag_{f}"]}
                for f in frames}


def check_stream_frames(recording, manifest: dict, outputs: dict) -> list:
    """Compare the program's outputs on the checked frames with the reference chain.

    ``outputs`` maps frame index to a dict with ``power``, ``base``,
    ``evaluable``, ``detections`` (rows of range bin, azimuth bin, power,
    threshold) and ``flag``.
    """
    if manifest["cfar"]["edge_policy"] != "shrink_window" or manifest["capon_channels"] != "pair":
        raise ValueError("the reference chain covers shrink_window CFAR and pair-mode Capon only")
    header, samples = reference.read_fwr1(recording)
    cfg, geom = header["config"], header["geometry"]
    grid = manifest["grid"]
    n = int(round(grid["theta_max_deg"] / grid["theta_step_deg"]))
    azimuth = np.deg2rad(np.arange(-n, n + 1) * grid["theta_step_deg"])
    elevation = np.deg2rad(np.asarray(grid["elevations_deg"], dtype=float))
    range_step = reference.SPEED_OF_LIGHT / (2.0 * cfg["bandwidth"])
    hw, k = manifest["doppler_half_width"], manifest["k"]
    guard, training = manifest["cfar"]["guard_cells"], manifest["cfar"]["training_cells"]

    failures = []
    filtered = reference.clutter_filtered(samples, manifest["mti_alpha"], outputs)
    for f in sorted(outputs):
        got = outputs[f]
        y = filtered[f]
        if manifest["method"] == "capon":
            power, singular = reference.capon_map(y, geom["azimuth_pair"], azimuth, hw)
            if singular:
                failures.append(f"frame {f}: {singular} Capon cells singular on noisy input")
        else:
            power = reference.dbf_map(y, geom["element_offsets"], geom["wavelength"],
                                      azimuth, elevation, hw)
        base = reference.ring_mean(power, guard, training)
        if got["power"].shape != power.shape:
            failures.append(f"frame {f}: map shape {got['power'].shape} != {power.shape}")
            continue
        err = _relative_error(got["power"], power)
        if err > MAP_RTOL:
            failures.append(f"frame {f}: map differs from reference by {err:.3g} (relative)")
        err = _relative_error(got["base"], base)
        if err > MAP_RTOL:
            failures.append(f"frame {f}: training mean differs by {err:.3g} (relative)")
        if not np.all(got["evaluable"]):
            failures.append(f"frame {f}: shrink_window left cells unevaluable")

        threshold = k * base
        mask = power > threshold
        unsure = np.abs(power - threshold) <= THRESHOLD_RTOL * threshold
        want = set(reference.suppress_max(mask, power))
        have = {(int(r), int(c)) for r, c in got["detections"][:, :2]}
        if unsure.any():
            # leave out the groups an unsure cell could join, split or lead
            labels, _ = ndimage.label(mask | unsure, structure=np.ones((3, 3), dtype=int))
            doubtful = set(np.unique(labels[unsure]))
            want = {cell for cell in want if labels[cell] not in doubtful}
            have = {cell for cell in have if labels[cell] not in doubtful}
        if want != have:
            failures.append(f"frame {f}: detections {sorted(have)} != reference {sorted(want)}")
        for r, c, p, t in got["detections"]:
            r, c = int(r), int(c)
            if (abs(p - power[r, c]) > MAP_RTOL * power[r, c]
                    or abs(t - threshold[r, c]) > MAP_RTOL * threshold[r, c]):
                failures.append(f"frame {f}: detection ({r}, {c}) power/threshold "
                                f"{p:.6g}/{t:.6g} != {power[r, c]:.6g}/{threshold[r, c]:.6g}")
        if not unsure.any():
            flag = reference.hit(want, header["truth"], range_step, azimuth)
            if bool(got["flag"]) != flag:
                failures.append(f"frame {f}: hit flag {bool(got['flag'])} != reference {flag}")
    return failures


def check_stream_properties(flags_by_pass: list, n_frames: int, p90_ms: float) -> list:
    failures = []
    if any(len(f) != n_frames for f in flags_by_pass):
        failures.append(f"a replay pass did not yield {n_frames} hit flags")
    if len(set(flags_by_pass)) > 1:
        failures.append("hit flags differ between replays of one recording")
    if not p90_ms < FRAME_PERIOD_MS:
        failures.append(f"frame_ms_p90 {p90_ms:.2f} ms is not below the "
                        f"{FRAME_PERIOD_MS:.0f} ms frame period")
    return failures


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _count(rate: float, total: int, what: str, failures: list) -> int:
    count = round(rate * total)
    if abs(count / total - rate) > EXACT:
        failures.append(f"{what} {rate!r} is not a whole number of {total} frames")
    return count


def macro_f1(tp: int, fp: int, tn: int, fn: int) -> Fraction:
    def f1(hit, false_alarm, miss):
        denom = 2 * hit + false_alarm + miss
        return Fraction(2 * hit, denom) if denom else Fraction(0)
    return (f1(tp, fp, fn) + f1(tn, fn, fp)) / 2


def check_tune(tune_dir: Path, k_grid, fpr_cap: float, positives: int, negatives: int,
               failures: list):
    """Recompute one method's sweep and selection. Returns the selected (k, tp, fp)."""
    rows = _read_csv(tune_dir / "sweep.csv")
    if [float(r["k"]) for r in rows] != sorted(k_grid):
        failures.append(f"{tune_dir.name}: sweep k column is not the full k grid")
    best = None
    for r in rows:
        k, fpr, tpr = float(r["k"]), float(r["fpr"]), float(r["tpr"])
        tp = _count(tpr, positives, f"{tune_dir.name} k={k} tpr", failures)
        fp = _count(fpr, negatives, f"{tune_dir.name} k={k} fpr", failures)
        f1 = macro_f1(tp, fp, negatives - fp, positives - tp)
        if abs(float(r["macro_f1"]) - float(f1)) > EXACT:
            failures.append(f"{tune_dir.name} k={k}: macro_f1 {r['macro_f1']} != {float(f1)!r}")
        feasible = fpr <= fpr_cap
        if int(r["feasible"]) != int(feasible):
            failures.append(f"{tune_dir.name} k={k}: feasible flag {r['feasible']} is wrong")
        if feasible and (best is None or (f1, k) >= (best[3], best[0])):
            best = (k, tp, fp, f1)
    point = json.loads((tune_dir / "operating_point.json").read_text())
    if best is None:
        if point.get("feasible"):
            failures.append(f"{tune_dir.name}: reports a feasible point where none exists")
        return None
    if not point.get("feasible") or point["k"] != best[0]:
        failures.append(f"{tune_dir.name}: selected k {point.get('k')} != re-selected {best[0]}")
    elif (abs(point["macro_f1"] - float(best[3])) > EXACT
          or abs(point["tpr"] - best[1] / positives) > EXACT
          or abs(point["fpr"] - best[2] / negatives) > EXACT):
        failures.append(f"{tune_dir.name}: operating point scores disagree with its sweep row")
    return best[:3]


def check_study(round_dir, inputs: dict) -> list:
    """Check one study round's tune, evaluate and report outputs."""
    round_dir = Path(round_dir)
    frames = inputs["frames_per_recording"]
    positives = frames * inputs["labels"].count("occupied")
    negatives = frames * inputs["labels"].count("empty")
    cap = inputs["fpr_cap"]
    failures = []
    occupied_mean = {}
    tables = {}
    for method in ("dbf", "capon"):
        selected = check_tune(round_dir / f"tune_{method}", inputs["k_grids"][method], cap,
                              positives, negatives, failures)
        trials = json.loads((round_dir / f"eval_{method}" / "metrics.json").read_text())
        hits = {"occupied": 0, "empty": 0}
        rates = []
        for t in trials:
            hits[t["label"]] += _count(t["frame_positive_rate"], t["n_frames"],
                                       f"eval_{method} {t['recording']} rate", failures)
            if t["label"] == "occupied":
                rates.append(t["frame_positive_rate"])
        if selected is not None and (hits["occupied"], hits["empty"]) != selected[1:]:
            failures.append(f"eval_{method}: pooled hits/alarms {hits['occupied']}/{hits['empty']}"
                            f" at k={selected[0]} != tune sweep row {selected[1]}/{selected[2]}")
        if hits["empty"] / negatives > cap:
            failures.append(f"eval_{method}: empty-room FPR {hits['empty'] / negatives} > cap {cap}")
        occupied_mean[method] = sum(rates) / len(rates)
        tables[method] = {(r["view"], r["location"], r["subject"]): float(r["rate"])
                          for r in _read_csv(round_dir / f"eval_{method}" / "table.csv")}
    if occupied_mean["capon"] < occupied_mean["dbf"]:
        failures.append(f"mean occupied rate: capon {occupied_mean['capon']:.4f} < "
                        f"dbf {occupied_mean['dbf']:.4f}")

    want = {key: (rate, tables["capon"][key], tables["capon"][key] - rate)
            for key, rate in tables["dbf"].items() if key in tables["capon"]}
    rows = _read_csv(round_dir / "report" / "paired_deltas.csv")
    got = {(r["view"], r["location"], r["subject"]):
           (float(r["dbf"]), float(r["capon"]), float(r["delta"])) for r in rows}
    if got.keys() != want.keys() or len(rows) != len(want):
        failures.append(f"paired_deltas rows {sorted(got)} != trials {sorted(want)}")
    elif any(not math.isclose(g, w, rel_tol=0, abs_tol=EXACT)
             for key in want for g, w in zip(got[key], want[key])):
        failures.append("paired_deltas values differ from the two evaluate tables")
    deltas = [float(r["delta"]) for r in rows]
    if deltas != sorted(deltas):
        failures.append("paired_deltas is not sorted by delta")
    return failures


STUDY_OUTPUTS = ("tune_dbf/sweep.csv", "tune_dbf/operating_point.json",
                 "tune_capon/sweep.csv", "tune_capon/operating_point.json",
                 "eval_dbf/metrics.json", "eval_capon/metrics.json",
                 "report/paired_deltas.csv", "report/coverage.csv",
                 "report/view_quartiles.csv")


def check_study_rounds_agree(round_dirs) -> list:
    """Every round of one run works on the same inputs, so its outputs must match byte for byte."""
    first = [(Path(round_dirs[0]) / name).read_bytes() for name in STUDY_OUTPUTS]
    return [f"{Path(d).name}: {name} differs from {Path(round_dirs[0]).name}"
            for d in round_dirs[1:]
            for name, data in zip(STUDY_OUTPUTS, first)
            if (Path(d) / name).read_bytes() != data]
