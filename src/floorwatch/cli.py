"""Command-line surface: simulate | process | tune | evaluate | report.

Every command exits 0 on success; domain errors are written to stderr as a
single JSON object {"error": ..., "message": ...} with a nonzero exit code.
All angles in files are degrees; CSV and JSON outputs are byte-reproducible
for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import scoring
from .core import RadarConfig, config_from_dict, default_geometry
from .pipeline import (build_axes, cache_recording, flags_at_k, process_recording,
                       score_recording)
from .recordings import (RunManifest, dump_json, load_json, manifest_from_dict,
                         read_recording, write_recording)
from .sim import scene_from_dict, synthesize_recording

DETECTION_COLUMNS = ("frame_index", "range_bin", "azimuth_bin", "range_m",
                     "azimuth_deg", "power", "threshold")


class CliError(Exception):
    pass


def _load_config(path: str | None) -> RadarConfig:
    if path is None:
        return RadarConfig()
    return config_from_dict(load_json(path))


def _load_manifest(args) -> RunManifest:
    manifest = manifest_from_dict(load_json(args.manifest)) if args.manifest else RunManifest()
    overrides = {}
    if getattr(args, "method", None):
        overrides["method"] = args.method
    if getattr(args, "k", None) is not None:
        overrides["k"] = args.k
    return replace(manifest, **overrides) if overrides else manifest


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_simulate(args) -> int:
    scene = scene_from_dict(load_json(args.scene))
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)
    cfg = _load_config(args.config)
    rec = synthesize_recording(scene, cfg, default_geometry(cfg))
    write_recording(args.out, rec)
    print(f"wrote {args.out}: {rec.n_frames} frames, label={rec.label}")
    return 0


def cmd_process(args) -> int:
    rec = read_recording(args.recording)
    manifest = _load_manifest(args)
    axes = build_axes(rec.config, manifest.grid)
    maps = [] if args.dump_maps else None
    outputs = process_recording(rec, manifest)  # raises before --out is opened
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETECTION_COLUMNS)
        n_det = 0
        for out in outputs:
            for d in out.detections.detections:
                writer.writerow([
                    out.frame_index, d.range_bin, d.azimuth_bin,
                    _fmt(axes.range_m[d.range_bin]),
                    _fmt(math.degrees(axes.azimuth_rad[d.azimuth_bin])),
                    _fmt(d.power), _fmt(d.threshold),
                ])
                n_det += 1
            if maps is not None:
                maps.append(out.power.astype(np.float32))
    if maps is not None:
        np.save(args.dump_maps, np.stack(maps))
    print(f"wrote {args.out}: {n_det} detections over {rec.n_frames} frames")
    return 0


def _candidate_boxes(recordings):
    """Truth boxes by view: where the empty recordings of each view are scored."""
    by_view: dict[str, list] = {}
    for rec in recordings:
        for box in rec.truth:
            by_view.setdefault(rec.view_tag, []).append(box)
    return by_view


def cmd_tune(args) -> int:
    if not 0.0 <= args.fpr_cap <= 1.0:
        raise CliError(f"--fpr-cap must be in [0, 1], got {args.fpr_cap}")
    manifest = _load_manifest(args)
    recs = [read_recording(p) for p in args.recordings]
    occupied = [r for r in recs if r.label == "occupied"]
    empty = [r for r in recs if r.label == "empty"]
    if not occupied or not empty:
        raise CliError("tuning needs at least one occupied and one empty recording")
    by_view = _candidate_boxes(occupied)
    occ_cached = [cache_recording(r, manifest) for r in occupied]
    emp_cached = [cache_recording(r, manifest, by_view.get(r.view_tag)) for r in empty]
    result = scoring.tune_k(occ_cached, emp_cached, _parse_k_grid(args.k_grid),
                            args.fpr_cap, flags_at_k)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "macro_f1", "fpr", "tpr", "feasible"])
        for p in result.points:
            writer.writerow([_fmt(p.k), _fmt(p.macro_f1), _fmt(p.fpr), _fmt(p.tpr),
                             int(p.feasible)])
    op_path = out_dir / "operating_point.json"
    if result.selected is None:
        dump_json({"feasible": False, "fpr_cap": args.fpr_cap,
                   "method": manifest.method}, op_path)
        print(f"no feasible k under FPR cap {args.fpr_cap}; wrote {sweep_path}")
    else:
        sel = result.selected
        dump_json({"feasible": True, "method": manifest.method, "k": sel.k,
                   "macro_f1": sel.macro_f1, "fpr": sel.fpr, "tpr": sel.tpr,
                   "fpr_cap": args.fpr_cap}, op_path)
        print(f"selected k={sel.k} (macro_f1={sel.macro_f1:.4f}, fpr={sel.fpr:.4f}); "
              f"wrote {op_path} and {sweep_path}")
    return 0


def _parse_k_grid(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError("k grid must be 'start:stop:step' or comma-separated values")
        start, stop, step = (float(p) for p in parts)
        if not (0.0 < step < math.inf and 0.0 < start <= stop < math.inf):
            raise CliError("bad k grid bounds: need finite 0 < start <= stop and step > 0")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + i * step, 10) for i in range(n)]
    grid = [float(p) for p in spec.split(",") if p]
    if not all(0.0 < k < math.inf for k in grid):
        raise CliError("k grid values must be finite and > 0")
    return grid


def cmd_evaluate(args) -> int:
    manifest = _load_manifest(args)
    pairs = []
    if args.trials:
        listing = load_json(args.trials)
        if not isinstance(listing, list) or not listing:
            raise CliError("trials listing must be a non-empty JSON array")
        for i, entry in enumerate(listing):
            if "recording" not in entry:
                raise CliError(f"trials[{i}].recording missing")
            pairs.append((entry["recording"], entry.get("detections")))
    elif args.recording:
        pairs.append((args.recording, args.detections))
    else:
        raise CliError("evaluate needs --recording or --trials")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    recordings = [(path, det, read_recording(path)) for path, det in pairs]
    by_view = _candidate_boxes(rec for _, _, rec in recordings)
    rows = []
    metrics = []
    for rec_path, det_path, rec in recordings:
        if det_path:
            trial = _trial_from_detections(rec, det_path, manifest)
        else:
            trial = score_recording(rec, manifest, by_view.get(rec.view_tag))
        rate = scoring.frame_positive_rate(trial)
        rows.append([trial.view_tag, trial.location_tag, trial.subject_id,
                     trial.method_tag, _fmt(rate)])
        metrics.append({
            "recording": Path(rec_path).name, "view": trial.view_tag,
            "location": trial.location_tag, "subject": trial.subject_id,
            "method": trial.method_tag, "label": trial.label,
            "n_frames": int(trial.flags.size),
            "frame_positive_rate": rate,
        })
    with open(out_dir / "table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view", "location", "subject", "method", "rate"])
        writer.writerows(rows)
    dump_json(metrics, out_dir / "metrics.json")
    print(f"wrote {out_dir / 'metrics.json'} and {out_dir / 'table.csv'} "
          f"({len(rows)} trials)")
    return 0


def _trial_from_detections(rec, det_path, manifest):
    """Re-score recorded detections against the recording's truth boxes.

    Each row is scored at its bins' centres on the manifest's map axes, the
    numbers ``hit_test`` uses; a row whose bins or coordinates do not belong
    to that map (a CSV made on another grid) is refused.
    """
    if rec.label != "occupied":
        raise CliError("replaying detections requires an occupied recording")
    axes = build_axes(rec.config, manifest.grid)
    hits = np.zeros(rec.n_frames, dtype=bool)
    with open(det_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{det_path} line {reader.line_num}"
            idx = int(row["frame_index"])
            if not 0 <= idx < rec.n_frames:
                raise CliError(f"{where}: frame_index {idx} is "
                               f"outside the recording's {rec.n_frames} frames")
            rb, ab = int(row["range_bin"]), int(row["azimuth_bin"])
            if not (0 <= rb < axes.range_m.size and 0 <= ab < axes.azimuth_rad.size):
                raise CliError(f"{where}: bin ({rb}, {ab}) is outside the manifest's "
                               f"{axes.range_m.size}x{axes.azimuth_rad.size} map")
            r, th = axes.range_m[rb], axes.azimuth_rad[ab]
            if (row["range_m"], row["azimuth_deg"]) != (_fmt(r), _fmt(math.degrees(th))):
                raise CliError(f"{where}: range_m/azimuth_deg are not bin ({rb}, {ab}) of "
                               "the manifest's map; was the CSV made on another grid?")
            if any(b.contains(r, th) for b in rec.truth):
                hits[idx] = True
    return scoring.TrialRecord(subject_id=rec.subject_tag, view_tag=rec.view_tag,
                               location_tag=rec.location_tag, method_tag=manifest.method,
                               flags=hits, label=rec.label)


def cmd_report(args) -> int:
    rows = []
    with open(args.table, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append(rec)
    if not rows:
        raise CliError("metrics table is empty")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rates = {}
    for r in rows:
        key = (r["view"], r["location"], r["subject"])
        rates.setdefault(key, {})[r["method"]] = float(r["rate"])

    taus = [round(0.05 * i, 2) for i in range(21)]
    by_method: dict[str, list] = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(float(r["rate"]))
    with open(out_dir / "coverage.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "tau", "coverage"])
        for method in sorted(by_method):
            for pt in scoring.coverage_curve(by_method[method], taus):
                writer.writerow([method, _fmt(pt.tau), _fmt(pt.coverage)])

    paired = [(key, v["dbf"], v["capon"]) for key, v in sorted(rates.items())
              if "dbf" in v and "capon" in v]
    with open(out_dir / "paired_deltas.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view", "location", "subject", "dbf", "capon", "delta"])
        for key, a, b in sorted(paired, key=lambda t: t[2] - t[1]):
            writer.writerow([key[0], key[1], key[2], _fmt(a), _fmt(b), _fmt(b - a)])

    triples = [(r["view"], r["method"], float(r["rate"])) for r in rows]
    stats = scoring.viewpoint_stats(triples)
    with open(out_dir / "view_quartiles.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view", "method", "min", "q1", "median", "q3", "max"])
        for (view, method) in sorted(stats):
            s = stats[(view, method)]
            writer.writerow([view, method, _fmt(s.minimum), _fmt(s.q1),
                             _fmt(s.median), _fmt(s.q3), _fmt(s.maximum)])
    print(f"wrote coverage.csv, paired_deltas.csv, view_quartiles.csv to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="floorwatch",
                                     description="FMCW radar floor-occupancy pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a recording from a scene JSON")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None, help="radar config JSON (defaults bundled)")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("process", help="run a pipeline over a recording")
    p.add_argument("--recording", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--method", choices=("dbf", "capon"), default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--dump-maps", default=None, help="optional .npy dump of RA maps")
    p.add_argument("--out", required=True, help="detections CSV path")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("tune", help="sweep detector sensitivity under an FPR cap")
    p.add_argument("--recordings", nargs="+", required=True,
                   help="labelled recordings (mix of occupied and empty)")
    p.add_argument("--manifest", default=None)
    p.add_argument("--method", choices=("dbf", "capon"), default=None)
    p.add_argument("--k-grid", default="1.0:6.0:0.2",
                   help="'start:stop:step' or comma-separated values")
    p.add_argument("--fpr-cap", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("evaluate", help="score trials into metrics and a rate table")
    p.add_argument("--recording", default=None)
    p.add_argument("--detections", default=None,
                   help="optional detections CSV to replay instead of processing")
    p.add_argument("--trials", default=None,
                   help="JSON array of {recording, detections?} entries")
    p.add_argument("--manifest", default=None)
    p.add_argument("--method", choices=("dbf", "capon"), default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="derive plot-data CSVs from a rate table")
    p.add_argument("--table", required=True, help="table.csv from evaluate")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
