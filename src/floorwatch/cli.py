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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import scoring
from .core import RadarConfig, default_geometry, from_json
from .pipeline import (build_axes, cache_recording, candidate_boxes_by_view, flags_at_k,
                       frame_flags, process_recording, score_recording, scoring_boxes,
                       trial_record)
from .recordings import (RunManifest, dump_json, load_json, manifest_from_dict,
                         read_recording, write_recording)
from .sim import scene_from_dict, scene_recording

MAX_K_POINTS = 10_000
DETECTION_COLUMNS = ("frame_index", "range_bin", "azimuth_bin", "range_m",
                     "azimuth_deg", "power", "threshold")
RATE_COLUMNS = ("view", "location", "subject", "method", "rate")


class CliError(Exception):
    pass


@dataclass(frozen=True)
class _Trial:
    """One entry of an ``evaluate --trials`` listing."""

    recording: str
    detections: str | None = None


def _load_config(path: str | None) -> RadarConfig:
    if path is None:
        return RadarConfig()
    return from_json(RadarConfig, load_json(path), name="config")


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


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path, header, kind: str):
    """(where, row) for each row of the CSV ``path``, where names its file and line; a
    header other than ``header`` raises. A row cut short has "" for its missing values."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        if tuple(reader.fieldnames or ()) != header:
            raise CliError(f"{path}: not {kind}: its header is not {','.join(header)}")
        for row in reader:
            yield f"{path} line {reader.line_num}", row


def cmd_simulate(args) -> int:
    scene = scene_from_dict(load_json(args.scene))
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)
    cfg = _load_config(args.config)
    rec = scene_recording(scene, cfg, default_geometry(cfg))
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


def cmd_tune(args) -> int:
    if not 0.0 <= args.fpr_cap <= 1.0:
        raise CliError(f"--fpr-cap must be in [0, 1], got {args.fpr_cap}")
    k_grid = _parse_k_grid(args.k_grid)
    manifest = _load_manifest(args)
    recs = [read_recording(p) for p in args.recordings]
    occupied = [r for r in recs if r.label == "occupied"]
    empty = [r for r in recs if r.label == "empty"]
    if not occupied or not empty:
        raise CliError("tuning needs at least one occupied and one empty recording")
    by_view = candidate_boxes_by_view(occupied)
    occ_cached = [cache_recording(r, manifest) for r in occupied]
    emp_cached = [cache_recording(r, manifest, by_view.get(r.view_tag)) for r in empty]
    result = scoring.tune_k(occ_cached, emp_cached, k_grid, args.fpr_cap, flags_at_k)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    _write_table(sweep_path, ["k", "macro_f1", "fpr", "tpr", "feasible"],
                 [[_fmt(p.k), _fmt(p.macro_f1), _fmt(p.fpr), _fmt(p.tpr), int(p.feasible)]
                  for p in result.points])
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
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_K_POINTS:
            raise CliError(f"k grid {spec!r} has more than {MAX_K_POINTS} points")
        grid = [round(start + i * step, 10) for i in range(int(steps) + 1)]
    else:
        grid = [float(p) for p in spec.split(",") if p]
    if not all(0.0 < k < math.inf for k in grid):
        raise CliError("k grid values must be finite and > 0")
    seen = set()
    for k in grid:
        if k in seen:
            raise CliError(f"k grid {spec!r} repeats k={k!r}; its values must be distinct")
        seen.add(k)
    return grid


def cmd_evaluate(args) -> int:
    if args.trials is not None and (args.recording, args.detections) != (None, None):
        raise CliError("--trials lists every trial; it takes no --recording or --detections")
    if args.detections is not None and args.recording is None:
        raise CliError("--detections needs the --recording it was made from")
    if args.trials is None and args.recording is None:
        raise CliError("evaluate needs --recording or --trials")
    manifest = _load_manifest(args)
    if args.trials is not None:
        listing = load_json(args.trials)
        if not isinstance(listing, list) or not listing:
            raise CliError("trials listing must be a non-empty JSON array")
        trials = [from_json(_Trial, entry, f"trials[{i}]") for i, entry in enumerate(listing)]
        pairs = [(t.recording, t.detections) for t in trials]
    else:
        pairs = [(args.recording, args.detections)]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    recordings = [(path, det, read_recording(path)) for path, det in pairs]
    by_view = candidate_boxes_by_view(rec for _, _, rec in recordings)
    rows = []
    metrics = []
    for rec_path, det_path, rec in recordings:
        if det_path:
            axes = build_axes(rec.config, manifest.grid)
            flags = frame_flags(rec.n_frames, *_read_detections(det_path, rec.n_frames, axes),
                                scoring_boxes(rec, by_view.get(rec.view_tag)), axes)
            trial = trial_record(rec, manifest.method, flags)
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
    _write_table(out_dir / "table.csv", RATE_COLUMNS, rows)
    dump_json(metrics, out_dir / "metrics.json")
    print(f"wrote {out_dir / 'metrics.json'} and {out_dir / 'table.csv'} "
          f"({len(rows)} trials)")
    return 0


def _read_detections(det_path, n_frames, axes):
    """The (frame, range bin, azimuth bin) arrays of a ``process`` CSV made on ``axes``."""
    cells = []
    for where, row in _read_table(det_path, DETECTION_COLUMNS, "a process CSV"):
        idx = int(row["frame_index"])
        if not 0 <= idx < n_frames:
            raise CliError(f"{where}: frame_index {idx} is "
                           f"outside the recording's {n_frames} frames")
        rb, ab = int(row["range_bin"]), int(row["azimuth_bin"])
        if not (0 <= rb < axes.range_m.size and 0 <= ab < axes.azimuth_rad.size):
            raise CliError(f"{where}: bin ({rb}, {ab}) is outside the manifest's "
                           f"{axes.range_m.size}x{axes.azimuth_rad.size} map")
        r, th = axes.range_m[rb], axes.azimuth_rad[ab]
        if (row["range_m"], row["azimuth_deg"]) != (_fmt(r), _fmt(math.degrees(th))):
            raise CliError(f"{where}: range_m/azimuth_deg are not bin ({rb}, {ab}) of "
                           "the manifest's map; was the CSV made on another grid?")
        cells.append((idx, rb, ab))
    return tuple(np.array(cells, dtype=np.intp).reshape(-1, 3).T)


def cmd_report(args) -> int:
    rows = []
    for where, row in _read_table(args.table, RATE_COLUMNS, "an evaluate table"):
        try:
            rate = float(row["rate"])
        except ValueError:
            rate = math.nan  # refused below, as a number outside [0, 1] is
        if not 0.0 <= rate <= 1.0:
            raise CliError(f"{where}: rate {row['rate']!r} is not a number in [0, 1]")
        rows.append({**row, "rate": rate})
    if not rows:
        raise CliError("metrics table is empty")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rates = {}  # (view, location, subject) -> method -> rates in table order
    for r in rows:
        key = (r["view"], r["location"], r["subject"])
        rates.setdefault(key, {}).setdefault(r["method"], []).append(r["rate"])

    taus = [round(0.05 * i, 2) for i in range(21)]
    by_method: dict[str, list] = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r["rate"])
    _write_table(out_dir / "coverage.csv", ["method", "tau", "coverage"],
                 [[method, _fmt(pt.tau), _fmt(pt.coverage)] for method in sorted(by_method)
                  for pt in scoring.coverage_curve(by_method[method], taus)])

    # the i-th dbf row of a key pairs with its i-th capon row; a row left over is unpaired
    paired = [(key, a, b) for key, v in sorted(rates.items())
              for a, b in zip(v.get("dbf", ()), v.get("capon", ()))]
    _write_table(out_dir / "paired_deltas.csv",
                 ["view", "location", "subject", "dbf", "capon", "delta"],
                 [[*key, _fmt(a), _fmt(b), _fmt(b - a)]
                  for key, a, b in sorted(paired, key=lambda t: t[2] - t[1])])

    triples = [(r["view"], r["method"], r["rate"]) for r in rows]
    stats = scoring.viewpoint_stats(triples)
    _write_table(out_dir / "view_quartiles.csv",
                 ["view", "method", "min", "q1", "median", "q3", "max"],
                 [[view, method, _fmt(s.minimum), _fmt(s.q1), _fmt(s.median), _fmt(s.q3),
                   _fmt(s.maximum)] for (view, method), s in sorted(stats.items())])
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
    except (CliError, ValueError, OSError, KeyError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
