"""Digest every output of the stream and study chains, to check that a refactor changes no output.

    python3 tools/digests.py --seed 1 --out DIR [--repo PATH]
    python3 tools/digests.py --compare A/digests.json B/digests.json

Imports ``floorwatch`` from ``PATH/src`` (default: this checkout) and
``gen`` from ``PATH/perfbench``. Writes DIR/digests.json with two groups of keys:

``stream/scene<i>/<method>/<source>/frame<n>``: five ``bench`` scenes (three
occupied, two empty, drawn at ``--seed``, 40 frames each) run through
``pipeline.process_recording`` for both methods at ``gen.STREAM_K``, in memory
and read back from DIR/recordings (the stream reads files, so it sees the
complex64 samples). One SHA-256 per frame each of ``power``, ``threshold_base``,
``evaluable`` and the detections, covering dtype and shape as well as bytes;
``cells`` digests the detections' (range bin, azimuth bin) cells alone, so a
change whose maps move in the last bits can show that no detection moved.
``stream/scene<i>/recording`` is the SHA-256 of the recording file itself, so
a change to the header format shows too.

``study/<path>``: the study inputs of ``gen.make_study`` go through ``cli.main``
(``run_study``, which ``tools/study_answers.py`` shares):
``simulate`` every scene; per method, ``tune`` over the bench k grid and over
``DENSE_K_GRID`` (200 geometric steps from 1.01 to 5000: near-empty and
tie-heavy k values), ``process --dump-maps`` and ``evaluate`` of every
recording at the tuned k, ``evaluate`` replaying the occupied recordings'
CSVs; one ``report`` over both tables. One SHA-256 per scene and output file,
keyed by its path under DIR; the manifests are left out, since a change may
drop a manifest field on purpose.

Identical digests.json files from two checkouts at one seed mean
bit-identical frames and byte-identical files.

``--compare A B`` prints the keys whose digests differ between two
digests.json files, grouped by kind: ``power``, ``threshold_base``,
``evaluable``, ``detections`` and ``cells`` for stream frames, ``recording``
for stream recording files, ``study`` for study files, and ``only in A`` /
``only in B`` for keys one file lacks.
When each digests.json sits in its ``--out`` tree, it also says how far each
differing study file moved: for a ``.csv``, the columns whose values differ
and the largest relative difference |a - b| / max(|a|, |b|) of each (or
that a column is not numeric, or that the row counts differ); for a
``.npy``, the largest relative difference of its elements. It exits 0 when
nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

METHODS = ("dbf", "capon")
STREAM_FRAMES = 40
DENSE_K_GRID = tuple(1.01 * (5000 / 1.01) ** (i / 199) for i in range(200))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def stream_digests(seed: int, root: Path) -> dict:
    from floorwatch.bench import bench_manifest, empty_benchmark_scenes, occupied_benchmark_scenes
    from floorwatch.core import RadarConfig, default_geometry
    from floorwatch.pipeline import process_recording
    from floorwatch.recordings import read_recording, write_recording
    from floorwatch.sim import synthesize_recording
    from gen import STREAM_K

    cfg = RadarConfig()
    scenes = occupied_benchmark_scenes(3, seed=seed) + empty_benchmark_scenes(None, 2, seed=seed)
    (root / "recordings").mkdir()
    result = {}
    for i, scene in enumerate(scenes):
        rec = synthesize_recording(replace(scene, n_frames=STREAM_FRAMES), cfg,
                                   default_geometry(cfg))
        path = root / "recordings" / f"scene{i}.rec"
        write_recording(path, rec)
        result[f"stream/scene{i}/recording"] = hashlib.sha256(path.read_bytes()).hexdigest()
        for method, k in sorted(STREAM_K.items()):
            for source, r in (("memory", rec), ("file", read_recording(path))):
                for out in process_recording(r, bench_manifest(method, k)):
                    d = out.detections
                    key = f"stream/scene{i}/{method}/{source}/frame{out.frame_index:03d}"
                    result[key] = {
                        "power": digest(out.power), "threshold_base": digest(out.threshold_base),
                        "evaluable": digest(out.evaluable),
                        "detections": digest(d.range_bins, d.azimuth_bins, d.power, d.threshold),
                        "cells": digest(d.range_bins, d.azimuth_bins)}
    return result


def floorwatch(*argv) -> None:
    from floorwatch.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"floorwatch {argv[0]} exited with {status}")


def run_study(seed: int, root: Path) -> None:
    """Run the study chain at ``seed`` through ``cli.main``: its inputs go in
    ROOT/inputs, its outputs in ROOT/out and its trial listings in ROOT/work."""
    from gen import make_study

    inputs_dir, work, out = root / "inputs", root / "work", root / "out"
    for d in (inputs_dir, work, out):
        d.mkdir(parents=True)
    inputs = make_study(seed, inputs_dir)
    recordings = [out / f"rec{i}.rec" for i in range(len(inputs["scenes"]))]
    for scene, rec in zip(inputs["scenes"], recordings):
        floorwatch("simulate", "--scene", scene, "--out", rec)

    for method in METHODS:
        manifest, base = inputs["manifests"][method], out / method
        for grid, name in ((inputs["k_grids"][method], "tune"), (DENSE_K_GRID, "tune_dense")):
            floorwatch("tune", "--recordings", *recordings, "--manifest", manifest,
                       "--k-grid", ",".join(repr(k) for k in grid),
                       "--fpr-cap", repr(inputs["fpr_cap"]), "--out", base / name)
        k = repr(json.loads((base / "tune" / "operating_point.json").read_text())["k"])
        (base / "process").mkdir()
        replay = []
        for rec, label in zip(recordings, inputs["labels"]):
            csv_path = base / "process" / f"{rec.stem}.csv"
            floorwatch("process", "--recording", rec, "--manifest", manifest, "--k", k,
                       "--dump-maps", csv_path.with_suffix(".npy"), "--out", csv_path)
            if label == "occupied":
                replay.append({"recording": str(rec), "detections": str(csv_path)})
        listings = {"evaluate": [{"recording": str(r)} for r in recordings], "replay": replay}
        for name, listing in listings.items():
            path = work / f"{method}_{name}.json"
            path.write_text(json.dumps(listing))
            floorwatch("evaluate", "--trials", path, "--manifest", manifest, "--k", k,
                       "--out", base / name)
    # one table under one header, as the benchmark's study hands it to report
    tables = [(out / m / "evaluate" / "table.csv").read_bytes().splitlines(keepends=True)
              for m in METHODS]
    (work / "table.csv").write_bytes(b"".join(tables[0] + tables[1][1:]))
    floorwatch("report", "--table", work / "table.csv", "--out", out / "report")


def study_digests(seed: int, root: Path) -> dict:
    run_study(seed, root)
    files = (list((root / "inputs").glob("scene*.json"))
             + [p for p in (root / "out").rglob("*") if p.is_file()])
    return {f"study/{p.relative_to(root)}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(files)}


def differing_keys(a: dict, b: dict) -> dict:
    """{kind: sorted keys} of the digests that differ between two digests.json mappings."""
    groups = {}
    for key in sorted(a.keys() | b.keys()):
        if key not in b or key not in a:
            kinds = ["only in A" if key in a else "only in B"]
        elif isinstance(a[key], str):  # the digest of one file
            kind = "study" if key.startswith("study/") else "recording"
            kinds = [kind] if a[key] != b[key] else []
        else:
            kinds = [k for k in sorted(a[key].keys() | b[key].keys())
                     if a[key].get(k) != b[key].get(k)]
        for kind in kinds:
            groups.setdefault(kind, []).append(key)
    return groups


def relative_difference(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|) over two equally shaped arrays; equal cells count 0."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.where(a == b, 0.0, rel).max(initial=0.0))


def _read_csv(path: Path) -> tuple[list, list]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def moved(path_a: Path, path_b: Path) -> list[str]:
    """How far one study file moved between two trees, as lines to print."""
    if path_a.suffix == ".npy":
        a, b = np.load(path_a), np.load(path_b)
        if a.shape != b.shape:
            return [f"shape {a.shape} vs {b.shape}"]
        return [f"max relative difference {relative_difference(a, b):.3g}"]
    if path_a.suffix != ".csv":
        return []
    (head_a, rows_a), (head_b, rows_b) = _read_csv(path_a), _read_csv(path_b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"columns or row counts differ ({len(head_a)} x {len(rows_a)} vs "
                f"{len(head_b)} x {len(rows_b)})"]
    lines = []
    for i, name in enumerate(head_a):
        col_a, col_b = [r[i] for r in rows_a], [r[i] for r in rows_b]
        if col_a == col_b:
            continue
        try:
            rel = relative_difference(np.array(col_a, dtype=float), np.array(col_b, dtype=float))
        except ValueError:
            lines.append(f"{name}: differs, not numeric")
        else:
            lines.append(f"{name}: max relative difference {rel:.3g}")
    return lines


def compare(path_a: Path, path_b: Path) -> int:
    path_a, path_b = Path(path_a), Path(path_b)
    groups = differing_keys(json.loads(path_a.read_text()), json.loads(path_b.read_text()))
    for kind, keys in groups.items():
        print(f"{kind}: {len(keys)} differ")
        for key in keys:
            print(f"  {key}")
            if kind != "study":
                continue
            files = [p.parent / key.removeprefix("study/") for p in (path_a, path_b)]
            if all(f.is_file() for f in files):
                for line in moved(*files):
                    print(f"    {line}")
    if not groups:
        print("no digest differs")
    return 1 if groups else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory; must not exist")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and perfbench/gen.py are imported")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the keys that differ between two digests.json files")
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(compare(*args.compare))
    if args.seed is None or args.out is None:
        parser.error("--seed and --out are required unless --compare is given")
    root, repo = Path(args.out).resolve(), Path(args.repo).resolve()
    if root.exists():
        parser.error(f"--out {root} already exists")
    root.mkdir(parents=True)
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]
    result = stream_digests(args.seed, root) | study_digests(args.seed, root)
    (root / "digests.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {root / 'digests.json'}: {len(result)} keys")


if __name__ == "__main__":
    main()
