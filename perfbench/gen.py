"""Make one workload's inputs from its seed, in a process of its own.

    python3 perfbench/gen.py --workload stream --seed 1 --out DIR

Writes DIR/inputs.json and the files it names. The inputs come from the
clutter-benchmark scene family of ``floorwatch.bench``; the same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from floorwatch.bench import (CAPON_K_GRID, DBF_K_GRID, bench_manifest,
                              empty_benchmark_scenes, occupied_benchmark_scenes)
from floorwatch.core import RadarConfig, default_geometry
from floorwatch.recordings import dump_json, manifest_to_dict, write_recording
from floorwatch.sim import scene_to_dict, synthesize_recording

STREAM_FRAMES = 400
# Fixed operating points of the streams, points of the bench k grids near
# what the scaled-down study tunes to.
STREAM_K = {"capon": 4.6352, "dbf": 7.5441}
CHECKED_FRAMES = 16
STUDY_FRAMES = 20
STUDY_FPR_CAP = 0.1


def make_stream(method: str, seed: int, out: Path) -> dict:
    scene = replace(occupied_benchmark_scenes(1, seed=seed)[0], n_frames=STREAM_FRAMES)
    cfg = RadarConfig()
    write_recording(out / "stream.rec", synthesize_recording(scene, cfg, default_geometry(cfg)))
    dump_json(manifest_to_dict(bench_manifest(method, STREAM_K[method])), out / "manifest.json")
    rng = np.random.default_rng(seed)
    inner = rng.choice(np.arange(1, STREAM_FRAMES - 1), CHECKED_FRAMES - 2, replace=False)
    checked = sorted({0, STREAM_FRAMES - 1} | {int(i) for i in inner})
    return {"method": method, "k": STREAM_K[method], "frames": STREAM_FRAMES,
            "recording": str(out / "stream.rec"), "manifest": str(out / "manifest.json"),
            "checked_frames": checked}


def make_study(seed: int, out: Path, frames: int = STUDY_FRAMES) -> dict:
    """One occupied and one empty scene per view."""
    scenes = (occupied_benchmark_scenes(2, seed=seed)
              + empty_benchmark_scenes(None, 2, seed=seed))
    scene_paths = []
    for i, scene in enumerate(scenes):
        path = out / f"scene{i}.json"
        dump_json(scene_to_dict(replace(scene, n_frames=frames)), path)
        scene_paths.append(str(path))
    manifests = {}
    for method in ("dbf", "capon"):
        manifests[method] = str(out / f"{method}.json")
        dump_json(manifest_to_dict(bench_manifest(method)), manifests[method])
    return {"scenes": scene_paths, "frames_per_recording": frames,
            "labels": [s.label for s in scenes], "manifests": manifests,
            "k_grids": {"dbf": list(DBF_K_GRID), "capon": list(CAPON_K_GRID)},
            "fpr_cap": STUDY_FPR_CAP}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "stream_dbf", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    out = Path(args.out)
    if args.workload == "study":
        inputs = make_study(args.seed, out)
    else:
        inputs = make_stream("capon" if args.workload == "stream" else "dbf", args.seed, out)
    inputs.update(workload=args.workload, seed=args.seed)
    dump_json(inputs, out / "inputs.json")


if __name__ == "__main__":
    main()
