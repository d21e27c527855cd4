"""Digest every frame the stream chain outputs, to check that a change keeps them bit-identical.

    python3 tools/stream_digests.py --out DIR [--repo PATH]

Imports ``floorwatch`` from ``PATH/src`` (default: this checkout) and the
stream operating points ``STREAM_K`` from ``PATH/perfbench/gen.py``. Makes
five ``bench`` scenes (three occupied, two empty, seed 11, 40 frames each),
synthesizes each recording and writes it to DIR/recordings. For both
methods at their stream k, runs ``pipeline.process_recording`` on the
synthesized recording and on the one read back from its file (the stream
reads files, so it sees the complex64 samples).

Writes DIR/digests.json: for every scene, method, source and frame, one
SHA-256 each of the frame's ``power``, ``threshold_base``, ``evaluable``
and detections (range bins, azimuth bins, powers and thresholds, in order).
Each digest covers the array's dtype and shape as well as its bytes. Run it
on two checkouts; identical digests.json files mean bit-identical frames.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

SEED = 11
FRAMES = 40


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def frame_digests(out) -> dict:
    d = out.detections
    return {"power": digest(out.power), "threshold_base": digest(out.threshold_base),
            "evaluable": digest(out.evaluable),
            "detections": digest(d.range_bins, d.azimuth_bins, d.power, d.threshold)}


def stream_digests(repo: Path, root: Path) -> dict:
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]
    from floorwatch.bench import bench_manifest, empty_benchmark_scenes, occupied_benchmark_scenes
    from floorwatch.core import RadarConfig, default_geometry
    from floorwatch.pipeline import process_recording
    from floorwatch.recordings import read_recording, write_recording
    from floorwatch.sim import synthesize_recording
    from gen import STREAM_K

    cfg = RadarConfig()
    geom = default_geometry(cfg)
    scenes = (occupied_benchmark_scenes(3, seed=SEED)
              + empty_benchmark_scenes(None, 2, seed=SEED))
    (root / "recordings").mkdir()
    result = {}
    for i, scene in enumerate(scenes):
        rec = synthesize_recording(replace(scene, n_frames=FRAMES), cfg, geom)
        path = root / "recordings" / f"scene{i}.rec"
        write_recording(path, rec)
        sources = {"memory": rec, "file": read_recording(path)}
        for method, k in sorted(STREAM_K.items()):
            manifest = bench_manifest(method, k)
            for source, r in sources.items():
                for out in process_recording(r, manifest):
                    key = f"scene{i}/{method}/{source}/frame{out.frame_index:03d}"
                    result[key] = frame_digests(out)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory; must not exist")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and perfbench/gen.py are imported")
    args = parser.parse_args()
    root, repo = Path(args.out).resolve(), Path(args.repo).resolve()
    root.mkdir(parents=True)
    result = stream_digests(repo, root)
    (root / "digests.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {root / 'digests.json'}: {len(result)} frames")


if __name__ == "__main__":
    main()
