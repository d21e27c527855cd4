"""Digest every output of the benchmark's study chain, to check that a refactor changes no output.

    python3 tools/study_digests.py --seed 1 --out DIR [--repo PATH]

Makes the study inputs with ``perfbench/gen.py --workload study`` (four
scenes, one occupied and one empty per view, and one manifest per method),
then runs the CLI from the sources under ``PATH/src`` (default: this
checkout): ``simulate`` for every scene and, for each method, ``tune`` over
the method's bench k grid, ``tune`` over ``DENSE_K_GRID`` (200 geometric
steps from 1.01 to 5000, so that near-empty and tie-heavy k values are
swept too), ``process --dump-maps`` for every recording at the tuned k,
``evaluate`` of every recording at the tuned k, ``evaluate`` replaying the
occupied recordings' detection CSVs, and one ``report`` over both methods'
tables. Every step runs in a process of its own.

Writes DIR/digests.json: the SHA-256 of every scene file and of every
output file, keyed by its path under DIR. The manifest files are left out:
they list the manifest's fields, which a change may drop on purpose. Run it
on two checkouts with the same seed; identical digests.json files mean
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

METHODS = ("dbf", "capon")
DENSE_K_GRID = tuple(1.01 * (5000 / 1.01) ** (i / 199) for i in range(200))


def run(repo: Path, argv: list) -> None:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    subprocess.run([sys.executable, *map(str, argv)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def floorwatch(repo: Path, *argv) -> None:
    run(repo, ["-m", "floorwatch.cli", *argv])


def study_chain(repo: Path, seed: int, root: Path) -> None:
    inputs_dir, work, out = root / "inputs", root / "work", root / "out"
    for d in (inputs_dir, work, out):
        d.mkdir(parents=True)
    run(repo, [repo / "perfbench" / "gen.py", "--workload", "study", "--seed", seed,
               "--out", inputs_dir])
    inputs = json.loads((inputs_dir / "inputs.json").read_text())
    recordings = [out / f"rec{i}.rec" for i in range(len(inputs["scenes"]))]
    for scene, rec in zip(inputs["scenes"], recordings):
        floorwatch(repo, "simulate", "--scene", scene, "--out", rec)

    for method in METHODS:
        manifest, base = inputs["manifests"][method], out / method
        for grid, name in ((inputs["k_grids"][method], "tune"), (DENSE_K_GRID, "tune_dense")):
            floorwatch(repo, "tune", "--recordings", *recordings, "--manifest", manifest,
                       "--k-grid", ",".join(repr(k) for k in grid),
                       "--fpr-cap", repr(inputs["fpr_cap"]), "--out", base / name)
        k = repr(json.loads((base / "tune" / "operating_point.json").read_text())["k"])
        (base / "process").mkdir()
        replay = []
        for rec, label in zip(recordings, inputs["labels"]):
            csv_path = base / "process" / f"{rec.stem}.csv"
            floorwatch(repo, "process", "--recording", rec, "--manifest", manifest, "--k", k,
                       "--dump-maps", csv_path.with_suffix(".npy"), "--out", csv_path)
            if label == "occupied":
                replay.append({"recording": str(rec), "detections": str(csv_path)})
        listings = {"evaluate": [{"recording": str(r)} for r in recordings], "replay": replay}
        for name, listing in listings.items():
            path = work / f"{method}_{name}.json"
            path.write_text(json.dumps(listing))
            floorwatch(repo, "evaluate", "--trials", path, "--manifest", manifest, "--k", k,
                       "--out", base / name)
    # one table under one header, as the benchmark's study hands it to report
    tables = [(out / m / "evaluate" / "table.csv").read_bytes().splitlines(keepends=True)
              for m in METHODS]
    (work / "table.csv").write_bytes(b"".join(tables[0] + tables[1][1:]))
    floorwatch(repo, "report", "--table", work / "table.csv", "--out", out / "report")


def digests(root: Path) -> dict:
    files = list((root / "inputs").glob("scene*.json"))
    files += [p for p in (root / "out").rglob("*") if p.is_file()]
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(files)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory; must not exist")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and perfbench/gen.py are run")
    args = parser.parse_args()
    root, repo = Path(args.out).resolve(), Path(args.repo).resolve()
    root.mkdir(parents=True)
    study_chain(repo, args.seed, root)
    result = digests(root)
    (root / "digests.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {root / 'digests.json'}: {len(result)} files")


if __name__ == "__main__":
    main()
