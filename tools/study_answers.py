"""Regenerate tests/data/study_answers.json, the answers of the CLI study chain at seeds 1 and 2.

    python3 tools/study_answers.py

Runs the study of tools/digests.py (``run_study``: ``simulate``, ``tune``
over the bench and the dense k grid, ``process``, ``evaluate``, the replay
``evaluate --trials`` and ``report``, all through ``cli.main``) with
``floorwatch`` from this checkout's src/, and writes what ``answers`` reads
from its outputs, with the numpy and scipy versions that made it. Seed 1 is
the study where DBF has TPR 0 at every k and ``tune`` picks k by its
tie-break; at seed 2 DBF has hits. Run it only for a change that means to
move an answer, and say in CHANGES.md which answers moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ANSWERS = REPO / "tests" / "data" / "study_answers.json"
SEEDS = (1, 2)
REPORT_TABLES = ("coverage.csv", "paired_deltas.csv", "view_quartiles.csv")


def answers(out: Path) -> dict:
    """The answers among a study's outputs under ``out``, by path: per method, both
    ``operating_point.json`` and ``sweep.csv`` files, the ``evaluate`` and replay
    ``table.csv`` and the (frame_index, range_bin, azimuth_bin) columns of each ``process``
    CSV; and the three ``report`` CSVs. A CSV is its list of lines. The ``.npy`` maps and
    the ``power`` and ``threshold`` columns are left out: they move with the FFT or BLAS
    build, and with changes made at a stated tolerance, while no answer moves."""
    def lines(path: Path) -> list[str]:
        return path.read_text().splitlines()

    result = {}
    for method in ("dbf", "capon"):
        for tune in ("tune", "tune_dense"):
            op = out / method / tune / "operating_point.json"
            result[f"{method}/{tune}/operating_point.json"] = json.loads(op.read_text())
            result[f"{method}/{tune}/sweep.csv"] = lines(out / method / tune / "sweep.csv")
        for name in ("evaluate", "replay"):
            result[f"{method}/{name}/table.csv"] = lines(out / method / name / "table.csv")
        for csv_path in sorted((out / method / "process").glob("*.csv")):
            result[f"{method}/process/{csv_path.name}"] = [
                ",".join(line.split(",")[:3]) for line in lines(csv_path)]
    for name in REPORT_TABLES:
        result[f"report/{name}"] = lines(out / "report" / name)
    return result


def study_answers(seed: int, root: Path) -> dict:
    """Run the study at ``seed`` under ``root`` (which must be empty) and read its answers.
    ``floorwatch`` and perfbench's ``gen`` must be importable."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import digests
    finally:
        sys.path.pop(0)
    digests.run_study(seed, root)
    return answers(root / "out")


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    import numpy as np
    import scipy

    with tempfile.TemporaryDirectory() as tmp:
        result = {str(seed): study_answers(seed, Path(tmp) / str(seed)) for seed in SEEDS}
    pinned = {"numpy": np.__version__, "scipy": scipy.__version__, "answers": result}
    ANSWERS.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
