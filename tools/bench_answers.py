"""Regenerate tests/data/bench_answers.json, the answers of the criteria 6/7 clutter benchmark.

    python3 tools/bench_answers.py

Runs ``run_bench`` of tests/test_acceptance.py (the ``bench`` fixture: 30
recordings of 250 frames, both methods, about a minute and 1.2 GB) with
``floorwatch`` from this checkout's src/, and writes what
``BenchResults.answers`` pins, with the numpy and scipy versions that made it.
Run it only for a change that means to move an answer, and say in CHANGES.md
which answers moved and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    import numpy as np
    import scipy
    import test_acceptance

    answers = {"numpy": np.__version__, "scipy": scipy.__version__,
               "answers": test_acceptance.run_bench().answers()}
    test_acceptance.ANSWERS.parent.mkdir(exist_ok=True)
    test_acceptance.ANSWERS.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {test_acceptance.ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
