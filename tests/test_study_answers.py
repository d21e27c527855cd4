"""The answers of the CLI study chain against tests/data/study_answers.json.

The chain is ``simulate -> tune -> process -> evaluate -> evaluate --trials
(replay) -> report`` on the benchmark's study inputs, run in process by
``tools/digests.py`` ``run_study``. Tuned k, sweep points, rates, detected
cells and report rows are pinned; map values are not (see
``tools/study_answers.py``).
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

REPO = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("study_answers",
                                                  REPO / "tools" / "study_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_study_answers_match_the_committed_file(tmp_path, seed):
    tool = load_tool()
    pinned = json.loads(tool.ANSWERS.read_text())
    sys.path.insert(0, str(REPO / "perfbench"))  # run_study imports gen by name
    try:
        got = tool.study_answers(seed, tmp_path)
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    want = pinned["answers"][str(seed)]
    moved = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not moved, (
        f"study answers at seed {seed} differ from {tool.ANSWERS.name}: {moved}. It was made "
        f"with numpy {pinned['numpy']} and scipy {pinned['scipy']} (this run: numpy "
        f"{np.__version__}, scipy {scipy.__version__}). A change meant to move an answer "
        "regenerates the file with tools/study_answers.py")
