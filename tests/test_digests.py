"""tools/digests.py --compare on two small hand-made digest files, in process."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


@pytest.fixture
def digests():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def frame(**changed):
    kinds = ("power", "threshold_base", "evaluable", "detections", "cells")
    return {kind: changed.get(kind, f"{kind}-0") for kind in kinds}


BASE = {
    "stream/scene0/capon/file/frame000": frame(),
    "stream/scene0/capon/file/frame001": frame(),
    "stream/scene0/dbf/memory/frame000": frame(),
    "stream/scene0/recording": "r0",
    "stream/scene1/recording": "r1",
    "study/out/capon/process/rec0.csv": "aa",
    "study/out/report/report.json": "bb",
}


def write(path, digests_map):
    path.write_text(json.dumps(digests_map))
    return path


def test_identical_files_exit_zero(digests, tmp_path, capsys):
    a, b = write(tmp_path / "a.json", BASE), write(tmp_path / "b.json", dict(BASE))
    assert digests.compare(a, b) == 0
    assert capsys.readouterr().out == "no digest differs\n"


def test_differing_keys_are_grouped_by_kind(digests, tmp_path, capsys):
    changed = dict(BASE)
    changed["stream/scene0/capon/file/frame001"] = frame(power="p1", threshold_base="t1",
                                                         detections="d1")
    changed["stream/scene0/capon/file/frame000"] = frame(power="p2")
    changed["study/out/capon/process/rec0.csv"] = "cc"
    changed["stream/scene1/recording"] = "r2"
    del changed["study/out/report/report.json"]
    changed["study/out/report/extra.txt"] = "dd"
    a, b = write(tmp_path / "a.json", BASE), write(tmp_path / "b.json", changed)
    assert digests.differing_keys(BASE, changed) == {
        "power": ["stream/scene0/capon/file/frame000", "stream/scene0/capon/file/frame001"],
        "threshold_base": ["stream/scene0/capon/file/frame001"],
        "detections": ["stream/scene0/capon/file/frame001"],
        "recording": ["stream/scene1/recording"],
        "study": ["study/out/capon/process/rec0.csv"],
        "only in B": ["study/out/report/extra.txt"],
        "only in A": ["study/out/report/report.json"],
    }
    assert digests.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["power: 2 differ", "  stream/scene0/capon/file/frame000",
                       "  stream/scene0/capon/file/frame001"]
    assert "study: 1 differ" in out and "  study/out/capon/process/rec0.csv" in out
    assert out[out.index("recording: 1 differ") + 1] == "  stream/scene1/recording"
    assert not any("evaluable" in line or "cells" in line for line in out)


def test_compare_is_the_exit_status_of_the_command(digests, tmp_path, monkeypatch):
    a = write(tmp_path / "a.json", BASE)
    b = write(tmp_path / "b.json", {**BASE, "study/out/report/report.json": "ee"})
    for other, status in ((a, 0), (b, 1)):
        monkeypatch.setattr("sys.argv", ["digests.py", "--compare", str(a), str(other)])
        with pytest.raises(SystemExit) as exit_info:
            digests.main()
        assert exit_info.value.code == status


def tree(root, digests_map, files):
    """A --out tree: digests.json and the study files its keys name."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, str):
            path.write_text(content)
        else:
            np.save(path, content)
    return write(root / "digests.json", digests_map)


def test_compare_reports_how_far_study_files_moved(digests, tmp_path, capsys):
    csv_a = "frame,range_bin,power,threshold,label\n0,3,2.0,4.0,a\n1,5,-8.0,1.0,b\n"
    csv_b = "frame,range_bin,power,threshold,label\n0,3,2.5,4.0,a\n1,5,-8.0,1.000001,c\n"
    maps = np.array([[1.0, 0.0], [4.0, -2.0]], dtype=np.float32)
    moved_maps = maps.copy()
    moved_maps[1, 1] = -1.0
    files_a = {"out/capon/process/rec0.csv": csv_a, "out/capon/process/rec0.npy": maps,
               "out/report/report.json": "{}"}
    files_b = {"out/capon/process/rec0.csv": csv_b, "out/capon/process/rec0.npy": moved_maps,
               "out/report/report.json": "{ }"}
    keys = {f"study/{rel}": "x" for rel in files_a}
    a = tree(tmp_path / "a", keys, files_a)
    b = tree(tmp_path / "b", {key: "y" for key in keys}, files_b)
    assert digests.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "study: 3 differ",
        "  study/out/capon/process/rec0.csv",
        "    power: max relative difference 0.2",
        "    threshold: max relative difference 1e-06",
        "    label: differs, not numeric",
        "  study/out/capon/process/rec0.npy",
        "    max relative difference 0.5",
        "  study/out/report/report.json",
    ]


def test_compare_without_the_trees_lists_keys_only(digests, tmp_path, capsys):
    a = write(tmp_path / "a.json", BASE)
    b = write(tmp_path / "b.json", {**BASE, "study/out/capon/process/rec0.csv": "zz"})
    assert digests.compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == ["study: 1 differ",
                                                    "  study/out/capon/process/rec0.csv"]


def test_relative_difference(digests):
    assert digests.relative_difference([0.0, 1.0, -3.0], [0.0, 1.0, -3.0]) == 0.0
    assert digests.relative_difference([0.0, 2.0], [1e-300, 1.0]) == 1.0
    assert digests.relative_difference([], []) == 0.0
    assert digests.relative_difference([float("inf")], [float("inf")]) == 0.0
