"""tools/digests.py --compare on two small hand-made digest files, in process."""

import importlib.util
import json
from pathlib import Path

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
    del changed["study/out/report/report.json"]
    changed["study/out/report/extra.txt"] = "dd"
    a, b = write(tmp_path / "a.json", BASE), write(tmp_path / "b.json", changed)
    assert digests.differing_keys(BASE, changed) == {
        "power": ["stream/scene0/capon/file/frame000", "stream/scene0/capon/file/frame001"],
        "threshold_base": ["stream/scene0/capon/file/frame001"],
        "detections": ["stream/scene0/capon/file/frame001"],
        "study": ["study/out/capon/process/rec0.csv"],
        "only in B": ["study/out/report/extra.txt"],
        "only in A": ["study/out/report/report.json"],
    }
    assert digests.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["power: 2 differ", "  stream/scene0/capon/file/frame000",
                       "  stream/scene0/capon/file/frame001"]
    assert "study: 1 differ" in out and "  study/out/capon/process/rec0.csv" in out
    assert not any("evaluable" in line or "cells" in line for line in out)


def test_compare_is_the_exit_status_of_the_command(digests, tmp_path, monkeypatch):
    a = write(tmp_path / "a.json", BASE)
    b = write(tmp_path / "b.json", {**BASE, "study/out/report/report.json": "ee"})
    for other, status in ((a, 0), (b, 1)):
        monkeypatch.setattr("sys.argv", ["digests.py", "--compare", str(a), str(other)])
        with pytest.raises(SystemExit) as exit_info:
            digests.main()
        assert exit_info.value.code == status
