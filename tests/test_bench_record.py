"""tools/bench_record.py: the revision label of a checkout, the --append workflow and the summary.

The benchmark runs themselves are stubbed; these tests make small git
checkouts under tmp_path and call the tool's functions in process.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *argv):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench", "-c",
                    "user.email=bench@example.com", *argv], check=True, capture_output=True)


@pytest.fixture
def checkout(tmp_path):
    repo = tmp_path / "change"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "floorwatch").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text("")
    (repo / "src" / "floorwatch" / "__init__.py").write_text("")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "frames_per_s", "better": "higher"}]}))
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "sources")
    return repo


def test_revision_follows_the_sources_a_run_reads(bench_record, checkout):
    clean = bench_record.revision(checkout)
    assert "-dirty-" not in clean
    (checkout / "BENCH_1.json").write_text("{}")
    (checkout / "NOTES.md").write_text("notes\n")
    assert bench_record.revision(checkout) == clean

    newmod = checkout / "src" / "floorwatch" / "newmod.py"
    newmod.write_text("x = 1\n")
    untracked = bench_record.revision(checkout)
    assert untracked.startswith(clean + "-dirty-")
    newmod.write_text("x = 2\n")
    assert bench_record.revision(checkout) not in (clean, untracked)
    newmod.unlink()

    _git(checkout, "add", "BENCH_1.json")
    _git(checkout, "commit", "-q", "-m", "results")
    committed = bench_record.revision(checkout)
    (checkout / "BENCH_1.json").write_text('{"runs": []}')
    assert bench_record.revision(checkout) == committed
    (checkout / "perfbench" / "run.py").write_text("# edited\n")
    assert bench_record.revision(checkout).startswith(committed + "-dirty-")


def _stub_run(repo, workload, seed, seconds, trace):
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": 0.0,
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"frames_per_s": {"value": 10.0 + seed}}}


def test_append_keeps_working_with_out_inside_the_checkout(bench_record, checkout,
                                                           monkeypatch):
    monkeypatch.setattr(bench_record, "bench_run", _stub_run)
    out = checkout / "BENCH_1.json"
    argv = ["bench_record.py", "--repo", f"change={checkout}", "--workloads", "stream",
            "--trace-seeds", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv + ["--seeds", "1"])
    assert bench_record.main() == 0
    monkeypatch.setattr(sys, "argv", argv + ["--seeds", "2", "--append"])
    assert bench_record.main() == 0
    record = json.loads(out.read_text())
    assert [r["seed"] for r in record["runs"]] == [1, 2]
    assert {r["revision"] for r in record["runs"]} == {bench_record.revision(checkout)}

    (checkout / "src" / "floorwatch" / "newmod.py").write_text("x = 1\n")
    monkeypatch.setattr(sys, "argv", argv + ["--seeds", "3", "--append"])
    with pytest.raises(SystemExit) as excinfo:
        bench_record.main()
    assert excinfo.value.code == 2
    assert len(json.loads(out.read_text())["runs"]) == 2


def test_each_checkout_records_its_source_line_total(bench_record, checkout, monkeypatch):
    package = checkout / "src" / "floorwatch"
    (package / "mod.py").write_text("a = 1\nb = 2\n")
    (package / "tail.py").write_text("c = 3")  # wc -l counts newlines: no last one, 0 lines
    (package / "data").mkdir()
    (package / "data" / "nested.py").write_text("not counted\n")
    (package / "notes.txt").write_text("not counted\n")
    monkeypatch.setattr(bench_record, "bench_run", _stub_run)
    out = checkout / "BENCH_1.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--repo", f"change={checkout}",
                                      "--workloads", "stream", "--seeds", "1", "--out", str(out)])
    assert bench_record.main() == 0
    repo = json.loads(out.read_text())["repos"]["change"]
    assert repo == {"revision": bench_record.revision(checkout), "src_lines": 2}


def test_a_run_whose_last_line_is_not_json_is_recorded_as_failed(bench_record, tmp_path,
                                                                 monkeypatch):
    # at the parent json.loads raised and stopped the whole recording
    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout='{"correct": true}\nTraceback\n',
                                           stderr="warning\n")
    monkeypatch.setattr(bench_record.subprocess, "run", run)
    result = bench_record.bench_run(tmp_path, "stream", 1, 1.0, 0)
    assert result["correct"] is False and result["failed"] == 0 and result["metrics"] == {}
    assert result["error"] == "last stdout line is not a JSON result: Traceback"
    assert result["stderr"] == "warning\n"


def test_per_layer_metrics_get_a_median_over_the_traced_seeds(bench_record):
    def run(repo, seed, trace, metrics):
        return {"repo": repo, "workload": "stream", "seed": seed, "trace": trace,
                "correct": True, "failed": 0,
                "metrics": {n: {"value": v} for n, v in metrics.items()}}
    runs = [run("change", 1, 0, {"frames_per_s": 10.0}),
            run("change", 1, 1, {"dbf.beam_ms": 0.9, "mti.step_ms": 0.2}),
            run("change", 2, 1, {"dbf.beam_ms": 0.3, "mti.step_ms": 0.1}),
            run("change", 3, 1, {"dbf.beam_ms": 0.5}),
            run("parent", 1, 1, {"dbf.beam_ms": 2.0})]
    summary = bench_record.summarise(runs, ["parent", "change"], {"frames_per_s": "higher"})
    change = summary["stream"]["change"]
    assert change["layers"]["seed2"] == {"dbf.beam_ms": 0.3, "mti.step_ms": 0.1}
    assert change["layer_medians"] == pytest.approx({"dbf.beam_ms": 0.5, "mti.step_ms": 0.15})
    assert change["medians"] == {"frames_per_s": 10.0}
    assert summary["stream"]["parent"]["layer_medians"] == {"dbf.beam_ms": 2.0}


def test_each_run_records_the_cpu_seconds_of_its_process_tree(bench_record, tmp_path):
    # a child that spins 0.3 CPU-seconds on one core, then prints a result
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, time\n"
        "t = time.process_time()\n"
        "while time.process_time() - t < 0.3:\n"
        "    pass\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    for _ in range(2):  # the second run counts its own CPU time, not the total so far
        result = bench_record.bench_run(tmp_path, "stream", 1, 1.0, 0)
        assert result["correct"] is True
        assert 0.3 <= result["cpu_s"] < 0.6
        assert result["cpu_s"] <= result["wall_s"] + 0.1
