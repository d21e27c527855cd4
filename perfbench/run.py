"""Benchmark one floorwatch workload and print its metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Workloads: ``stream`` (Capon chain), ``stream_dbf`` (DBF chain) and
``study`` (simulate -> tune -> evaluate -> report through the CLI). The
inputs are made from --seed in a process of their own (gen.py); set-up is
timed in SETUP_REPEATS fresh processes (worker.py --setup-only, then the
measuring worker itself); the measuring worker runs the timed phase; then
this process checks the outputs against computations made apart from the
program (checks.py). The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Every child process runs
with BLAS/OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("stream", "stream_dbf", "study")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child(root: Path, script: str, *args, timeout=CHILD_TIMEOUT_S):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}:\n{proc.stderr[-4000:]}")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), without numpy."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(inputs: dict, result: dict, setups: list) -> dict:
    """Times in reference-speed units (speed.py); set-up and memory as measured."""
    rounds = [r for r in result["rounds"] if not r["traced"]]
    if inputs["workload"] == "study":
        frames = inputs["frames_per_recording"] * len(inputs["scenes"])
    else:
        frames = inputs["frames"]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "frames_per_s": (statistics.median(frames / r["ref_seconds"] for r in rounds), "frames/s"),
        "frame_ms_p50": (percentile(result["latency_ref_ms"], 50), "ms"),
        "frame_ms_p90": (percentile(result["latency_ref_ms"], 90), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def check(inputs: dict, result: dict, work: Path) -> list:
    import checks  # numpy and scipy load here, after the worker has ended
    failures = list(result["errors"])
    if inputs["workload"] == "study":
        rounds = sorted(work.glob("round*"), key=lambda p: int(p.name[5:]))
        failures += checks.check_study(rounds[-1], inputs)
        failures += checks.check_study_rounds_agree(rounds)
        return failures
    outputs = checks.load_stream_outputs(work / "outputs.npz", inputs["checked_frames"])
    manifest = json.loads(Path(inputs["manifest"]).read_text())
    failures += checks.check_stream_frames(inputs["recording"], manifest, outputs)
    failures += checks.check_stream_properties(result["flags"], inputs["frames"],
                                               percentile(result["latency_ms"], 90))
    if "layers" in result and result["layers"]["capon.clamped_cells"]["value"]:
        failures.append(f"{result['layers']['capon.clamped_cells']['value']} Capon cells "
                        "clamped on noisy input")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "floorwatch" / "__init__.py").is_file():
        print(f"perfbench: no floorwatch sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-",
                                 dir=root / ".perfbench_work"))
    try:
        child(root, "gen.py", "--workload", args.workload, "--seed", args.seed, "--out", work)
        inputs = json.loads((work / "inputs.json").read_text())
        setups = []
        for i in range(0 if args.trace else SETUP_REPEATS - 1):
            child(root, "worker.py", "--inputs", work / "inputs.json",
                  "--out", work / f"setup{i}.json", "--setup-only")
            setups.append(json.loads((work / f"setup{i}.json").read_text())["setup_s"])
        child(root, "worker.py", "--inputs", work / "inputs.json", "--out", work / "result.json",
              "--seconds", args.seconds, "--trace", args.trace)
        result = json.loads((work / "result.json").read_text())
        setups.append(result["setup_s"])
        failures = check(inputs, result, work)
    finally:
        for rec in work.rglob("*.rec"):
            rec.unlink()
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    metrics = result["layers"] if args.trace else end_to_end(inputs, result, setups)
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
