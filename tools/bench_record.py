"""Run the benchmark over checkouts and seeds and record the results in one BENCH file.

    python3 tools/bench_record.py --repo parent=../floorwatch-main --repo change=. \
        --seeds 1 2 3 --trace-seeds 1 --out BENCH_8.json [--workloads stream ...] [--append]

For every seed and workload, runs ``python3 perfbench/run.py`` untraced in
each checkout for the ``run_seconds`` that ``BENCHMARK.json`` sets. Each
round of runs starts with the checkout that has gone first least often on
that workload so far (``--append`` included), so the checkouts alternate
and slow spells of the host fall on both sides alike. At each
``--trace-seeds`` seed it also makes one ``--trace 1`` run per workload and
checkout. Each run executes in its own checkout, with that checkout's
``perfbench/`` and sources, and records the checkout's revision: the commit,
plus ``-dirty-`` and a digest of ``git diff HEAD`` and of every untracked,
non-ignored file (name and bytes) when the checkout differs from it in
``BENCHMARK.json``, ``perfbench/`` or ``src/``, the files a run reads (so a
BENCH file written into the checkout leaves its revision as it was). Next
to each revision it records ``src_lines``, the line total of the checkout's
``src/floorwatch/*.py``: the size the code is judged by.

Each run records its ``wall_s`` and its ``cpu_s``: the user and system CPU
seconds of the run's process tree (``getrusage(RUSAGE_CHILDREN)`` before
and after it), so a run that keeps a second core busy shows a ``cpu_s``
above its ``wall_s``. A run that exits nonzero, prints nothing, or whose
last printed line is not a JSON object is recorded as not ``correct``, with
the reason in ``error``.
Writes ``--out`` after every run: the host (nproc, CPU, Python, numpy and
scipy), every run's printed result, and a summary per workload and
checkout: the median and quartiles of each end-to-end metric, the per-layer
metrics of each traced run (``layers``, by seed) and their median over the
traced runs (``layer_medians``, since one traced run can be a quarter off),
whether every run was ``correct`` and how many operations failed. With
two or more checkouts, the summary also compares each later checkout with
the first one, per end-to-end metric: the ratio and difference of the
medians, the first checkout's interquartile range, and how many same-seed
pairs the later one won, by the direction that ``BENCHMARK.json`` gives the
metric (the i-th run of a seed on one side pairs with the i-th on the
other). ``--append`` keeps the runs already in ``--out`` and adds the new
ones; it refuses a file made on another host, at another run length, or
with a label whose checkout is now at another revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("stream", "stream_dbf", "study")
# what a benchmark run reads from its checkout; BENCH files and docs are not part of it
BENCHMARK_INPUTS = ("BENCHMARK.json", "perfbench", "src")


def host() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def revision(repo: Path) -> str:
    def git(*argv):
        proc = subprocess.run(["git", "-C", str(repo), *argv], capture_output=True)
        if proc.returncode != 0:
            raise SystemExit(f"git {' '.join(argv)} failed in {repo}: {proc.stderr.decode()}")
        return proc.stdout
    commit = git("rev-parse", "--short=12", "HEAD").decode().strip()
    dirty = git("diff", "HEAD", "--binary", "--", *BENCHMARK_INPUTS)
    for name in git("ls-files", "--others", "--exclude-standard", "-z", "--",
                    *BENCHMARK_INPUTS).split(b"\0"):
        if name:  # an untracked file counts by its name and bytes
            data = (repo / os.fsdecode(name)).read_bytes()
            dirty += b"\0untracked\0" + name + b"\0" + hashlib.sha256(data).digest()
    return f"{commit}-dirty-{hashlib.sha256(dirty).hexdigest()[:12]}" if dirty else commit


def src_lines(repo: Path) -> int:
    """Line total of the checkout's ``src/floorwatch/*.py``, as ``cat ... | wc -l`` counts it."""
    return sum(p.read_bytes().count(b"\n") for p in (repo / "src" / "floorwatch").glob("*.py"))


def failed_run(error: str) -> dict:
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": error}


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def bench_run(repo: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started, cpu_before = time.time(), children_cpu_s()
    proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
    cpu_s = children_cpu_s() - cpu_before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        result = failed_run(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    else:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict):
            result = failed_run(f"last stdout line is not a JSON result: {lines[-1][-2000:]}")
        if proc.stderr.strip():
            result["stderr"] = proc.stderr[-2000:]
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": round(time.time() - started, 1), "cpu_s": round(cpu_s, 2), **result}


def quartiles(values: list) -> list:
    """[q1, q3], by the same linear interpolation as perfbench's percentiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def values_by_name(runs: list) -> dict:
    values = {}
    for r in runs:
        for n, m in r["metrics"].items():
            values.setdefault(n, []).append(m["value"])
    return dict(sorted(values.items()))


def summarise(runs: list, labels: list, better: dict) -> dict:
    summary = {}
    for workload in WORKLOADS:
        per_label = {}
        for label in labels:
            mine = [r for r in runs if r["repo"] == label and r["workload"] == workload]
            if not mine:
                continue
            untraced = [r for r in mine if not r["trace"]]
            traced = [r for r in mine if r["trace"]]
            values = values_by_name(untraced)
            per_label[label] = {
                "runs": len(mine),
                "correct": all(r["correct"] for r in mine),
                "failed": sum(r["failed"] for r in mine),
                "seeds": sorted({r["seed"] for r in untraced}),
                "medians": {n: statistics.median(v) for n, v in values.items()},
                "quartiles": {n: quartiles(v) for n, v in values.items()},
                "layers": {f"seed{r['seed']}": {n: m["value"] for n, m in r["metrics"].items()}
                           for r in traced},
                "layer_medians": {n: statistics.median(v)
                                  for n, v in values_by_name(traced).items()},
            }
        if per_label:
            summary[workload] = per_label
            compare_to_first(per_label, runs, workload, labels, better)
    return summary


def compare_to_first(per_label: dict, runs: list, workload: str, labels: list,
                     better: dict) -> None:
    present = [label for label in labels if label in per_label]
    if len(present) < 2:
        return
    base = present[0]

    def by_seed(label):
        found = {}
        for r in runs:
            if r["repo"] == label and r["workload"] == workload and not r["trace"]:
                found.setdefault(r["seed"], []).append(r["metrics"])
        return found

    base_runs = by_seed(base)
    for label in present[1:]:
        other_runs = by_seed(label)
        # the i-th run of a seed on one side pairs with the i-th on the other
        matched = [(b, o) for seed in sorted(set(base_runs) & set(other_runs))
                   for b, o in zip(base_runs[seed], other_runs[seed])]
        comparison = {}
        for name, direction in better.items():
            pairs = [(b[name]["value"], o[name]["value"]) for b, o in matched
                     if name in b and name in o]
            if not pairs:
                continue
            wins = sum((o > b) if direction == "higher" else (o < b) for b, o in pairs)
            b_med = statistics.median(b for b, _ in pairs)
            o_med = statistics.median(o for _, o in pairs)
            q1, q3 = quartiles([b for b, _ in pairs])
            comparison[name] = {"better": direction, "pairs": len(pairs), "wins": wins,
                                "ratio_of_medians": o_med / b_med if b_med else None,
                                "median_difference": o_med - b_med,
                                f"{base}_interquartile_range": q3 - q1}
        per_label[label][f"vs_{base}"] = comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout to run, labelled; give it once per checkout")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=None,
                        help="seeds that also get one traced run per workload "
                             "(default: the first seed)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true",
                        help="keep the runs already recorded in --out")
    args = parser.parse_args()

    repos = {}
    for item in args.repo:
        label, sep, path = item.partition("=")
        if not sep or not label or label in repos:
            parser.error(f"--repo needs a distinct LABEL=PATH, got {item!r}")
        repo = Path(path).resolve()
        if not (repo / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {repo}")
        repos[label] = repo
    trace_seeds = args.seeds[:1] if args.trace_seeds is None else args.trace_seeds
    spec = json.loads((next(iter(repos.values())) / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    revisions = {label: revision(repo) for label, repo in repos.items()}

    record = {"host": host(), "seconds": seconds, "repos": {}, "runs": []}
    if args.append and args.out.exists():
        record = json.loads(args.out.read_text())
        if record["host"] != host():
            parser.error(f"{args.out} was recorded on another host: {record['host']}")
        if record["seconds"] != seconds:
            parser.error(f"{args.out} was recorded at {record['seconds']} s runs, "
                         f"BENCHMARK.json sets {seconds}")
        for label, rev in revisions.items():
            known = record["repos"].get(label, {}).get("revision", rev)
            if known != rev:
                parser.error(f"{args.out} has {label!r} at revision {known}, "
                             f"its checkout is now at {rev}")
    for label, rev in revisions.items():
        record["repos"][label] = {"revision": rev, "src_lines": src_lines(repos[label])}
    labels = list(record["repos"])

    def round_order(workload, trace):
        # fewest rounds led so far goes first; ties keep the --repo order
        led = {label: sum(r["repo"] == label and r["position"] == 0 for r in record["runs"]
                          if r["workload"] == workload and r["trace"] == trace)
               for label in repos}
        return sorted(repos, key=led.get)

    for seed in args.seeds:
        for workload in args.workloads:
            traces = (0, 1) if seed in trace_seeds else (0,)
            for trace in traces:
                for position, label in enumerate(round_order(workload, trace)):
                    run = {"repo": label, "revision": revisions[label], "position": position,
                           **bench_run(repos[label], workload, seed, seconds, trace)}
                    record["runs"].append(run)
                    record["summary"] = summarise(record["runs"], labels, better)
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    print(f"{label} {workload} seed {seed} trace {trace}: "
                          f"correct={run['correct']} failed={run['failed']} "
                          f"({run['wall_s']} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
