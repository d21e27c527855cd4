"""The process that does the program's work for one benchmark run.

    python3 perfbench/worker.py --inputs DIR/inputs.json --out RESULT.json \
        [--seconds 20] [--trace 0|1] [--setup-only]

Set-up time runs from just before ``import floorwatch`` to the point where
the first unit of work is requested: on the streams it includes
``read_recording`` and building the manifest. With --setup-only the worker
stops there; the benchmark starts several such processes to take a median.

The timed phase repeats whole rounds until --seconds have passed: a round
is one replay of the recording on the streams, and one simulate -> tune ->
evaluate -> report pass on the study. Untraced runs time the work against
``speed.SpeedProbe``. With --trace 1 there is no probe; every second round
runs with the layers wrapped by ``tracing.Tracer``, and the others give the
untraced reference for the overhead.

Only the standard library is imported at module level, so that the timed
``import floorwatch`` includes numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import resource
import time
from pathlib import Path

import tracing

WARMUP_FRAMES = 3
# Inside the study's CLI commands the probe runs at most this often.
STUDY_PROBE_PERIOD_S = 0.02


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing(probe, start_ns: int, end_ns: int) -> dict:
    timed = {"seconds": (end_ns - start_ns) / 1e9}
    if probe is not None:
        timed["ref_seconds"] = probe.reference_ms(start_ns, end_ns) / 1e3
    return timed


def latencies(probe, stamps) -> dict:
    """Raw and, with a probe, reference-speed latencies of (start, end) ns pairs."""
    out = {"latency_ms": [(b - a) / 1e6 for a, b in stamps]}
    if probe is not None:
        out["latency_ref_ms"] = [probe.reference_ms(a, b) for a, b in stamps]
    return out


# --------------------------------------------------------------------------
# streams

def stream_setup(inputs, tracer=None):
    start = time.perf_counter()
    from floorwatch import pipeline, recordings
    if tracer is not None:
        tracer.install()
    rec = recordings.read_recording(inputs["recording"])
    manifest = recordings.manifest_from_dict(recordings.load_json(inputs["manifest"]))
    axes = pipeline.build_axes(rec.config, pipeline.build_grid(manifest))
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
    return setup_s, rec, manifest, axes


def replay(rec, manifest, axes, probe=None, keep=()):
    """One closed-loop pass, one frame in flight.

    A frame's latency runs from requesting the next ``process_recording``
    output to having its hit flag; the probe, if any, runs after each
    frame. Returns ((start, end) ns per frame, hit flags, kept outputs).
    """
    from floorwatch import cfar, pipeline
    stamps, flags, kept = [], [], {}
    frames = pipeline.process_recording(rec, manifest)
    while True:
        t0 = time.perf_counter_ns()
        out = next(frames, None)
        if out is None:
            break
        flag = cfar.hit_test(out.detections, rec.truth, axes)
        stamps.append((t0, time.perf_counter_ns()))
        if probe is not None:
            probe.run()
        flags.append(flag)
        if out.frame_index in keep:
            kept[out.frame_index] = out
    return stamps, flags, kept


def save_outputs(path, kept, flags):
    import numpy as np
    arrays = {}
    for i, out in kept.items():
        arrays[f"power_{i}"] = out.power
        arrays[f"base_{i}"] = out.threshold_base
        arrays[f"evaluable_{i}"] = out.evaluable
        arrays[f"detections_{i}"] = np.array(
            [(d.range_bin, d.azimuth_bin, d.power, d.threshold)
             for d in out.detections.detections], dtype=float).reshape(-1, 4)
        arrays[f"flag_{i}"] = np.array(flags[i])
    np.savez(path, **arrays)


def make_probe(period_s):
    """The speed probe of an untraced run, made after set-up so that its
    imports do not shorten the timed ``import floorwatch``."""
    if period_s is None:
        return None
    import speed
    return speed.SpeedProbe(period_s)


def run_stream(inputs, seconds, tracer, probe_period, out_dir: Path) -> dict:
    setup_s, rec, manifest, axes = stream_setup(inputs, tracer)
    probe = make_probe(probe_period)
    from floorwatch import cfar, pipeline
    for out in itertools.islice(pipeline.process_recording(rec, manifest), WARMUP_FRAMES):
        cfar.hit_test(out.detections, rec.truth, axes)

    result = {"setup_s": setup_s, "rounds": [], "flags": [],
              "attempted": 0, "failed": 0, "errors": []}
    untraced_stamps = []
    start = time.perf_counter()
    for i in itertools.count():
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        pass_start = time.perf_counter_ns()
        try:
            stamps, flags, kept = replay(rec, manifest, axes, probe,
                                         keep=set(inputs["checked_frames"]) if i == 0 else ())
        except Exception as exc:  # a failed pass counts its frames as failed
            result["errors"].append(repr(exc))
            result["failed"] += rec.n_frames
            stamps = None
        finally:
            if traced:
                tracer.remove()
        pass_end = time.perf_counter_ns()
        result["attempted"] += rec.n_frames
        if stamps is not None:
            result["rounds"].append(dict(timing(probe, pass_start, pass_end), traced=traced))
            if not traced:
                untraced_stamps.extend(stamps)
            result["flags"].append("".join("1" if f else "0" for f in flags))
            if i == 0:
                save_outputs(out_dir / "outputs.npz", kept, flags)
        if time.perf_counter() - start >= seconds and (tracer is None or i >= 1):
            break
    result["peak_rss_mb"] = peak_rss_mb()
    result.update(latencies(probe, untraced_stamps))
    return result


# --------------------------------------------------------------------------
# study

class StudyHooks:
    """Probe hooks inside the CLI commands, and per-frame stamps in ``evaluate``.

    The probe runs, at most every STUDY_PROBE_PERIOD_S, after calls the
    program makes once per frame (or per frame and k): ``process_frame``,
    ``hit_test`` and ``synthesize_frame``. While ``stamping`` is on, each
    ``hit_test`` return is stamped: in ``evaluate`` the program asks for the
    next ``process_recording`` output and then its hit flag, frame after
    frame, so the time between two hit flags of one recording is that
    frame's latency. The first frame of each recording has no predecessor
    and is not counted.
    """

    def __init__(self, probe, frames_per_recording: int):
        self.probe = probe
        self.frames_per_recording = frames_per_recording
        self.stamps = []
        self.stamping = False
        self._calls = 0
        self._last = 0

    def _after_hit_test(self):
        if self.stamping:
            now = time.perf_counter_ns()
            if self._calls % self.frames_per_recording:
                self.stamps.append((self._last, now))
            self._last = now
            self._calls += 1
        if self.probe is not None:
            self.probe.maybe()

    @contextlib.contextmanager
    def installed(self):
        from floorwatch import cfar, pipeline, sim
        targets = [(cfar, "hit_test", self._after_hit_test)]
        if self.probe is not None:
            targets += [(pipeline, "process_frame", self.probe.maybe),
                        (sim, "synthesize_frame", self.probe.maybe)]
        originals = []
        for module, attr, after in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, _followed_by(original, after))
        try:
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def _followed_by(fn, after):
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        after()
        return result
    return hooked


def study_setup():
    start = time.perf_counter()
    from floorwatch import cli
    return time.perf_counter() - start, cli


def merge_tables(paths, out_path):
    """Concatenate evaluate's table.csv files under one header for ``report``."""
    rows = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows.extend(reader)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def study_round(cli, inputs, round_dir: Path, hooks: StudyHooks, result: dict):
    """simulate every scene, tune each method over its bench k grid under the
    FPR cap, evaluate each method at its tuned k, then report on both tables."""

    def run(argv):
        result["attempted"] += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            result["failed"] += 1
            result["errors"].append(f"{argv[0]} exited {code}")

    round_dir.mkdir(parents=True)
    recordings = [round_dir / f"rec{i}.rec" for i in range(len(inputs["scenes"]))]
    trials = round_dir / "trials.json"
    trials.write_text(json.dumps([{"recording": str(r)} for r in recordings]))
    start = time.perf_counter_ns()
    for scene, rec in zip(inputs["scenes"], recordings):
        run(["simulate", "--scene", scene, "--out", rec])
    for method in ("dbf", "capon"):
        grid = ",".join(repr(k) for k in inputs["k_grids"][method])
        run(["tune", "--recordings", *recordings, "--manifest", inputs["manifests"][method],
             "--k-grid", grid, "--fpr-cap", repr(inputs["fpr_cap"]),
             "--out", round_dir / f"tune_{method}"])
    for method in ("dbf", "capon"):
        point = json.loads((round_dir / f"tune_{method}" / "operating_point.json").read_text())
        hooks.stamping = method == "capon"
        run(["evaluate", "--trials", trials, "--manifest", inputs["manifests"][method],
             "--k", repr(point["k"]), "--out", round_dir / f"eval_{method}"])
        hooks.stamping = False
    merge_tables([round_dir / f"eval_{m}" / "table.csv" for m in ("dbf", "capon")],
                 round_dir / "table.csv")
    run(["report", "--table", round_dir / "table.csv", "--out", round_dir / "report"])
    end = time.perf_counter_ns()
    for rec in recordings:
        rec.unlink()
    return start, end


def run_study(inputs, seconds, tracer, probe_period, out_dir: Path) -> dict:
    setup_s, cli = study_setup()
    probe = make_probe(probe_period)
    hooks = StudyHooks(probe, inputs["frames_per_recording"])
    result = {"setup_s": setup_s, "rounds": [], "attempted": 0, "failed": 0, "errors": []}
    spans = []
    start = time.perf_counter()
    with hooks.installed():
        for i in itertools.count():
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install()
            try:
                spans.append((study_round(cli, inputs, out_dir / f"round{i}", hooks, result),
                              traced))
            finally:
                if traced:
                    tracer.remove()
            if time.perf_counter() - start >= seconds and (tracer is None or i >= 1):
                break
    result["peak_rss_mb"] = peak_rss_mb()
    result["rounds"] = [dict(timing(probe, *span), traced=traced) for span, traced in spans]
    result.update(latencies(probe, hooks.stamps))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    inputs = json.loads(Path(args.inputs).read_text())
    out_dir = Path(args.out).parent
    study = inputs["workload"] == "study"
    if args.setup_only:
        setup_s = study_setup()[0] if study else stream_setup(inputs)[0]
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return
    tracer = tracing.Tracer() if args.trace else None
    probe_period = None if args.trace else STUDY_PROBE_PERIOD_S if study else 0.0
    result = (run_study if study else run_stream)(inputs, args.seconds, tracer, probe_period,
                                                  out_dir)
    if tracer is not None:
        tracer.write(out_dir / "trace.json")
        rounds = result["rounds"]
        result["layers"] = tracing.layer_metrics(
            tracer, [r["seconds"] for r in rounds if r["traced"]],
            [r["seconds"] for r in rounds if not r["traced"]])
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
