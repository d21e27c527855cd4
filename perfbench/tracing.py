"""In-memory spans and counts around the calls into floorwatch's layers.

The tracer replaces a layer's public function, in the namespace its caller
looks it up from, by a wrapper that records a span (name, start, end,
parent) and, where asked, counts taken from the call. ``remove`` puts the
original functions back. Only the standard library is imported here, so
that loading this module costs nothing in the untraced set-up time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("floorwatch.recordings", "read_recording", "recordings.read_recording"),
    ("floorwatch.cli", "read_recording", "recordings.read_recording"),
    ("floorwatch.cli", "write_recording", "recordings.write_recording"),
    ("floorwatch.sim", "synthesize_frame", "sim.synthesize_frame"),
    ("floorwatch.pipeline", "process_frame", "frontend.process_frame"),
    ("floorwatch.pipeline", "mti_step", "mti.mti_step"),
    ("floorwatch.dbf", "dbf_power", "dbf.dbf_power"),
    ("floorwatch.dbf", "dbf_range_azimuth", "dbf.dbf_range_azimuth"),
    ("floorwatch.capon", "capon_range_azimuth", "capon.capon_range_azimuth"),
    ("floorwatch.capon", "spatial_covariance", "capon.spatial_covariance"),
    ("floorwatch.cfar", "training_stats", "cfar.training_stats"),
    ("floorwatch.pipeline", "detections_from_maps", "pipeline.detections_from_maps"),
    ("floorwatch.cfar", "suppress", "cfar.suppress"),
    ("floorwatch.cfar", "hit_test", "cfar.hit_test"),
    ("floorwatch.cli", "cache_recording", "pipeline.cache_recording"),
    ("floorwatch.cli", "score_recording", "pipeline.score_recording"),
    ("floorwatch.cli", "flags_at_k", "pipeline.flags_at_k"),
    ("floorwatch.scoring", "sweep_k", "scoring.sweep_k"),
    ("floorwatch.cli", "cmd_simulate", "cli.simulate"),
    ("floorwatch.cli", "cmd_tune", "cli.tune"),
    ("floorwatch.cli", "cmd_evaluate", "cli.evaluate"),
)


def _count_frames(key):
    def count(counts, args, result):
        counts[key] += result.n_frames
    return count


def _count_written(counts, args, result):
    counts["recordings.write_recording.frames"] += args[1].n_frames


def _count_cached(counts, args, result):
    counts["pipeline.cache_recording.frames"] += result.powers.shape[0]


def _count_scored(counts, args, result):
    counts["pipeline.score_recording.frames"] += result.flags.size


def _count_flagged(counts, args, result):
    counts["pipeline.flags_at_k.frames"] += result.size


def _count_clamped(counts, args, result):
    counts["capon.clamped_cells"] += result.clamp_count


def _count_suppressed(counts, args, result):
    counts["cfar.raw_detections"] += len(args[0])
    counts["cfar.kept_detections"] += len(result)


ON_RESULT = {
    "recordings.read_recording": _count_frames("recordings.read_recording.frames"),
    "recordings.write_recording": _count_written,
    "pipeline.cache_recording": _count_cached,
    "pipeline.score_recording": _count_scored,
    "pipeline.flags_at_k": _count_flagged,
    "capon.capon_range_azimuth": _count_clamped,
    "cfar.suppress": _count_suppressed,
}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent span index or -1)
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))

    def remove(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(counts, args, result)
            return result
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer, traced_round_s, untraced_round_s) -> dict:
    """Per-layer metrics from the spans and counts of the traced rounds.

    A layer that did no work on a workload reads 0. The ``cli.*_s`` metrics
    are the seconds each CLI command takes per study round.
    ``trace.overhead_pct`` compares the median traced round with the median
    untraced one.
    """
    total_ms, calls = Counter(), Counter()
    for name, start, end, _ in tracer.spans:
        total_ms[name] += (end - start) / 1e6
        calls[name] += 1
    counts = tracer.counts

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def mean_ms(name):
        return per(total_ms[name], calls[name])

    frames_per_map = calls["pipeline.detections_from_maps"]
    rounds = len(traced_round_s)
    metrics = {
        "recordings.read_ms_per_frame": (per(total_ms["recordings.read_recording"],
                                             counts["recordings.read_recording.frames"]), "ms"),
        "recordings.write_ms_per_frame": (per(total_ms["recordings.write_recording"],
                                              counts["recordings.write_recording.frames"]), "ms"),
        "sim.synthesize_ms_per_frame": (mean_ms("sim.synthesize_frame"), "ms"),
        "frontend.process_frame_ms": (mean_ms("frontend.process_frame"), "ms"),
        "mti.step_ms": (mean_ms("mti.mti_step"), "ms"),
        "capon.range_azimuth_ms": (mean_ms("capon.capon_range_azimuth"), "ms"),
        "capon.covariance_ms": (per(total_ms["capon.spatial_covariance"],
                                    calls["capon.capon_range_azimuth"]), "ms"),
        "dbf.beam_ms": (per(total_ms["dbf.dbf_power"] + total_ms["dbf.dbf_range_azimuth"],
                            calls["dbf.dbf_range_azimuth"]), "ms"),
        "cfar.training_stats_ms": (mean_ms("cfar.training_stats"), "ms"),
        "cfar.threshold_suppress_ms": (mean_ms("pipeline.detections_from_maps"), "ms"),
        "cfar.hit_test_ms": (mean_ms("cfar.hit_test"), "ms"),
        "pipeline.flags_at_k_ms_per_frame": (per(total_ms["pipeline.flags_at_k"],
                                                 counts["pipeline.flags_at_k.frames"]), "ms"),
        "pipeline.cache_ms_per_frame": (per(total_ms["pipeline.cache_recording"],
                                            counts["pipeline.cache_recording.frames"]), "ms"),
        "pipeline.score_ms_per_frame": (per(total_ms["pipeline.score_recording"],
                                            counts["pipeline.score_recording.frames"]), "ms"),
        "scoring.sweep_k_ms": (mean_ms("scoring.sweep_k"), "ms"),
        "cfar.raw_detections_per_frame": (per(counts["cfar.raw_detections"], frames_per_map),
                                          "count/frame"),
        "cfar.kept_detections_per_frame": (per(counts["cfar.kept_detections"], frames_per_map),
                                           "count/frame"),
        "capon.clamped_cells": (counts["capon.clamped_cells"], "count"),
        "cli.simulate_s": (per(total_ms["cli.simulate"], 1e3 * rounds), "s"),
        "cli.tune_s": (per(total_ms["cli.tune"], 1e3 * rounds), "s"),
        "cli.evaluate_s": (per(total_ms["cli.evaluate"], 1e3 * rounds), "s"),
        "trace.overhead_pct": (100.0 * (statistics.median(traced_round_s)
                                        / statistics.median(untraced_round_s) - 1.0), "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
