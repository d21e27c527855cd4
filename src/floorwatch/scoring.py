"""Frame-level scoring, detector-sensitivity tuning, trial aggregation, and alarms.

A frame of an occupied trial is positive when a post-suppression detection
overlaps the trial's ground-truth box; a frame of an empty trial is a false
positive when a detection lands inside the union of candidate boxes for its
view. Sensitivity k is swept under a false-positive-rate cap and chosen by
Macro-F1; trial-level rates feed the paired-comparison, boxplot, and
coverage summaries, plus the sliding-window deployment alarm rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np


@dataclass(frozen=True)
class TrialRecord:
    """Per-frame outcome flags of one (subject, view, location, method) trial.

    For occupied trials the flags are ROI hits; for empty trials they mark
    frames with an in-ROI detection.
    """

    subject_id: str
    view_tag: str
    location_tag: str
    method_tag: str
    flags: np.ndarray
    label: str = "occupied"

    def __post_init__(self):
        f = np.asarray(self.flags, dtype=bool)
        object.__setattr__(self, "flags", f)
        if self.label not in ("occupied", "empty"):
            raise ValueError("label must be 'occupied' or 'empty'")


def frame_positive_rate(trial: TrialRecord) -> float:
    """Fraction of frames counted as hits."""
    n = trial.flags.size
    if n == 0:
        raise ValueError("trial has no frames")
    return float(trial.flags.sum()) / n


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be >= 0")


def counts_from_flags(occupied_flags, empty_flags) -> ConfusionCounts:
    """Pool per-frame flags of occupied and empty trials into confusion counts."""
    tp = fn = fp = tn = 0
    for flags in occupied_flags:
        hits = int(np.asarray(flags).sum())
        tp += hits
        fn += int(np.asarray(flags).size) - hits
    for flags in empty_flags:
        alarms = int(np.asarray(flags).sum())
        fp += alarms
        tn += int(np.asarray(flags).size) - alarms
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def frame_fpr(counts: ConfusionCounts) -> float:
    """Fraction of negative frames with an in-ROI detection."""
    neg = counts.fp + counts.tn
    if neg == 0:
        raise ValueError("no negative frames")
    return counts.fp / neg


def frame_tpr(counts: ConfusionCounts) -> float:
    pos = counts.tp + counts.fn
    if pos == 0:
        raise ValueError("no positive frames")
    return counts.tp / pos


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(counts: ConfusionCounts) -> float:
    """Unweighted mean of the occupied-class and empty-class F1 scores.

    The empty-class F1 reuses the same confusion counts with the roles
    swapped; a class with zero support contributes 0.
    """
    if counts.tp == counts.fp == counts.tn == counts.fn == 0:
        raise ValueError("all counts are zero")
    f1_pos = _f1(counts.tp, counts.fp, counts.fn)
    f1_neg = _f1(counts.tn, counts.fn, counts.fp)
    return 0.5 * (f1_pos + f1_neg)


@dataclass(frozen=True)
class OperatingPoint:
    k: float
    macro_f1: float
    fpr: float
    tpr: float
    feasible: bool


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    selected: OperatingPoint | None

    @property
    def feasible(self) -> bool:
        return self.selected is not None


def sweep_k(counts_by_k, fpr_cap: float) -> SweepResult:
    """Pick the sensitivity maximizing Macro-F1 among points under the FPR cap.

    ``counts_by_k`` is an iterable of (k, ConfusionCounts). Ties in Macro-F1
    break toward larger k (fewer false alarms). When every point exceeds
    the cap the result is explicitly infeasible (selected is None).
    """
    items = sorted(counts_by_k, key=lambda kc: kc[0])
    if not items:
        raise ValueError("empty k grid")
    points = []
    for k, counts in items:
        fpr = frame_fpr(counts)
        tpr = frame_tpr(counts)
        points.append(OperatingPoint(k=float(k), macro_f1=macro_f1(counts), fpr=fpr,
                                     tpr=tpr, feasible=fpr <= fpr_cap))
    best = None
    for p in points:
        if not p.feasible:
            continue
        if best is None or p.macro_f1 > best.macro_f1 or (
                p.macro_f1 == best.macro_f1 and p.k > best.k):
            best = p
    return SweepResult(points=tuple(points), selected=best)


def tune_k(occupied, empty, k_grid, fpr_cap: float, flags_at_k) -> SweepResult:
    """Pool the trials' flags at every k of the grid and pick k with ``sweep_k``.

    ``flags_at_k(trial, k)`` gives one trial's per-frame flags at sensitivity k.
    """
    counts_by_k = []
    for k in k_grid:
        occ = [flags_at_k(t, k) for t in occupied]
        emp = [flags_at_k(t, k) for t in empty]
        counts_by_k.append((k, counts_from_flags(occ, emp)))
    return sweep_k(counts_by_k, fpr_cap)


@dataclass(frozen=True)
class CoveragePoint:
    tau: float
    coverage: float


def coverage_curve(rates, tau_grid) -> list[CoveragePoint]:
    """Fraction of trials whose rate meets each threshold; non-increasing in tau."""
    r = np.asarray(list(rates), dtype=float)
    if r.size == 0:
        raise ValueError("rates must be non-empty")
    return [CoveragePoint(tau=float(t), coverage=float((r >= t).mean()))
            for t in np.asarray(tau_grid, dtype=float)]


@dataclass(frozen=True)
class PairedDeltaSummary:
    deltas: np.ndarray          # sorted ascending
    fraction_nonnegative: float
    mean_dbf: float
    mean_capon: float

    @property
    def mean_delta(self) -> float:
        return self.mean_capon - self.mean_dbf


def paired_delta(pairs) -> PairedDeltaSummary:
    """Per-trial rate deltas (capon - dbf) sorted by improvement, with means."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be (dbf_rate, capon_rate) tuples")
    deltas = np.sort(arr[:, 1] - arr[:, 0])
    return PairedDeltaSummary(
        deltas=deltas,
        fraction_nonnegative=float((deltas >= 0).mean()),
        mean_dbf=float(arr[:, 0].mean()),
        mean_capon=float(arr[:, 1].mean()),
    )


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def viewpoint_stats(trials) -> dict:
    """Boxplot statistics of trial rates grouped by (view_tag, method_tag).

    ``trials`` is an iterable of (view_tag, method_tag, rate) triples or
    TrialRecord objects (rates computed from their flags).
    """
    groups: dict[tuple, list] = {}
    for t in trials:
        if isinstance(t, TrialRecord):
            key, rate = (t.view_tag, t.method_tag), frame_positive_rate(t)
        else:
            view, method, rate = t
            key = (view, method)
        groups.setdefault(key, []).append(float(rate))
    if not groups:
        raise ValueError("no trials to group")
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        out[key] = FiveNumberSummary(minimum=float(arr.min()), q1=float(q1),
                                     median=float(med), q3=float(q3),
                                     maximum=float(arr.max()))
    return out


@dataclass(frozen=True)
class AlarmResult:
    intervals: tuple          # (start, end) inclusive frame indices of active spans
    window_frames: int
    evaluable: bool           # False when the stream is shorter than the window


def temporal_alarm(hit_stream, window_seconds: float, fraction: float,
                   frame_rate: float) -> AlarmResult:
    """Sliding-window deployment alarm.

    The alarm is active at frame i when the trailing window of
    round(window_seconds * frame_rate) frames contains at least
    fraction * window hits, rounded up to a whole hit count (so 55 hits of
    100 meet a fraction of 0.55 despite 0.55 * 100 rounding above 55);
    contiguous active frames merge into intervals.
    """
    hits = np.asarray(list(hit_stream), dtype=bool)
    window = int(round(window_seconds * frame_rate))
    if window < 1:
        raise ValueError("window must span at least one frame")
    if hits.size < window:
        return AlarmResult(intervals=(), window_frames=window, evaluable=False)
    counts = np.convolve(hits.astype(int), np.ones(window, dtype=int), mode="valid")
    need = math.ceil(fraction * window - 1e-9)
    active = counts >= need
    intervals = []
    start = None
    for i, a in enumerate(active):
        frame = i + window - 1
        if a and start is None:
            start = frame
        elif not a and start is not None:
            intervals.append((start, frame - 1))
            start = None
    if start is not None:
        intervals.append((start, hits.size - 1))
    return AlarmResult(intervals=tuple(intervals), window_frames=window, evaluable=True)


# --- bundled reference benchmark ---

@dataclass(frozen=True)
class ReferenceTrial:
    view: str
    location: str
    subject: str
    dbf: float
    capon: float


def load_reference_trials() -> list[ReferenceTrial]:
    """Bundled 70-trial reference table of paired frame-positive rates.

    7 subjects x 2 views x 5 floor locations, one (dbf, capon) pair per
    trial. Used to regression-test the aggregation utilities; aggregate
    statistics of this table are frozen in the test suite.
    """
    path = resources.files("floorwatch") / "data" / "reference_trials.csv"
    rows = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ReferenceTrial(view=rec["view"], location=rec["location"],
                                       subject=rec["subject"], dbf=float(rec["dbf"]),
                                       capon=float(rec["capon"])))
    if len(rows) != 70:
        raise ValueError(f"reference table must hold 70 trials, found {len(rows)}")
    return rows
