import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch.scoring import (ConfusionCounts, TrialRecord, counts_from_flags,
                                coverage_curve, frame_fpr, frame_positive_rate,
                                frame_tpr, load_reference_trials, macro_f1,
                                paired_delta, sweep_k, temporal_alarm, tune_k,
                                viewpoint_stats)


def trial(flags, **kw):
    defaults = dict(subject_id="S1", view_tag="tv", location_tag="P1", method_tag="dbf")
    defaults.update(kw)
    return TrialRecord(flags=np.asarray(flags, dtype=bool), **defaults)


def test_frame_positive_rate():
    assert frame_positive_rate(trial([1] * 8 + [0] * 2)) == pytest.approx(0.8)
    assert frame_positive_rate(trial([1] * 10)) == 1.0
    with pytest.raises(ValueError):
        frame_positive_rate(trial([]))


def test_frame_fpr():
    assert frame_fpr(ConfusionCounts(fp=0, tn=100)) == 0.0
    assert frame_fpr(ConfusionCounts(fp=1, tn=99)) == pytest.approx(0.01)
    assert frame_fpr(ConfusionCounts(fp=10, tn=90)) == pytest.approx(0.10)
    with pytest.raises(ValueError):
        frame_fpr(ConfusionCounts(tp=5))


def test_macro_f1_symmetric_case():
    assert macro_f1(ConfusionCounts(tp=9, fn=1, fp=1, tn=9)) == pytest.approx(0.9)


def test_macro_f1_perfect():
    assert macro_f1(ConfusionCounts(tp=10, tn=10)) == 1.0


def test_macro_f1_asymmetric_hand_computed():
    # F1_pos = 2/3, F1_neg = 0.8 -> macro 0.7333...
    got = macro_f1(ConfusionCounts(tp=50, fn=50, fp=0, tn=100))
    assert got == pytest.approx(0.73333, abs=1e-4)


def test_macro_f1_zero_support_class():
    # no empty frames at all: the negative class contributes 0
    got = macro_f1(ConfusionCounts(tp=10, fn=0, fp=0, tn=0))
    assert got == pytest.approx(0.5)
    with pytest.raises(ValueError):
        macro_f1(ConfusionCounts())


def test_counts_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1)


# --- sweep ---

def sweep_input(points):
    # points: (k, tpr, fpr) with 100 positive and 100 negative frames
    out = []
    for k, tpr, fpr in points:
        tp = int(round(100 * tpr))
        fp = int(round(100 * fpr))
        out.append((k, ConfusionCounts(tp=tp, fn=100 - tp, fp=fp, tn=100 - fp)))
    return out


def test_sweep_selects_interior_macro_f1_peak():
    counts = sweep_input([
        (1.0, 0.99, 0.30),   # infeasible
        (1.5, 0.95, 0.08),
        (2.0, 0.90, 0.02),   # best macro-F1 among feasible
        (2.5, 0.60, 0.01),
        (3.0, 0.30, 0.00),
    ])
    res = sweep_k(counts, fpr_cap=0.1)
    assert res.feasible
    assert res.selected.k == 2.0
    assert not res.points[0].feasible
    exhaustive = max((p for p in res.points if p.feasible), key=lambda p: p.macro_f1)
    assert exhaustive.k == res.selected.k


def test_sweep_all_infeasible():
    counts = sweep_input([(1.0, 0.99, 0.5), (2.0, 0.95, 0.2)])
    res = sweep_k(counts, fpr_cap=0.1)
    assert not res.feasible
    assert res.selected is None
    assert len(res.points) == 2


def test_sweep_tie_breaks_toward_larger_k():
    counts = sweep_input([(1.0, 0.9, 0.05), (2.0, 0.9, 0.05), (3.0, 0.8, 0.0)])
    res = sweep_k(counts, fpr_cap=0.1)
    assert res.selected.k == 2.0


def test_sweep_monotone_rates_from_nested_detections():
    # detection sets shrink with k, so tpr and fpr are non-increasing
    rng = np.random.default_rng(0)
    scores_pos = rng.exponential(2.0, size=400)
    scores_neg = rng.exponential(1.0, size=400)
    ks = np.linspace(0.5, 6.0, 12)
    counts = []
    for k in ks:
        tp = int((scores_pos > k).sum())
        fp = int((scores_neg > k).sum())
        counts.append((float(k), ConfusionCounts(tp=tp, fn=400 - tp, fp=fp, tn=400 - fp)))
    res = sweep_k(counts, fpr_cap=0.1)
    tprs = [p.tpr for p in res.points]
    fprs = [p.fpr for p in res.points]
    assert all(a >= b for a, b in zip(tprs, tprs[1:]))
    assert all(a >= b for a, b in zip(fprs, fprs[1:]))
    with pytest.raises(ValueError):
        sweep_k([], fpr_cap=0.1)


def test_counts_from_flags_pools_trials():
    counts = counts_from_flags([[1, 1, 0], [0]], [[1, 0, 0, 0]])
    assert counts == ConfusionCounts(tp=2, fp=1, tn=3, fn=2)


def test_tune_k_sweeps_the_flags_function():
    # each trial maps k to its flags; higher k silences the empty trial first
    occupied = [{1.0: [1, 1], 2.0: [1, 1], 3.0: [1, 0]}]
    empty = [{1.0: [1, 1], 2.0: [0, 0], 3.0: [0, 0]}]
    seen = []

    def flags_at_k(trial, k):
        seen.append(k)
        return trial[k]

    result = tune_k(occupied, empty, [3.0, 1.0, 2.0], 0.1, flags_at_k)
    assert seen == [3.0, 3.0, 1.0, 1.0, 2.0, 2.0]
    assert [p.k for p in result.points] == [1.0, 2.0, 3.0]
    assert result.selected.k == 2.0 and result.selected.macro_f1 == 1.0


# --- coverage ---

def test_coverage_at_zero_is_one():
    pts = coverage_curve([0.2, 0.9, 0.5], [0.0])
    assert pts[0].coverage == 1.0


def test_coverage_half():
    pts = coverage_curve([0.5, 1.0], [0.75])
    assert pts[0].coverage == 0.5


def test_coverage_monotone_nonincreasing():
    rng = np.random.default_rng(1)
    rates = rng.uniform(0, 1, 50)
    taus = np.linspace(0, 1, 21)
    cov = [p.coverage for p in coverage_curve(rates, taus)]
    assert all(a >= b for a, b in zip(cov, cov[1:]))
    assert cov[0] == 1.0
    with pytest.raises(ValueError):
        coverage_curve([], taus)


# --- paired deltas ---

def test_paired_delta_identical_pairs():
    s = paired_delta([(0.5, 0.5), (0.9, 0.9)])
    assert np.all(s.deltas == 0)
    assert s.fraction_nonnegative == 1.0
    assert s.mean_dbf == pytest.approx(0.7)
    assert s.mean_capon == pytest.approx(0.7)


def test_paired_delta_sorted_and_means_exact():
    s = paired_delta([(0.2, 0.9), (0.8, 0.5), (0.4, 0.4)])
    assert np.allclose(s.deltas, sorted([0.7, -0.3, 0.0]))
    assert s.mean_dbf == pytest.approx((0.2 + 0.8 + 0.4) / 3)
    assert s.mean_capon == pytest.approx((0.9 + 0.5 + 0.4) / 3)
    assert s.fraction_nonnegative == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        paired_delta([(0.5,)])


# --- bundled reference table ---

def test_reference_table_shape_and_known_cell():
    rows = load_reference_trials()
    assert len(rows) == 70
    cell = next(r for r in rows if (r.view, r.location, r.subject) == ("tv", "P1", "S1"))
    assert cell.dbf == pytest.approx(0.35)
    assert cell.capon == pytest.approx(0.57)


def test_reference_table_aggregates():
    rows = load_reference_trials()
    s = paired_delta([(r.dbf, r.capon) for r in rows])
    assert s.mean_dbf == pytest.approx(0.823, abs=0.02)
    assert s.mean_capon == pytest.approx(0.916, abs=0.02)
    assert s.fraction_nonnegative == pytest.approx(66 / 70)


def test_reference_table_coverage_at_0p9():
    rows = load_reference_trials()
    pts = coverage_curve([r.capon for r in rows], [0.9])
    assert pts[0].coverage == pytest.approx(56 / 70)


def test_reference_table_subject1_tv_median():
    rows = load_reference_trials()
    vals = sorted(r.dbf for r in rows if r.subject == "S1" and r.view == "tv")
    assert vals == [0.27, 0.35, 0.63, 0.97, 0.98]
    stats = viewpoint_stats([("tv", "dbf", v) for v in vals])
    assert stats[("tv", "dbf")].median == pytest.approx(0.63)


# --- viewpoint stats ---

def test_viewpoint_stats_single_trial_group():
    stats = viewpoint_stats([("tv", "dbf", 0.7)])
    s = stats[("tv", "dbf")]
    assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 0.7


def test_viewpoint_stats_accepts_trial_records():
    trials = [trial([1, 1, 0, 0], view_tag="tv"), trial([1, 1, 1, 1], view_tag="tv"),
              trial([0, 0, 0, 1], view_tag="window")]
    stats = viewpoint_stats(trials)
    assert stats[("tv", "dbf")].maximum == 1.0
    assert stats[("window", "dbf")].median == pytest.approx(0.25)
    with pytest.raises(ValueError):
        viewpoint_stats([])


# --- temporal alarm ---

def test_alarm_fires_at_160_of_200():
    stream = [True] * 160 + [False] * 40
    res = temporal_alarm(stream, window_seconds=20.0, fraction=0.8, frame_rate=10.0)
    assert res.evaluable
    assert res.window_frames == 200
    assert len(res.intervals) == 1
    assert res.intervals[0][0] == 199


def test_alarm_strict_boundary():
    base = [True] * 159 + [False] * 41
    res = temporal_alarm(base, 20.0, 0.8, 10.0)
    assert res.intervals == ()
    res = temporal_alarm([True] * 160 + [False] * 40, 20.0, 0.8, 10.0)
    assert res.intervals != ()
    # brute-force sliding count oracle on a ragged stream
    rng = np.random.default_rng(5)
    stream = rng.random(600) < 0.8
    res = temporal_alarm(stream, 20.0, 0.8, 10.0)
    active = np.zeros(600, dtype=bool)
    for i in range(199, 600):
        active[i] = stream[i - 199:i + 1].sum() >= 160
    got = np.zeros(600, dtype=bool)
    for a, b in res.intervals:
        got[a:b + 1] = True
    assert np.array_equal(got, active)


@pytest.mark.parametrize("hits, window_seconds", [(55, 10.0), (110, 20.0)])
def test_alarm_fires_at_exact_fraction(hits, window_seconds):
    # 0.55 * 100 and 0.55 * 200 round just above 55 and 110
    window = int(window_seconds * 10)
    fires = temporal_alarm([True] * hits + [False] * (window - hits), window_seconds, 0.55, 10.0)
    assert fires.intervals == ((window - 1, window - 1),)
    quiet = temporal_alarm([True] * (hits - 1) + [False] * (window - hits + 1),
                           window_seconds, 0.55, 10.0)
    assert quiet.intervals == ()


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 100), m=st.integers(1, 30))
def test_alarm_boundary_at_whole_percent_fractions(p, m):
    window = 100 * m
    need = p * m
    stream = [True] * need + [False] * (window - need)
    res = temporal_alarm(stream, window / 10.0, p / 100, 10.0)
    assert res.window_frames == window
    assert res.intervals == ((window - 1, window - 1),)
    res = temporal_alarm(stream[1:] + [False], window / 10.0, p / 100, 10.0)
    assert res.intervals == ()


def test_alarm_all_false():
    res = temporal_alarm([False] * 300, 20.0, 0.8, 10.0)
    assert res.intervals == ()


def test_alarm_short_stream_reported():
    res = temporal_alarm([True] * 50, 20.0, 0.8, 10.0)
    assert not res.evaluable
    assert res.intervals == ()
    with pytest.raises(ValueError):
        temporal_alarm([True], 0.01, 0.8, 10.0)


def test_alarm_invariant_to_full_window_content():
    # windows fully inside the original stream give identical decisions
    # after prepending quiet frames
    rng = np.random.default_rng(6)
    stream = (rng.random(500) < 0.75).tolist()
    pad = 37
    res0 = temporal_alarm(stream, 20.0, 0.8, 10.0)
    res1 = temporal_alarm([False] * pad + stream, 20.0, 0.8, 10.0)
    active0 = np.zeros(500, dtype=bool)
    for a, b in res0.intervals:
        active0[a:b + 1] = True
    active1 = np.zeros(500 + pad, dtype=bool)
    for a, b in res1.intervals:
        active1[a:b + 1] = True
    # compare frames whose window lies entirely within the original stream
    assert np.array_equal(active0[199:], active1[pad + 199:])


def test_trial_record_validation():
    with pytest.raises(ValueError):
        TrialRecord(subject_id="s", view_tag="tv", location_tag="P1",
                    method_tag="dbf", flags=np.array([True]), label="full")
