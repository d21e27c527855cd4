import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from floorwatch.cfar import (CfarConfig, DetectionSet, GroundTruthBox, MapAxes, _ring_geometry,
                             ca_cfar_2d, cfar_mask, hit_test, in_boxes, suppress, threshold,
                             training_stats)


def brute_force_mask(power, cfg):
    """Independent per-cell double loop with explicit ring enumeration."""
    n_r, n_c = power.shape
    gr, gc = cfg.guard_cells
    tr, tc = cfg.training_cells
    er, ec = gr + tr, gc + tc
    mask = np.zeros_like(power, dtype=bool)
    for r in range(n_r):
        for c in range(n_c):
            cells = []
            for i in range(r - er, r + er + 1):
                for j in range(c - ec, c + ec + 1):
                    if not (0 <= i < n_r and 0 <= j < n_c):
                        continue
                    if abs(i - r) <= gr and abs(j - c) <= gc:
                        continue
                    cells.append(power[i, j])
            if cfg.edge_policy == "skip_cell":
                full = (r - er >= 0 and r + er < n_r and c - ec >= 0 and c + ec < n_c)
                if not full:
                    continue
            if not cells:
                continue
            threshold = cfg.k * np.mean(cells)
            if power[r, c] > threshold:
                mask[r, c] = True
    return mask


def test_uniform_map_no_detections():
    cfg = CfarConfig(k=1.4)
    dets = ca_cfar_2d(np.full((20, 40), 3.7), cfg)
    assert len(dets) == 0


def test_single_spike_detected_once():
    cfg = CfarConfig(k=1.4)
    power = np.zeros((20, 40))
    power[7, 13] = 5.0
    dets = ca_cfar_2d(power, cfg)
    assert len(dets) == 1
    d = dets.detections[0]
    assert (d.range_bin, d.azimuth_bin) == (7, 13)
    assert d.threshold == 0.0 and d.power == 5.0


@pytest.mark.parametrize("edge_policy", ["shrink_window", "skip_cell"])
def test_random_maps_match_brute_force(edge_policy):
    rng = np.random.default_rng(42)
    for _ in range(10):
        gr, gc = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        tr, tc = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = float(rng.uniform(0.5, 3.0))
        cfg = CfarConfig(guard_cells=(gr, gc), training_cells=(tr, tc), k=k,
                         edge_policy=edge_policy)
        power = rng.exponential(1.0, size=(12, 17))
        assert np.array_equal(cfar_mask(power, cfg), brute_force_mask(power, cfg))


@pytest.mark.parametrize("edge_policy", ["shrink_window", "skip_cell"])
def test_mask_equals_detection_set_mask(edge_policy):
    rng = np.random.default_rng(43)
    for _ in range(20):
        cfg = CfarConfig(guard_cells=tuple(int(g) for g in rng.integers(0, 3, 2)),
                         training_cells=tuple(int(t) for t in rng.integers(1, 4, 2)),
                         k=float(rng.uniform(0.5, 3.0)), edge_policy=edge_policy)
        power = rng.exponential(1.0, size=tuple(int(n) for n in rng.integers(1, 40, 2)))
        assert np.array_equal(cfar_mask(power, cfg), ca_cfar_2d(power, cfg).mask())


@pytest.mark.parametrize("bad", [np.ones(5), np.array([[1.0, np.nan]]), np.array([[1.0, -1.0]])])
def test_mask_keeps_the_map_checks(bad):
    with pytest.raises(ValueError):
        cfar_mask(bad, CfarConfig())


def test_large_map_matches_brute_force():
    rng = np.random.default_rng(1)
    power = rng.exponential(1.0, size=(32, 121))
    cfg = CfarConfig()
    assert np.array_equal(cfar_mask(power, cfg), brute_force_mask(power, cfg))


def test_monotone_in_k():
    rng = np.random.default_rng(2)
    power = rng.exponential(1.0, size=(32, 64))
    m1 = cfar_mask(power, CfarConfig(k=1.2))
    m2 = cfar_mask(power, CfarConfig(k=2.5))
    assert np.all(m2 <= m1)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    power = rng.exponential(1.0, size=(24, 48))
    cfg = CfarConfig(k=1.7)
    ref = cfar_mask(power, cfg)
    for c in (0.25, 4.0, 1024.0):
        assert np.array_equal(cfar_mask(c * power, cfg), ref)


def test_false_alarm_law_small():
    # closed-form CA-CFAR false-alarm probability on unit-mean exponential
    # noise: (1 + k/N)^(-N); interior cells only
    cfg = CfarConfig(guard_cells=(2, 2), training_cells=(4, 4), k=1.8)
    n = cfg.nominal_training_count
    expected = (1.0 + cfg.k / n) ** (-n)
    rng = np.random.default_rng(4)
    power = rng.exponential(1.0, size=(540, 540))
    mask = cfar_mask(power, cfg)
    interior = mask[6:-6, 6:-6]
    got = interior.mean()
    assert got == pytest.approx(expected, rel=0.1)


def test_skip_cell_counts_skipped():
    cfg = CfarConfig(guard_cells=(2, 2), training_cells=(4, 4), edge_policy="skip_cell")
    _, evaluable = training_stats(np.ones((20, 20)), cfg)
    assert (~evaluable).sum() == 20 * 20 - 8 * 8


def test_map_smaller_than_guard_block_all_skipped():
    # the clipped training ring is empty everywhere: no cell is evaluable
    cfg = CfarConfig(guard_cells=(2, 2), training_cells=(4, 4), k=1.4)
    dets = ca_cfar_2d(np.ones((3, 3)), cfg)
    assert len(dets) == 0
    _, evaluable = training_stats(np.ones((3, 3)), cfg)
    assert not evaluable.any()


def test_training_stats_shrink_renormalizes():
    cfg = CfarConfig(guard_cells=(1, 1), training_cells=(1, 1), k=1.0)
    power = np.ones((6, 6))
    mean, evaluable = training_stats(power, cfg)
    assert np.allclose(mean, 1.0)
    assert np.all(evaluable)


def test_cfar_input_validation():
    with pytest.raises(ValueError):
        CfarConfig(training_cells=(0, 1))
    with pytest.raises(ValueError):
        CfarConfig(k=0.0)
    with pytest.raises(ValueError):
        CfarConfig(edge_policy="wrap")
    with pytest.raises(ValueError):
        ca_cfar_2d(np.array([[1.0, -2.0]]), CfarConfig())
    with pytest.raises(ValueError):
        ca_cfar_2d(np.array([[1.0, np.inf]]), CfarConfig())



def test_map_whose_total_overflows_is_refused():
    # every cell is finite and non-negative, but the cumulative sum passes the float64
    # maximum: the training means used to come back NaN and the detector found nothing
    power = np.random.default_rng(1).uniform(0.0, 1e307, (32, 121))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="float64 range"):
        ca_cfar_2d(power, CfarConfig())
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="float64 range"):
        training_stats(power, CfarConfig())
    mean, _ = training_stats(power / 1e3, CfarConfig())
    assert np.isfinite(mean).all()


def test_cached_ring_geometry_is_read_only():
    full, inner, *arrays = _ring_geometry((32, 121), (2, 2), (4, 4), "shrink_window")
    for a in (*full, *inner, *arrays):
        with pytest.raises(ValueError):
            a[0] = 0
    _, evaluable = training_stats(np.ones((32, 121)), CfarConfig())
    evaluable[...] = False  # the caller's own copy
    assert arrays[-1].all()


def test_each_shape_and_config_gets_its_own_ring_geometry():
    rng = np.random.default_rng(4)
    cases = [((32, 121), CfarConfig()), ((32, 121), CfarConfig(edge_policy="skip_cell")),
             ((32, 121), CfarConfig(guard_cells=(1, 3), training_cells=(2, 5))),
             ((32, 121), CfarConfig(guard_cells=[1, 3], training_cells=[2, 5], k=9.0)),
             ((20, 50), CfarConfig()), ((50, 20), CfarConfig(edge_policy="skip_cell"))]
    for _ in range(2):  # the second pass reads every geometry back from the cache
        for shape, cfg in cases:
            power = rng.exponential(1.0, shape)
            mean, evaluable = training_stats(power, cfg)
            want_mean, want_evaluable = two_cumsum_stats(power, cfg)
            assert np.array_equal(mean, want_mean)
            assert np.array_equal(evaluable, want_evaluable)


# --- suppression ---

def det_set(cells, shape=(10, 10)):
    """A DetectionSet of (range bin, azimuth bin, power, threshold) rows, in that order."""
    rows = np.array(cells, dtype=float).reshape(-1, 4)
    return DetectionSet(rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2], rows[:, 3],
                        map_shape=shape)


def test_suppress_isolated_detection_unchanged():
    ds = det_set([(3, 3, 5.0, 1.0)])
    out = suppress(ds)
    assert out.detections == ds.detections


def test_suppress_block_keeps_max():
    cells = [(r, c, float(10 * r + c), 1.0) for r in (4, 5, 6) for c in (4, 5, 6)]
    out = suppress(det_set(cells))
    assert len(out) == 1
    assert (out.detections[0].range_bin, out.detections[0].azimuth_bin) == (6, 6)


def test_suppress_diagonal_is_connected():
    # 8-connectivity merges diagonal neighbors
    out = suppress(det_set([(2, 2, 1.0, 0.1), (3, 3, 2.0, 0.1)]))
    assert len(out) == 1
    assert out.detections[0].power == 2.0


def test_suppress_two_groups():
    out = suppress(det_set([(1, 1, 1.0, 0.1), (8, 8, 2.0, 0.1)]))
    assert len(out) == 2


def test_suppress_empty_set_unchanged():
    empty = det_set([])
    assert suppress(empty) is empty


# --- hit testing ---

def axes_32x121():
    az = np.deg2rad(np.arange(-60.0, 61.0))
    return MapAxes(range_m=np.arange(32) * 0.3, azimuth_rad=az)


def test_hit_at_center():
    axes = axes_32x121()
    box = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10)))
    ds = det_set([(10, 60, 1.0, 0.1)], shape=(32, 121))  # 3.0 m, 0 deg
    assert hit_test(ds, (box,), axes)


def test_empty_detections_miss():
    axes = axes_32x121()
    box = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10)))
    assert not hit_test(det_set([], shape=(32, 121)), (box,), axes)


def test_hit_boundary_inclusive_then_exclusive():
    # box [3.0 +/- 0.45] m covers bins 9..11 (2.7..3.3 m); bin 12 is outside
    axes = axes_32x121()
    box = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10)))
    inside_edge = det_set([(11, 60, 1.0, 0.1)], shape=(32, 121))
    outside = det_set([(12, 60, 1.0, 0.1)], shape=(32, 121))
    assert hit_test(inside_edge, (box,), axes)
    assert not hit_test(outside, (box,), axes)
    exact = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.3, np.deg2rad(10)))
    assert hit_test(det_set([(11, 60, 1.0, 0.1)], shape=(32, 121)), (exact,), axes)


def test_hit_test_multiple_boxes():
    axes = axes_32x121()
    boxes = (GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10))),
             GroundTruthBox(center=(6.0, np.deg2rad(30)), half_extents=(0.45, np.deg2rad(10))))
    ds = det_set([(20, 90, 1.0, 0.1)], shape=(32, 121))  # 6.0 m, +30 deg
    assert hit_test(ds, boxes, axes)


# --- property: training statistics equal the two-cumsum formula they replaced ---

def two_cumsum_stats(power, cfg):
    """One zero-padded cumsum and one broadcast box sum per window, as before sharing it."""
    n_r, n_c = power.shape
    rows, cols = np.arange(n_r)[:, None], np.arange(n_c)[None, :]

    def window(half_r, half_c):
        cum = np.zeros((n_r + 1, n_c + 1))
        cum[1:, 1:] = power.cumsum(axis=0).cumsum(axis=1)
        r0, r1 = np.clip(rows - half_r, 0, n_r - 1), np.clip(rows + half_r, 0, n_r - 1)
        c0, c1 = np.clip(cols - half_c, 0, n_c - 1), np.clip(cols + half_c, 0, n_c - 1)
        sums = cum[r1 + 1, c1 + 1] - cum[r0, c1 + 1] - cum[r1 + 1, c0] + cum[r0, c0]
        return sums, (r1 - r0 + 1) * (c1 - c0 + 1)

    (gr, gc), (tr, tc) = cfg.guard_cells, cfg.training_cells
    full_sum, full_cnt = window(gr + tr, gc + tc)
    guard_sum, guard_cnt = window(gr, gc)
    ring_cnt = full_cnt - guard_cnt
    mean = np.zeros_like(power)
    np.divide(full_sum - guard_sum, ring_cnt, out=mean, where=ring_cnt > 0)
    if cfg.edge_policy == "skip_cell":
        er, ec = gr + tr, gc + tc
        evaluable = ((rows >= er) & (rows + er < n_r) & (cols >= ec) & (cols + ec < n_c))
    else:
        evaluable = ring_cnt >= 1
    return mean, evaluable


@st.composite
def maps_and_configs(draw):
    # windows reach 17 cells per side, so many maps are smaller than the window
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    power = rng.exponential(10.0 ** draw(st.floats(-8, 8)), size=shape)
    if draw(st.booleans()):
        power = np.asfortranarray(power)
    cfg = CfarConfig(guard_cells=(draw(st.integers(0, 3)), draw(st.integers(0, 3))),
                     training_cells=(draw(st.integers(1, 5)), draw(st.integers(1, 5))),
                     edge_policy=draw(st.sampled_from(["shrink_window", "skip_cell"])))
    return power, cfg


@settings(max_examples=300, deadline=None)
@given(maps_and_configs())
def test_training_stats_equal_the_two_cumsum_formula(case):
    power, cfg = case
    mean, evaluable = training_stats(power, cfg)
    want_mean, want_evaluable = two_cumsum_stats(power, cfg)
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(evaluable, want_evaluable)


# --- property: the array rules equal the per-detection loops they replaced ---

def dict_loop_suppress(dets):
    """Strongest of each 8-connected group by strict >, so the first among equals wins."""
    labels, _ = ndimage.label(dets.mask(), structure=np.ones((3, 3), dtype=int))
    best = {}
    for d in dets.detections:
        g = labels[d.range_bin, d.azimuth_bin]
        if g not in best or d.power > best[g].power:
            best[g] = d
    return tuple(best[g] for g in sorted(best))


def lexsort_suppress(dets):
    """The rule as a stable sort by (group, -power) keeping each group's first cell."""
    if len(dets) == 0:
        return dets
    labels, _ = ndimage.label(dets.mask(), structure=np.ones((3, 3), dtype=int))
    group = labels[dets.range_bins, dets.azimuth_bins]
    order = np.lexsort((-dets.power, group))  # stable: ties keep the set's order
    keep = order[np.r_[True, np.diff(group[order]) != 0]]
    return DetectionSet(dets.range_bins[keep], dets.azimuth_bins[keep], dets.power[keep],
                        dets.threshold[keep], map_shape=dets.map_shape)


def scalar_in_boxes(dets, boxes, axes):
    """The box rule cell by cell and box by box, on Python scalars."""
    out = []
    for d in dets.detections:
        r = float(axes.range_m[d.range_bin])
        th = float(axes.azimuth_rad[d.azimuth_bin])
        out.append(any(abs(r - box.center[0]) <= box.half_extents[0]
                       and abs(th - box.center[1]) <= box.half_extents[1] for box in boxes))
    return out


@st.composite
def detections_and_boxes(draw):
    n_r, n_c = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    crossing = draw(st.lists(st.booleans(), min_size=n_r * n_c, max_size=n_r * n_c))
    cells = [divmod(i, n_c) for i, hit in enumerate(crossing) if hit]
    order = draw(st.permutations(range(len(cells))))
    values = st.sampled_from([0.5, 1.0, 2.0])  # few values, so groups hold ties
    rows = [(*cells[i], draw(values), draw(values)) for i in order]
    # azimuths on the bench grid's 3-degree multiples, -12 deg among them
    axes = MapAxes(range_m=np.arange(n_r) * 0.3,
                   azimuth_rad=np.deg2rad(np.arange(n_c) * 3.0 - 12.0))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):  # edges fall on cell centres
        r, c = draw(st.integers(0, n_r - 1)), draw(st.integers(0, n_c - 1))
        dr, dc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        boxes.append(GroundTruthBox(center=(axes.range_m[r], axes.azimuth_rad[c]),
                                    half_extents=(dr * 0.3, np.deg2rad(dc * 3.0))))
    return det_set(rows, shape=(n_r, n_c)), tuple(boxes), axes


@settings(max_examples=300, deadline=None)
@given(detections_and_boxes())
def test_suppress_and_hit_test_equal_the_per_detection_loops(case):
    dets, boxes, axes = case
    kept = suppress(dets)
    assert kept.detections == dict_loop_suppress(dets)  # cells, powers, thresholds, order
    for ds in (dets, kept):
        want = scalar_in_boxes(ds, boxes, axes)
        assert in_boxes(ds.range_bins, ds.azimuth_bins, boxes, axes).tolist() == want
        assert hit_test(ds, boxes, axes) is any(want)


@st.composite
def suppression_sets(draw):
    """Detection sets: tie-heavy or continuous powers, isolated cells, empty sets, tall maps.

    A tall map stacks small frames, each followed by an all-zero, never
    evaluable separator row, and thresholds them at once as ``flags_at_k`` does.
    """
    kind = draw(st.sampled_from(["ties", "continuous", "single_cells", "empty", "tall"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tall":
        n_c = draw(st.integers(1, 9))
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 8)) + 1, n_c)
        power = rng.integers(0, 4, shape).astype(float)  # quantised: equal maxima are common
        base = rng.integers(0, 3, shape) * 0.5
        evaluable = rng.random(shape) < 0.8
        power[:, -1], base[:, -1], evaluable[:, -1] = 0.0, 0.0, False
        k = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
        return threshold(power.reshape(-1, n_c), base.reshape(-1, n_c),
                         evaluable.reshape(-1, n_c), k)
    n_r, n_c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if kind == "empty":
        crossing = np.zeros((n_r, n_c), dtype=bool)
    elif kind == "single_cells":  # every other row and column: no two cells touch
        crossing = np.zeros((n_r, n_c), dtype=bool)
        crossing[::2, ::2] = rng.random(crossing[::2, ::2].shape) < 0.7
    else:
        crossing = rng.random((n_r, n_c)) < draw(st.floats(0.1, 1.0))
    rs, cs = np.nonzero(crossing)
    if kind == "continuous":
        power = rng.exponential(1.0, rs.size)
    else:
        power = rng.integers(1, 4, rs.size).astype(float)
    rows = np.column_stack([rs, cs, power, rng.random(rs.size)])
    if draw(st.booleans()):  # thresholding gives raster order; suppression takes any order
        rows = rows[rng.permutation(rs.size)]
    return det_set(rows, shape=(n_r, n_c))


@settings(max_examples=400, deadline=None)
@given(suppression_sets())
def test_suppress_equals_the_lexsort_rule_and_the_dict_loop(dets):
    kept = suppress(dets)
    want = lexsort_suppress(dets)
    for name in ("range_bins", "azimuth_bins", "power", "threshold"):
        assert np.array_equal(getattr(kept, name), getattr(want, name))
    assert kept.map_shape == dets.map_shape
    assert kept.detections == dict_loop_suppress(dets)


def test_box_validation():
    with pytest.raises(ValueError):
        GroundTruthBox(center=(1.0, 0.0), half_extents=(0.0, 0.1))
