import numpy as np
import pytest

from floorwatch.cfar import (CfarConfig, Detection, DetectionSet, GroundTruthBox,
                             MapAxes, ca_cfar_2d, cfar_mask, hit_test, map_axes,
                             suppress, training_stats)


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


def test_large_map_matches_brute_force():
    rng = np.random.default_rng(1)
    power = rng.exponential(1.0, size=(32, 121))
    cfg = CfarConfig()
    assert np.array_equal(cfar_mask(power, cfg), brute_force_mask(power, cfg))


def test_monotone_in_k():
    rng = np.random.default_rng(2)
    power = rng.exponential(1.0, size=(32, 64))
    base = CfarConfig()
    m1 = cfar_mask(power, base.with_k(1.2))
    m2 = cfar_mask(power, base.with_k(2.5))
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
    dets = ca_cfar_2d(np.ones((20, 20)), cfg)
    assert dets.skipped_cells == 20 * 20 - 8 * 8


def test_map_smaller_than_guard_block_all_skipped():
    # the clipped training ring is empty everywhere: no cell is evaluable
    cfg = CfarConfig(guard_cells=(2, 2), training_cells=(4, 4), k=1.4)
    dets = ca_cfar_2d(np.ones((3, 3)), cfg)
    assert len(dets) == 0
    assert dets.skipped_cells == 9


def test_training_stats_shrink_renormalizes():
    cfg = CfarConfig(guard_cells=(1, 1), training_cells=(1, 1), k=1.0)
    power = np.ones((6, 6))
    mean, evaluable, skipped = training_stats(power, cfg)
    assert skipped == 0
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


# --- suppression ---

def det_set(cells, shape=(10, 10)):
    dets = tuple(Detection(r, c, p, t) for r, c, p, t in cells)
    return DetectionSet(detections=dets, map_shape=shape)


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
    return map_axes(0.3, az, 32)


def test_hit_at_center():
    axes = axes_32x121()
    box = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10)))
    ds = det_set([(10, 60, 1.0, 0.1)], shape=(32, 121))  # 3.0 m, 0 deg
    assert hit_test(ds, box, axes)


def test_empty_detections_miss():
    axes = axes_32x121()
    box = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10)))
    assert not hit_test(det_set([], shape=(32, 121)), box, axes)


def test_hit_boundary_inclusive_then_exclusive():
    # box [3.0 +/- 0.45] m covers bins 9..11 (2.7..3.3 m); bin 12 is outside
    axes = axes_32x121()
    box = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10)))
    inside_edge = det_set([(11, 60, 1.0, 0.1)], shape=(32, 121))
    outside = det_set([(12, 60, 1.0, 0.1)], shape=(32, 121))
    assert hit_test(inside_edge, box, axes)
    assert not hit_test(outside, box, axes)
    exact = GroundTruthBox(center=(3.0, 0.0), half_extents=(0.3, np.deg2rad(10)))
    assert hit_test(det_set([(11, 60, 1.0, 0.1)], shape=(32, 121)), exact, axes)


def test_hit_test_multiple_boxes():
    axes = axes_32x121()
    boxes = (GroundTruthBox(center=(3.0, 0.0), half_extents=(0.45, np.deg2rad(10))),
             GroundTruthBox(center=(6.0, np.deg2rad(30)), half_extents=(0.45, np.deg2rad(10))))
    ds = det_set([(20, 90, 1.0, 0.1)], shape=(32, 121))  # 6.0 m, +30 deg
    assert hit_test(ds, boxes, axes)


def test_box_validation():
    with pytest.raises(ValueError):
        GroundTruthBox(center=(1.0, 0.0), half_extents=(0.0, 0.1))
