"""Two-dimensional cell-averaging CFAR on range-azimuth maps.

The threshold for each cell under test is k times the mean of a rectangular
training ring; a guard ring (plus the cell itself) is excluded so target
energy does not inflate its own threshold. Edge handling is either
'shrink_window' (renormalize by the training cells actually inside the
map, so wall-adjacent bins stay testable) or 'skip_cell' (only evaluate
cells whose full window fits); the skipped cells are ``~evaluable``.
Detection requires strictly exceeding the threshold.

A ``DetectionSet`` holds its detections as parallel arrays (range bin,
azimuth bin, power, threshold), in raster order from thresholding. Suppression
keeps the strongest cell of each 8-connected group and, among equal powers,
the earliest in the set; the kept cells come out in label order. It takes
each group's maximum and then the earliest cell equal to it with two
unbuffered ufunc reductions (``np.maximum.at``, ``np.minimum.at``), so no
sort of the exceedances is needed. ``in_boxes`` is the one box rule: a cell scores
when its bin centre lies in a ``GroundTruthBox``, bounds included; ``hit_test`` is
its ``.any()`` over a set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

EDGE_POLICIES = ("shrink_window", "skip_cell")


@dataclass(frozen=True)
class CfarConfig:
    guard_cells: tuple = (2, 2)      # per side, (range, azimuth)
    training_cells: tuple = (4, 4)   # per side, (range, azimuth)
    k: float = 1.4
    edge_policy: str = "shrink_window"

    def __post_init__(self):
        if len(self.guard_cells) != 2 or min(self.guard_cells) < 0:
            raise ValueError("guard_cells must be two non-negative counts")
        if len(self.training_cells) != 2 or min(self.training_cells) < 1:
            raise ValueError("training_cells must be >= 1 per dimension")
        if not 0.0 < self.k < math.inf:
            raise ValueError("k must be finite and > 0")
        if self.edge_policy not in EDGE_POLICIES:
            raise ValueError(f"edge_policy must be one of {EDGE_POLICIES}")

    @property
    def nominal_training_count(self) -> int:
        gr, gc = self.guard_cells
        tr, tc = self.training_cells
        full = (2 * (gr + tr) + 1) * (2 * (gc + tc) + 1)
        guard = (2 * gr + 1) * (2 * gc + 1)
        return full - guard


class Detection(NamedTuple):
    range_bin: int
    azimuth_bin: int
    power: float
    threshold: float


@dataclass(frozen=True, eq=False)
class DetectionSet:
    range_bins: np.ndarray
    azimuth_bins: np.ndarray
    power: np.ndarray
    threshold: np.ndarray
    map_shape: tuple = (0, 0)

    def __len__(self) -> int:
        return self.range_bins.size

    @property
    def detections(self) -> tuple:
        return tuple(Detection(int(r), int(c), float(p), float(t)) for r, c, p, t in
                     zip(self.range_bins, self.azimuth_bins, self.power, self.threshold))

    def mask(self) -> np.ndarray:
        m = np.zeros(self.map_shape, dtype=bool)
        m[self.range_bins, self.azimuth_bins] = True
        return m


def _window_bounds(n_r: int, n_c: int, half_r: int, half_c: int):
    """Window corners and in-map cell count around every cell.

    The corners are flat indices into the (n_r + 1, n_c + 1) integral image,
    (r1, c1), (r0, c1), (r1, c0) and (r0, c0) of the window clipped to rows
    [r0, r1) and columns [c0, c1), so each corner is one gather."""
    rows, cols = np.arange(n_r), np.arange(n_c)
    # clipped to the map; each bound can leave it on one side only
    r0 = np.maximum(rows - half_r, 0)
    r1 = np.minimum(rows + half_r, n_r - 1) + 1
    c0 = np.maximum(cols - half_c, 0)
    c1 = np.minimum(cols + half_c, n_c - 1) + 1
    corners = tuple(r[:, None] * (n_c + 1) + c[None, :]
                    for r, c in ((r1, c1), (r0, c1), (r1, c0), (r0, c0)))
    return corners, (r1 - r0)[:, None] * (c1 - c0)[None, :]


def _window_sums(cum: np.ndarray, corners) -> np.ndarray:
    """Window sums from ``cum``, the map's cumulative sum over rows, then columns,
    with a leading row and column of zeros."""
    flat = cum.ravel()
    a, b, c, d = corners
    return flat[a] - flat[b] - flat[c] + flat[d]


@functools.lru_cache(maxsize=32)
def _ring_geometry(shape: tuple, guard: tuple, training: tuple, edge_policy: str):
    """Full and guard window corners, ring counts, ``ring_cnt > 0`` and the evaluable mask.

    They depend only on the map shape and the ring, so each is made once and
    shared: every array is read-only.
    """
    (n_r, n_c), (gr, gc), (tr, tc) = shape, guard, training
    full, full_cnt = _window_bounds(n_r, n_c, gr + tr, gc + tc)
    inner, guard_cnt = _window_bounds(n_r, n_c, gr, gc)
    ring_cnt = full_cnt - guard_cnt
    if edge_policy == "skip_cell":
        rows = np.arange(n_r)[:, None]
        cols = np.arange(n_c)[None, :]
        evaluable = ((rows - (gr + tr) >= 0) & (rows + (gr + tr) <= n_r - 1)
                     & (cols - (gc + tc) >= 0) & (cols + (gc + tc) <= n_c - 1))
    else:
        evaluable = ring_cnt >= 1
    arrays = (ring_cnt, ring_cnt > 0, evaluable)
    for a in (*full, *inner, *arrays):
        a.flags.writeable = False
    return (full, inner, *arrays)


def training_stats(power: np.ndarray, cfg: CfarConfig):
    """Per-cell training-ring mean and evaluable mask.

    The ring is the (guard+training) window minus the guard block (which
    contains the cell under test). Thresholds are k * mean; the cells the
    edge policy skips are ``~evaluable``, a new array on every call. The map
    is non-negative, so no partial sum exceeds its total: a total beyond the
    float64 range is refused, as the means would not be finite.
    """
    power = np.asarray(power, dtype=float)
    full, inner, ring_cnt, has_ring, evaluable = _ring_geometry(
        power.shape, tuple(cfg.guard_cells), tuple(cfg.training_cells), cfg.edge_policy)
    cum = np.zeros((power.shape[0] + 1, power.shape[1] + 1))
    np.cumsum(power, axis=0, out=cum[1:, 1:])
    np.cumsum(cum[1:, 1:], axis=1, out=cum[1:, 1:])
    if not np.isfinite(cum[-1, -1]):
        raise ValueError("map total exceeds the float64 range")
    mean = np.zeros_like(power)
    np.divide(_window_sums(cum, full) - _window_sums(cum, inner), ring_cnt, out=mean,
              where=has_ring)
    return mean, evaluable.copy()


def threshold(power: np.ndarray, base: np.ndarray, evaluable: np.ndarray, k: float) -> DetectionSet:
    """Evaluable cells strictly above k * base, with their thresholds."""
    cut = k * base
    rs, cs = np.nonzero(evaluable & (power > cut))
    return DetectionSet(rs, cs, power[rs, cs], cut[rs, cs], map_shape=power.shape)


def cfar_mask(power: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """Boolean detection mask: cell strictly above k * training mean."""
    return ca_cfar_2d(power, cfg).mask()


def ca_cfar_2d(power: np.ndarray, cfg: CfarConfig) -> DetectionSet:
    """Run the detector over a map and list the detections with their thresholds."""
    power = np.asarray(power, dtype=float)
    if power.ndim != 2:
        raise ValueError("map must be 2-d")
    if not np.all(np.isfinite(power)) or np.any(power < 0):
        raise ValueError("map must be finite and non-negative")
    mean, evaluable = training_stats(power, cfg)
    return threshold(power, mean, evaluable, cfg.k)


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def suppress(dets: DetectionSet) -> DetectionSet:
    """Keep the strongest cell of each 8-connected group, the earliest among equals.

    ``ndimage.label`` numbers the groups 1..n in raster order of their first
    cell. Each group's maximum power is reduced into an (n + 1) array, and
    the earliest set index among the cells equal to it into another; entry g
    of the second is group g's kept cell, so the kept cells come out in
    label order.
    """
    if len(dets) == 0:
        return dets
    labels, n = ndimage.label(dets.mask(), structure=_EIGHT_CONNECTED)
    group = labels[dets.range_bins, dets.azimuth_bins]
    gmax = np.full(n + 1, -np.inf)
    np.maximum.at(gmax, group, dets.power)
    idx = np.flatnonzero(dets.power == gmax[group])
    first = np.full(n + 1, len(dets))
    np.minimum.at(first, group[idx], idx)
    keep = first[1:]  # label 0 is the background, which holds no detection
    return DetectionSet(dets.range_bins[keep], dets.azimuth_bins[keep], dets.power[keep],
                        dets.threshold[keep], map_shape=dets.map_shape)


@dataclass(frozen=True)
class GroundTruthBox:
    """Scoring interval [r0 +/- dr] x [theta0 +/- dtheta] in physical units."""

    center: tuple            # (range m, azimuth rad)
    half_extents: tuple      # (range m, azimuth rad)
    view_tag: str = ""
    location_tag: str = ""

    def __post_init__(self):
        if self.half_extents[0] <= 0 or self.half_extents[1] <= 0:
            raise ValueError("half_extents must be positive")


@dataclass(frozen=True)
class MapAxes:
    """Bin-center coordinates of a range-azimuth map."""

    range_m: np.ndarray
    azimuth_rad: np.ndarray


def in_boxes(range_bins: np.ndarray, azimuth_bins: np.ndarray, boxes, axes: MapAxes):
    """Per cell: whether its bin centre lies inside any box of the tuple, bounds included."""
    r, th = axes.range_m[range_bins], axes.azimuth_rad[azimuth_bins]
    inside = np.zeros(r.shape, dtype=bool)
    for box in boxes:
        inside |= ((abs(r - box.center[0]) <= box.half_extents[0])
                   & (abs(th - box.center[1]) <= box.half_extents[1]))
    return inside


def hit_test(dets: DetectionSet, boxes, axes: MapAxes) -> bool:
    """True when any detection's cell centre lies inside any box of the tuple."""
    return bool(in_boxes(dets.range_bins, dets.azimuth_bins, boxes, axes).any())
