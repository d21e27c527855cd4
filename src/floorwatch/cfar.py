"""Two-dimensional cell-averaging CFAR on range-azimuth maps.

The threshold for each cell under test is k times the mean of a rectangular
training ring; a guard ring (plus the cell itself) is excluded so target
energy does not inflate its own threshold. Edge handling is either
'shrink_window' (renormalize by the training cells actually inside the
map, so wall-adjacent bins stay testable) or 'skip_cell' (only evaluate
cells whose full window fits). Detection requires strictly exceeding the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .dbf import RangeAzimuthMap

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
        if self.k <= 0:
            raise ValueError("k must be > 0")
        if self.edge_policy not in EDGE_POLICIES:
            raise ValueError(f"edge_policy must be one of {EDGE_POLICIES}")

    @property
    def nominal_training_count(self) -> int:
        gr, gc = self.guard_cells
        tr, tc = self.training_cells
        full = (2 * (gr + tr) + 1) * (2 * (gc + tc) + 1)
        guard = (2 * gr + 1) * (2 * gc + 1)
        return full - guard

    def with_k(self, k: float) -> "CfarConfig":
        return CfarConfig(self.guard_cells, self.training_cells, k, self.edge_policy)


@dataclass(frozen=True)
class Detection:
    range_bin: int
    azimuth_bin: int
    power: float
    threshold: float


@dataclass(frozen=True)
class DetectionSet:
    detections: tuple
    frame_index: int = 0
    map_shape: tuple = (0, 0)
    skipped_cells: int = 0

    def __len__(self) -> int:
        return len(self.detections)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.map_shape, dtype=bool)
        for d in self.detections:
            m[d.range_bin, d.azimuth_bin] = True
        return m


def _box_sum(cum: np.ndarray, r0, r1, c0, c1) -> np.ndarray:
    """Inclusive window sums from a zero-padded 2-d cumulative sum."""
    return cum[r1 + 1, c1 + 1] - cum[r0, c1 + 1] - cum[r1 + 1, c0] + cum[r0, c0]


def _window_sums(power: np.ndarray, half_r: int, half_c: int):
    """Clipped window sum and in-map cell count around every cell."""
    n_r, n_c = power.shape
    cum = np.zeros((n_r + 1, n_c + 1))
    cum[1:, 1:] = power.cumsum(axis=0).cumsum(axis=1)
    rows = np.arange(n_r)[:, None]
    cols = np.arange(n_c)[None, :]
    r0 = np.clip(rows - half_r, 0, n_r - 1)
    r1 = np.clip(rows + half_r, 0, n_r - 1)
    c0 = np.clip(cols - half_c, 0, n_c - 1)
    c1 = np.clip(cols + half_c, 0, n_c - 1)
    sums = _box_sum(cum, r0, r1, c0, c1)
    counts = (r1 - r0 + 1) * (c1 - c0 + 1)
    return sums, counts


def training_stats(power: np.ndarray, cfg: CfarConfig):
    """Per-cell training-ring mean, evaluable mask, and skipped-cell count.

    The ring is the (guard+training) window minus the guard block (which
    contains the cell under test). Thresholds are k * mean.
    """
    power = np.asarray(power, dtype=float)
    gr, gc = cfg.guard_cells
    tr, tc = cfg.training_cells
    full_sum, full_cnt = _window_sums(power, gr + tr, gc + tc)
    guard_sum, guard_cnt = _window_sums(power, gr, gc)
    ring_sum = full_sum - guard_sum
    ring_cnt = full_cnt - guard_cnt

    if cfg.edge_policy == "skip_cell":
        n_r, n_c = power.shape
        rows = np.arange(n_r)[:, None]
        cols = np.arange(n_c)[None, :]
        evaluable = ((rows - (gr + tr) >= 0) & (rows + (gr + tr) <= n_r - 1)
                     & (cols - (gc + tc) >= 0) & (cols + (gc + tc) <= n_c - 1))
    else:
        evaluable = ring_cnt >= 1

    mean = np.zeros_like(power)
    np.divide(ring_sum, ring_cnt, out=mean, where=ring_cnt > 0)
    skipped = int((~evaluable).sum())
    return mean, evaluable, skipped


def threshold(power: np.ndarray, base: np.ndarray, evaluable: np.ndarray, k: float,
              frame_index: int = 0, skipped: int = 0) -> DetectionSet:
    """Evaluable cells strictly above k * base, with their thresholds."""
    rs, cs = np.nonzero(evaluable & (power > k * base))
    dets = tuple(Detection(int(r), int(c), float(power[r, c]), float(k * base[r, c]))
                 for r, c in zip(rs, cs))
    return DetectionSet(detections=dets, frame_index=frame_index,
                        map_shape=power.shape, skipped_cells=skipped)


def cfar_mask(power: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """Boolean detection mask: cell strictly above k * training mean."""
    return ca_cfar_2d(power, cfg).mask()


def ca_cfar_2d(ra_map: RangeAzimuthMap | np.ndarray, cfg: CfarConfig,
               frame_index: int | None = None) -> DetectionSet:
    """Run the detector over a map and list the detections with their thresholds."""
    if isinstance(ra_map, RangeAzimuthMap):
        power, map_index = ra_map.power, ra_map.frame_index
    else:
        power, map_index = np.asarray(ra_map, dtype=float), 0
        if power.ndim != 2:
            raise ValueError("map must be 2-d")
        if not np.all(np.isfinite(power)) or np.any(power < 0):
            raise ValueError("map must be finite and non-negative")
    mean, evaluable, skipped = training_stats(power, cfg)
    return threshold(power, mean, evaluable, cfg.k,
                     map_index if frame_index is None else frame_index, skipped)


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def suppress(dets: DetectionSet) -> DetectionSet:
    """Keep the strongest cell of each 8-connected group of detections."""
    if len(dets) == 0:
        return dets
    labels, n_groups = ndimage.label(dets.mask(), structure=_EIGHT_CONNECTED)
    best: dict[int, Detection] = {}
    for d in dets.detections:
        g = labels[d.range_bin, d.azimuth_bin]
        if g not in best or d.power > best[g].power:
            best[g] = d
    kept = tuple(best[g] for g in sorted(best))
    return DetectionSet(detections=kept, frame_index=dets.frame_index,
                        map_shape=dets.map_shape, skipped_cells=dets.skipped_cells)


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

    def contains(self, range_m: float, azimuth_rad: float) -> bool:
        return (abs(range_m - self.center[0]) <= self.half_extents[0]
                and abs(azimuth_rad - self.center[1]) <= self.half_extents[1])


@dataclass(frozen=True)
class MapAxes:
    """Bin-center coordinates of a range-azimuth map."""

    range_m: np.ndarray
    azimuth_rad: np.ndarray


def map_axes(range_resolution_m: float, azimuth_angles: np.ndarray,
             num_range_bins: int) -> MapAxes:
    return MapAxes(range_m=np.arange(num_range_bins) * range_resolution_m,
                   azimuth_rad=np.asarray(azimuth_angles, dtype=float))


def hit_test(dets: DetectionSet, boxes, axes: MapAxes) -> bool:
    """True when any detection's cell center lies inside any of the boxes."""
    if isinstance(boxes, GroundTruthBox):
        boxes = (boxes,)
    for d in dets.detections:
        r = axes.range_m[d.range_bin]
        th = axes.azimuth_rad[d.azimuth_bin]
        for box in boxes:
            if box.contains(r, th):
                return True
    return False
