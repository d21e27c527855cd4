"""End-to-end composition: frames -> range-Doppler -> clutter filter -> RA map -> detections.

The clutter state is reset at the start of every recording and stepped
sequentially; distinct recordings are independent. Sweeping the detector
sensitivity k reuses the per-frame power and training-mean maps, since the
threshold is k times a k-independent mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import capon as capon_mod
from . import cfar as cfar_mod
from . import dbf as dbf_mod
from .cfar import CfarConfig, DetectionSet, MapAxes
from .core import RadarConfig, range_resolution
from .frontend import process_frame, zero_doppler_window
from .mti import init_clutter, mti_step
from .recordings import RunManifest
from .scoring import TrialRecord
from .sim import Recording


def build_grid(manifest: RunManifest) -> dbf_mod.SteeringGrid:
    return dbf_mod.default_grid(theta_max_deg=manifest.theta_max_deg,
                                theta_step_deg=manifest.theta_step_deg,
                                elevations_deg=manifest.elevations_deg)


def build_cfar(manifest: RunManifest) -> CfarConfig:
    return CfarConfig(guard_cells=manifest.guard_cells,
                      training_cells=manifest.training_cells,
                      k=manifest.k, edge_policy=manifest.edge_policy)


def build_axes(cfg: RadarConfig, grid: dbf_mod.SteeringGrid) -> MapAxes:
    return cfar_mod.map_axes(range_resolution(cfg), grid.azimuth_angles, cfg.num_range_bins)


def scoring_boxes(rec: Recording, candidate_boxes=None) -> tuple:
    """The boxes a recording's frames are scored against.

    Occupied recordings use their own truth boxes; empty recordings use the
    candidate boxes of their view (its plausible subject regions).
    """
    if rec.label == "occupied":
        return rec.truth
    boxes = tuple(candidate_boxes or ())
    if not boxes:
        raise ValueError(f"empty recording of view {rec.view_tag!r} has no candidate "
                         "boxes to score against")
    return boxes


@dataclass(frozen=True)
class FrameOutput:
    frame_index: int
    power: np.ndarray          # RA map values
    threshold_base: np.ndarray  # training-ring mean; threshold = k * base
    evaluable: np.ndarray       # cells the detector may fire on
    detections: DetectionSet    # post-suppression detections at the manifest k


def process_recording(rec: Recording, manifest: RunManifest):
    """An iterator of one FrameOutput per frame, stepping the clutter filter in order.

    A Capon manifest needs the geometry ``capon.check_pair_geometry`` checks,
    and the call raises before any frame is processed if it fails; DBF steers
    from every element offset and takes any layout.
    """
    if manifest.method == "capon":
        capon_mod.check_pair_geometry(rec.geometry)
    return _frame_outputs(rec, manifest)


def _frame_outputs(rec: Recording, manifest: RunManifest):
    cfg = rec.config
    geom = rec.geometry
    grid = build_grid(manifest)
    cfar_cfg = build_cfar(manifest)
    weights = dbf_mod.dbf_weights(grid, geom) if manifest.method == "dbf" else None

    state = init_clutter((cfg.num_rx, cfg.num_range_bins, cfg.chirps_per_frame),
                         alpha=manifest.mti_alpha)

    for i, frame in enumerate(rec.samples):
        rd = process_frame(frame, cfg)
        state, filtered = mti_step(state, rd)
        window = zero_doppler_window(filtered, manifest.doppler_half_width)
        if manifest.method == "dbf":
            spectrum = dbf_mod.dbf_power(filtered, weights, window)
            ra = dbf_mod.dbf_range_azimuth(spectrum)
        else:
            ra = capon_mod.capon_range_azimuth(filtered, grid, window, geom.azimuth_pair)
        power = ra.power
        base, evaluable = cfar_mod.training_stats(power, cfar_cfg)
        dets = detections_from_maps(power, base, evaluable, cfar_cfg.k)
        yield FrameOutput(frame_index=i, power=power, threshold_base=base,
                          evaluable=evaluable, detections=dets)


def detections_from_maps(power: np.ndarray, base: np.ndarray, evaluable: np.ndarray,
                         k: float) -> DetectionSet:
    """Threshold cached maps at sensitivity k and apply suppression."""
    return cfar_mod.suppress(cfar_mod.threshold(power, base, evaluable, k))


def score_recording(rec: Recording, manifest: RunManifest,
                    candidate_boxes=None) -> TrialRecord:
    """Per-frame hit/false-positive flags for one recording, frame by frame.

    Frames score against ``scoring_boxes(rec, candidate_boxes)``.
    """
    boxes = scoring_boxes(rec, candidate_boxes)
    axes = build_axes(rec.config, build_grid(manifest))
    flags = [cfar_mod.hit_test(out.detections, boxes, axes)
             for out in process_recording(rec, manifest)]
    return TrialRecord(subject_id=rec.subject_tag, view_tag=rec.view_tag,
                       location_tag=rec.location_tag, method_tag=manifest.method,
                       flags=np.asarray(flags, dtype=bool), label=rec.label)


@dataclass(frozen=True)
class CachedTrial:
    """Per-frame maps of one processed recording, for cheap k re-thresholding."""

    boxes: tuple
    axes: MapAxes
    powers: np.ndarray      # (frames, range, azimuth) float64, as the stream made them
    bases: np.ndarray
    evaluable: np.ndarray   # (range, azimuth) bool, k-independent


def cache_recording(rec: Recording, manifest: RunManifest, candidate_boxes=None) -> CachedTrial:
    """Process a recording once and keep its maps and ``scoring_boxes``."""
    boxes = scoring_boxes(rec, candidate_boxes)
    axes = build_axes(rec.config, build_grid(manifest))
    powers, bases = [], []
    evaluable = None
    for out in process_recording(rec, manifest):
        powers.append(out.power)
        bases.append(out.threshold_base)
        evaluable = out.evaluable
    return CachedTrial(boxes=boxes, axes=axes,
                       powers=np.stack(powers), bases=np.stack(bases),
                       evaluable=evaluable)


def flags_at_k(cached: CachedTrial, k: float) -> np.ndarray:
    """Recompute per-frame hit flags at sensitivity k from cached maps."""
    n = cached.powers.shape[0]
    flags = np.zeros(n, dtype=bool)
    for i in range(n):
        dets = detections_from_maps(cached.powers[i], cached.bases[i], cached.evaluable, k)
        flags[i] = cfar_mod.hit_test(dets, cached.boxes, cached.axes)
    return flags
