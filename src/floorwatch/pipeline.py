"""End-to-end composition: frames -> range-Doppler -> clutter filter -> RA map -> detections.

The clutter state is reset at the start of every recording and stepped
sequentially; distinct recordings are independent. Only the zero-Doppler
window's bins are computed by the frontend and clutter filtered, as they are
the only bins DBF and Capon read. A frame does only per-frame work: the
frontend's DFT matrices, the CFAR ring geometry and the Capon pair steering
are made once and reused, and the clutter state once per recording.

Sweeping the detector sensitivity k reuses the per-frame power and
training-mean maps, since the threshold is k times a k-independent mean: a
recording's maps are cached as one tall map, each frame followed by an
all-zero separator row, and each k makes one threshold-and-suppress pass
over it. Caching reads the maps alone and makes no detections; only the
stream (``process_recording``) makes them at the manifest k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import capon as capon_mod
from . import cfar as cfar_mod
from . import dbf as dbf_mod
from .cfar import DetectionSet, MapAxes
from .core import RadarConfig, range_resolution
from .frontend import process_frame, zero_doppler_window
from .mti import init_clutter, mti_step
from .recordings import RunManifest
from .scoring import TrialRecord
from .sim import Recording


def build_grid(manifest: RunManifest) -> dbf_mod.SteeringGrid:
    return manifest.grid


def build_axes(cfg: RadarConfig, grid: dbf_mod.SteeringGrid) -> MapAxes:
    return MapAxes(range_m=np.arange(cfg.num_range_bins) * range_resolution(cfg),
                   azimuth_rad=np.asarray(grid.azimuth_angles, dtype=float))


def candidate_boxes_by_view(recordings) -> dict:
    """Truth boxes by view: where the empty recordings of each view are scored."""
    by_view: dict[str, list] = {}
    for rec in recordings:
        by_view.setdefault(rec.view_tag, []).extend(rec.truth)
    return by_view


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
    clamp_count: int            # Capon cells clamped on singular directions; 0 for DBF


def process_recording(rec: Recording, manifest: RunManifest):
    """An iterator of one FrameOutput per frame, stepping the clutter filter in order.

    Each frame's detections are ``detections_from_maps`` of its maps at the
    manifest k. The call raises as ``_recording_maps`` does, before any frame
    is processed.
    """
    k = manifest.k
    return (FrameOutput(frame_index=i, power=power, threshold_base=base, evaluable=evaluable,
                        detections=detections_from_maps(power, base, evaluable, k),
                        clamp_count=clamped)
            for i, power, base, evaluable, clamped in _recording_maps(rec, manifest))


def _recording_maps(rec: Recording, manifest: RunManifest):
    """An iterator of (index, power, training mean, evaluable, clamp count) per frame.

    The call raises before any frame is processed if the zero-Doppler window
    does not fit the recording's Doppler bins, or if a Capon manifest meets a
    geometry ``capon.check_pair_geometry`` refuses; DBF takes any layout.
    """
    if manifest.method == "capon":
        capon_mod.check_pair_geometry(rec.geometry)
    window = zero_doppler_window(rec.config.chirps_per_frame, manifest.doppler_half_width)
    return _frame_maps(rec, manifest, window)


def _frame_maps(rec: Recording, manifest: RunManifest, window: np.ndarray):
    cfg = rec.config
    geom = rec.geometry
    weights = dbf_mod.dbf_weights(manifest.grid, geom) if manifest.method == "dbf" else None

    # MTI is per bin, so filtering only the window's bins gives the same values
    state = init_clutter((cfg.num_rx, cfg.num_range_bins, window.size), alpha=manifest.mti_alpha)
    bins = np.arange(window.size)

    for i, frame in enumerate(rec.samples):
        rd = process_frame(frame, cfg, window)
        state, filtered = mti_step(state, rd)
        if manifest.method == "dbf":
            spectrum = dbf_mod.dbf_power(filtered, weights, bins)
            ra = dbf_mod.dbf_range_azimuth(spectrum)
        else:
            ra = capon_mod.capon_range_azimuth(filtered, manifest.grid, bins, geom.azimuth_pair)
        base, evaluable = cfar_mod.training_stats(ra.power, manifest.cfar)
        yield i, ra.power, base, evaluable, ra.clamp_count


def detections_from_maps(power: np.ndarray, base: np.ndarray, evaluable: np.ndarray,
                         k: float) -> DetectionSet:
    """Threshold cached maps at sensitivity k and apply suppression."""
    return cfar_mod.suppress(cfar_mod.threshold(power, base, evaluable, k))


def score_recording(rec: Recording, manifest: RunManifest,
                    candidate_boxes=None) -> TrialRecord:
    """A recording's flags against its ``scoring_boxes``, one ``hit_test`` per frame."""
    boxes = scoring_boxes(rec, candidate_boxes)
    axes = build_axes(rec.config, manifest.grid)
    flags = [cfar_mod.hit_test(out.detections, boxes, axes)
             for out in process_recording(rec, manifest)]
    return trial_record(rec, manifest.method, flags)


def trial_record(rec: Recording, method: str, flags) -> TrialRecord:
    """The TrialRecord of ``rec``'s per-frame flags under ``method``."""
    return TrialRecord(subject_id=rec.subject_tag, view_tag=rec.view_tag, label=rec.label,
                       location_tag=rec.location_tag, method_tag=method, flags=flags)


def frame_flags(n_frames: int, frames, range_bins, azimuth_bins, boxes, axes) -> np.ndarray:
    """Per-frame flags of cells given by frame and bins: a cell in a box flags its frame."""
    inside = cfar_mod.in_boxes(range_bins, azimuth_bins, boxes, axes)
    return np.bincount(frames[inside], minlength=n_frames) > 0


@dataclass(frozen=True)
class CachedTrial:
    """Per-frame maps of one processed recording, for cheap k re-thresholding.

    Each array holds every frame's map, as the stream made it, followed by
    one all-zero (``evaluable`` False) range row: (frames, range + 1,
    azimuth). Reshaped without a copy, a stack is one tall map in which no
    8-connected group spans two frames.
    """

    boxes: tuple
    axes: MapAxes
    powers: np.ndarray      # float64
    bases: np.ndarray       # float64
    evaluable: np.ndarray   # bool, k-independent


def cache_recording(rec: Recording, manifest: RunManifest, candidate_boxes=None) -> CachedTrial:
    """Process a recording once and keep its maps and ``scoring_boxes``; no detections are made.

    Raises as ``_recording_maps`` does.
    """
    boxes = scoring_boxes(rec, candidate_boxes)
    maps = ((power, base, ev) for _, power, base, ev, _ in _recording_maps(rec, manifest))
    return stack_maps(boxes, build_axes(rec.config, manifest.grid), rec.n_frames, maps)


def stack_maps(boxes: tuple, axes: MapAxes, n_frames: int, maps) -> CachedTrial:
    """A CachedTrial of ``n_frames`` (power, base, evaluable) maps, given in frame order."""
    shape = (n_frames, axes.range_m.size + 1, axes.azimuth_rad.size)
    powers, bases = np.zeros(shape), np.zeros(shape)
    evaluable = np.zeros(shape, dtype=bool)
    for i, (power, base, ev) in enumerate(maps):
        powers[i, :-1] = power
        bases[i, :-1] = base
        evaluable[i, :-1] = ev
    return CachedTrial(boxes=boxes, axes=axes, powers=powers, bases=bases, evaluable=evaluable)


def flags_at_k(cached: CachedTrial, k: float) -> np.ndarray:
    """Per-frame hit flags at sensitivity k: one threshold and suppression over the tall map.

    A separator row never crosses (0 > k * 0 is false), and raster order on
    the tall map is frame order, so each frame keeps the cells its own map
    would keep.
    """
    n_frames, rows, cols = cached.powers.shape
    dets = detections_from_maps(cached.powers.reshape(-1, cols), cached.bases.reshape(-1, cols),
                                cached.evaluable.reshape(-1, cols), k)
    frame, range_bin = np.divmod(dets.range_bins, rows)
    return frame_flags(n_frames, frame, range_bin, dets.azimuth_bins, cached.boxes, cached.axes)
