"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The clutter benchmark (criteria 6 and 7) is computed once per session; its
phase timings are charged to the criteria that need them.
"""

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy

from floorwatch.bench import (CAPON_K_GRID, DBF_K_GRID, bench_manifest,
                              candidate_boxes_by_view, empty_benchmark_scenes,
                              localization_scenes, occupied_benchmark_scenes)
from floorwatch.capon import capon_range_azimuth, capon_steering, mvdr_weight, spatial_covariance
from floorwatch.cfar import CfarConfig, cfar_mask
from floorwatch.cli import main as cli_main
from floorwatch.core import RadarConfig, default_geometry, max_range, range_resolution
from floorwatch.dbf import dbf_power, dbf_range_azimuth, dbf_weights, default_grid, SteeringGrid
from floorwatch.frontend import process_frame, zero_doppler_window
from floorwatch.mti import init_clutter, mti_step
from floorwatch.pipeline import cache_recording, flags_at_k
from floorwatch.recordings import RunManifest, manifest_to_dict
from floorwatch.scoring import load_reference_trials, paired_delta, temporal_alarm, tune_k
from floorwatch.sim import synthesize_frame, synthesize_recording


def report(number, passed, elapsed, description):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:7.2f}s): {description}")
    assert passed, f"criterion {number} failed: {description}"


# --------------------------------------------------------------------------
# criterion 1: config consistency

def test_criterion_01_config_consistency():
    t0 = time.perf_counter()
    cfg = RadarConfig()
    dr = range_resolution(cfg)
    rmax = max_range(cfg)
    ok = abs(dr - 0.30) <= 0.01 * 0.30 and abs(rmax - 9.6) <= 0.01 * 9.6
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, elapsed,
           f"default profile: range step {dr:.4f} m, max range {rmax:.3f} m")


# --------------------------------------------------------------------------
# criterion 2: brute-force equivalence of beamformer sums and detector masks

def _brute_dbf(z, w, window):
    n_rx, n_r, _ = z.shape
    n_t, n_p, _ = w.shape
    out = np.zeros((n_r, n_t, n_p, len(window)), dtype=complex)
    for r in range(n_r):
        for t in range(n_t):
            for p in range(n_p):
                for di, d in enumerate(window):
                    out[r, t, p, di] = sum(z[m, r, d] * w[t, p, m] for m in range(n_rx))
    return out


def _brute_cfar(power, cfg):
    n_r, n_c = power.shape
    gr, gc = cfg.guard_cells
    tr, tc = cfg.training_cells
    er, ec = gr + tr, gc + tc
    mask = np.zeros_like(power, dtype=bool)
    for r in range(n_r):
        for c in range(n_c):
            if cfg.edge_policy == "skip_cell" and not (
                    r - er >= 0 and r + er < n_r and c - ec >= 0 and c + ec < n_c):
                continue
            cells = [power[i, j]
                     for i in range(max(0, r - er), min(n_r, r + er + 1))
                     for j in range(max(0, c - ec), min(n_c, c + ec + 1))
                     if abs(i - r) > gr or abs(j - c) > gc]
            if cells and power[r, c] > cfg.k * np.mean(cells):
                mask[r, c] = True
    return mask


def test_criterion_02_brute_force_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    geom = default_geometry(RadarConfig())
    az = np.deg2rad(np.arange(-30.0, 31.0, 10.0))
    grid = SteeringGrid(azimuth_angles=az, elevation_angles=np.deg2rad([-5.0, 5.0]))
    weights = dbf_weights(grid, geom)
    dbf_ok = True
    for _ in range(100):
        z = rng.standard_normal((3, 4, 8)) + 1j * rng.standard_normal((3, 4, 8))
        window = np.array([3, 4, 5])
        got = dbf_power(z, weights, window)
        want = _brute_dbf(z, weights, window)
        scale = np.abs(want).max()
        if not np.all(np.abs(got - want) <= 1e-12 * scale):
            dbf_ok = False
            break
    cfar_ok = True
    for _ in range(100):
        cfg = CfarConfig(
            guard_cells=(int(rng.integers(0, 3)), int(rng.integers(0, 3))),
            training_cells=(int(rng.integers(1, 4)), int(rng.integers(1, 4))),
            k=float(rng.uniform(0.5, 3.0)),
            edge_policy="shrink_window" if rng.random() < 0.5 else "skip_cell")
        power = rng.exponential(1.0, size=(12, 17))
        if not np.array_equal(cfar_mask(power, cfg), _brute_cfar(power, cfg)):
            cfar_ok = False
            break
    elapsed = time.perf_counter() - t0
    report(2, dbf_ok and cfar_ok and elapsed < 30.0, elapsed,
           "beam sums within 1e-12 of brute force; detector masks exactly equal (100 + 100 inputs)")


# --------------------------------------------------------------------------
# criterion 3: minimum-variance optimality of the closed-form weight

def test_criterion_03_mvdr_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 4))
        x = rng.standard_normal((n, 3 * n)) + 1j * rng.standard_normal((n, 3 * n))
        cov = spatial_covariance(x)  # full rank with prob. 1 -> positive definite
        if n == 2:
            a = capon_steering(float(rng.uniform(-1.3, 1.3)))
        else:
            a = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        w = mvdr_weight(cov, a)
        if abs(np.vdot(w, a) - 1.0) > 1e-10:
            ok = False
            break
        p_opt = float(np.real(np.vdot(w, cov.matrix @ w)))
        v = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
        v = v - np.outer(v @ a.conj(), a) / np.vdot(a, a) + w  # v^H a = 1 rows
        powers = np.real(np.einsum("ki,ij,kj->k", v.conj(), cov.matrix, v))
        if not np.all(p_opt <= powers * (1 + 1e-12)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 30.0, elapsed,
           "closed-form weight meets the unit constraint (1e-10) and beats 1000 feasible "
           "weights for each of 100 covariances")


# --------------------------------------------------------------------------
# criterion 4: detector false-alarm law on exponential noise

def test_criterion_04_cfar_false_alarm_law():
    t0 = time.perf_counter()
    cfg = CfarConfig(guard_cells=(2, 2), training_cells=(4, 4), k=2.4)
    n_train = cfg.nominal_training_count
    expected = (1.0 + cfg.k / n_train) ** (-n_train)
    rng = np.random.default_rng(99)
    power = rng.exponential(1.0, size=(1100, 1100))
    mask = cfar_mask(power, cfg)
    interior = mask[6:-6, 6:-6]
    n_cells = interior.size
    empirical = interior.mean()
    rel_err = abs(empirical - expected) / expected
    elapsed = time.perf_counter() - t0
    report(4, n_cells >= 1_000_000 and rel_err <= 0.10 and elapsed < 120.0, elapsed,
           f"per-cell false-alarm rate {empirical:.5f} vs closed form {expected:.5f} "
           f"(rel err {rel_err:.3%}, {n_cells} cells, N_train={n_train}, k=2.4)")


# --------------------------------------------------------------------------
# criterion 5: localization on randomized single-target scenes

def test_criterion_05_localization():
    t0 = time.perf_counter()
    cfg = RadarConfig()
    geom = default_geometry(cfg)
    grid = default_grid()
    weights = dbf_weights(grid, geom)
    dr = range_resolution(cfg)
    channels = np.asarray(geom.azimuth_pair)
    ok_dbf = ok_capon = 0
    for scene in localization_scenes(100, snr_db=20.0):
        frame = synthesize_frame(scene, cfg, geom, 0)
        cube = process_frame(frame, cfg)
        state = init_clutter(cube.shape, alpha=0.01)
        _, filt = mti_step(state, cube)
        window = zero_doppler_window(filt.shape[2], 2)
        target = scene.targets[0]
        bin_true = round(target.range_m / dr)
        theta_true = int(np.argmin(np.abs(grid.azimuth_angles - target.azimuth_rad)))
        ra = dbf_range_azimuth(dbf_power(filt, weights, window))
        r, th = np.unravel_index(np.argmax(ra.power), ra.power.shape)
        ok_dbf += int(abs(r - bin_true) <= 1 and abs(th - theta_true) <= 1)
        ra = capon_range_azimuth(filt, grid, window, channels)
        r, th = np.unravel_index(np.argmax(ra.power), ra.power.shape)
        ok_capon += int(abs(r - bin_true) <= 1 and abs(th - theta_true) <= 1)
    elapsed = time.perf_counter() - t0
    report(5, ok_capon >= 99 and ok_dbf >= 95 and elapsed < 300.0, elapsed,
           f"20 dB SNR single-target argmax within one bin/step: capon {ok_capon}/100, "
           f"dbf {ok_dbf}/100")


# --------------------------------------------------------------------------
# criteria 6 and 7: clutter benchmark with per-method tuning

METHODS = (("dbf", DBF_K_GRID), ("capon", CAPON_K_GRID))
ANSWERS = Path(__file__).parent / "data" / "bench_answers.json"


@dataclass
class BenchResults:
    flags: dict     # method -> (occupied, empty) lists of per-frame flags at the tuned k
    sweeps: dict    # method -> the tuning SweepResult
    time_occupied: float
    time_empty: float
    time_tuning: float

    @property
    def tuned_k(self) -> dict:
        return {method: sweep.selected.k for method, sweep in self.sweeps.items()}

    @property
    def rates(self) -> dict:
        return {m: np.array([f.mean() for f in occ]) for m, (occ, _) in self.flags.items()}

    @property
    def fprs(self) -> dict:
        return {m: np.array([f.mean() for f in emp]) for m, (_, emp) in self.flags.items()}

    def answers(self) -> dict:
        """What ``tests/data/bench_answers.json`` pins: per method the tuned k, every
        recording's flags at it (``np.packbits`` hex) and every sweep point
        (k, TPR, FPR, Macro-F1, feasible), with floats as ``repr``."""
        return {method: {
            "tuned_k": repr(sweep.selected.k),
            "frames": sorted({f.size for flags in self.flags[method] for f in flags}),
            "occupied_flags": [np.packbits(f).tobytes().hex() for f in self.flags[method][0]],
            "empty_flags": [np.packbits(f).tobytes().hex() for f in self.flags[method][1]],
            "sweep": [[repr(p.k), repr(p.tpr), repr(p.fpr), repr(p.macro_f1), p.feasible]
                      for p in sweep.points],
        } for method, sweep in self.sweeps.items()}


def run_bench() -> BenchResults:
    """Criteria 6/7's clutter benchmark. Each recording is synthesized, cached for both
    methods and dropped, so one recording's samples are held at a time; its time is
    charged to the occupied or the empty phase, as its label says."""
    cfg = RadarConfig()
    geom = default_geometry(cfg)
    cands = candidate_boxes_by_view()
    manifests = {method: bench_manifest(method) for method, _ in METHODS}
    cached = {method: ([], []) for method in manifests}  # occupied, empty
    elapsed = [0.0, 0.0]
    for i, scenes in enumerate((occupied_benchmark_scenes(20), empty_benchmark_scenes(cands, 10))):
        for scene in scenes:
            t0 = time.perf_counter()
            rec = synthesize_recording(scene, cfg, geom)
            for method, manifest in manifests.items():
                cached[method][i].append(cache_recording(rec, manifest, cands[rec.view_tag]))
            elapsed[i] += time.perf_counter() - t0
            del rec

    flags, sweeps = {}, {}
    t_tune = 0.0
    for method, k_grid in METHODS:
        occ_cached, emp_cached = cached[method]
        t0 = time.perf_counter()
        sweep = tune_k(occ_cached[:4], emp_cached[:4], k_grid, 0.1, flags_at_k)
        t_tune += time.perf_counter() - t0
        assert sweep.feasible, f"no feasible operating point for {method}"
        sweeps[method] = sweep
        flags[method] = tuple([flags_at_k(c, sweep.selected.k) for c in trials]
                              for trials in (occ_cached, emp_cached))
    return BenchResults(flags=flags, sweeps=sweeps, time_occupied=elapsed[0],
                        time_empty=elapsed[1], time_tuning=t_tune)


@pytest.fixture(scope="session")
def bench() -> BenchResults:
    return run_bench()


def test_criterion_06_method_ordering_under_clutter(bench):
    t0 = time.perf_counter()
    gap = bench.rates["capon"].mean() - bench.rates["dbf"].mean()
    frac = float((bench.rates["capon"] >= bench.rates["dbf"]).mean())
    elapsed = (time.perf_counter() - t0 + bench.time_occupied + bench.time_tuning
               + 0.4 * bench.time_empty)
    report(6, gap >= 0.03 and frac >= 0.80 and elapsed < 600.0, elapsed,
           f"tuned k (dbf {bench.tuned_k['dbf']:.2f} / capon {bench.tuned_k['capon']:.2f}); "
           f"mean rate gap {gap:+.3f} (capon {bench.rates['capon'].mean():.3f} vs "
           f"dbf {bench.rates['dbf'].mean():.3f}); capon >= dbf in {frac:.0%} of 20 scenes")


def test_criterion_07_empty_room_specificity(bench):
    t0 = time.perf_counter()
    capon_fpr = float(bench.fprs["capon"].mean())
    dbf_fpr = float(bench.fprs["dbf"].mean())
    elapsed = time.perf_counter() - t0 + bench.time_empty
    report(7, capon_fpr == 0.0 and dbf_fpr <= 0.05 and elapsed < 300.0, elapsed,
           f"10 clutter-only recordings at tuned k: capon FPR {capon_fpr:.4f}, "
           f"dbf FPR {dbf_fpr:.4f}")


def test_bench_answers_match_the_committed_file(bench):
    # flags, tuned k and sweep points are exact functions of the maps; a change that
    # moves one (say, reorders a recording's flags) can leave every printed mean alone
    pinned = json.loads(ANSWERS.read_text())
    got = bench.answers()
    moved = [f"{method}/{key}" for method, want in pinned["answers"].items()
             for key in want if got[method][key] != want[key]]
    assert not moved, (
        f"bench answers {moved} differ from {ANSWERS.name}, made with numpy "
        f"{pinned['numpy']} and scipy {pinned['scipy']} (this run: numpy {np.__version__}, "
        f"scipy {scipy.__version__}); another FFT build can flip a flag. A change meant to "
        "move an answer regenerates the file with tools/bench_answers.py")


# --------------------------------------------------------------------------
# criterion 8: reference-table replay

def test_criterion_08_reference_table_replay():
    t0 = time.perf_counter()
    rows = load_reference_trials()
    summary = paired_delta([(r.dbf, r.capon) for r in rows])
    ok = (len(rows) == 70
          and abs(summary.mean_dbf - 0.823) <= 0.02
          and abs(summary.mean_capon - 0.916) <= 0.02
          and summary.fraction_nonnegative == pytest.approx(66 / 70))
    printed_overall = {"S1": (0.70, 0.83), "S2": (0.93, 0.98), "S3": (0.77, 0.88),
                       "S4": (0.87, 0.95), "S5": (0.80, 0.90), "S6": (0.94, 0.97),
                       "S7": (0.85, 0.92)}
    for subject, (want_dbf, want_capon) in printed_overall.items():
        sub = [r for r in rows if r.subject == subject]
        got_dbf = sum(r.dbf for r in sub) / len(sub)
        got_capon = sum(r.capon for r in sub) / len(sub)
        # 'as printed' = the two-decimal table rounds the computed mean
        if abs(got_dbf - want_dbf) > 0.005 + 1e-9 or abs(got_capon - want_capon) > 0.005 + 1e-9:
            ok = False
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 1.0, elapsed,
           f"70-trial replay: means {summary.mean_dbf:.3f} -> {summary.mean_capon:.3f}, "
           f"improvement fraction {int(round(summary.fraction_nonnegative * 70))}/70, "
           f"per-subject overall row reproduced")


# --------------------------------------------------------------------------
# criterion 9: temporal alarm boundary

def test_criterion_09_temporal_alarm_boundary():
    t0 = time.perf_counter()
    below = temporal_alarm([True] * 159 + [False] * 41, 20.0, 0.8, 10.0)
    at = temporal_alarm([True] * 160 + [False] * 40, 20.0, 0.8, 10.0)
    spread = temporal_alarm(([True] * 4 + [False]) * 40, 20.0, 0.8, 10.0)  # exactly 160/200
    ok = (below.window_frames == 200 and below.intervals == ()
          and at.intervals != () and spread.intervals != ())
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 1.0, elapsed,
           "alarm fires at exactly 160 hits per 200-frame window and not at 159")


# --------------------------------------------------------------------------
# criterion 10: clutter-filter closed form

def test_criterion_10_mti_closed_form():
    t0 = time.perf_counter()
    alpha = 0.01
    x = 1.7 - 0.6j
    dims = (1, 2, 4)
    state = init_clutter(dims, alpha)
    ok = True
    for k in range(1, 51):
        state, out = mti_step(state, np.full(dims, x))
        want = alpha ** k * x
        if abs(out[0, 0, 0] - want) > 1e-9 * abs(x):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(10, ok and elapsed < 1.0, elapsed,
           "iterated clutter filter matches alpha^k * x for k <= 50 (1e-9 of input scale)")


# --------------------------------------------------------------------------
# criterion 11: end-to-end reproducibility

def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    config = {
        "center_frequency": 60e9, "bandwidth": 500e6, "chirp_duration": 416.7e-6,
        "frame_rate": 10.0, "chirps_per_frame": 64, "samples_per_chirp": 64,
        "num_rx": 3, "chirp_repetition_interval": 416.7e-6,
    }
    scene = {
        "targets": [{"range_m": 4.2, "azimuth_deg": 12.0, "amplitude": 1.0,
                     "micro_motion_amplitude_m": 0.001, "micro_motion_rate_hz": 0.25}],
        "clutter": [{"range_m": 7.6, "azimuth_deg": -40.0, "amplitude": 6.0}],
        "noise_std": 0.05, "seed": 3, "n_frames": 30,
        "view_tag": "tv", "location_tag": "P1", "subject_tag": "S1",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_to_dict(
        RunManifest(method="capon", k=4.0, mti_alpha=0.99))))

    def digest(p):
        return hashlib.sha256(p.read_bytes()).hexdigest()

    def run(tag):
        base = tmp_path / tag
        base.mkdir()
        rec = base / "run.rec"
        det = base / "detections.csv"
        out = base / "eval"
        assert cli_main(["simulate", "--scene", str(scene_path), "--config", str(cfg_path),
                         "--out", str(rec)]) == 0
        assert cli_main(["process", "--recording", str(rec), "--manifest", str(manifest_path),
                         "--out", str(det)]) == 0
        assert cli_main(["evaluate", "--recording", str(rec), "--manifest", str(manifest_path),
                         "--out", str(out)]) == 0
        return (digest(rec), digest(det), digest(out / "metrics.json"),
                digest(out / "table.csv"))

    first = run("first")
    second = run("second")
    elapsed = time.perf_counter() - t0
    report(11, first == second and elapsed < 120.0, elapsed,
           "simulate -> process -> evaluate twice with one seed: all outputs byte-identical")
