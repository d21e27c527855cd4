import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import floorwatch.capon as capon_module
from floorwatch.bench import bench_manifest, occupied_benchmark_scenes
from floorwatch.capon import (PINV_RCOND, SpatialCovariance,
                              capon_range_azimuth, capon_spectrum, capon_steering,
                              collect_snapshots, mvdr_weight, null_floor,
                              spatial_covariance)
from floorwatch.core import ArrayGeometry, RadarConfig, default_geometry
from floorwatch.dbf import SteeringGrid, default_grid, element_phases
from floorwatch.frontend import process_frame, zero_doppler_window
from floorwatch.mti import init_clutter, mti_step
from floorwatch.pipeline import process_recording
from floorwatch.recordings import RunManifest, read_recording, write_recording
from floorwatch.sim import synthesize_frame, synthesize_recording

LAM = 5e-3


def l_geom():
    return ArrayGeometry(wavelength=LAM,
                         element_offsets=((LAM / 2, 0.0), (0.0, LAM / 2), (0.0, 0.0)),
                         azimuth_pair=(2, 0))


def grid_deg(step=2.0, span=60.0):
    az = np.deg2rad(np.arange(-span, span + step / 2, step))
    return SteeringGrid(azimuth_angles=az, elevation_angles=np.array([0.0]))


def array_steering(grid, geom):
    """Zero-elevation steering of every receiver of ``geom``, one column per azimuth."""
    az = grid.azimuth_angles
    return np.exp(-1j * element_phases(geom, az, np.zeros_like(az))).T


def random_cube(rng, shape=(3, 6, 16)):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- snapshots ---

def test_collect_snapshots_single_bin():
    cube = random_cube(np.random.default_rng(0))
    x = collect_snapshots(cube, 2, np.array([8]), (2, 0))
    assert x.shape == (2, 1)
    assert x[0, 0] == cube[2, 2, 8]
    assert x[1, 0] == cube[0, 2, 8]


def test_collect_snapshots_copy_semantics():
    cube = random_cube(np.random.default_rng(1))
    window = np.arange(6, 11)
    x = collect_snapshots(cube, 3, window, (2, 0))
    assert x.shape == (2, 5)
    assert np.array_equal(x[0], cube[2, 3, 6:11])
    assert np.array_equal(x[1], cube[0, 3, 6:11])


def test_collect_snapshots_window_at_edge_rejected():
    cube = random_cube(np.random.default_rng(2))
    with pytest.raises(ValueError):
        collect_snapshots(cube, 0, np.array([14, 15, 16]), (2, 0))
    with pytest.raises(ValueError):
        collect_snapshots(cube, 0, np.array([], dtype=int), (2, 0))
    with pytest.raises(ValueError):
        collect_snapshots(cube, 0, np.array([8]), (0, 5))


# --- covariance ---

def test_covariance_rank_one():
    cov = spatial_covariance(np.array([[1.0], [0.0]], dtype=complex))
    assert np.allclose(cov.matrix, [[1, 0], [0, 0]])
    assert np.allclose(cov.pseudo_inverse, [[1, 0], [0, 0]])


def test_covariance_identity_snapshots():
    cov = spatial_covariance(np.eye(2, dtype=complex))
    assert np.allclose(cov.matrix, np.eye(2) / 2)
    assert np.allclose(cov.pseudo_inverse, 2 * np.eye(2))


def test_pseudo_inverse_penrose_conditions():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        cov = spatial_covariance(x)
        r, ri = cov.matrix, cov.pseudo_inverse
        assert np.allclose(r @ ri @ r, r, atol=1e-10)
        assert np.allclose(ri @ r @ ri, ri, atol=1e-10)
        assert np.allclose((r @ ri).conj().T, r @ ri, atol=1e-10)
        assert np.allclose((ri @ r).conj().T, ri @ r, atol=1e-10)


def test_covariance_hermitian_psd():
    rng = np.random.default_rng(4)
    for n_ch in (2, 3):
        x = rng.standard_normal((n_ch, 7)) + 1j * rng.standard_normal((n_ch, 7))
        cov = spatial_covariance(x)
        r = cov.matrix
        assert np.linalg.norm(r - r.conj().T) <= 1e-12 * np.linalg.norm(r)
        assert np.linalg.eigvalsh(r).min() >= -1e-10 * np.trace(r).real


def test_covariance_rejects_bad_input():
    with pytest.raises(ValueError):
        spatial_covariance(np.array([[np.nan], [0.0]]))


# --- steering ---

def test_capon_steering_values():
    assert np.allclose(capon_steering(0.0), [1.0, 1.0])
    assert np.allclose(capon_steering(np.pi / 2), [1.0, -1.0], atol=1e-12)
    assert np.allclose(capon_steering(np.deg2rad(30.0)), [1.0, -1.0j], atol=1e-12)
    with pytest.raises(ValueError):
        capon_steering(2.0)


def test_capon_steering_columns_match_scalar_calls():
    grid = SteeringGrid(azimuth_angles=np.deg2rad(np.arange(-60.0, 61.0)),
                        elevation_angles=np.array([0.0]))
    a = capon_steering(grid.azimuth_angles)
    assert a.shape == (2, grid.azimuth_angles.size)
    for i, theta in enumerate(grid.azimuth_angles):
        assert np.array_equal(a[:, i], capon_steering(float(theta)))
    with pytest.raises(ValueError):
        capon_steering(np.array([0.0, 2.0]))


def test_grid_pair_steering_is_made_once_and_read_only():
    grid = default_grid()
    a = grid.pair_steering
    assert a is grid.pair_steering
    assert np.array_equal(a, capon_steering(grid.azimuth_angles))
    with pytest.raises(ValueError):
        a[1, 0] = 0.0
    other = grid_deg()
    assert np.array_equal(other.pair_steering, capon_steering(other.azimuth_angles))


# --- spectrum ---

def test_spectrum_identity_covariance_is_flat():
    cov = SpatialCovariance(matrix=np.eye(2, dtype=complex),
                            pseudo_inverse=np.eye(2, dtype=complex),
                            rank_deficient=np.array(False))  # as spatial_covariance marks it
    grid = grid_deg()
    a = capon_steering(grid.azimuth_angles)
    spec, clamped = capon_spectrum(cov, a)
    assert clamped == 0
    assert np.allclose(spec, 0.5, rtol=1e-12)


def brute_force_spectrum(rinv, a):
    out = np.empty(a.shape[1])
    for t in range(a.shape[1]):
        v = a[:, t]
        out[t] = np.real(v.conj() @ rinv @ v)
    return 1.0 / out


def test_single_target_with_noise_floor_peaks_at_truth():
    grid = grid_deg(step=1.0)
    theta_star = grid.azimuth_angles[37]
    a_star = capon_steering(theta_star)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    noise = 1e-5 * (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    cov = spatial_covariance(a_star[:, None] * amps[None, :] + noise)
    a = capon_steering(grid.azimuth_angles)
    spec, _ = capon_spectrum(cov, a)
    assert np.argmax(spec) == 37
    # near the peak the quadratic form cancels catastrophically (entries of
    # the pseudoinverse are ~1/noise-power), so agreement is measured on the
    # quadratic forms at the natural error scale of the cancellation
    want = brute_force_spectrum(cov.pseudo_inverse, a)
    scale = np.linalg.norm(cov.pseudo_inverse) * 2.0
    assert np.max(np.abs(1.0 / spec - 1.0 / want)) <= 1e-12 * scale


def test_exactly_rank_one_covariance_dips_at_truth():
    # with no diagonal loading, a strictly rank-one covariance inverts the
    # usual picture: the quadratic form is largest along the source, so the
    # spectrum bottoms out there and blows up toward orthogonal directions;
    # the brute-force evaluation of the formula agrees
    grid = grid_deg(step=1.0)
    theta_star = grid.azimuth_angles[37]
    a_star = capon_steering(theta_star)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cov = spatial_covariance(a_star[:, None] * amps[None, :])
    a = capon_steering(grid.azimuth_angles)
    spec, _ = capon_spectrum(cov, a)
    assert np.argmin(spec) == 37
    want = brute_force_spectrum(cov.pseudo_inverse, a)
    assert np.allclose(spec, want, rtol=1e-10)


def test_two_targets_give_two_local_maxima():
    # two Capon peaks need more than one azimuth baseline; use a four-element
    # uniform line at half-wavelength spacing
    grid = grid_deg(step=1.0)
    geom4 = ArrayGeometry(wavelength=LAM,
                          element_offsets=tuple((m * LAM / 2, 0.0) for m in range(4)),
                          azimuth_pair=(0, 1))
    a = array_steering(grid, geom4)
    i1, i2 = 30, 85
    rng = np.random.default_rng(6)
    s1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    s2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    n = 0.05 * (rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64)))
    x = a[:, i1][:, None] * s1[None, :] + a[:, i2][:, None] * s2[None, :] + n
    cov = spatial_covariance(x)
    spec, _ = capon_spectrum(cov, a)
    local_max = [t for t in range(1, len(spec) - 1)
                 if spec[t] >= spec[t - 1] and spec[t] >= spec[t + 1]]
    assert any(abs(t - i1) <= 2 for t in local_max)
    assert any(abs(t - i2) <= 2 for t in local_max)


def test_spectrum_scale_equivariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    grid = grid_deg()
    a = capon_steering(grid.azimuth_angles)
    cov1 = spatial_covariance(x)
    cov2 = spatial_covariance(2.0 * x)  # R scales by 4
    s1, _ = capon_spectrum(cov1, a)
    s2, _ = capon_spectrum(cov2, a)
    assert np.allclose(s2, 4.0 * s1, rtol=1e-9)
    assert np.argmax(s1) == np.argmax(s2)


def test_spectrum_real_nonnegative_with_small_imaginary_residue():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
    cov = spatial_covariance(x)
    a = array_steering(grid_deg(), l_geom())
    quad = np.einsum("ct,cd,dt->t", a.conj(), cov.pseudo_inverse, a)
    assert np.max(np.abs(quad.imag)) <= 1e-10 * np.max(np.abs(quad.real))
    spec, _ = capon_spectrum(cov, a)
    assert np.all(spec >= 0)


def test_mvdr_weight_unit_constraint_and_optimality():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        cov = spatial_covariance(x)
        a = capon_steering(float(rng.uniform(-1.2, 1.2)))
        w = mvdr_weight(cov, a)
        assert abs(np.vdot(w, a) - 1.0) <= 1e-10
        p_opt = np.real(np.vdot(w, cov.matrix @ w))
        for _ in range(50):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = v - a * (np.vdot(a, v) / np.vdot(a, a)) + w  # feasible: v^H a = 1
            p = np.real(np.vdot(v, cov.matrix @ v))
            assert p_opt <= p * (1 + 1e-12)


def test_spectrum_dimension_mismatch():
    cov = spatial_covariance(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        capon_spectrum(cov, array_steering(grid_deg(), l_geom()))


# --- full map ---

def test_zero_cube_gives_zero_map_with_clamps():
    grid = grid_deg()
    cube = np.zeros((3, 4, 16), dtype=complex)
    ra = capon_range_azimuth(cube, grid, np.arange(6, 11), (2, 0))
    assert np.all(ra.power == 0)
    assert ra.clamp_count == 4 * grid.azimuth_angles.size


def test_rank_deficient_direction_clamped_to_row_max():
    # a boresight-only rank-one covariance is exactly orthogonal to the
    # endfire steering vectors; those grid cells clamp to the row's finite max
    grid = SteeringGrid(azimuth_angles=np.deg2rad(np.arange(-90.0, 91.0, 30.0)),
                        elevation_angles=np.array([0.0]))
    cov = spatial_covariance(np.array([[1.0], [1.0]], dtype=complex))
    spec, clamped = capon_spectrum(cov, capon_steering(grid.azimuth_angles))
    assert clamped == 2
    finite = np.delete(spec, [0, len(spec) - 1])
    assert spec[0] == pytest.approx(finite.max())
    assert spec[-1] == pytest.approx(finite.max())


def test_rank_one_null_direction_clamps_at_any_angle_and_scale():
    # a rank-one R from snapshots along a(theta1) is singular along theta2 with
    # sin(theta2) = sin(theta1) +- 1; off boresight/endfire the written-out
    # quadratic form (and pinv's einsum) cancels there only to about 1e-16 of
    # tr(R)^-1, above the null floor, and the cell spiked to about 1e16 times its
    # row; the rank-one form |a^H u|^2 cancels to about eps^2 and clamps
    rng = np.random.default_rng(21)
    sines = [(-0.3, 0.7), (0.3, -0.7), (0.1, -0.9)]
    sines += [(s, s + 1.0 if s < 0 else s - 1.0) for s in rng.uniform(-1.0, 1.0, 200)]
    for s1, s2 in sines:
        a = capon_steering(np.arcsin(np.array([s1, s2, 0.2, -0.6])))
        n_snap = int(rng.integers(1, 9))
        amps = rng.standard_normal(n_snap) + 1j * rng.standard_normal(n_snap)
        x = 10.0 ** rng.uniform(-100.0, 100.0) * a[:, :1] * amps
        cov = spatial_covariance(x)
        assert cov.rank_deficient
        spec, clamped = capon_spectrum(cov, a)
        assert clamped == 1
        assert spec[1] == np.delete(spec, 1).max()
        with pytest.raises(ValueError):
            mvdr_weight(cov, a[:, 1])
        want = pinv_spectrum(x, a[:, [0, 2, 3]])[0]
        kappa = 1.0 / PINV_RCOND
        assert np.all(np.abs(spec[[0, 2, 3]] - want) <= CELL_TOL * kappa * EPS * want)


def test_rank_one_null_direction_clamps_on_a_three_element_line():
    # the n-channel path: one snapshot direction along sin(theta1) on a
    # half-wavelength 3-element line is orthogonal to sin(theta1) +- 2/3, and
    # pinv's einsum left a residue of about eps there, so the cell spiked
    # instead of clamping and mvdr_weight returned a weight; the null
    # direction's steering is a(theta1) rotated by exp(-+j 2 pi n / 3), so
    # that its own rounding stays near eps
    rng = np.random.default_rng(31)
    n = np.arange(3)[:, None]
    for s1 in rng.uniform(-1.0, 1.0, 200):
        sign = -1.0 if s1 > 1 / 3 else 1.0 if s1 < -1 / 3 else rng.choice([-1.0, 1.0])
        a = np.exp(-1j * np.pi * n * np.array([s1, 0.2, -0.6]))
        null = a[:, :1] * np.exp(-1j * sign * 2.0 * np.pi / 3.0 * n)
        a = np.concatenate([a[:, :1], null, a[:, 1:]], axis=1)
        n_snap = int(rng.integers(1, 9))
        amps = rng.standard_normal(n_snap) + 1j * rng.standard_normal(n_snap)
        x = 10.0 ** rng.uniform(-100.0, 100.0) * a[:, :1] * amps
        cov = spatial_covariance(x)
        assert cov.rank_deficient
        spec, clamped = capon_spectrum(cov, a)
        assert clamped == 1
        assert spec[1] == np.delete(spec, 1).max()
        with pytest.raises(ValueError):
            mvdr_weight(cov, a[:, 1])
        want = pinv_spectrum(x, a[:, [0, 2, 3]])[0]
        kappa = 1.0 / PINV_RCOND
        assert np.all(np.abs(spec[[0, 2, 3]] - want) <= CELL_TOL * kappa * EPS * want)


@pytest.mark.parametrize("n_ch, shift", [(3, 2.0 / 3.0), (4, 0.5)])
def test_rank_one_null_direction_clamps_with_steering_computed_from_angles(n_ch, shift):
    # steering exp(-j pi n sin(theta)) computed from each angle carries about n eps of
    # rounding, so along the null direction sin(theta1) +- shift (a^H R^+ a) tr(R) read
    # up to about 1.2 (n eps)^2 |a|^2; an absolute floor of 1e-30 sits below that for
    # 3 and 4 channels, and those cells spiked instead of clamping
    rng = np.random.default_rng(41)
    n = np.arange(n_ch)[:, None]
    for s1 in rng.uniform(-1.0, 1.0, 2000):
        sign = -1.0 if s1 > 1 - shift else 1.0 if s1 < shift - 1 else rng.choice([-1.0, 1.0])
        theta = np.arcsin(np.array([s1, s1 + sign * shift, 0.2, -0.6]))
        a = np.exp(-1j * np.pi * n * np.sin(theta))
        amps = rng.standard_normal(int(rng.integers(1, 9))) * (1.0 + 0.0j)
        x = 10.0 ** rng.uniform(-100.0, 100.0) * a[:, :1] * amps
        cov = spatial_covariance(x)
        spec, clamped = capon_spectrum(cov, a)
        assert clamped == 1
        assert spec[1] == np.delete(spec, 1).max()
        with pytest.raises(ValueError):
            mvdr_weight(cov, a[:, 1])


def test_n_channel_rank_deficient_marks_rank_one_and_zero_only():
    # pinv's rule: rank counts the eigenvalues above PINV_RCOND * lmax; an R
    # of rank two of three keeps the einsum, null directions included
    rng = np.random.default_rng(32)
    x = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
    x[1] = np.outer(x[1, :, 0], rng.standard_normal(6))   # rank one
    x[2] = 0.0                                             # rank zero
    x[3, 2] = x[3, 0] + x[3, 1]                            # rank two
    cov = spatial_covariance(x)
    assert cov.rank_deficient.tolist() == [False, True, True, False]
    full = spatial_covariance(x[[0, 3]])
    a = np.exp(1j * rng.uniform(-np.pi, np.pi, (3, 5)))
    want = np.real(np.einsum("ct,...cd,dt->...t", a.conj(), full.pseudo_inverse, a))
    assert np.array_equal(capon_module._quadratic_form(full, a), want)


def per_bin_map(rd, grid, window, channels):
    """The map built one range bin at a time, as the spatial stage did before stacking."""
    a = capon_steering(grid.azimuth_angles)
    rows = np.empty((rd.shape[1], grid.azimuth_angles.size))
    clamped = 0
    for r in range(rd.shape[1]):
        x = collect_snapshots(rd, r, window, channels)
        rows[r], n = capon_spectrum(spatial_covariance(x), a)
        clamped += n
    return rows, clamped


def assert_map_equals_per_bin(rd, grid, window, channels=(2, 0)):
    ra = capon_range_azimuth(rd, grid, window, channels)
    rows, clamped = per_bin_map(rd, grid, window, channels)
    assert np.array_equal(ra.power, rows)
    assert ra.clamp_count == clamped
    return ra


def test_map_composition_matches_per_bin_ops():
    rng = np.random.default_rng(10)
    for shape, half_width, scale in [((3, 5, 16), 2, 1.0), ((3, 32, 128), 2, 1e-6),
                                     ((3, 7, 32), 0, 1e6), ((2, 12, 64), 5, 1.0)]:
        cube = scale * random_cube(rng, shape)
        z = shape[2] // 2
        window = np.arange(z - half_width, z + half_width + 1)
        channels = (1, 0) if shape[0] == 2 else (2, 0)
        assert_map_equals_per_bin(cube, grid_deg(step=1.0), window, channels)


def test_map_matches_per_bin_ops_on_clutter_filtered_bench_frames():
    cfg = RadarConfig()
    geom = default_geometry(cfg)
    manifest = bench_manifest("capon")
    scene = dataclasses.replace(occupied_benchmark_scenes(1, seed=5)[0], n_frames=6)
    grid = default_grid(manifest.theta_max_deg, manifest.theta_step_deg,
                        manifest.elevations_deg)
    state = init_clutter((cfg.num_rx, cfg.num_range_bins, cfg.chirps_per_frame),
                         alpha=manifest.mti_alpha)
    for i in range(scene.n_frames):
        state, filtered = mti_step(state, process_frame(synthesize_frame(scene, cfg, geom, i),
                                                        cfg))
        window = zero_doppler_window(filtered.shape[2], manifest.doppler_half_width)
        assert_map_equals_per_bin(filtered, grid, window, geom.azimuth_pair)


def test_rank_deficient_and_all_zero_bins_in_one_stack():
    # bin 1 is rank one along boresight, so the endfire cells of its row are
    # singular and clamp to the row's finite maximum; bin 3 is all zero, so
    # every cell is singular and its row comes back as zeros
    rng = np.random.default_rng(12)
    cube = random_cube(rng, (3, 5, 16))
    cube[0, 1] = cube[2, 1]
    cube[:, 3] = 0.0
    grid = SteeringGrid(azimuth_angles=np.deg2rad(np.arange(-90.0, 91.0, 15.0)),
                        elevation_angles=np.array([0.0]))
    ra = assert_map_equals_per_bin(cube, grid, np.arange(6, 11))
    assert ra.clamp_count == 2 + grid.azimuth_angles.size
    row = ra.power[1]
    assert row[0] == row[-1] == row[1:-1].max() > 0
    assert np.all(ra.power[3] == 0)
    assert np.all(np.delete(ra.power, [1, 3], axis=0) > 0)


# --- the closed-form two-channel inverse against pinv ---

EPS = np.finfo(float).eps
# Each spectrum cell and each pseudoinverse entry of the closed form is within
# CELL_TOL * kappa * eps of the pinv result, relative to the cell or to the
# pseudoinverse's norm; kappa = lmax / lmin of R, capped at 1 / PINV_RCOND,
# the largest condition pinv inverts. Both paths round R / tr(R) or R's
# eigenvalues to eps, which moves R^+ and each quadratic form by kappa * eps
# relative (a quadratic form is at least |a|^2 / lmax, R^+ is at most 1 / lmin).
CELL_TOL = 16.0


def condition(r):
    """lmax / lmin of each matrix of the stack, capped at 1 / PINV_RCOND."""
    lam = np.linalg.eigvalsh(r)
    lmin, lmax = lam[..., 0], lam[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(lmin > PINV_RCOND * lmax, lmax / lmin, 1.0 / PINV_RCOND)
    return np.where(lmax > 0, kappa, 1.0)


def pinv_covariance(x):
    """R and the pinv pseudoinverse as the n-channel path makes them."""
    r = x @ x.conj().swapaxes(-1, -2) / x.shape[-1]
    r = (r + r.conj().swapaxes(-1, -2)) / 2.0
    with np.errstate(all="ignore"):  # pinv's inverse overflows below about 1e-308
        rinv = np.linalg.pinv(r, rcond=PINV_RCOND, hermitian=True)
    return r, (rinv + rinv.conj().swapaxes(-1, -2)) / 2.0


def pinv_spectrum(x, a):
    """Spectrum and clamp count from pinv and the einsum: the oracle for two channels."""
    r, rinv = pinv_covariance(x)
    quad = np.real(np.einsum("ct,...cd,dt->...t", a.conj(), rinv, a))
    singular = quad * np.trace(r, axis1=-2, axis2=-1).real[..., None] <= null_floor(a)
    spectrum = np.zeros(quad.shape)
    np.divide(1.0, quad, out=spectrum, where=~singular)
    spectrum = np.where(singular, spectrum.max(axis=-1, keepdims=True), spectrum)
    return spectrum, int(singular.sum())


def assert_spectrum_matches_pinv(x, a):
    """Closed form against the pinv oracle; returns the worst error in units of kappa * eps."""
    with np.errstate(all="ignore"):
        want, want_clamped = pinv_spectrum(x, a)
        got, got_clamped = capon_spectrum(spatial_covariance(x), a)
    if not np.isfinite(want).all():
        assert not np.isfinite(got).all()
        return 0.0
    assert np.isfinite(got).all()
    assert got_clamped == want_clamped
    kappa = condition(pinv_covariance(x)[0])[..., None]
    err = np.abs(got - want)
    assert np.all(err <= CELL_TOL * kappa * EPS * want)
    return float(np.max(err / (kappa * EPS * np.where(want > 0, want, 1.0)), initial=0.0))


def test_stacked_covariance_is_the_per_matrix_arithmetic():
    # the two-dimensional formulas written out: R = X X^H / N_D, symmetrised,
    # pinv, symmetrised again; a stack must give each matrix's exact bits for
    # three channels, and within CELL_TOL * kappa * eps for two, which take
    # the closed form (rank one in matrix 6, all zero in matrix 4)
    rng = np.random.default_rng(13)
    for n_ch in (2, 3):
        x = rng.standard_normal((9, n_ch, 5)) + 1j * rng.standard_normal((9, n_ch, 5))
        x[4] = 0.0
        x[6, 1] = x[6, 0]
        cov = spatial_covariance(x)
        for m in range(x.shape[0]):
            r, rinv = pinv_covariance(x[m])
            assert np.array_equal(cov.matrix[m], r)
            if n_ch == 3:
                assert np.array_equal(cov.pseudo_inverse[m], rinv)
            else:
                tol = CELL_TOL * condition(r) * EPS * np.linalg.norm(rinv, 2)
                assert np.all(np.abs(cov.pseudo_inverse[m] - rinv) <= tol)
                assert np.array_equal(cov.pseudo_inverse[m], cov.pseudo_inverse[m].conj().T)
        assert np.all(cov.pseudo_inverse[4] == 0)


def pair_snapshots(rng, kind, n_snap, rcond_factor):
    """One (2, n_snap) snapshot matrix of the given kind, at unit scale."""
    if kind == "zero":
        return np.zeros((2, n_snap), dtype=complex)
    if kind == "random":
        return rng.standard_normal((2, n_snap)) + 1j * rng.standard_normal((2, n_snap))
    if kind == "rank_one" or n_snap == 1:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return np.outer(v, rng.standard_normal(n_snap) + 1j * rng.standard_normal(n_snap))
    # eigenvalues 1 and rcond_factor * PINV_RCOND, so lmin / lmax sits on the
    # chosen side of pinv's rank cut: R = X X^H / N = U diag(lam) U^H
    q = np.linalg.qr(rng.standard_normal((n_snap, 2)) + 1j * rng.standard_normal((n_snap, 2)))[0]
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    lam = np.array([1.0, rcond_factor * PINV_RCOND])
    return np.sqrt(n_snap) * (u * np.sqrt(lam)) @ q.conj().T


@st.composite
def pair_stacks(draw):
    """(..., 2, N) stacks whose matrices are random, rank one, all zero or near the rank cut.

    Each matrix has its own scale 10^e, e in [-150, 150]. Near the cut,
    lmin / lmax is 1.1 to 10 times PINV_RCOND above it or below it.
    """
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    n_snap = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.empty(shape + (2, n_snap), dtype=complex)
    for idx in np.ndindex(*shape):
        kind = draw(st.sampled_from(["random", "rank_one", "zero", "above_cut", "below_cut"]))
        factor = 10.0 ** draw(st.floats(0.05, 1.0))
        if kind == "below_cut":
            factor = 1.0 / factor
        x[idx] = 10.0 ** draw(st.integers(-150, 150)) * pair_snapshots(rng, kind, n_snap, factor)
    return x


def near_pinv_overflow(x):
    # pinv and the closed form both overflow once 1 / lmin nears the float64
    # maximum, but by their own rounding; that band is left out of the comparison
    r = pinv_covariance(x)[0]
    lam = np.linalg.eigvalsh(r)
    kept = np.where(lam > PINV_RCOND * lam[..., -1:], lam, np.inf)
    lmin = kept.min(axis=-1)
    return bool(np.any((lmin > 1e-311) & (lmin < 1e-305)))


@settings(max_examples=300, deadline=None)
@given(pair_stacks())
def test_closed_form_spectrum_matches_pinv_on_drawn_stacks(x):
    # wherever pinv gives a finite spectrum, the closed form gives the same
    # clamp count and cells within CELL_TOL * kappa * eps; wherever pinv's
    # spectrum is not finite (its inverse overflows), neither is the closed form's
    assume(not near_pinv_overflow(x))
    assert_spectrum_matches_pinv(x, capon_steering(grid_deg(step=1.0).azimuth_angles))


def test_closed_form_map_matches_pinv_on_clutter_filtered_bench_frames():
    cfg = RadarConfig()
    geom = default_geometry(cfg)
    manifest = bench_manifest("capon")
    scene = dataclasses.replace(occupied_benchmark_scenes(1, seed=5)[0], n_frames=6)
    state = init_clutter((cfg.num_rx, cfg.num_range_bins, cfg.chirps_per_frame),
                         alpha=manifest.mti_alpha)
    for i in range(scene.n_frames):
        state, filtered = mti_step(state, process_frame(synthesize_frame(scene, cfg, geom, i),
                                                        cfg))
        window = zero_doppler_window(filtered.shape[2], manifest.doppler_half_width)
        x = collect_snapshots(filtered, np.arange(filtered.shape[1]), window, geom.azimuth_pair)
        assert_spectrum_matches_pinv(x, manifest.grid.pair_steering)


def test_spectrum_floor_does_not_depend_on_scale():
    # the singular test is (a^H R^+ a) tr(R) <= null_floor(a), so a scaled
    # stack gives the scaled spectrum and no clamps; with an absolute floor on
    # a^H R^+ a alone, a stack at 1e100 clamped every cell to a zero row
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 2, 5)) + 1j * rng.standard_normal((4, 2, 5))
    a = capon_steering(grid_deg().azimuth_angles)
    unit, clamped = capon_spectrum(spatial_covariance(x), a)
    assert clamped == 0
    for scale in (1e-100, 1e-20, 1e20, 1e100):
        spec, clamped = capon_spectrum(spatial_covariance(scale * x), a)
        assert clamped == 0
        assert np.allclose(spec, scale ** 2 * unit, rtol=1e-9, atol=0.0)
        w = mvdr_weight(spatial_covariance(scale * x[0]), a[:, 3])
        assert abs(np.vdot(w, a[:, 3]) - 1.0) <= 1e-10


def capon_maps_of_file(path, monkeypatch):
    """The Capon maps ``process_recording`` makes from a file, with each frame's snapshots."""
    maps = []

    def keep(rd, grid, window, channels):
        ra = capon_range_azimuth(rd, grid, window, channels)
        maps.append((ra, collect_snapshots(rd, np.arange(rd.shape[1]), window, channels)))
        return ra

    monkeypatch.setattr(capon_module, "capon_range_azimuth", keep)
    list(process_recording(read_recording(path), RunManifest(method="capon")))
    return maps


def test_recording_file_at_the_float32_maximum_gives_the_scaled_map(tmp_path, monkeypatch):
    # components at +-float32 max make R about 1e84 and a^H R^+ a about 1e-84; the
    # singular test on (a^H R^+ a) tr(R) clamps none of it, so the map is max^2
    # times the unit-amplitude map (an absolute floor on a^H R^+ a zeroed every cell)
    cfg = RadarConfig()
    scene = dataclasses.replace(occupied_benchmark_scenes(1, seed=5)[0], n_frames=3)
    rec = synthesize_recording(scene, cfg, default_geometry(cfg))
    signs = np.random.default_rng(7).choice([-1.0, 1.0], (2,) + rec.samples.shape)
    f32_max = float(np.finfo(np.float32).max)
    runs = {}
    for value in (1.0, f32_max):
        path = tmp_path / f"{value}.rec"
        write_recording(path, dataclasses.replace(rec, samples=value * (signs[0] + 1j * signs[1])))
        runs[value] = capon_maps_of_file(path, monkeypatch)
    assert len(runs[f32_max]) == 3
    for (unit, x), (big, _) in zip(runs[1.0], runs[f32_max]):
        assert unit.clamp_count == big.clamp_count == 0
        want = f32_max ** 2 * unit.power
        kappa = condition(spatial_covariance(x).matrix)[:, None]
        assert np.all(np.abs(big.power - want) <= CELL_TOL * kappa * EPS * want)


def test_stacked_covariance_checks_every_matrix():
    x = np.ones((6, 2, 5), dtype=complex)
    x[4, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        spatial_covariance(x)


def test_collect_snapshots_stacks_range_bins():
    cube = random_cube(np.random.default_rng(14), (3, 6, 16))
    window = np.arange(6, 11)
    stack = collect_snapshots(cube, np.arange(6), window, (2, 0))
    assert stack.shape == (6, 2, 5)
    for r in range(6):
        assert np.array_equal(stack[r], collect_snapshots(cube, r, window, (2, 0)))
    with pytest.raises(ValueError, match="range_bin"):
        collect_snapshots(cube, np.array([0, 6]), window, (2, 0))


def test_map_takes_a_receiver_pair_only():
    # the steering is the two-element pair model; a third channel has no steering row
    cube = random_cube(np.random.default_rng(11), (3, 4, 16))
    with pytest.raises(ValueError, match="steering dimension"):
        capon_range_azimuth(cube, grid_deg(), np.arange(6, 11), (0, 1, 2))
