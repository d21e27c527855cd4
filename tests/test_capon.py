import dataclasses

import numpy as np
import pytest

from floorwatch.bench import bench_manifest, occupied_benchmark_scenes
from floorwatch.capon import (SpatialCovariance, capon_range_azimuth,
                              capon_spectrum, capon_steering, collect_snapshots,
                              mvdr_weight, spatial_covariance)
from floorwatch.core import ArrayGeometry, RadarConfig, default_geometry
from floorwatch.dbf import SteeringGrid, default_grid, element_phases
from floorwatch.frontend import process_frame, zero_doppler_window
from floorwatch.mti import init_clutter, mti_step
from floorwatch.sim import synthesize_frame

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
                            pseudo_inverse=np.eye(2, dtype=complex))
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


def test_stacked_covariance_is_the_per_matrix_arithmetic():
    # the two-dimensional formulas written out: R = X X^H / N_D, symmetrised,
    # pinv, symmetrised again; a stack must give each matrix's exact bits
    rng = np.random.default_rng(13)
    x = rng.standard_normal((9, 2, 5)) + 1j * rng.standard_normal((9, 2, 5))
    x[4] = 0.0
    x[6, 1] = x[6, 0]
    cov = spatial_covariance(x)
    for m in range(x.shape[0]):
        r = x[m] @ x[m].conj().T / x.shape[2]
        r = (r + r.conj().T) / 2.0
        rinv = np.linalg.pinv(r, rcond=1e-12, hermitian=True)
        rinv = (rinv + rinv.conj().T) / 2.0
        assert np.array_equal(cov.matrix[m], r)
        assert np.array_equal(cov.pseudo_inverse[m], rinv)


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
