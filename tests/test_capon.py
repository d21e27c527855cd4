import time

import numpy as np
import pytest

from floorwatch.capon import (SpatialCovariance, capon_range_azimuth,
                              capon_spectrum, capon_steering, collect_snapshots,
                              mvdr_weight, spatial_covariance, steering_matrix)
from floorwatch.core import ArrayGeometry
from floorwatch.dbf import SteeringGrid
from floorwatch.frontend import RangeDopplerCube

LAM = 5e-3


def l_geom():
    return ArrayGeometry(wavelength=LAM,
                         element_offsets=((LAM / 2, 0.0), (0.0, LAM / 2), (0.0, 0.0)),
                         azimuth_pair=(2, 0))


def grid_deg(step=2.0, span=60.0):
    az = np.deg2rad(np.arange(-span, span + step / 2, step))
    return SteeringGrid(azimuth_angles=az, elevation_angles=np.array([0.0]))


def random_cube(rng, shape=(3, 6, 16)):
    return RangeDopplerCube(
        values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        doppler_zero_index=shape[2] // 2)


# --- snapshots ---

def test_collect_snapshots_single_bin():
    cube = random_cube(np.random.default_rng(0))
    x = collect_snapshots(cube, 2, np.array([8]), (2, 0))
    assert x.shape == (2, 1)
    assert x[0, 0] == cube.values[2, 2, 8]
    assert x[1, 0] == cube.values[0, 2, 8]


def test_collect_snapshots_copy_semantics():
    cube = random_cube(np.random.default_rng(1))
    window = np.arange(6, 11)
    x = collect_snapshots(cube, 3, window, (2, 0))
    assert x.shape == (2, 5)
    assert np.array_equal(x[0], cube.values[2, 3, 6:11])
    assert np.array_equal(x[1], cube.values[0, 3, 6:11])


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
    with pytest.raises(ValueError):
        SpatialCovariance(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]),
                          pseudo_inverse=np.zeros((2, 2)))


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
    assert a.shape == (2, grid.num_azimuth)
    for i, theta in enumerate(grid.azimuth_angles):
        assert np.array_equal(a[:, i], capon_steering(float(theta)))
    assert np.array_equal(steering_matrix(grid, 2), a)
    with pytest.raises(ValueError):
        capon_steering(np.array([0.0, 2.0]))


def test_steering_matrix_three_channel_mode():
    grid = grid_deg()
    a = steering_matrix(grid, 3, l_geom())
    assert a.shape == (3, grid.num_azimuth)
    assert np.allclose(np.abs(a), 1.0)
    i0 = int(np.argmin(np.abs(grid.azimuth_angles)))
    assert np.allclose(a[:, i0], 1.0)
    with pytest.raises(ValueError):
        steering_matrix(grid, 3, None)


# --- spectrum ---

def test_spectrum_identity_covariance_is_flat():
    cov = SpatialCovariance(matrix=np.eye(2, dtype=complex),
                            pseudo_inverse=np.eye(2, dtype=complex))
    grid = grid_deg()
    a = steering_matrix(grid, 2)
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
    a = steering_matrix(grid, 2)
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
    a = steering_matrix(grid, 2)
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
    a = steering_matrix(grid, 4, geom4)
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
    a = steering_matrix(grid, 2)
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
    a = steering_matrix(grid_deg(), 3, l_geom())
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
        capon_spectrum(cov, steering_matrix(grid_deg(), 3, l_geom()))


# --- full map ---

def test_zero_cube_gives_zero_map_with_clamps():
    grid = grid_deg()
    cube = RangeDopplerCube(values=np.zeros((3, 4, 16), dtype=complex), doppler_zero_index=8)
    ra = capon_range_azimuth(cube, grid, np.arange(6, 11), (2, 0))
    assert ra.method_tag == "capon"
    assert np.all(ra.power == 0)
    assert ra.clamp_count == 4 * grid.num_azimuth


def test_rank_deficient_direction_clamped_to_row_max():
    # a boresight-only rank-one covariance is exactly orthogonal to the
    # endfire steering vectors; those grid cells clamp to the row's finite max
    grid = SteeringGrid(azimuth_angles=np.deg2rad(np.arange(-90.0, 91.0, 30.0)),
                        elevation_angles=np.array([0.0]))
    cov = spatial_covariance(np.array([[1.0], [1.0]], dtype=complex))
    spec, clamped = capon_spectrum(cov, steering_matrix(grid, 2))
    assert clamped == 2
    finite = np.delete(spec, [0, len(spec) - 1])
    assert spec[0] == pytest.approx(finite.max())
    assert spec[-1] == pytest.approx(finite.max())


def test_map_composition_matches_per_bin_ops():
    rng = np.random.default_rng(10)
    cube = random_cube(rng, (3, 5, 16))
    grid = grid_deg()
    window = np.arange(6, 11)
    ra = capon_range_azimuth(cube, grid, window, (2, 0))
    a = steering_matrix(grid, 2)
    for r in range(5):
        x = collect_snapshots(cube, r, window, (2, 0))
        spec, _ = capon_spectrum(spatial_covariance(x), a)
        assert np.allclose(ra.power[r], spec, rtol=1e-12)


def test_map_three_channel_mode():
    rng = np.random.default_rng(11)
    cube = random_cube(rng, (3, 4, 16))
    ra = capon_range_azimuth(cube, grid_deg(), np.arange(6, 11), (0, 1, 2), geom=l_geom())
    assert ra.power.shape == (4, grid_deg().num_azimuth)
    assert np.all(np.isfinite(ra.power))


def test_work_scales_with_channel_count():
    # spectrum evaluation is quadratic in the channel count; compare 2 vs 6
    # channels on a dense grid so the quadratic-form work dominates
    rng = np.random.default_rng(12)
    az = np.deg2rad(np.arange(-1200, 1201) * 0.05)
    grid = SteeringGrid(azimuth_angles=az, elevation_angles=np.array([0.0]))

    def timed(n_ch):
        offsets = tuple((m * LAM / 2, 0.0) for m in range(n_ch))
        geom = ArrayGeometry(wavelength=LAM, element_offsets=offsets, azimuth_pair=(0, 1))
        cube = random_cube(rng, (n_ch, 32, 64))
        window = np.arange(27, 38)
        channels = tuple(range(n_ch))
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            capon_range_azimuth(cube, grid, window, channels, geom=geom)
            best = min(best, time.perf_counter() - t0)
        return best

    t2 = timed(2)
    t6 = timed(6)
    assert t6 / t2 >= 2.0
