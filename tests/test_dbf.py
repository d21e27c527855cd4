import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch.bench import bench_manifest, occupied_benchmark_scenes
from floorwatch.core import ArrayGeometry, RadarConfig, default_geometry
from floorwatch.dbf import (RangeAzimuthMap, SteeringGrid, dbf_power,
                            dbf_range_azimuth, dbf_weights, default_grid,
                            element_phases)
from floorwatch.frontend import RangeDopplerCube, process_frame, zero_doppler_window
from floorwatch.mti import init_clutter, mti_step
from floorwatch.sim import synthesize_frame

LAM = 5e-3


def l_geom():
    return ArrayGeometry(wavelength=LAM,
                         element_offsets=((LAM / 2, 0.0), (0.0, LAM / 2), (0.0, 0.0)),
                         azimuth_pair=(2, 0))


def small_grid():
    az = np.deg2rad(np.arange(-30.0, 31.0, 10.0))
    el = np.deg2rad(np.array([-5.0, 0.0, 5.0]))
    return SteeringGrid(azimuth_angles=az, elevation_angles=el)


def test_default_grid_shape():
    grid = default_grid()
    assert grid.azimuth_angles.size == 121
    assert grid.elevation_angles.size == 3
    assert 0.0 in grid.azimuth_angles


def test_grid_validation():
    with pytest.raises(ValueError):
        SteeringGrid(azimuth_angles=np.array([0.1, 0.2]), elevation_angles=np.array([0.0]))
    with pytest.raises(ValueError):
        SteeringGrid(azimuth_angles=np.array([0.2, 0.1, 0.0]), elevation_angles=np.array([0.0]))


@pytest.mark.parametrize("az, el", [
    ([-1.6, 0.0, 1.6], [0.0]),              # azimuth beyond +/-90 degrees
    ([-0.1, 0.0, 0.1], [-1.6, 0.0]),        # elevation beyond
    ([-0.1, 0.0, 0.1], [np.nan]),
])
def test_grid_rejects_look_directions_beyond_90_degrees(az, el):
    with pytest.raises(ValueError, match="within"):
        SteeringGrid(azimuth_angles=np.array(az), elevation_angles=np.array(el))
    # the grid edges themselves are valid
    SteeringGrid(azimuth_angles=np.array([-np.pi / 2, 0.0, np.pi / 2]),
                 elevation_angles=np.array([-np.pi / 2, np.pi / 2]))


def test_weights_at_boresight():
    w = dbf_weights(small_grid(), l_geom())
    i0 = 3  # azimuth 0 in the small grid
    j0 = 1  # elevation 0
    assert np.allclose(w[i0, j0], [1.0, 1.0, 1.0])


def test_weights_at_30deg():
    # half-wavelength azimuth offset: phase pi*sin(30 deg) = pi/2 on the
    # x element, zero on the others at zero elevation
    grid = small_grid()
    w = dbf_weights(grid, l_geom())
    i = int(np.argmin(np.abs(grid.azimuth_angles - np.deg2rad(30.0))))
    expected = np.exp(1j * np.pi * np.sin(np.deg2rad(30.0)))
    assert w[i, 1, 0] == pytest.approx(expected, rel=1e-12)
    assert w[i, 1, 1] == pytest.approx(1.0)
    assert w[i, 1, 2] == pytest.approx(1.0)


def test_weights_unit_modulus_everywhere():
    w = dbf_weights(default_grid(), l_geom())
    assert w.shape == (121, 3, 3)
    assert np.allclose(np.abs(w), 1.0, atol=1e-12)


def test_elevation_phase_term():
    geom = l_geom()
    phases = element_phases(geom, 0.0, np.deg2rad(10.0))
    assert phases[0] == pytest.approx(0.0, abs=1e-12)
    assert phases[1] == pytest.approx(np.pi * np.sin(np.deg2rad(10.0)), rel=1e-12)
    assert phases[2] == 0.0


def brute_force_power(z, w, window):
    n_rx, n_r, _ = z.shape
    n_t, n_p, _ = w.shape
    out = np.zeros((n_r, n_t, n_p, len(window)), dtype=complex)
    for r in range(n_r):
        for t in range(n_t):
            for p in range(n_p):
                for di, d in enumerate(window):
                    acc = 0.0 + 0.0j
                    for m in range(n_rx):
                        acc += z[m, r, d] * w[t, p, m]
                    out[r, t, p, di] = acc
    return out


def test_dbf_power_matches_brute_force():
    rng = np.random.default_rng(0)
    grid = small_grid()
    geom = l_geom()
    w = dbf_weights(grid, geom)
    for _ in range(10):
        z = rng.standard_normal((3, 5, 8)) + 1j * rng.standard_normal((3, 5, 8))
        cube = RangeDopplerCube(values=z)
        window = np.array([3, 4, 5])
        got = dbf_power(cube, w, window)
        want = brute_force_power(z, w, window)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_dbf_power_phase_cancellation_identity():
    # data equal to the conjugate weights of one grid direction gives |P| = n_rx there
    grid = small_grid()
    geom = l_geom()
    w = dbf_weights(grid, geom)
    t_star, p_star = 5, 2
    z = np.conj(w[t_star, p_star])[:, None, None] * np.ones((3, 4, 8))
    cube = RangeDopplerCube(values=z)
    p = dbf_power(cube, w, np.array([4]))
    assert np.abs(p[0, t_star, p_star, 0]) == pytest.approx(3.0, rel=1e-12)
    assert np.all(np.abs(p[0]) <= 3.0 + 1e-9)


def test_dbf_power_zero_data():
    grid = small_grid()
    w = dbf_weights(grid, l_geom())
    cube = RangeDopplerCube(values=np.zeros((3, 4, 8), dtype=complex))
    assert np.all(dbf_power(cube, w, np.array([4])) == 0)


def test_dbf_power_window_validation():
    grid = small_grid()
    w = dbf_weights(grid, l_geom())
    cube = RangeDopplerCube(values=np.zeros((3, 4, 8), dtype=complex))
    with pytest.raises(ValueError):
        dbf_power(cube, w, np.array([], dtype=int))
    with pytest.raises(ValueError):
        dbf_power(cube, w, np.array([8]))


def test_dbf_power_checks_weight_shape_and_receiver_count():
    w = dbf_weights(small_grid(), l_geom())
    cube = RangeDopplerCube(values=np.zeros((3, 4, 8), dtype=complex))
    with pytest.raises(ValueError, match=r"\[azimuth\]\[elevation\]\[rx\]"):
        dbf_power(cube, w[:, 0], np.array([4]))
    with pytest.raises(ValueError, match="receiver count"):
        dbf_power(cube, w[:, :, :2], np.array([4]))


# --- bit equality with the 4-D einsum the beam stage replaced ---

def assert_beam_is_the_4d_einsum(cube, w, window):
    """Spectrum, memory layout and map equal those of einsum("mrd,tpm->rtpd"), bit for bit."""
    want = np.einsum("mrd,tpm->rtpd", cube.values[:, :, window], w)
    got = dbf_power(cube, w, window)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if min(got.shape) > 1:  # the layout of a tensor with a length-1 axis is numpy's choice
        assert got.strides == want.strides
    # the map reduces in memory order, so the layout is what makes it equal
    assert np.array_equal(dbf_range_azimuth(got).power, np.abs(want).sum(axis=(2, 3)))


@st.composite
def beam_cases(draw):
    n_rx, n_r, n_dop = draw(st.integers(1, 5)), draw(st.integers(1, 24)), draw(st.integers(1, 24))
    n_t, n_p = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8, 8))
    z = scale * (rng.standard_normal((n_rx, n_r, n_dop))
                 + 1j * rng.standard_normal((n_rx, n_r, n_dop)))
    z[:, rng.random(n_r) < 0.2] = 0.0  # all-zero range bins
    w = np.exp(1j * rng.uniform(-np.pi, np.pi, (n_t, n_p, n_rx)))
    lo = draw(st.integers(0, n_dop - 1))
    window = np.arange(lo, draw(st.integers(lo, n_dop - 1)) + 1)
    return RangeDopplerCube(values=z), w, window


@settings(max_examples=200, deadline=None)
@given(beam_cases())
def test_beam_equals_the_4d_einsum_on_drawn_shapes(case):
    assert_beam_is_the_4d_einsum(*case)


def test_beam_equals_the_4d_einsum_on_clutter_filtered_bench_frames():
    cfg = RadarConfig()
    geom = default_geometry(cfg)
    manifest = bench_manifest("dbf")
    scene = dataclasses.replace(occupied_benchmark_scenes(1, seed=5)[0], n_frames=6)
    w = dbf_weights(default_grid(manifest.theta_max_deg, manifest.theta_step_deg,
                                 manifest.elevations_deg), geom)
    state = init_clutter((cfg.num_rx, cfg.num_range_bins, cfg.chirps_per_frame),
                         alpha=manifest.mti_alpha)
    for i in range(scene.n_frames):
        state, filtered = mti_step(state, process_frame(synthesize_frame(scene, cfg, geom, i),
                                                        cfg))
        window = zero_doppler_window(filtered.num_doppler_bins, manifest.doppler_half_width)
        assert_beam_is_the_4d_einsum(filtered, w, window)


def test_range_azimuth_single_column():
    spectrum = np.zeros((4, 7, 3, 5), dtype=complex)
    spectrum[2, 3, 1, :] = 1.0 + 1.0j
    ra = dbf_range_azimuth(spectrum)
    nz = np.nonzero(ra.power)
    assert set(nz[1].tolist()) == {3}
    assert ra.power[2, 3] == pytest.approx(5 * np.sqrt(2.0))


def test_range_azimuth_degenerate_elevation():
    rng = np.random.default_rng(4)
    spectrum = rng.standard_normal((4, 7, 1, 5)) + 1j * rng.standard_normal((4, 7, 1, 5))
    ra = dbf_range_azimuth(spectrum)
    assert np.allclose(ra.power, np.abs(spectrum[:, :, 0, :]).sum(axis=-1))


def test_ra_map_invariant_under_global_phase():
    rng = np.random.default_rng(8)
    grid = small_grid()
    geom = l_geom()
    w = dbf_weights(grid, geom)
    z = rng.standard_normal((3, 5, 8)) + 1j * rng.standard_normal((3, 5, 8))
    window = np.array([3, 4, 5])
    ra1 = dbf_range_azimuth(dbf_power(RangeDopplerCube(values=z), w, window))
    z2 = z * np.exp(1j * 0.77)
    ra2 = dbf_range_azimuth(dbf_power(RangeDopplerCube(values=z2), w, window))
    assert np.allclose(ra1.power, ra2.power, rtol=1e-12)


def test_ra_map_validation():
    with pytest.raises(ValueError):
        RangeAzimuthMap(power=-np.ones((2, 2)))
    with pytest.raises(ValueError):
        RangeAzimuthMap(power=np.array([[1.0, np.nan]]))


def test_work_scales_with_azimuth_grid():
    # doubling the azimuth grid roughly doubles the beamforming work;
    # generous bounds to tolerate timer noise
    geom = default_geometry(RadarConfig())
    cube = RangeDopplerCube(
        values=np.random.default_rng(0).standard_normal((3, 32, 128))
        + 1j * np.random.default_rng(1).standard_normal((3, 32, 128)))
    window = np.arange(54, 75)

    def timed(n_theta):
        az = np.deg2rad(np.linspace(-60, 60, n_theta))
        az = az - az[np.argmin(np.abs(az))]  # force an exact zero point
        grid = SteeringGrid(azimuth_angles=az, elevation_angles=np.deg2rad([-10.0, 0.0, 10.0]))
        w = dbf_weights(grid, geom)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            dbf_power(cube, w, window)
            best = min(best, time.perf_counter() - t0)
        return best

    t1 = timed(401)
    t2 = timed(802)
    assert 1.3 <= t2 / t1 <= 3.5
