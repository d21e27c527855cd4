import numpy as np
import pytest

from floorwatch.capon import check_pair_geometry
from floorwatch.core import (SPEED_OF_LIGHT, ArrayGeometry, RadarConfig, chirp_slope,
                             config_from_dict, config_to_dict, default_geometry,
                             geometry_from_dict, geometry_to_dict, max_range, range_resolution)


def test_chirp_slope_identity():
    cfg = RadarConfig(bandwidth=1.0, chirp_duration=1.0)
    assert chirp_slope(cfg) == 1.0


def test_chirp_slope_default_profile():
    cfg = RadarConfig(bandwidth=500e6, chirp_duration=500e-6)
    assert chirp_slope(cfg) == pytest.approx(1.0e12)


def test_zero_bandwidth_rejected():
    with pytest.raises(ValueError):
        RadarConfig(bandwidth=0.0)


def test_beat_frequency_at_max_range_fits_last_usable_bin():
    # the beat tone 2 * slope * r / c of a reflector at the far edge must fall
    # at the last kept FFT bin; checked against the bin spacing 1 / chirp_duration
    cfg = RadarConfig(bandwidth=500e6, chirp_duration=500e-6)
    f = chirp_slope(cfg) * 2.0 * 9.6 / SPEED_OF_LIGHT
    assert f == pytest.approx(6.404e4, rel=1e-3)
    bin_spacing = 1.0 / cfg.chirp_duration
    assert f / bin_spacing <= cfg.num_range_bins + 0.05
    assert f / bin_spacing > cfg.num_range_bins - 1


def test_range_resolution_values():
    assert range_resolution(RadarConfig()) == pytest.approx(0.30, rel=0.01)
    assert range_resolution(RadarConfig(bandwidth=SPEED_OF_LIGHT / 2)) == pytest.approx(1.0)
    assert range_resolution(RadarConfig(bandwidth=1e9)) == pytest.approx(0.1499, rel=1e-3)


def test_max_range_values():
    assert max_range(RadarConfig()) == pytest.approx(9.6, rel=0.01)
    cfg = RadarConfig(bandwidth=SPEED_OF_LIGHT / 2, samples_per_chirp=2)
    assert max_range(cfg) == pytest.approx(1.0)
    assert max_range(RadarConfig(bandwidth=1e9)) == pytest.approx(4.80, rel=1e-3)


def test_scaling_homogeneity():
    # slope scales as 1/T_c, range resolution as 1/B
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = float(rng.uniform(1e8, 2e9))
        t = float(rng.uniform(1e-5, 1e-3))
        c = float(rng.uniform(1.5, 4.0))
        assert chirp_slope(RadarConfig(bandwidth=c * b, chirp_duration=t)) == pytest.approx(
            c * chirp_slope(RadarConfig(bandwidth=b, chirp_duration=t)), rel=1e-12)
        assert chirp_slope(RadarConfig(bandwidth=b, chirp_duration=c * t)) == pytest.approx(
            chirp_slope(RadarConfig(bandwidth=b, chirp_duration=t)) / c, rel=1e-12)
        assert range_resolution(RadarConfig(bandwidth=c * b)) == pytest.approx(
            range_resolution(RadarConfig(bandwidth=b)) / c, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        RadarConfig(chirps_per_frame=1)
    with pytest.raises(ValueError):
        RadarConfig(num_rx=1)
    with pytest.raises(ValueError):
        RadarConfig(frame_rate=0.0)


def test_default_chirp_interval_matches_unambiguous_speed():
    cfg = RadarConfig()
    v_max = cfg.wavelength / (4.0 * cfg.chirp_repetition_interval)
    assert v_max == pytest.approx(3.0, rel=1e-9)
    assert cfg.chirp_repetition_interval == pytest.approx(416.7e-6, rel=1e-3)


def test_default_geometry_layout():
    cfg = RadarConfig()
    geom = default_geometry(cfg)
    assert geom.num_rx == 3
    check_pair_geometry(geom)  # the azimuth pair is half a wavelength apart along x
    i, j = geom.azimuth_pair
    assert i != j


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(wavelength=5e-3, element_offsets=((0, 0), (1e-3, 0)), azimuth_pair=(0, 0))
    with pytest.raises(ValueError):
        ArrayGeometry(wavelength=5e-3, element_offsets=((0, 0), (1e-3, 0)), azimuth_pair=(0, 5))


def test_config_json_round_trip():
    cfg = RadarConfig(bandwidth=750e6, chirps_per_frame=64)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ValueError):
        config_from_dict({"bandwidth": 1e9, "bogus_field": 1})


def test_geometry_json_round_trip():
    geom = default_geometry(RadarConfig())
    back = geometry_from_dict(geometry_to_dict(geom))
    assert back.azimuth_pair == geom.azimuth_pair
    assert np.allclose(back.offsets_array(), geom.offsets_array())
