import numpy as np
import pytest

from floorwatch.core import RadarConfig
from floorwatch.frontend import (RangeDopplerCube, doppler_fft, process_frame, range_fft,
                                 zero_doppler_window)


def small_cfg():
    return RadarConfig(chirps_per_frame=16, samples_per_chirp=32, num_rx=2)


def dft_oracle(x):
    """Direct O(n^2) DFT of the Hann-tapered sequence, independent of the FFT library."""
    n = len(x)
    k = np.arange(n)
    x = x * np.hanning(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


def test_range_fft_dc_input():
    cfg = small_cfg()
    prof = range_fft(np.ones((2, 16, 32), dtype=complex), cfg)
    assert prof.shape == (2, 16, 16)
    assert np.argmax(np.abs(prof[0, 0])) == 0
    oracle = dft_oracle(np.ones(32))[:16]
    assert np.allclose(prof, oracle, rtol=1e-9, atol=1e-9)


def test_range_fft_pure_tone_matches_dft_oracle():
    cfg = small_cfg()
    n = cfg.samples_per_chirp
    t = np.arange(n)
    tone = np.exp(2j * np.pi * 5 * t / n)
    prof = range_fft(np.tile(tone, (2, 16, 1)), cfg)
    assert np.argmax(np.abs(prof[0, 0])) == 5
    oracle = dft_oracle(tone)[: n // 2]
    assert np.allclose(prof, oracle, rtol=1e-9, atol=1e-9)


def test_range_fft_zero_frame():
    cfg = small_cfg()
    assert np.all(range_fft(np.zeros((2, 16, 32), dtype=complex), cfg) == 0)


def test_range_fft_dimension_mismatch():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        range_fft(np.zeros((2, 16, 8), dtype=complex), cfg)


def test_doppler_fft_static_input_centered():
    cfg = small_cfg()
    profiles = np.ones((2, 16, 16), dtype=complex)
    cube = doppler_fft(profiles, cfg)
    assert cube.num_doppler_bins // 2 == 8
    assert np.argmax(np.abs(cube.values[0, 0])) == 8
    oracle = np.fft.fftshift(dft_oracle(np.ones(16)))
    assert np.allclose(cube.values, oracle, rtol=1e-9, atol=1e-9)


def test_doppler_fft_phase_ramp_offsets_peak():
    cfg = small_cfg()
    n = cfg.chirps_per_frame
    d0 = 3
    ramp = np.exp(2j * np.pi * d0 * np.arange(n) / n)
    profiles = np.tile(ramp[None, :, None], (2, 1, 16))
    cube = doppler_fft(profiles, cfg)
    mags = np.abs(cube.values[1, 4])
    assert np.argmax(mags) == cube.num_doppler_bins // 2 + d0
    # oracle: direct DFT of the tapered slow-time sequence, recentered
    oracle = np.fft.fftshift(dft_oracle(ramp))
    assert np.allclose(cube.values[0, 0], oracle, rtol=1e-9, atol=1e-9)


def test_doppler_fft_zero_input():
    cfg = small_cfg()
    cube = doppler_fft(np.zeros((2, 16, 16), dtype=complex), cfg)
    assert np.all(cube.values == 0)


def test_process_frame_composes():
    cfg = small_cfg()
    cube = process_frame(np.zeros((2, 16, 32), dtype=complex), cfg)
    assert cube.values.shape == (2, 16, 16)
    assert np.all(cube.values == 0)


def test_parseval_each_stage_full_spectrum():
    # unnormalized FFT: sum|X|^2 = N * sum|w x|^2 for the Hann-tapered input,
    # checked against the full spectrum before the kept-half convention discards bins
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 16, 32)) + 1j * rng.standard_normal((2, 16, 32))
    tapered = x * np.hanning(32)
    energy_in = np.sum(np.abs(tapered) ** 2, axis=(1, 2))
    full_range = np.fft.fft(tapered, axis=2)
    assert np.allclose(np.sum(np.abs(full_range) ** 2, axis=(1, 2)),
                       cfg.samples_per_chirp * energy_in, rtol=1e-6)
    prof = range_fft(x, cfg)
    assert np.allclose(prof, full_range[:, :, :16], rtol=1e-12)
    full_doppler = np.fft.fft(prof, axis=1)
    assert np.allclose(np.sum(np.abs(full_doppler) ** 2, axis=(1, 2)),
                       cfg.chirps_per_frame * np.sum(np.abs(prof) ** 2, axis=(1, 2)),
                       rtol=1e-6)


def test_process_frame_linearity():
    cfg = small_cfg()
    rng = np.random.default_rng(11)
    f1 = rng.standard_normal((2, 16, 32)) + 1j * rng.standard_normal((2, 16, 32))
    f2 = rng.standard_normal((2, 16, 32)) + 1j * rng.standard_normal((2, 16, 32))
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    lhs = process_frame(a * f1 + b * f2, cfg).values
    rhs = a * process_frame(f1, cfg).values + b * process_frame(f2, cfg).values
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * np.abs(rhs).max())


def test_inter_receiver_phase_preserved():
    cfg = small_cfg()
    rng = np.random.default_rng(5)
    base = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    phase = np.exp(1j * 1.234)
    cube = process_frame(np.stack([base, base * phase]), cfg).values
    nz = np.abs(cube[0]) > 1e-9 * np.abs(cube[0]).max()
    assert np.allclose(cube[1][nz] / cube[0][nz], phase, rtol=1e-9)


def test_zero_doppler_window():
    cube = RangeDopplerCube(values=np.zeros((2, 4, 16), dtype=complex))
    assert list(zero_doppler_window(cube.num_doppler_bins, 2)) == [6, 7, 8, 9, 10]
    with pytest.raises(ValueError):
        zero_doppler_window(cube.num_doppler_bins, 9)
