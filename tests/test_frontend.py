import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch.core import RadarConfig
from floorwatch.frontend import (_hann, doppler_fft, frame_buffers, process_frame, range_fft,
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
    assert cube.shape[2] // 2 == 8
    assert np.argmax(np.abs(cube[0, 0])) == 8
    oracle = np.fft.fftshift(dft_oracle(np.ones(16)))
    assert np.allclose(cube, oracle, rtol=1e-9, atol=1e-9)


def test_doppler_fft_phase_ramp_offsets_peak():
    cfg = small_cfg()
    n = cfg.chirps_per_frame
    d0 = 3
    ramp = np.exp(2j * np.pi * d0 * np.arange(n) / n)
    profiles = np.tile(ramp[None, :, None], (2, 1, 16))
    cube = doppler_fft(profiles, cfg)
    mags = np.abs(cube[1, 4])
    assert np.argmax(mags) == cube.shape[2] // 2 + d0
    # oracle: direct DFT of the tapered slow-time sequence, recentered
    oracle = np.fft.fftshift(dft_oracle(ramp))
    assert np.allclose(cube[0, 0], oracle, rtol=1e-9, atol=1e-9)


def test_doppler_fft_zero_input():
    cfg = small_cfg()
    cube = doppler_fft(np.zeros((2, 16, 16), dtype=complex), cfg)
    assert np.all(cube == 0)


def test_process_frame_composes():
    cfg = small_cfg()
    cube = process_frame(np.zeros((2, 16, 32), dtype=complex), cfg)
    assert cube.shape == (2, 16, 16)
    assert np.all(cube == 0)


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
    lhs = process_frame(a * f1 + b * f2, cfg)
    rhs = a * process_frame(f1, cfg) + b * process_frame(f2, cfg)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * np.abs(rhs).max())


def test_inter_receiver_phase_preserved():
    cfg = small_cfg()
    rng = np.random.default_rng(5)
    base = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    phase = np.exp(1j * 1.234)
    cube = process_frame(np.stack([base, base * phase]), cfg)
    nz = np.abs(cube[0]) > 1e-9 * np.abs(cube[0]).max()
    assert np.allclose(cube[1][nz] / cube[0][nz], phase, rtol=1e-9)


def test_zero_doppler_window():
    cube = np.zeros((2, 4, 16), dtype=complex)
    assert list(zero_doppler_window(cube.shape[2], 2)) == [6, 7, 8, 9, 10]
    with pytest.raises(ValueError):
        zero_doppler_window(cube.shape[2], 9)


@pytest.mark.parametrize("n", [1, 16, 64, 128])
def test_cached_taper_gives_the_float_taper_product_and_is_read_only(n):
    # one complex128 taper per length replaces the float64 taper numpy cast on every frame
    w = _hann(n)
    assert w is _hann(n)
    assert w.dtype == np.complex128 and np.array_equal(w.real, np.hanning(n)) and not w.imag.any()
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, 5, n)) + 1j * rng.standard_normal((3, 5, n))
    x[0, 0] = complex(-0.0, 0.0)
    x[0, 1] = complex(0.0, -0.0)
    x[0, 2] = complex(-0.0, -0.0)
    assert np.array_equal((x * w).view(np.uint64), (x * np.hanning(n)).view(np.uint64))
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_range_fft_of_complex64_samples_equals_the_widened_copy_bit_for_bit():
    # the taper product widens complex64 samples itself, so no complex128 copy is made first
    cfg = small_cfg()
    rng = np.random.default_rng(11)
    x = (rng.standard_normal(cfg.frame_shape)
         + 1j * rng.standard_normal(cfg.frame_shape)).astype(np.complex64)
    want = np.fft.fft(x.astype(np.complex128) * np.hanning(cfg.samples_per_chirp), axis=2)
    got = range_fft(x, cfg)
    assert got.dtype == np.complex128
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want[:, :, : cfg.num_range_bins]).view(np.uint64))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def unaligned_complex64(x):
    """``x`` as complex64 two bytes into a buffer, as recording payloads are laid out."""
    frame = np.frombuffer(bytearray(2 + x.size * 8), dtype=np.complex64, count=x.size,
                          offset=2).reshape(x.shape)
    frame[...] = x
    assert not frame.flags.aligned
    return frame


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windowed_frontend_equals_the_full_cube_bit_for_bit(data):
    # the window's bins come from the unshifted spectrum, computed in reused buffers
    n = 2 * data.draw(st.integers(1, 64), label="chirps_per_frame / 2")
    cfg = RadarConfig(chirps_per_frame=n,
                      samples_per_chirp=2 * data.draw(st.integers(1, 32), label="samples / 2"),
                      num_rx=data.draw(st.integers(2, 4), label="num_rx"))
    window = zero_doppler_window(n, data.draw(st.integers(0, n // 2 - 1), label="half_width"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal(cfg.frame_shape) + 1j * rng.standard_normal(cfg.frame_shape)
    # a receiver of signed zeros gives signed zeros in its spectra
    zero = data.draw(st.sampled_from([None, complex(-0.0, -0.0), complex(-0.0, 0.0),
                                      complex(0.0, -0.0)]), label="rx 0 zeros")
    if zero is not None:
        x[0] = zero
    frame = unaligned_complex64(x) if data.draw(st.booleans(), label="complex64") else x
    full = process_frame(frame, cfg)
    # the fftshift composition the frontend used to compute
    profiles = np.fft.fft(frame.astype(np.complex128) * np.hanning(cfg.samples_per_chirp), axis=2)
    shifted = np.fft.fftshift(np.fft.fft(profiles[:, :, : cfg.num_range_bins]
                                         * np.hanning(n)[:, None], axis=1), axes=1)
    assert np.array_equal(bits(full), bits(np.moveaxis(shifted, 1, 2)))
    # stale buffer contents must not reach the result
    buffers = tuple(np.full_like(b, np.nan) for b in frame_buffers(cfg))
    for _ in range(2):
        got = process_frame(frame, cfg, window, buffers)
        assert got.shape == (cfg.num_rx, cfg.num_range_bins, window.size)
        assert got.dtype == np.complex128
        assert np.array_equal(bits(got), bits(full[:, :, window]))


def test_frames_computed_in_shared_buffers_are_their_own_arrays():
    cfg = small_cfg()
    window = zero_doppler_window(cfg.chirps_per_frame, 3)
    rng = np.random.default_rng(7)
    f0, f1 = (rng.standard_normal(cfg.frame_shape) + 1j * rng.standard_normal(cfg.frame_shape)
              for _ in range(2))
    want0, want1 = process_frame(f0, cfg, window), process_frame(f1, cfg, window)
    buffers = frame_buffers(cfg)
    cube0 = process_frame(f0, cfg, window, buffers)
    cube1 = process_frame(f1, cfg, window, buffers)
    for a, b in [(cube0, cube1), *((c, buf) for c in (cube0, cube1) for buf in buffers)]:
        assert not np.shares_memory(a, b)
    assert np.array_equal(cube0, want0)
    cube0[...] = np.nan
    assert np.array_equal(cube1, want1)
