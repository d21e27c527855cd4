import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorwatch.core import RadarConfig
from floorwatch.frontend import _tapered_dft, process_frame, zero_doppler_window


def small_cfg():
    return RadarConfig(chirps_per_frame=16, samples_per_chirp=32, num_rx=2)


def dft_oracle(x):
    """Direct O(n^2) DFT of the Hann-tapered sequence, independent of the FFT library."""
    n = len(x)
    k = np.arange(n)
    x = x * np.hanning(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


@pytest.mark.parametrize("range_bin, doppler_offset", [
    pytest.param(5, 0, id="range_tone_5"),
    pytest.param(0, 3, id="doppler_ramp_3"),
])
def test_process_frame_matches_the_separable_dft_oracle(range_bin, doppler_offset):
    # x[rx, c, s] = a[c] * b[s] has the cube B[r] * A[d]: the lower half of b's tapered
    # DFT times the centered tapered DFT of a, on every receiver
    cfg = small_cfg()
    n, s = cfg.chirps_per_frame, cfg.samples_per_chirp
    a = np.exp(2j * np.pi * doppler_offset * np.arange(n) / n)
    b = np.exp(2j * np.pi * range_bin * np.arange(s) / s)
    cube = process_frame(np.tile(np.outer(a, b), (cfg.num_rx, 1, 1)), cfg)
    want = np.outer(dft_oracle(b)[: s // 2], np.fft.fftshift(dft_oracle(a)))
    assert cube.shape == (cfg.num_rx, *want.shape)
    assert np.allclose(cube, want, rtol=1e-9, atol=1e-9)
    for rx in range(cfg.num_rx):
        peak = np.unravel_index(np.argmax(np.abs(cube[rx])), want.shape)
        assert peak == (range_bin, n // 2 + doppler_offset)


def test_range_fft_dc_input():
    # a static frame of ones: every range profile peaks at bin 0 and the whole cube is the
    # lower half of the tapered DFT of ones times the centered one of the slow-time ones
    cfg = small_cfg()
    cube = process_frame(np.ones((2, 16, 32), dtype=complex), cfg)
    assert cube.shape == (2, 16, 16)
    assert np.all(np.argmax(np.abs(cube[:, :, 8]), axis=1) == 0)
    oracle = np.outer(dft_oracle(np.ones(32))[:16], np.fft.fftshift(dft_oracle(np.ones(16))))
    assert np.allclose(cube, oracle, rtol=1e-9, atol=1e-9)


def test_doppler_fft_static_input_centered():
    # the same static frame seen along slow time: its Doppler peak is the centered bin n // 2
    cfg = small_cfg()
    cube = process_frame(np.ones((2, 16, 32), dtype=complex), cfg)
    assert cube.shape[2] // 2 == 8
    assert np.all(np.argmax(np.abs(cube[:, 0]), axis=1) == 8)
    oracle = dft_oracle(np.ones(32))[0] * np.fft.fftshift(dft_oracle(np.ones(16)))
    assert np.allclose(cube[:, 0], oracle, rtol=1e-9, atol=1e-9)


def test_range_fft_zero_frame():
    # a zero frame gives the exact zero cube
    cfg = small_cfg()
    cube = process_frame(np.zeros((2, 16, 32), dtype=complex), cfg)
    assert cube.shape == (2, 16, 16)
    assert np.all(cube == 0)


def test_doppler_fft_zero_input():
    # a zero complex64 frame gives exact zeros in the zero-Doppler window
    cfg = small_cfg()
    window = zero_doppler_window(cfg.chirps_per_frame)
    cube = process_frame(np.zeros((2, 16, 32), dtype=np.complex64), cfg, window)
    assert cube.shape == (2, 16, window.size)
    assert np.all(cube == 0)


def test_process_frame_refuses_a_frame_of_another_shape():
    cfg = small_cfg()
    with pytest.raises(ValueError, match="does not match config"):
        process_frame(np.zeros((2, 16, 8), dtype=complex), cfg)


def test_process_frame_composes():
    cfg = small_cfg()
    cube = process_frame(np.zeros((2, 16, 32), dtype=complex), cfg)
    assert cube.shape == (2, 16, 16)
    assert np.all(cube == 0)


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
    # the taper is folded into each DFT matrix, made once per length and bin set: the
    # zero-frequency row is the float taper itself, and row b its product with the twiddles
    bins = (0, n // 2, n - 1)
    m = _tapered_dft(n, bins)
    assert m is _tapered_dft(n, bins)
    assert m.shape == (3, n) and m.dtype == np.complex128
    assert np.array_equal(m[0].real, np.hanning(n)) and not m[0].imag.any()
    # the FFT's rows, within the rounding of its twiddles and of the matrix's
    assert np.allclose(m, np.fft.fft(np.diag(np.hanning(n)), axis=0)[list(bins)],
                       rtol=0, atol=8 * EPS)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


EPS = np.finfo(np.float64).eps
# a cube cell is within FRONTEND_TOL * eps * sum|w x| of the FFTs', per receiver, where
# w x is the receiver's tapered frame. An impulse spends the most of it: each of the two
# twiddles is within about 2 eps, each taper and sample product adds about 1, and the FFT
# composition's own error reaches about 4; the worst seen over 6,000 drawn frames was 5.7.
# Unreduced phase indices, a dropped taper or a window one bin off each fail it.
FRONTEND_TOL = 12.0


def fft_composition(frame, cfg):
    """The full centered cube by the FFTs the frontend used to compute, as the oracle."""
    profiles = np.fft.fft(frame.astype(np.complex128) * np.hanning(cfg.samples_per_chirp), axis=2)
    shifted = np.fft.fftshift(np.fft.fft(profiles[:, :, : cfg.num_range_bins]
                                         * np.hanning(cfg.chirps_per_frame)[:, None], axis=1),
                              axes=1)
    return np.moveaxis(shifted, 1, 2)


def unaligned_complex64(x):
    """``x`` as complex64 two bytes into a buffer, as recording payloads are laid out."""
    frame = np.frombuffer(bytearray(2 + x.size * 8), dtype=np.complex64, count=x.size,
                          offset=2).reshape(x.shape)
    frame[...] = x
    assert not frame.flags.aligned
    return frame


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frontend_matches_the_fft_composition_within_its_bound(data):
    n = 2 * data.draw(st.integers(1, 64), label="chirps_per_frame / 2")
    cfg = RadarConfig(chirps_per_frame=n,
                      samples_per_chirp=2 * data.draw(st.integers(1, 32), label="samples / 2"),
                      num_rx=data.draw(st.integers(2, 4), label="num_rx"))
    half_width = data.draw(st.none() | st.integers(0, n // 2 - 1), label="half_width")
    window = None if half_width is None else zero_doppler_window(n, half_width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal(cfg.frame_shape) + 1j * rng.standard_normal(cfg.frame_shape)
    # a few impulses leave no sum to average the twiddles' rounding away
    impulses = data.draw(st.sampled_from([None, 1, 3]), label="impulses")
    if impulses is not None:
        keep = np.zeros(x.size, dtype=bool)
        keep[rng.choice(x.size, size=min(impulses, x.size), replace=False)] = True
        x = np.where(keep.reshape(x.shape), x, 0.0)
    single = data.draw(st.booleans(), label="complex64")
    # float32 holds about 1e-38 to 3e38
    x = x * 10.0 ** data.draw(st.floats(-30, 30) if single else st.floats(-100, 100),
                              label="log10 scale")
    frame = unaligned_complex64(x) if single else x
    got = process_frame(frame, cfg, window)
    want = fft_composition(frame, cfg)
    if window is not None:
        want = want[:, :, window]
    assert got.shape == want.shape and got.dtype == np.complex128
    taper = np.outer(np.hanning(n), np.hanning(cfg.samples_per_chirp))
    bound = FRONTEND_TOL * EPS * (np.abs(frame.astype(np.complex128)) * taper).sum(axis=(1, 2))
    assert np.all(np.abs(got - want) <= bound[:, None, None])


def test_frames_are_their_own_arrays():
    # every cube is a fresh array: no view of another frame's cube or of the cached matrices
    cfg = small_cfg()
    window = zero_doppler_window(cfg.chirps_per_frame, 3)
    rng = np.random.default_rng(7)
    f0, f1 = (rng.standard_normal(cfg.frame_shape) + 1j * rng.standard_normal(cfg.frame_shape)
              for _ in range(2))
    cube0, cube1 = process_frame(f0, cfg, window), process_frame(f1, cfg, window)
    want1 = cube1.copy()
    matrices = (_tapered_dft(cfg.chirps_per_frame, tuple(((window - 8) % 16).tolist())),
                _tapered_dft(cfg.samples_per_chirp, tuple(range(cfg.num_range_bins))))
    for a, b in [(cube0, cube1), *((c, m) for c in (cube0, cube1) for m in matrices)]:
        assert not np.shares_memory(a, b)
    assert cube0.flags.writeable and cube0.flags.c_contiguous
    cube0[...] = np.nan
    assert np.array_equal(cube1, want1)
    assert np.array_equal(process_frame(f1, cfg, window), want1)
