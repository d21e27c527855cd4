import numpy as np
import pytest

from floorwatch.mti import init_clutter, mti_step

DIMS = (2, 4, 8)


def cube(values):
    return np.broadcast_to(values, DIMS).astype(complex)


def run_constant(x, alpha, steps):
    state = init_clutter(DIMS, alpha)
    outs = []
    for _ in range(steps):
        state, out = mti_step(state, cube(x))
        outs.append(out[0, 0, 0])
    return state, np.array(outs)


def test_init_clutter():
    state = init_clutter((3, 32, 128), alpha=0.01)
    assert state.estimate.shape == (3, 32, 128)
    assert np.all(state.estimate == 0)
    with pytest.raises(ValueError):
        init_clutter(DIMS, alpha=1.5)
    with pytest.raises(ValueError):
        init_clutter(DIMS, alpha=-0.1)


def test_one_step_constant_input():
    x = 2.0 - 1.0j
    _, outs = run_constant(x, alpha=0.01, steps=1)
    assert outs[0] == pytest.approx(0.01 * x, rel=1e-12)


def test_zero_input_stays_zero():
    state, outs = run_constant(0.0, alpha=0.01, steps=10)
    assert np.all(outs == 0)
    assert np.all(state.estimate == 0)


def test_constant_input_matches_geometric_closed_form():
    # iterated recursion against the closed form alpha^k * x, error measured
    # relative to the input scale
    x = 1.3 + 0.4j
    alpha = 0.01
    _, outs = run_constant(x, alpha, steps=50)
    ks = np.arange(1, 51)
    closed = alpha ** ks * x
    assert np.max(np.abs(outs - closed)) <= 1e-12 * abs(x)


def test_deep_suppression_reaches_exact_zero():
    x = 0.7 - 0.2j
    _, outs = run_constant(x, alpha=0.01, steps=50)
    assert abs(outs[-1]) <= 1e-99 * abs(x)
    assert outs[-1] == 0.0


def test_suppression_upper_bound_property():
    # ||Y_k|| <= alpha^k * ||x|| within a relative 1e-9 plus a few ulps of
    # the input scale for the float iteration
    rng = np.random.default_rng(2)
    for alpha in (0.01, 0.3, 0.9):
        x = complex(rng.standard_normal(), rng.standard_normal())
        _, outs = run_constant(x, alpha, steps=40)
        ks = np.arange(1, 41)
        bound = alpha ** ks * abs(x) * (1 + 1e-9) + 1e-15 * abs(x)
        assert np.all(np.abs(outs) <= bound)


def test_filter_linearity_over_streams():
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((6,) + DIMS) + 1j * rng.standard_normal((6,) + DIMS)
    ys = rng.standard_normal((6,) + DIMS) + 1j * rng.standard_normal((6,) + DIMS)
    a, b = 0.6 - 1.1j, 2.2 + 0.5j

    def run(stream):
        state = init_clutter(DIMS, 0.01)
        out = []
        for v in stream:
            state, o = mti_step(state, v)
            out.append(o)
        return np.array(out)

    lhs = run(a * xs + b * ys)
    rhs = a * run(xs) + b * run(ys)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_alternating_input_steady_state_gain():
    # steady-state gain on a +x,-x,... stream is 2*alpha/(1+alpha); the
    # high-pass reading "gain >= 1-alpha" holds for alpha >= sqrt(2)-1
    for alpha in (0.01, 0.2, 0.5, 0.9, 0.99):
        x = 1.0 + 0.5j
        # the transient decays as alpha^k; run until it is below 1e-10
        steps = max(50, int(np.ceil(np.log(1e-10) / np.log(alpha))) + 4)
        steps += steps % 2
        state = init_clutter(DIMS, alpha)
        val = None
        for k in range(steps):
            sign = 1.0 if k % 2 == 0 else -1.0
            state, out = mti_step(state, cube(sign * x))
            val = abs(out[0, 0, 0])
        expected = 2 * alpha / (1 + alpha) * abs(x)
        assert val == pytest.approx(expected, rel=1e-6)
        if alpha >= np.sqrt(2) - 1:
            assert val >= (1 - alpha) * abs(x) * (1 - 1e-6)


def test_dimension_mismatch_rejected():
    state = init_clutter(DIMS, 0.01)
    wrong = np.zeros((2, 5, 8), dtype=complex)
    with pytest.raises(ValueError):
        mti_step(state, wrong)


def test_state_is_not_mutated():
    state = init_clutter(DIMS, 0.5)
    new_state, _ = mti_step(state, cube(1.0 + 0j))
    assert np.all(state.estimate == 0)
    assert np.all(new_state.estimate == 0.5)
