"""Moving-target indication by exponentially averaged clutter subtraction.

Per bin, the clutter map follows C_k = alpha * C_{k-1} + (1 - alpha) * X_k
and the filter output is Y_k = X_k - C_k. With the bundled alpha = 0.01 the
clutter map tracks the newest frame almost exactly, so Y_k is a scaled
first difference; alpha near 1 gives the slow-adaptation reading instead.
State is per recording and must be stepped sequentially. Input and output
are (rx, range_bin, doppler_bin) cubes as ``frontend.process_frame`` returns
them: every Doppler bin by default, and in the pipeline only the
zero-Doppler window's bins, the only ones it computes there. Each bin is
filtered on its own, so a filter over those bins gets the values a filter
over the whole cube would give them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 0.01


@dataclass(frozen=True)
class ClutterState:
    estimate: np.ndarray
    alpha: float


def init_clutter(dims: tuple, alpha: float = DEFAULT_ALPHA) -> ClutterState:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    return ClutterState(estimate=np.zeros(dims, dtype=np.complex128), alpha=alpha)


def mti_step(state: ClutterState, x: np.ndarray) -> tuple[ClutterState, np.ndarray]:
    """Advance the clutter map one frame and return the clutter-subtracted cube.

    The update is computed in the algebraically equivalent incremental form
    Y = alpha * (X - C_prev); C = C_prev + (1 - alpha) * (X - C_prev), which
    drives a constant input to exact numeric zero instead of leaving
    round-off residue. Complex phase is preserved per receiver.
    """
    if x.shape != state.estimate.shape:
        raise ValueError(f"cube shape {x.shape} does not match state {state.estimate.shape}")
    diff = x - state.estimate
    filtered = state.alpha * diff
    new_estimate = state.estimate + (1.0 - state.alpha) * diff
    return ClutterState(estimate=new_estimate, alpha=state.alpha), filtered
