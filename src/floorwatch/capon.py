"""Adaptive minimum-variance (Capon/MVDR) range-azimuth processing.

For each range bin, near-zero Doppler bins of the clutter-filtered cube are
stacked as snapshots, the sample spatial covariance R = X X^H / N_D is
formed, and the spectrum 1 / (a^H R^+ a) is evaluated on the azimuth grid.
R is inverted through its Moore-Penrose pseudoinverse with no diagonal
loading, so exactly singular look directions are possible; those cells are
clamped to the finite maximum of their row and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry
from .dbf import RangeAzimuthMap, SteeringGrid, element_phases
from .frontend import RangeDopplerCube

# quadratic forms at or below this are treated as rank-deficient directions
QUADFORM_FLOOR = 1e-30
PINV_RCOND = 1e-12


def collect_snapshots(rd: RangeDopplerCube, range_bin: int, doppler_window: np.ndarray,
                      channels) -> np.ndarray:
    """Stack clutter-filtered returns as a (channel, snapshot) matrix.

    One row per selected receiver, one column per Doppler bin in the window.
    """
    dw = np.asarray(doppler_window, dtype=int)
    ch = np.asarray(channels, dtype=int)
    if dw.size == 0:
        raise ValueError("doppler_window must be non-empty")
    if dw.min() < 0 or dw.max() >= rd.num_doppler_bins:
        raise ValueError("doppler_window straddles the cube edge")
    if ch.size < 2:
        raise ValueError("need at least 2 channels")
    if ch.min() < 0 or ch.max() >= rd.num_rx or len(set(ch.tolist())) != ch.size:
        raise ValueError("bad channel indices")
    if not 0 <= range_bin < rd.num_range_bins:
        raise ValueError("range_bin out of bounds")
    return rd.values[ch[:, None], range_bin, dw[None, :]]


@dataclass(frozen=True)
class SpatialCovariance:
    """Hermitian PSD sample covariance and its Moore-Penrose pseudoinverse."""

    matrix: np.ndarray
    pseudo_inverse: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.matrix)
        herm_err = np.linalg.norm(r - r.conj().T)
        scale = max(np.linalg.norm(r), 1e-300)
        if herm_err > 1e-12 * scale:
            raise ValueError("covariance is not Hermitian within tolerance")
        eig = np.linalg.eigvalsh(r)
        trace = float(np.trace(r).real)
        if eig.min() < -1e-10 * max(trace, 1e-300):
            raise ValueError("covariance is not positive semidefinite within tolerance")


def spatial_covariance(snapshots: np.ndarray) -> SpatialCovariance:
    """Sample covariance R = X X^H / N_D with an SVD pseudoinverse.

    Singular values below 1e-12 of the largest are treated as zero; no
    diagonal loading is applied.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("snapshots must be (channels, N_D) with N_D >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("snapshots contain non-finite values")
    r = x @ x.conj().T / x.shape[1]
    r = (r + r.conj().T) / 2.0  # remove round-off asymmetry
    rinv = np.linalg.pinv(r, rcond=PINV_RCOND, hermitian=True)
    rinv = (rinv + rinv.conj().T) / 2.0
    return SpatialCovariance(matrix=r, pseudo_inverse=rinv)


def capon_steering(theta) -> np.ndarray:
    """Two-element azimuth steering vector [1, exp(-j pi sin(theta))].

    An array of angles gives a (2, n) matrix with one column per angle.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) > np.pi / 2):
        raise ValueError("theta must satisfy |theta| <= pi/2")
    return np.stack([np.ones_like(theta), np.exp(-1j * np.pi * np.sin(theta))])


def steering_matrix(grid: SteeringGrid, num_channels: int,
                    geom: ArrayGeometry | None = None) -> np.ndarray:
    """Steering vectors per azimuth grid point as a (channels, n_az) matrix.

    Two channels use the half-wavelength pair model from capon_steering.
    More channels require the geometry and use the conjugate arrival phases
    of each receiver offset at zero elevation.
    """
    az = grid.azimuth_angles
    if num_channels == 2:
        return capon_steering(az)
    if geom is None:
        raise ValueError("geometry required for more than two channels")
    phases = element_phases(geom, az, np.zeros_like(az))  # (n_az, rx)
    return np.exp(-1j * phases).T


def capon_spectrum(cov: SpatialCovariance, steering: np.ndarray) -> tuple[np.ndarray, int]:
    """Adaptive power spectrum 1 / (a^H R^+ a) over the steering columns.

    Returns the spectrum row and the number of clamped (singular) cells.
    Rows with no invertible direction at all come back as zeros.
    """
    a = np.asarray(steering)
    if a.shape[0] != cov.pseudo_inverse.shape[0]:
        raise ValueError("steering dimension does not match covariance")
    quad = np.einsum("ct,cd,dt->t", a.conj(), cov.pseudo_inverse, a)
    quad = np.real(quad)
    singular = quad <= QUADFORM_FLOOR
    spectrum = np.empty(a.shape[1])
    spectrum[~singular] = 1.0 / quad[~singular]
    n_clamped = int(singular.sum())
    if n_clamped:
        spectrum[singular] = spectrum[~singular].max() if n_clamped < quad.size else 0.0
    return spectrum, n_clamped


def mvdr_weight(cov: SpatialCovariance, steering: np.ndarray) -> np.ndarray:
    """Closed-form minimum-variance weight R^+ a / (a^H R^+ a)."""
    a = np.asarray(steering)
    num = cov.pseudo_inverse @ a
    denom = np.real(a.conj() @ num)
    if denom <= QUADFORM_FLOOR:
        raise ValueError("steering direction lies in the covariance null space")
    return num / denom


def capon_range_azimuth(rd: RangeDopplerCube, grid: SteeringGrid, doppler_window: np.ndarray,
                        channels, geom: ArrayGeometry | None = None,
                        frame_index: int = 0) -> RangeAzimuthMap:
    """Per-range snapshot collection, covariance estimation, and spectrum evaluation."""
    ch = np.asarray(channels, dtype=int)
    steering = steering_matrix(grid, ch.size, geom)
    rows = np.empty((rd.num_range_bins, grid.num_azimuth))
    clamped = 0
    for r in range(rd.num_range_bins):
        x = collect_snapshots(rd, r, doppler_window, ch)
        cov = spatial_covariance(x)
        rows[r], n = capon_spectrum(cov, steering)
        clamped += n
    return RangeAzimuthMap(power=rows, frame_index=frame_index,
                           method_tag="capon", clamp_count=clamped)
