"""Adaptive minimum-variance (Capon/MVDR) range-azimuth processing.

Near-zero Doppler bins of the two azimuth-pair receivers in the
clutter-filtered cube, an (rx, range_bin, doppler_bin) array, are stacked
as snapshots, one (channel, snapshot) matrix per range bin, and a frame is
processed as one stack: the sample spatial covariances R = X X^H / N_D of
every range bin come from one batched product and one batched
pseudoinverse, and one evaluation of 1 / (a^H R^+ a) on the azimuth grid
gives the whole range-azimuth map. The
arithmetic is the same per bin as for a single matrix, so a stacked map
equals the map built bin by bin. The only steering is the pair model
a = [1, exp(-j pi sin(theta))], which assumes the offset receiver sits half
a carrier wavelength from the reference along azimuth.
R is inverted through its Moore-Penrose pseudoinverse with no diagonal
loading, so exactly singular look directions are possible; those cells are
clamped to the finite maximum of their range row and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry
from .dbf import RangeAzimuthMap, SteeringGrid

# quadratic forms at or below this are treated as rank-deficient directions
QUADFORM_FLOOR = 1e-30
PINV_RCOND = 1e-12


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2 over the last two axes; removes round-off asymmetry."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def collect_snapshots(rd: np.ndarray, range_bin, doppler_window: np.ndarray,
                      channels) -> np.ndarray:
    """Stack clutter-filtered returns as (channel, snapshot) matrices.

    One row per selected receiver, one column per Doppler bin in the window.
    ``range_bin`` is one bin or an array of bins; an array adds its shape as
    leading stack axes, e.g. ``np.arange(rd.shape[1])`` gives the
    (range, channel, snapshot) stack of a whole frame.
    """
    dw = np.asarray(doppler_window, dtype=int)
    ch = np.asarray(channels, dtype=int)
    rb = np.asarray(range_bin, dtype=int)
    if dw.size == 0:
        raise ValueError("doppler_window must be non-empty")
    if dw.min() < 0 or dw.max() >= rd.shape[2]:
        raise ValueError("doppler_window straddles the cube edge")
    if ch.size < 2:
        raise ValueError("need at least 2 channels")
    if ch.min() < 0 or ch.max() >= rd.shape[0] or len(set(ch.tolist())) != ch.size:
        raise ValueError("bad channel indices")
    if rb.size == 0 or rb.min() < 0 or rb.max() >= rd.shape[1]:
        raise ValueError("range_bin out of bounds")
    return rd[ch[:, None], rb[..., None, None], dw[None, :]]


@dataclass(frozen=True)
class SpatialCovariance:
    """Hermitian PSD sample covariance(s) and Moore-Penrose pseudoinverse(s).

    Both arrays are (..., channel, channel); leading axes index a stack of
    matrices. Not checked: ``spatial_covariance`` makes both exactly
    Hermitian, and R = X X^H / N_D of finite snapshots is PSD up to round-off.
    """

    matrix: np.ndarray
    pseudo_inverse: np.ndarray


def spatial_covariance(snapshots: np.ndarray) -> SpatialCovariance:
    """Sample covariance R = X X^H / N_D with an SVD pseudoinverse.

    ``snapshots`` is (..., channel, N_D); leading axes are a stack, and every
    matrix of it gets the same product, symmetrisation and pseudoinverse in
    one batched call each. Singular values below 1e-12 of the largest (per
    matrix) are treated as zero; no diagonal loading is applied.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-1] < 1:
        raise ValueError("snapshots must be (..., channels, N_D) with N_D >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("snapshots contain non-finite values")
    r = _hermitian_part(x @ x.conj().swapaxes(-1, -2) / x.shape[-1])
    rinv = _hermitian_part(np.linalg.pinv(r, rcond=PINV_RCOND, hermitian=True))
    return SpatialCovariance(matrix=r, pseudo_inverse=rinv)


def capon_steering(theta) -> np.ndarray:
    """Two-element azimuth steering vector [1, exp(-j pi sin(theta))].

    An array of angles gives a (2, n) matrix with one column per angle.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) > np.pi / 2):
        raise ValueError("theta must satisfy |theta| <= pi/2")
    return np.stack([np.ones_like(theta), np.exp(-1j * np.pi * np.sin(theta))])


def check_pair_geometry(geom: ArrayGeometry) -> None:
    """Require the pair layout ``capon_steering`` assumes.

    With ``(i, j) = geom.azimuth_pair``, the offset receiver j must sit half a
    wavelength along azimuth from the reference i, at the same elevation:
    offsets[j] - offsets[i] = (wavelength / 2, 0) within 1e-9 of a wavelength.
    """
    i, j = geom.azimuth_pair
    offsets = geom.offsets_array()
    dx, dy = offsets[j] - offsets[i]
    lam = geom.wavelength
    if abs(dx - lam / 2.0) > 1e-9 * lam or abs(dy) > 1e-9 * lam:
        raise ValueError(f"Capon needs the azimuth pair {geom.azimuth_pair} half a wavelength "
                         f"apart along azimuth ({lam / 2.0:.6g} m, 0); its offset is "
                         f"({dx:.6g} m, {dy:.6g} m)")


def capon_spectrum(cov: SpatialCovariance, steering: np.ndarray) -> tuple[np.ndarray, int]:
    """Adaptive power spectrum 1 / (a^H R^+ a) over the steering columns.

    A stack of covariances gives a stack of spectrum rows, one per matrix.
    Returns the spectrum and the total number of clamped (singular) cells.
    A clamped cell takes the finite maximum of its row; rows with no
    invertible direction at all come back as zeros.
    """
    a = np.asarray(steering)
    if a.shape[0] != cov.pseudo_inverse.shape[-1]:
        raise ValueError("steering dimension does not match covariance")
    quad = np.real(np.einsum("ct,...cd,dt->...t", a.conj(), cov.pseudo_inverse, a))
    singular = quad <= QUADFORM_FLOOR
    spectrum = np.zeros(quad.shape)
    np.divide(1.0, quad, out=spectrum, where=~singular)
    # finite cells are > 0 and singular ones still 0, so this is each row's
    # finite maximum, or 0 for a row with no finite cell
    row_max = spectrum.max(axis=-1, keepdims=True)
    spectrum = np.where(singular, row_max, spectrum)
    return spectrum, int(singular.sum())


def mvdr_weight(cov: SpatialCovariance, steering: np.ndarray) -> np.ndarray:
    """Closed-form minimum-variance weight R^+ a / (a^H R^+ a)."""
    a = np.asarray(steering)
    num = cov.pseudo_inverse @ a
    denom = np.real(a.conj() @ num)
    if denom <= QUADFORM_FLOOR:
        raise ValueError("steering direction lies in the covariance null space")
    return num / denom


def capon_range_azimuth(rd: np.ndarray, grid: SteeringGrid, doppler_window: np.ndarray,
                        channels) -> RangeAzimuthMap:
    """Capon map of one frame: one snapshot stack, one covariance stack, one spectrum.

    ``channels`` is the (reference, offset) receiver pair of ``capon_steering``,
    whose columns on the grid are made once per grid (``grid.pair_steering``).
    """
    x = collect_snapshots(rd, np.arange(rd.shape[1]), doppler_window, channels)
    power, clamped = capon_spectrum(spatial_covariance(x), grid.pair_steering)
    return RangeAzimuthMap(power=power, clamp_count=clamped)
