"""Adaptive minimum-variance (Capon/MVDR) range-azimuth processing.

Near-zero Doppler bins of the two azimuth-pair receivers in the
clutter-filtered cube, an (rx, range_bin, doppler_bin) array, are stacked
as snapshots, one (channel, snapshot) matrix per range bin, and a frame is
processed as one stack: the sample spatial covariances R = X X^H / N_D of
every range bin come from one batched product, their pseudoinverses from
one closed-form 2x2 inverse over the stack (one batched ``np.linalg.pinv``
for n != 2 channels), and one evaluation of 1 / (a^H R^+ a) on the azimuth
grid gives the whole range-azimuth map. The arithmetic is elementwise per
bin, so a stacked map equals the map built bin by bin. The only steering is
the pair model a = [1, exp(-j pi sin(theta))], which assumes the offset
receiver sits half a carrier wavelength from the reference along azimuth.
R is inverted through its Moore-Penrose pseudoinverse with no diagonal
loading, so exactly singular look directions are possible; those cells are
clamped to the finite maximum of their range row and counted.

The closed form keeps ``pinv``'s rank rule and, where ``pinv``'s map is
finite, gives the same clamps and every cell within 16 kappa eps (relative)
of it, kappa being lmax / lmin of R capped at 1 / PINV_RCOND; where
``pinv``'s inverse overflows (R below about 1e-300), so does it. Along the
null direction of a rank-one R, on any channel count, the quadratic form is
taken from one column of R^+ and reliably clamps, where ``pinv``'s einsum
leaves about eps and its map spikes to about 1e16 times its row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry
from .dbf import RangeAzimuthMap, SteeringGrid

# a look direction whose (a^H R^+ a) tr(R) is at or below ``null_floor(a)`` is treated
# as lying in the covariance null space
NULL_ROUNDING = 4.0
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
    ``rank_deficient`` (shape ...) marks the matrices of rank one or zero
    under ``pinv``'s rank rule, whose R^+ is of rank one or zero too (for two
    channels, R^+ = R / tr(R)^2).
    """

    matrix: np.ndarray
    pseudo_inverse: np.ndarray
    rank_deficient: np.ndarray


def spatial_covariance(snapshots: np.ndarray) -> SpatialCovariance:
    """Sample covariance R = X X^H / N_D and its Moore-Penrose pseudoinverse.

    ``snapshots`` is (..., channel, N_D); leading axes are a stack, and every
    matrix of it gets the same product and symmetrisation in one batched
    call each. Eigenvalues below 1e-12 of the largest (per matrix) are
    treated as zero; no diagonal loading is applied. Two channels take the
    closed form of ``_pair_pseudo_inverse``; other channel counts take one
    batched ``np.linalg.pinv``, and their rank test counts the eigenvalues
    above that cut.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-1] < 1:
        raise ValueError("snapshots must be (..., channels, N_D) with N_D >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("snapshots contain non-finite values")
    r = _hermitian_part(x @ x.conj().swapaxes(-1, -2) / x.shape[-1])
    if r.shape[-1] == 2:
        rinv, full = _pair_pseudo_inverse(r)
        return SpatialCovariance(matrix=r, pseudo_inverse=rinv, rank_deficient=~full)
    rinv = _hermitian_part(np.linalg.pinv(r, rcond=PINV_RCOND, hermitian=True))
    lam = np.abs(np.linalg.eigvalsh(r))  # pinv's singular values of a Hermitian R
    rank = np.count_nonzero(lam > PINV_RCOND * lam.max(axis=-1, keepdims=True), axis=-1)
    return SpatialCovariance(matrix=r, pseudo_inverse=rinv, rank_deficient=rank <= 1)


def _pair_pseudo_inverse(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudoinverses of a (..., 2, 2) stack of Hermitian PSD matrices, written out.

    Each R is first divided by its trace t, so the rank test and the
    adjugate work on Rn = R / t, whose entries lie in [-1, 1]: on raw R the
    determinant and t^2 under- or overflow long before R^+ does. Rn is full
    rank iff det(Rn) > rcond * lmax(Rn)^2, the ``pinv`` rule
    lmin > rcond * lmax; then R^+ = adj(Rn) / (det(Rn) t). Otherwise R is
    taken as rank one, R^+ = Rn / t = R / t^2, and an all-zero R gives zeros.
    Returns the stack of R^+, exactly Hermitian, and the full-rank mask.
    """
    t = r[..., 0, 0].real + r[..., 1, 1].real
    t = np.where(t > 0.0, t, 1.0)  # an all-zero R stays zero under any t
    p = r[..., 0, 0].real / t
    s = r[..., 1, 1].real / t
    q = r[..., 0, 1] / t
    qq = q.real * q.real + q.imag * q.imag
    det = p * s - qq
    lmax = 0.5 * (1.0 + np.sqrt((p - s) ** 2 + 4.0 * qq))  # largest eigenvalue of Rn
    full = det > PINV_RCOND * lmax * lmax
    coef = 1.0 / (t * np.where(full, det, 1.0))
    out = np.empty(r.shape, dtype=np.complex128)
    out[..., 0, 0] = np.where(full, s, p) * coef
    out[..., 1, 1] = np.where(full, p, s) * coef
    out[..., 0, 1] = np.where(full, -q, q) * coef
    out[..., 1, 0] = out[..., 0, 1].conj()
    return out, full


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


def _quadratic_form(cov: SpatialCovariance, a: np.ndarray) -> np.ndarray:
    """Real a^H R^+ a for every matrix of the stack and every column of ``a``.

    Two-row steering takes the written-out form |a0|^2 m00 + |a1|^2 m11 +
    2 Re(conj(a0) a1 m01), other sizes an einsum. Along the null direction
    of a rank-one R either cancels only to about eps of its terms, so the
    rank-deficient matrices take |a^H u|^2 instead, u = c / sqrt(c_i) for
    the column c of R^+ with the largest diagonal entry c_i (the first
    among equals; R^+ = u u^H), which cancels to about eps^2. The null
    directions of an R of rank two or more take the sum as it comes.
    """
    rinv = cov.pseudo_inverse
    if a.shape[0] != 2:
        quad = np.real(np.einsum("ct,...cd,dt->...t", a.conj(), rinv, a))
    else:
        norm2 = (a.conj() * a).real
        cross = 2.0 * a[0].conj() * a[1]
        quad = rinv[..., 0, 0, None].real * norm2[0]
        quad += rinv[..., 1, 1, None].real * norm2[1]
        quad += rinv[..., 0, 1, None].real * cross.real
        quad -= rinv[..., 0, 1, None].imag * cross.imag
    low = cov.rank_deficient
    m = rinv[low]
    diag = np.arange(m.shape[-1])
    d = m[:, diag, diag].real
    col = d.argmax(axis=-1)
    c = np.take_along_axis(m, col[:, None, None], axis=-1)[..., 0]
    ci = np.take_along_axis(d, col[:, None], axis=-1)
    u = c / np.sqrt(np.where(ci > 0.0, ci, 1.0))  # an all-zero R^+ keeps u = 0
    z = (u.conj()[:, :, None] * a).sum(axis=1)
    quad[low] = z.real * z.real + z.imag * z.imag
    return quad


def null_floor(a: np.ndarray) -> np.ndarray:
    """(NULL_ROUNDING n eps)^2 |a|^2 per column of the n-channel steering ``a``: above the
    up to about 1.2 (n eps)^2 |a|^2 that steering computed from angles leaves along a true
    null direction, and far below the |a|^2 a full-rank R gives, so it moves no full-rank R."""
    eps = np.finfo(np.float64).eps
    return (NULL_ROUNDING * a.shape[0] * eps) ** 2 * (a.real ** 2 + a.imag ** 2).sum(axis=0)


def capon_spectrum(cov: SpatialCovariance, steering: np.ndarray) -> tuple[np.ndarray, int]:
    """Adaptive power spectrum 1 / (a^H R^+ a) over the steering columns.

    A stack of covariances gives a stack of spectrum rows, one per matrix.
    Returns the spectrum and the total number of clamped (singular) cells:
    a cell is singular when (a^H R^+ a) tr(R) <= ``null_floor(a)``, a test
    that does not change when R is scaled. A clamped cell takes the finite
    maximum of its row; rows with no invertible direction at all come back
    as zeros. The quadratic form is ``_quadratic_form``'s.
    """
    a = np.asarray(steering)
    if a.shape[0] != cov.pseudo_inverse.shape[-1]:
        raise ValueError("steering dimension does not match covariance")
    quad = _quadratic_form(cov, a)
    singular = quad * np.trace(cov.matrix, axis1=-2, axis2=-1).real[..., None] <= null_floor(a)
    spectrum = 1.0 / np.where(singular, np.inf, quad)
    # finite cells are > 0 and singular ones 0, so this is each row's finite
    # maximum, or 0 for a row with no finite cell
    np.copyto(spectrum, spectrum.max(axis=-1, keepdims=True), where=singular)
    return spectrum, int(np.count_nonzero(singular))


def mvdr_weight(cov: SpatialCovariance, steering: np.ndarray) -> np.ndarray:
    """Closed-form minimum-variance weight R^+ a / (a^H R^+ a).

    Raises where ``capon_spectrum`` would clamp: (a^H R^+ a) tr(R) <= ``null_floor(a)``,
    with the same quadratic form.
    """
    a = np.asarray(steering)
    denom = _quadratic_form(cov, a[:, None])[..., 0]
    if denom * np.trace(cov.matrix).real <= null_floor(a):
        raise ValueError("steering direction lies in the covariance null space")
    return cov.pseudo_inverse @ a / denom


def capon_range_azimuth(rd: np.ndarray, grid: SteeringGrid, doppler_window: np.ndarray,
                        channels) -> RangeAzimuthMap:
    """Capon map of one frame: one snapshot stack, one covariance stack, one spectrum.

    ``channels`` is the (reference, offset) receiver pair of ``capon_steering``,
    whose columns on the grid are made once per grid (``grid.pair_steering``).
    """
    x = collect_snapshots(rd, np.arange(rd.shape[1]), doppler_window, channels)
    power, clamped = capon_spectrum(spatial_covariance(x), grid.pair_steering)
    return RangeAzimuthMap(power=power, clamp_count=clamped)
