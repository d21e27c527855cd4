"""Phase-and-sum digital beamforming over a (azimuth, elevation) look grid.

Steering weights carry one unit-modulus phase term per receiver offset:
w_m(theta, phi) = exp(j * 2*pi/lambda * (d_x,m * sin(theta) * cos(phi)
                                         + d_y,m * sin(phi))),
with azimuth theta measured from broadside so the map is one-to-one over a
symmetric look grid. The input is the clutter-filtered range-Doppler
cube, an (rx, range_bin, doppler_bin) array z. The beam output sums
z_m * w_m without conjugation; the simulator generates arrivals as the
elementwise conjugate of these weights so the beam peak lands on the true
direction.

The beam is a batch of small matrix products, one per (elevation, Doppler
bin) and block of at most ``AZIMUTH_CHUNK`` azimuths, each (azimuth, rx) by
(rx, range), so BLAS runs every one on the calling thread. They write the
spectrum straight into (elevation, doppler, azimuth, range) memory.
``dbf_range_azimuth`` sums |P| over the two leading memory axes,
elevation-major, the order in which it summed the earlier (azimuth,
elevation, doppler, range) layout, so every map keeps its bits. Each element
is within ``(n_rx + 2) * eps * sum_m |z_m|`` of ``einsum("mrd,tpm->rtpd")``,
zero range bins stay zero, and as with the FFT the last bits depend on the
build.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry

# Azimuths per beam product. A product of 64 azimuths by 3 receivers by 32
# range bins is 6,144 multiply-adds, far under OpenBLAS's 2^16 threading cut,
# so the products stay on the calling thread; an 802-azimuth grid in one
# product crossed the cut and woke a second thread that bought no speed.
AZIMUTH_CHUNK = 64


@dataclass(frozen=True)
class SteeringGrid:
    """Look directions in radians, within +/-pi/2.

    Azimuth must be strictly increasing and include 0.
    """

    azimuth_angles: np.ndarray
    elevation_angles: np.ndarray

    def __post_init__(self):
        az = np.asarray(self.azimuth_angles, dtype=float)
        el = np.asarray(self.elevation_angles, dtype=float)
        if az.ndim != 1 or az.size < 2:
            raise ValueError("azimuth grid needs >= 2 points")
        if np.any(np.diff(az) <= 0):
            raise ValueError("azimuth grid must be strictly increasing")
        if not np.any(az == 0.0):
            raise ValueError("azimuth grid must include 0")
        if el.ndim != 1 or el.size < 1:
            raise ValueError("elevation grid needs >= 1 point")
        if el.size > 1 and np.any(np.diff(el) <= 0):
            raise ValueError("elevation grid must be strictly increasing")
        if not (np.all(np.abs(az) <= np.pi / 2) and np.all(np.abs(el) <= np.pi / 2)):
            raise ValueError("look directions must lie within +/-90 degrees")
        object.__setattr__(self, "azimuth_angles", az)
        object.__setattr__(self, "elevation_angles", el)

    @functools.cached_property
    def pair_steering(self) -> np.ndarray:
        """Read-only ``capon.capon_steering`` of the azimuth grid, made once per grid."""
        from .capon import capon_steering  # capon imports this module
        a = capon_steering(self.azimuth_angles)
        a.flags.writeable = False
        return a


def default_grid(theta_max_deg: float = 60.0, theta_step_deg: float = 1.0,
                 elevations_deg: tuple = (-10.0, 0.0, 10.0)) -> SteeringGrid:
    """Azimuth +/-60 deg at 1 deg steps, three elevation cuts around boresight."""
    n = int(round(theta_max_deg / theta_step_deg))
    az = np.deg2rad(np.arange(-n, n + 1) * theta_step_deg)
    el = np.deg2rad(np.asarray(elevations_deg, dtype=float))
    return SteeringGrid(azimuth_angles=az, elevation_angles=el)


def element_phases(geom: ArrayGeometry, theta, phi) -> np.ndarray:
    """Steering phase per receiver for look direction(s) (theta, phi).

    Broadcasts over theta/phi; the receiver axis is last.
    """
    offsets = geom.offsets_array()  # (num_rx, 2)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = 2.0 * np.pi / geom.wavelength
    ux = (np.sin(theta) * np.cos(phi))[..., None]
    uy = np.sin(phi)[..., None]
    return k * (offsets[:, 0] * ux + offsets[:, 1] * uy)


def dbf_weights(grid: SteeringGrid, geom: ArrayGeometry) -> np.ndarray:
    """Unit-modulus steering weights indexed [azimuth][elevation][rx]."""
    theta = grid.azimuth_angles[:, None]
    phi = grid.elevation_angles[None, :]
    return np.exp(1j * element_phases(geom, theta, phi))


def dbf_power(rd: np.ndarray, weights: np.ndarray, doppler_window: np.ndarray) -> np.ndarray:
    """Complex beam spectrum over (range, azimuth, elevation, doppler-in-window).

    P[r, t, p, d] = sum_m z_m[r, d] * w_m[t, p] on the selected Doppler bins,
    from products batched over (elevation, Doppler bin) and at most
    ``AZIMUTH_CHUNK`` azimuths each, written into (p, d, t, r) memory that is
    returned as a view.
    """
    dw = np.asarray(doppler_window, dtype=int)
    if dw.size == 0:
        raise ValueError("doppler_window must be non-empty")
    if dw.min() < 0 or dw.max() >= rd.shape[2]:
        raise ValueError("doppler_window out of bin range")
    if weights.ndim != 3:
        raise ValueError("weights must be [azimuth][elevation][rx]")
    n_t, n_p, n_rx = weights.shape
    if n_rx != rd.shape[0]:
        raise ValueError("weight receiver count does not match cube")
    z = rd[:, :, dw].transpose(2, 0, 1)  # (d, rx, range)
    n_d, _, n_r = z.shape
    w = weights.transpose(1, 0, 2)[:, None]  # (p, 1, t, rx)
    s = np.empty((n_p, n_d, n_t, n_r), dtype=np.result_type(weights, z))
    for t in range(0, n_t, AZIMUTH_CHUNK):
        chunk = slice(t, t + AZIMUTH_CHUNK)
        np.matmul(w[:, :, chunk], z[None], out=s[:, :, chunk])
    return s.transpose(3, 2, 0, 1)


def dbf_range_azimuth(spectrum: np.ndarray) -> "RangeAzimuthMap":
    """Non-coherent integration of |P| across elevation and the Doppler window."""
    return RangeAzimuthMap(power=np.abs(spectrum).sum(axis=(2, 3)))


@dataclass(frozen=True)
class RangeAzimuthMap:
    """Real non-negative power over (range bin, azimuth bin) fed to the detector."""

    power: np.ndarray
    clamp_count: int = 0  # adaptive-spectrum cells clamped on singular directions

    def __post_init__(self):
        p = np.asarray(self.power)
        if p.ndim != 2:
            raise ValueError("power must be [range_bin][azimuth_bin]")
        if not np.all(np.isfinite(p)):
            raise ValueError("power map contains non-finite values")
        if np.any(p < 0):
            raise ValueError("power map must be non-negative")
