"""Quasi-static floor-occupancy detection from FMCW SIMO radar frames.

Processing chain: fast/slow-time DFTs, exponential clutter subtraction, a
phase-and-sum (DBF) or adaptive minimum-variance (Capon) range-azimuth
stage, and a 2-D cell-averaging CFAR detector, plus a scene simulator and a
reliability evaluation harness.
"""

from .core import ArrayGeometry, RadarConfig, default_geometry
from .frontend import process_frame
from .mti import ClutterState, init_clutter, mti_step
from .dbf import RangeAzimuthMap, SteeringGrid, dbf_power, dbf_range_azimuth, dbf_weights, default_grid
from .capon import capon_range_azimuth, capon_spectrum, capon_steering, spatial_covariance
from .cfar import CfarConfig, DetectionSet, GroundTruthBox, ca_cfar_2d, hit_test, suppress
from .sim import Recording, SceneSpec, synthesize_frame, synthesize_recording
from .recordings import RunManifest, read_recording, write_recording

__version__ = "0.1.0"
