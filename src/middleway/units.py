"""Unit conversions.

All internal quantities are SI (meters, seconds, m/s). Miles per hour and
mile markers appear only at I/O boundaries: posted speed signs, corridor
geometry, and report columns.
"""

import math

MPS_PER_MPH = 0.44704
M_PER_MILE = 1609.344


def mph_to_mps(mph: float) -> float:
    return mph * MPS_PER_MPH


def mps_to_mph(mps: float) -> float:
    return mps / MPS_PER_MPH


def round_to_multiple(value: float, base: float) -> float:
    """Round to the nearest multiple of ``base`` (half rounds up)."""
    if base <= 0:
        raise ValueError("base must be positive")
    return base * math.floor(value / base + 0.5)
