"""Roadside-sensor grid estimates and latency-induced error statistics.

Fixed sensors report mean speeds over short intervals, which yields a
space-time grid of measurements. A trajectory point can be scored two
ways: an ideal estimate averaging the four grid cells bracketing the
point in space and time, and a realtime estimate averaging only the two
spatial neighbors' most recent reports available at the point's time
minus a feed latency. The spread of (realtime - ideal) over a trajectory
quantifies how stale infrastructure data degrades speed awareness.

Cells are indexed by the coordinate they begin at: cell (i, k) covers
sensor interval [sensor_mm[i], sensor_mm[i+1]) and report window
[origin + k*T, origin + (k+1)*T). A point exactly on a lattice node
belongs to the cell beginning there. Missing cells are dropped from
averages and the remaining cells reweighted; a point with no surviving
neighbor is not scored.
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .tables import write_table
from .units import MPS_PER_MPH, M_PER_MILE, mph_to_mps


@dataclass(frozen=True)
class GridSpec:
    """Sensor markers and n_reports report cells of cell_duration_s from
    origin_s. Without n_reports, the fewest cells that cover duration_s."""

    sensor_mm: tuple[float, ...]
    origin_s: float = 0.0
    cell_duration_s: float = 30.0
    duration_s: InitVar[float] = 900.0
    n_reports: int = 0

    def __post_init__(self, duration_s: float) -> None:
        if self.cell_duration_s <= 0:
            raise ValueError("cell_duration_s: must be positive")
        if len(self.sensor_mm) < 2:
            raise ValueError("sensor_mm: need at least two sensors")
        if list(self.sensor_mm) != sorted(self.sensor_mm):
            raise ValueError("sensor_mm: must be sorted ascending")
        if not self.n_reports:
            if duration_s <= 0:
                raise ValueError("duration_s: must be positive")
            n = math.ceil(duration_s / self.cell_duration_s)
            object.__setattr__(self, "n_reports", n)


def default_sensors() -> tuple[float, ...]:
    """Sensors every half mile from mile marker 53.0 to 70.0."""
    return tuple(53.0 + i * 0.5 for i in range(35))


@dataclass
class RdsGrid:
    spec: GridSpec
    speeds: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.spec.sensor_mm), self.spec.n_reports)
        if self.speeds.shape != expected:
            raise ValueError(f"speeds: expected shape {expected}")

    def report_start(self, k: int) -> float:
        return self.spec.origin_s + k * self.spec.cell_duration_s


class TrajectoryPoint(NamedTuple):
    t: float
    mile_marker: float
    speed_mps: float


@dataclass
class ErrorStats:
    latency_s: float
    n: int
    mean_mps: float
    std_mps: float
    histogram: dict[int, int] = field(default_factory=dict)
    bin_width_mph: float = 1.0


def _report_column(spec: GridSpec, t: np.ndarray) -> np.ndarray:
    """floor((t - origin) / cell_duration) as floats; non-finite raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.floor((t - spec.origin_s) / spec.cell_duration_s)
    if not np.isfinite(k).all():
        raise ValueError("t: report index must be finite")
    return k


# Samples per build_grid block: large enough for numpy to pay off, small
# enough that a block's floats stay a few MiB.
_BLOCK = 1 << 15


def build_grid(samples: Iterable[TrajectoryPoint], spec: GridSpec) -> RdsGrid:
    """Aggregate point samples into per-cell mean speeds (NaN when empty).

    Samples west of the first sensor or east of the last are dropped; the
    last sensor's row holds those exactly on it. Samples are read in blocks
    of _BLOCK. Each cell's sum accumulates in input order (np.add.at), so
    every mean is bit-identical to adding the samples one at a time. A
    non-finite report index raises ValueError.
    """
    n_reports = spec.n_reports
    sums = np.zeros(len(spec.sensor_mm) * n_reports)
    counts = np.zeros_like(sums)
    sensors = np.asarray(spec.sensor_mm, dtype=float)
    it = iter(samples)
    while True:
        block = np.fromiter(chain.from_iterable(islice(it, _BLOCK)), float)
        if not block.size:
            break
        t, mm, v = block.reshape(-1, 3).T
        i = np.searchsorted(sensors, mm, side="right") - 1
        k = _report_column(spec, t)
        keep = (i >= 0) & (mm <= sensors[-1]) & (k >= 0) & (k < n_reports)
        cell = i[keep] * n_reports + k[keep].astype(np.intp)
        np.add.at(sums, cell, v[keep])
        counts += np.bincount(cell, minlength=counts.size)
    sums = sums.reshape(len(spec.sensor_mm), n_reports)
    counts = counts.reshape(sums.shape)
    with np.errstate(invalid="ignore"):
        speeds = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return RdsGrid(spec, speeds)


def _mean_present(*cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point mean of the non-NaN cells, added in argument order as a
    one-at-a-time sum would; also whether any cell was present."""
    total = np.zeros(len(cells[0]))
    count = np.zeros(len(cells[0]))
    for cell in cells:
        present = ~np.isnan(cell)
        total = np.where(present, total + cell, total)
        count += present
    has = count > 0
    return total[has] / count[has], has


def error_stats(
    trajectory: Sequence[TrajectoryPoint],
    grid: RdsGrid,
    latencies: Sequence[float],
    bin_width_mph: float = 1.0,
) -> dict[float, ErrorStats]:
    """Per-latency mean/std/histogram of (realtime - ideal), m/s.

    The ideal estimate averages the four cells bracketing a point in space
    and time; the realtime one averages the two spatial neighbours'
    freshest reports at t - latency. A point contributes to a latency only
    when both estimates exist there. Histogram bins are indexed by
    floor(error_mph / bin_width). A non-finite t, or a bin width so small
    that a bin index is not finite, raises ValueError.
    """
    spec, speeds, n_reports = grid.spec, grid.speeds, grid.spec.n_reports
    pts = np.fromiter(chain.from_iterable(trajectory), float).reshape(-1, 3)
    t, mm = pts[:, 0], pts[:, 1]
    i = np.searchsorted(np.asarray(spec.sensor_mm, dtype=float), mm, side="right") - 1
    k = _report_column(spec, t)
    keep = (i >= 0) & (i + 1 < len(spec.sensor_mm)) & (k >= 0) & (k + 1 < n_reports)
    t, i, k = t[keep], i[keep], k[keep].astype(np.intp)
    # The ideal estimate does not depend on latency: a point without one
    # is skipped at every latency.
    ideal, has = _mean_present(
        speeds[i, k], speeds[i, k + 1], speeds[i + 1, k], speeds[i + 1, k + 1]
    )
    t, i = t[has], i[has]
    out: dict[float, ErrorStats] = {}
    for latency in latencies:
        j = _report_column(spec, t - latency)
        fresh = j >= 0
        col = np.minimum(j[fresh], n_reports - 1).astype(np.intp)
        at = i[fresh]
        realtime, has = _mean_present(speeds[at, col], speeds[at + 1, col])
        errors = realtime - ideal[fresh][has]
        with np.errstate(over="ignore"):
            bins, counts = np.unique(
                np.floor(errors / MPS_PER_MPH / bin_width_mph), return_counts=True
            )
        if not np.isfinite(bins).all():
            raise ValueError("bin_width_mph: too small, a bin index is not finite")
        out[latency] = ErrorStats(
            latency_s=latency,
            n=len(errors),
            mean_mps=float(errors.mean()) if len(errors) else 0.0,
            std_mps=float(errors.std()) if len(errors) else 0.0,
            histogram={int(b): int(c) for b, c in zip(bins, counts)},
            bin_width_mph=bin_width_mph,
        )
    return out


# The synthetic wave field, in mph: (amplitude, period s, phase) per
# component of a backward-propagating wave train. Mixing a slow envelope
# with the ~4-minute wave matters: averaging a sensor pair d apart scales
# a component of wavelength lambda by cos(pi*d/lambda), so short waves are
# gutted by the spatial mean and a lone period would make the error
# variance cycle with latency rather than grow. The slow component
# survives the smoothing and keeps the variance climbing through the
# latencies of interest.
WAVE_MEAN_MPH = 45.0
WAVE_COMPONENTS = ((13.0, 600.0, 0.0), (13.0, 240.0, 1.3), (4.0, 130.0, 2.6))
WAVE_SPEED_MPH = 12.0
WAVE_MIN_MPH = 15.0
WAVE_MAX_MPH = 75.0


def wave_field():
    """Speed field f(t, mm) -> m/s for an upstream-running wave train."""
    w_mi_per_s = WAVE_SPEED_MPH / 3600.0

    def field(t: float, mm: float) -> float:
        mph = WAVE_MEAN_MPH
        for amp, period, phase in WAVE_COMPONENTS:
            wavelength_mi = w_mi_per_s * period
            mph += amp * math.sin(
                2.0 * math.pi * (mm - w_mi_per_s * t) / wavelength_mi + phase
            )
        return mph_to_mps(min(max(mph, WAVE_MIN_MPH), WAVE_MAX_MPH))

    return field


def static_field(speed_mps: float):
    def field(t: float, mm: float) -> float:
        return speed_mps

    return field


def grid_from_field(field, spec: GridSpec) -> RdsGrid:
    """Sample the field three times per cell and average, like a sensor."""
    n_s = len(spec.sensor_mm)
    speeds = np.empty((n_s, spec.n_reports))
    offsets = [(j + 0.5) / 3 for j in range(3)]
    for i, mm in enumerate(spec.sensor_mm):
        for k in range(spec.n_reports):
            t0 = spec.origin_s + k * spec.cell_duration_s
            vals = [field(t0 + o * spec.cell_duration_s, mm) for o in offsets]
            speeds[i, k] = sum(vals) / len(vals)
    return RdsGrid(spec, speeds)


def synthetic_trajectory(
    field, t_start: float, t_end: float, mm_start: float
) -> list[TrajectoryPoint]:
    """Drive a virtual probe westbound through the field in 0.5 s steps and
    sample it every 5 s."""
    points = []
    t, mm = t_start, mm_start
    next_sample = t_start
    while t <= t_end:
        v = field(t, mm)
        if t >= next_sample:
            points.append(TrajectoryPoint(t, mm, v))
            next_sample += 5.0
        mm -= v * 0.5 / M_PER_MILE
        t = round(t + 0.5, 9)
    return points


def write_grid(grid: RdsGrid, path: str | Path) -> None:
    def rows():
        for i, mm in enumerate(grid.spec.sensor_mm):
            for k in range(grid.spec.n_reports):
                v = grid.speeds[i, k]
                yield (f"{mm:.3f}", repr(grid.report_start(k)),
                       "" if math.isnan(v) else f"{v:.6f}")

    write_table(path, ("sensor_mm", "report_start_s", "mean_speed_mps"), rows())


def read_grid(path: str | Path) -> RdsGrid:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sensor_mm", "report_start_s", "mean_speed_mps"]:
            raise ValueError(f"unexpected grid header: {header}")
        for mm, start, v in reader:
            row = (float(mm), float(start), float(v) if v else math.nan)
            # An empty speed cell is a missing report; every number is finite.
            if not all(map(math.isfinite, row if v else row[:2])):
                raise ValueError(f"non-finite grid value: {row}")
            rows.append(row)
    if not rows:
        raise ValueError("grid has no rows")
    if len({(mm, start) for mm, start, _ in rows}) != len(rows):
        raise ValueError("grid has a duplicate (sensor_mm, report_start_s) cell")
    sensors = tuple(sorted({mm for mm, _, _ in rows}))
    starts = sorted({start for _, start, _ in rows})
    # The cell width is the step between starts; one start does not give it.
    if len(starts) < 2:
        raise ValueError("grid: need at least two report starts")
    origin = starts[0]
    cell_duration = starts[1] - origin
    # Column k is the report starting at origin + k * cell_duration, so the
    # starts must be that evenly spaced lattice, to float rounding.
    for k, start in enumerate(starts):
        if abs(start - (origin + k * cell_duration)) > 1e-6 * cell_duration:
            raise ValueError(f"report_start_s {start:g}: not on the "
                             f"{cell_duration:g} s lattice from {origin:g}")
    spec = GridSpec(sensors, origin, cell_duration, n_reports=len(starts))
    speeds = np.full((len(sensors), len(starts)), np.nan)
    sensor_idx = {mm: i for i, mm in enumerate(sensors)}
    start_idx = {s: k for k, s in enumerate(starts)}
    for mm, start, v in rows:
        speeds[sensor_idx[mm], start_idx[start]] = v
    return RdsGrid(spec, speeds)


def write_trajectory(points: Sequence[TrajectoryPoint], path: str | Path) -> None:
    write_table(path, ("t_s", "mile_marker", "speed_mps"), (
        (f"{p.t:.3f}", f"{p.mile_marker:.6f}", f"{p.speed_mps:.6f}") for p in points
    ))


def read_trajectory(path: str | Path) -> list[TrajectoryPoint]:
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t_s", "mile_marker", "speed_mps"]:
            raise ValueError(f"unexpected trajectory header: {header}")
        for t, mm, v in reader:
            point = TrajectoryPoint(float(t), float(mm), float(v))
            if not all(map(math.isfinite, point)):
                raise ValueError(f"non-finite trajectory value: {point}")
            points.append(point)
    return points


def write_error_report(
    stats: dict[float, ErrorStats], path: str | Path, histogram_path: str | Path
) -> None:
    by_latency = sorted(stats.items())
    write_table(path, ("latency_s", "n", "mean_err_mps", "std_err_mps"), (
        (f"{lat:.1f}", s.n, f"{s.mean_mps:.6f}", f"{s.std_mps:.6f}")
        for lat, s in by_latency
    ))
    write_table(histogram_path, ("latency_s", "bin_lo_mph", "count"), (
        (f"{lat:.1f}", f"{idx * s.bin_width_mph:.1f}", count)
        for lat, s in by_latency for idx, count in s.histogram.items()
    ))
