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

import math
from dataclasses import InitVar, dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .simulation import MAX_DURATION_S, RunLog
from .tables import read_header, write_table
from .units import MPS_PER_MPH


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


# A (t, mile_marker, speed_mps) sample: a plain tuple of floats, which the
# garbage collector stops tracking, as it never does a NamedTuple.
Point = tuple[float, float, float]


def TrajectoryPoint(t: float, mile_marker: float, speed_mps: float) -> Point:
    return (t, mile_marker, speed_mps)


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


# Samples per build_grid block. A block's arrays are made while the
# caller's samples are all alive, so they add to its peak memory: at 4,096
# samples they take under 1 MiB. Gridding the 291,200-sample canonical log
# takes no longer than with 32,768-sample blocks, which put the replay's
# peak RSS 2.4 MiB higher.
_BLOCK = 1 << 12


def build_grid(samples: Iterable[Point], spec: GridSpec) -> RdsGrid:
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


def _mean_present(
    speeds: np.ndarray, i: np.ndarray, k: np.ndarray, corners: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point mean of the non-NaN cells speeds[i + di, k + dk], added in
    corners order as a one-at-a-time sum would; also whether any cell was
    present. One corner's cells are held at a time."""
    total = np.zeros(len(i))
    count = np.zeros(len(i))
    for di, dk in corners:
        cell = speeds[i + di, k + dk]
        present = ~np.isnan(cell)
        np.add(total, cell, out=total, where=present)
        count += present
    has = count > 0
    return total[has] / count[has], has


def _ideal(
    trajectory: Sequence[Point], grid: RdsGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t, sensor row and ideal estimate of each point that has one: a
    point needs a cell after its own in space and in time. This helper and
    _realtime_errors free their arrays when they return, so error_stats
    holds few at a time."""
    spec, n_reports = grid.spec, grid.spec.n_reports
    pts = np.fromiter(chain.from_iterable(trajectory), float, 3 * len(trajectory))
    t, mm = pts[0::3], pts[1::3]
    i = np.searchsorted(np.asarray(spec.sensor_mm, dtype=float), mm, side="right") - 1
    k = _report_column(spec, t)
    keep = (i >= 0) & (i + 1 < len(spec.sensor_mm)) & (k >= 0) & (k + 1 < n_reports)
    t, i, k = t[keep], i[keep], k[keep].astype(np.intp)
    ideal, has = _mean_present(grid.speeds, i, k, ((0, 0), (0, 1), (1, 0), (1, 1)))
    return t[has], i[has], ideal


def _realtime_errors(
    grid: RdsGrid, t: np.ndarray, i: np.ndarray, ideal: np.ndarray, latency: float
) -> np.ndarray:
    """realtime - ideal at latency, for the points (t, i, ideal) that have a
    realtime estimate there."""
    col = _report_column(grid.spec, t - latency)
    fresh = col >= 0
    col = np.minimum(col[fresh], grid.spec.n_reports - 1).astype(np.intp)
    realtime, has = _mean_present(grid.speeds, i[fresh], col, ((0, 0), (1, 0)))
    return realtime - ideal[fresh][has]


def error_stats(
    trajectory: Sequence[Point],
    grid: RdsGrid,
    latencies: Sequence[float],
    bin_width_mph: float = 1.0,
) -> dict[float, ErrorStats]:
    """Per-latency mean/std/histogram of (realtime - ideal), m/s.

    The ideal estimate averages the four cells bracketing a point in space
    and time; the realtime one averages the two spatial neighbours'
    freshest reports at t - latency. A point contributes to a latency only
    when both estimates exist there. Histogram bins are indexed by
    floor(error_mph / bin_width). A negative latency, which would score
    reports from the future, a non-finite t, or a bin width so small that
    a bin index is not finite, raises ValueError.
    """
    if any(latency < 0 for latency in latencies):
        raise ValueError("latencies: must be non-negative")
    # The ideal estimate does not depend on latency: a point without one
    # is skipped at every latency.
    t, i, ideal = _ideal(trajectory, grid)
    out: dict[float, ErrorStats] = {}
    for latency in latencies:
        errors = _realtime_errors(grid, t, i, ideal, latency)
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


def latency_study(log: RunLog) -> tuple[RdsGrid, list[Point]]:
    """A run log's grid of 30 s reports over the default sensors from every
    row, to the last step, and its controlled rows in log order as the
    trajectory. A log without rows, ending outside [0, MAX_DURATION_S] or
    with a non-finite t, mile marker or speed raises ValueError."""
    if not (log.t and 0.0 <= log.t[-1] <= MAX_DURATION_S):
        raise ValueError(f"run log: no rows, or a last t outside [0, {MAX_DURATION_S:g}] s")
    if not all(np.isfinite(col).all() for col in (log.t, log.mm, log.v)):
        raise ValueError("run log: t, mile_marker and velocity_mps must be finite")
    n = len(log.vehicle_ids)
    trajectory = list(chain.from_iterable(zip(*(
        zip(log.t, log.mm[j::n], log.v[j::n]) for j in log.controlled))))
    ts = chain.from_iterable(map(repeat, log.t, repeat(n)))
    spec = GridSpec(default_sensors(), n_reports=int(log.t[-1] // 30.0) + 1)
    return build_grid(zip(ts, log.mm, log.v), spec), trajectory


def write_grid(grid: RdsGrid, path: str | Path) -> None:
    def rows():
        for i, mm in enumerate(grid.spec.sensor_mm):
            for k in range(grid.spec.n_reports):
                v = grid.speeds[i, k]
                yield (f"{mm:.3f}", repr(grid.spec.origin_s + k * grid.spec.cell_duration_s),
                       "" if math.isnan(v) else f"{v:.6f}")

    write_table(path, ("sensor_mm", "report_start_s", "mean_speed_mps"), rows())


def read_grid(path: str | Path) -> RdsGrid:
    """A grid as write_grid writes it, one row for each (sensor_mm,
    report_start_s) cell; any other file raises ValueError."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        read_header(fh, ("sensor_mm", "report_start_s", "mean_speed_mps"), "grid")
        for line in fh:
            mm, start, v = line.rstrip("\r\n").split(",")
            row = (float(mm), float(start), float(v) if v else math.nan)
            # An empty speed cell is a missing report; every number is finite.
            if not all(map(math.isfinite, row if v else row[:2])):
                raise ValueError(f"non-finite grid value: {row}")
            rows.append(row)
    if not rows:
        raise ValueError("grid has no rows")
    sensors = tuple(sorted({mm for mm, _, _ in rows}))
    starts = sorted({start for _, start, _ in rows})
    if not len({row[:2] for row in rows}) == len(rows) == len(sensors) * len(starts):
        raise ValueError("grid must hold each (sensor_mm, report_start_s) cell exactly once")
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
    # Each cell is one row, so the sorted rows fill the grid row-major.
    speeds = np.array([v for _, _, v in sorted(rows)]).reshape(len(sensors), len(starts))
    return RdsGrid(spec, speeds)


def write_trajectory(points: Sequence[Point], path: str | Path) -> None:
    write_table(path, ("t_s", "mile_marker", "speed_mps"), (
        (f"{t:.3f}", f"{mm:.6f}", f"{v:.6f}") for t, mm, v in points
    ))


def read_trajectory(path: str | Path) -> list[Point]:
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        read_header(fh, ("t_s", "mile_marker", "speed_mps"), "trajectory")
        for line in fh:
            t, mm, v = line.rstrip("\r\n").split(",")
            point = (float(t), float(mm), float(v))
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
