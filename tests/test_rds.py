"""Sensor-grid estimate tests: aggregation, bracketing rules, latency errors."""

import bisect
import dataclasses
import gc
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from middleway.rds import (
    ErrorStats,
    GridSpec,
    RdsGrid,
    TrajectoryPoint,
    build_grid,
    default_sensors,
    error_stats,
    latency_study,
    write_error_report,
)
from middleway.scenarios import (
    OffsetReplay,
    canonical_scenario,
    offset_replay,
    string_scenario,
)
from middleway.simulation import (
    RUN_LOG_COLUMNS,
    VehicleInit,
    VehicleKind,
    read_run_log,
    run,
    write_run_log,
)
from middleway.units import M_PER_MILE, MPS_PER_MPH


def build_grid_loop(samples, spec):
    """Reference for build_grid: one sample at a time, in input order."""
    sums = np.zeros((len(spec.sensor_mm), spec.n_reports))
    counts = np.zeros_like(sums)
    sensors = spec.sensor_mm
    for t, mm, v in samples:
        i = bisect.bisect_right(sensors, mm) - 1
        k = int(math.floor((t - spec.origin_s) / spec.cell_duration_s))
        if i >= 0 and mm <= sensors[-1] and 0 <= k < spec.n_reports:
            sums[i, k] += v
            counts[i, k] += 1
    with np.errstate(invalid="ignore"):
        speeds = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return RdsGrid(spec, speeds)


class AllNeighborsMissing(Exception):
    """No grid data supports the requested point."""


def _spatial_pair(spec, mm):
    i = bisect.bisect_right(spec.sensor_mm, mm) - 1
    if i < 0 or i + 1 >= len(spec.sensor_mm):
        raise AllNeighborsMissing(f"mile marker {mm} outside sensor coverage")
    return i, i + 1


def _report_index(spec, t):
    return int(math.floor((t - spec.origin_s) / spec.cell_duration_s))


def _mean_left_to_right(values):
    """Mean of values added one at a time, as rds._mean_present adds them;
    sum() rounds differently from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def ideal_speed(p, grid):
    """Reference ideal estimate: mean of the four cells bracketing the point
    in space and time; missing cells are dropped from the mean."""
    spec, (t, mm, _) = grid.spec, p
    i_lo, i_hi = _spatial_pair(spec, mm)
    k = _report_index(spec, t)
    if k < 0 or k + 1 >= spec.n_reports:
        raise AllNeighborsMissing(f"time {t} outside report coverage")
    cells = [grid.speeds[i, col] for i in (i_lo, i_hi) for col in (k, k + 1)]
    cells = [v for v in cells if not math.isnan(v)]
    if not cells:
        raise AllNeighborsMissing(f"all four cells missing at ({t}, {mm})")
    return _mean_left_to_right(cells)


def realtime_speed(p, grid, latency_s=0.0):
    """Reference realtime estimate: average of the two spatial neighbors'
    freshest reports at t - latency."""
    spec, (t, mm, _) = grid.spec, p
    i_lo, i_hi = _spatial_pair(spec, mm)
    j = _report_index(spec, t - latency_s)
    if j < 0:
        raise AllNeighborsMissing(f"no reports available {latency_s} s before {t}")
    j = min(j, spec.n_reports - 1)
    values = [grid.speeds[i, j] for i in (i_lo, i_hi)]
    values = [v for v in values if not math.isnan(v)]
    if not values:
        raise AllNeighborsMissing(f"both neighbors missing at ({t}, {mm})")
    return float(_mean_left_to_right(values))


def error_stats_per_latency(trajectory, grid, latencies, bin_width_mph=1.0):
    """Reference for error_stats: both estimates per point per latency."""
    out = {}
    for latency in latencies:
        errors = []
        for p in trajectory:
            try:
                ideal = ideal_speed(p, grid)
                realtime = realtime_speed(p, grid, latency)
            except AllNeighborsMissing:
                continue
            errors.append(realtime - ideal)
        arr = np.asarray(errors)
        hist = {}
        for err in errors:
            idx = int(math.floor(err / MPS_PER_MPH / bin_width_mph))
            hist[idx] = hist.get(idx, 0) + 1
        out[latency] = ErrorStats(
            latency_s=latency,
            n=len(errors),
            mean_mps=float(arr.mean()) if len(errors) else 0.0,
            std_mps=float(arr.std()) if len(errors) else 0.0,
            histogram=dict(sorted(hist.items())),
            bin_width_mph=bin_width_mph,
        )
    return out


def offset_replay_loop(log, offsets):
    """Reference for offset_replay: a row loop into four lists."""
    ts, vids, v_prs, v_grs = [], [], [], []
    for row in log.rows:
        t, vid, kind, v_gr, v_pr = row[0], row[1], row[2], row[8], row[9]
        if kind != VehicleKind.CONTROLLED.value:
            continue
        if v_gr is None or v_pr is None:
            continue
        ts.append(t)
        vids.append(vid)
        v_prs.append(v_pr)
        v_grs.append(v_gr)
    v_pr_arr = np.asarray(v_prs)
    v_gr_arr = np.asarray(v_grs)
    traces = {float(k): np.maximum(v_pr_arr - float(k), v_gr_arr) for k in offsets}
    return OffsetReplay(np.asarray(ts), tuple(vids), v_pr_arr, v_gr_arr, traces)


def small_spec(duration_s=120.0):
    return GridSpec(sensor_mm=(60.0, 60.5, 61.0), duration_s=duration_s)


def constant_grid(speed, spec):
    return RdsGrid(spec, np.full((len(spec.sensor_mm), spec.n_reports), speed))


def drawn_grid(rng, spec, holes=0.0):
    """Speeds drawn from 5-35 m/s with six decimals, as a grid file holds
    them, and a share of holes."""
    speeds = rng.integers(5_000_000, 35_000_000, (len(spec.sensor_mm), spec.n_reports)) / 1e6
    speeds[rng.random(speeds.shape) < holes] = np.nan
    return RdsGrid(spec, speeds)


def drawn_trajectory(rng, n, t_range, mm_range):
    """n points at drawn times, mile markers and 5-35 m/s speeds, in time order."""
    t = np.sort(rng.uniform(*t_range, n))
    return [TrajectoryPoint(*p) for p in zip(t.tolist(), rng.uniform(*mm_range, n).tolist(),
                                              rng.uniform(5.0, 35.0, n).tolist())]


def grid_with(values, spec=None):
    spec = spec or small_spec()
    speeds = np.full((len(spec.sensor_mm), spec.n_reports), np.nan)
    for (i, k), v in values.items():
        speeds[i, k] = v
    return RdsGrid(spec, speeds)


class TestGridSpec:
    def test_unsorted_sensors_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            GridSpec(sensor_mm=(61.0, 60.0))

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError, match="two sensors"):
            GridSpec(sensor_mm=(60.0,))

    def test_default_sensor_layout(self):
        sensors = default_sensors()
        assert len(sensors) == 35
        assert sensors[0] == 53.0 and sensors[-1] == 70.0


class TestBuildGrid:
    def test_uniform_samples_give_uniform_cells(self):
        spec = small_spec()
        samples = [
            TrajectoryPoint(t, mm, 17.0)
            for t in (5.0, 35.0, 65.0, 95.0)
            for mm in (60.1, 60.6)
        ]
        grid = build_grid(samples, spec)
        occupied = grid.speeds[~np.isnan(grid.speeds)]
        assert occupied.size == 8
        assert np.allclose(occupied, 17.0)

    def test_single_sample_sets_cell(self):
        grid = build_grid([TrajectoryPoint(40.0, 60.2, 20.0)], small_spec())
        assert grid.speeds[0, 1] == pytest.approx(20.0)
        assert np.isnan(grid.speeds).sum() == grid.speeds.size - 1

    def test_two_samples_average(self):
        samples = [
            TrajectoryPoint(10.0, 60.2, 18.0),
            TrajectoryPoint(20.0, 60.3, 22.0),
        ]
        grid = build_grid(samples, small_spec())
        assert grid.speeds[0, 0] == pytest.approx(20.0)

    def test_out_of_range_samples_dropped(self):
        samples = [
            TrajectoryPoint(10.0, 59.0, 11.0),
            TrajectoryPoint(999.0, 60.2, 12.0),
        ]
        grid = build_grid(samples, small_spec())
        assert np.isnan(grid.speeds).all()

    def test_last_sensor_row_holds_only_samples_on_it(self):
        # East of the last sensor (61.0) is outside coverage, at any distance.
        samples = [
            TrajectoryPoint(10.0, 61.0, 20.0),
            TrajectoryPoint(10.0, 61.01, 30.0),
            TrajectoryPoint(10.0, 65.0, 40.0),
            TrajectoryPoint(40.0, 61.5, 50.0),
        ]
        grid = build_grid(samples, small_spec())
        assert grid.speeds[2, 0] == 20.0
        assert np.isnan(grid.speeds).sum() == grid.speeds.size - 1


@st.composite
def grid_cases(draw):
    """A small grid and samples on sensor markers, on lattice nodes, outside
    both kinds of coverage, and repeated."""
    sensors = tuple(sorted(draw(st.sets(
        st.sampled_from([59.5, 60.0, 60.25, 60.5, 61.0, 62.0]), min_size=2, max_size=4
    ))))
    spec = GridSpec(
        sensor_mm=sensors,
        origin_s=draw(st.sampled_from([0.0, -15.0, 7.5])),
        cell_duration_s=draw(st.sampled_from([30.0, 7.0, 0.1])),
        duration_s=draw(st.sampled_from([0.05, 60.0, 120.0])),
    )
    cell, t_lo = spec.cell_duration_s, spec.origin_s
    t_hi = t_lo + spec.n_reports * cell
    t = st.one_of(
        st.sampled_from([t_lo + k * cell for k in range(-1, spec.n_reports + 2)]),
        st.floats(t_lo - 2.0 * cell, t_hi + 2.0 * cell),
    )
    mm = st.one_of(
        st.sampled_from(sensors),
        st.floats(sensors[0] - 1.0, sensors[-1] + 1.0),
        st.sampled_from([-math.inf, math.inf]),
    )
    speed = st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.1, 0.2, 0.7]))
    samples = draw(st.lists(st.builds(TrajectoryPoint, t, mm, speed), max_size=40))
    if samples:
        samples += draw(st.lists(st.sampled_from(samples), max_size=20))
        samples = draw(st.permutations(samples))
    return spec, samples


class TestBuildGridMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=grid_cases(), as_iterator=st.booleans())
    def test_bit_identical(self, case, as_iterator):
        spec, samples = case
        grid = build_grid(iter(samples) if as_iterator else samples, spec)
        assert np.array_equal(
            grid.speeds, build_grid_loop(samples, spec).speeds, equal_nan=True
        )

    def test_crosses_blocks(self):
        # More than two 32,768-sample blocks, with every cell filled from
        # each block, so cell sums run across block boundaries. Every fifth
        # sample sits on the last sensor, whose row holds only those.
        rng = random.Random(0)
        samples = [
            TrajectoryPoint(
                rng.uniform(-10.0, 130.0),
                61.0 if n % 5 == 0 else rng.uniform(59.8, 61.2),
                rng.uniform(0.0, 35.0),
            )
            for n in range(70_001)
        ]
        spec = small_spec()
        grid = build_grid(samples, spec)
        assert not np.isnan(grid.speeds[:, :4]).any()
        assert np.array_equal(
            grid.speeds, build_grid_loop(samples, spec).speeds, equal_nan=True
        )

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 40_000])
    def test_non_finite_t_raises(self, t, at):
        samples = [TrajectoryPoint(10.0, 60.2, 20.0)] * 40_001
        samples[at] = TrajectoryPoint(t, 60.2, 20.0)
        with pytest.raises(ValueError):
            build_grid(samples, small_spec())


class TestIdealSpeed:
    def test_four_neighbor_average(self):
        grid = grid_with({(0, 0): 20.0, (0, 1): 22.0, (1, 0): 24.0, (1, 1): 26.0})
        p = TrajectoryPoint(15.0, 60.25, 0.0)
        assert ideal_speed(p, grid) == pytest.approx(23.0, abs=1e-12)

    def test_uniform_field_returns_it(self):
        grid = constant_grid(19.0, small_spec())
        assert ideal_speed(TrajectoryPoint(45.0, 60.7, 0.0), grid) == pytest.approx(
            19.0, abs=1e-12
        )

    def test_lattice_node_uses_cells_beginning_there(self):
        # Point exactly at sensor 60.5 and report start 30: the bracketing
        # pair is (60.5, 61.0) x (30, 60), never the cells before the node.
        grid = grid_with(
            {
                (0, 0): 99.0, (0, 1): 99.0, (0, 2): 99.0,
                (1, 1): 10.0, (1, 2): 14.0, (2, 1): 12.0, (2, 2): 16.0,
            }
        )
        p = TrajectoryPoint(30.0, 60.5, 0.0)
        assert ideal_speed(p, grid) == pytest.approx(13.0, abs=1e-12)

    def test_missing_cell_dropped_and_renormalized(self):
        grid = grid_with({(0, 0): 20.0, (0, 1): 22.0, (1, 0): 24.0})
        p = TrajectoryPoint(15.0, 60.25, 0.0)
        assert ideal_speed(p, grid) == pytest.approx(22.0, abs=1e-12)

    def test_all_missing_raises(self):
        grid = grid_with({(2, 3): 20.0})
        with pytest.raises(AllNeighborsMissing):
            ideal_speed(TrajectoryPoint(15.0, 60.25, 0.0), grid)

    def test_outside_coverage_raises(self):
        grid = constant_grid(19.0, small_spec())
        with pytest.raises(AllNeighborsMissing):
            ideal_speed(TrajectoryPoint(15.0, 59.9, 0.0), grid)
        with pytest.raises(AllNeighborsMissing):
            ideal_speed(TrajectoryPoint(119.0, 60.25, 0.0), grid)


class TestRealtimeSpeed:
    def test_zero_latency_steady_field(self):
        grid = constant_grid(21.0, small_spec())
        p = TrajectoryPoint(50.0, 60.25, 0.0)
        assert realtime_speed(p, grid, 0.0) == pytest.approx(21.0, abs=1e-12)

    def test_staleness_misses_field_jump(self):
        # Speeds drop from 30 to 10 at the report starting at 120 s. At
        # t=178 the ideal sees the new regime; with 60 s latency the
        # freshest available report (start 90) still says 30.
        spec = small_spec(duration_s=240.0)
        values = {}
        for i in range(3):
            for k in range(spec.n_reports):
                values[(i, k)] = 30.0 if spec.origin_s + k * 30.0 < 120.0 else 10.0
        grid = grid_with(values, spec)
        p = TrajectoryPoint(178.0, 60.25, 0.0)
        assert ideal_speed(p, grid) == pytest.approx(10.0, abs=1e-12)
        assert realtime_speed(p, grid, 60.0) == pytest.approx(30.0, abs=1e-12)

    def test_small_latency_on_constant_grid_equals_ideal(self):
        grid = constant_grid(23.5, small_spec())
        p = TrajectoryPoint(50.0, 60.6, 0.0)
        assert realtime_speed(p, grid, 15.0) == pytest.approx(
            ideal_speed(p, grid), abs=1e-12
        )

    def test_latency_before_first_report_raises(self):
        grid = constant_grid(23.5, small_spec())
        with pytest.raises(AllNeighborsMissing):
            realtime_speed(TrajectoryPoint(50.0, 60.25, 0.0), grid, 90.0)

    def test_one_missing_neighbor_uses_the_other(self):
        grid = grid_with({(0, 1): 25.0})
        p = TrajectoryPoint(59.0, 60.25, 0.0)
        assert realtime_speed(p, grid, 0.0) == pytest.approx(25.0, abs=1e-12)


class TestEstimateBounds:
    @given(
        values=st.lists(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
            min_size=12,
            max_size=12,
        ),
        mm=st.floats(min_value=60.0, max_value=60.999),
        t=st.floats(min_value=0.0, max_value=89.9),
        latency=st.sampled_from([0.0, 10.0, 30.0, 45.0]),
    )
    def test_estimates_bounded_by_contributing_cells(self, values, mm, t, latency):
        spec = small_spec()
        speeds = np.array(
            [math.nan if v is None else v for v in values]
        ).reshape(3, 4)
        grid = RdsGrid(spec, speeds)
        present = speeds[~np.isnan(speeds)]
        p = TrajectoryPoint(t, mm, 0.0)
        for estimate in (
            lambda: ideal_speed(p, grid),
            lambda: realtime_speed(p, grid, latency),
        ):
            try:
                v = estimate()
            except AllNeighborsMissing:
                continue
            assert present.min() - 1e-9 <= v <= present.max() + 1e-9


class TestErrorStats:
    def test_constant_grid_zero_error_at_all_latencies(self):
        # A probe driving west from mile marker 69.4 at 20 m/s, sampled
        # every 5 s from 330 s to 850 s.
        grid = constant_grid(20.0, GridSpec(sensor_mm=default_sensors(), duration_s=900.0))
        traj = [TrajectoryPoint(t, 69.4 - 20.0 * (t - 330.0) / M_PER_MILE, 20.0)
                for t in np.arange(330.0, 851.0, 5.0).tolist()]
        stats = error_stats(traj, grid, [0.0, 60.0, 120.0, 300.0])
        for s in stats.values():
            assert s.n > 50
            assert abs(s.mean_mps) <= 1e-12
            assert s.std_mps <= 1e-12
            assert set(s.histogram) == {0}

    def test_spread_grows_with_latency(self):
        # Over independent cells of spread s, the error at 0 s has spread
        # s/2 (two of the ideal's four cells are the realtime's), and at
        # 120 s, with no cell shared, s * sqrt(3)/2.
        rng = np.random.default_rng(6)
        grid = drawn_grid(rng, GridSpec(sensor_mm=default_sensors(), duration_s=1260.0))
        traj = drawn_trajectory(rng, 400, (330.0, 1200.0), (53.0, 70.0))
        stats = error_stats(traj, grid, [0.0, 120.0])
        assert stats[120.0].std_mps > 1.5 * stats[0.0].std_mps > 0.0

    def test_histogram_counts_match_n(self):
        rng = np.random.default_rng(7)
        grid = drawn_grid(rng, GridSpec(sensor_mm=default_sensors(), duration_s=1260.0))
        traj = drawn_trajectory(rng, 100, (330.0, 800.0), (53.0, 70.0))
        stats = error_stats(traj, grid, [60.0])
        s = stats[60.0]
        assert sum(s.histogram.values()) == s.n > 0


class TestErrorStatsMatchesPerLatency:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        holes=st.sampled_from([0.0, 0.1, 0.4, 0.9]),
        t_start=st.sampled_from([0.0, 20.0, 330.0]),
        mm_start=st.sampled_from([69.4, 70.3, 53.2]),
        latencies=st.lists(
            st.sampled_from([0.0, 15.0, 30.0, 60.0, 120.0, 300.0, 2000.0]),
            min_size=1, max_size=4, unique=True,
        ),
        bin_width=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_equal_stats(self, seed, holes, t_start, mm_start, latencies, bin_width):
        # A 35-sensor by 42-report grid, and points up to 600 s after
        # t_start and 6 miles west of mm_start, some outside the sensors.
        rng = np.random.default_rng(seed)
        grid = drawn_grid(rng, GridSpec(sensor_mm=default_sensors(), duration_s=1260.0), holes)
        traj = drawn_trajectory(rng, 120, (t_start, t_start + 600.0),
                                (mm_start - 6.0, mm_start))
        got = error_stats(traj, grid, latencies, bin_width)
        assert got == error_stats_per_latency(traj, grid, latencies, bin_width)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.none(), st.floats(-40.0, 40.0)), min_size=12, max_size=12
        ),
        points=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([-30.0, 0.0, 30.0, 60.0, 90.0, 120.0]),
                          st.floats(-40.0, 130.0)),
                st.one_of(st.sampled_from([59.9, 60.0, 60.5, 61.0, 61.1]),
                          st.floats(59.8, 61.2)),
            ),
            max_size=30,
        ),
        latencies=st.lists(st.floats(0.0, 150.0), min_size=1, max_size=3, unique=True),
        bin_width=st.sampled_from([0.25, 1.0]),
    )
    def test_equal_stats_on_lattice_edges_and_holes(self, values, points, latencies,
                                                    bin_width):
        # Points on sensor and report boundaries, outside coverage, and over
        # holes and negative zeros: every mean must be bit-identical.
        speeds = np.array([math.nan if v is None else v for v in values]).reshape(3, 4)
        grid = RdsGrid(small_spec(), speeds)
        traj = [TrajectoryPoint(t, mm, 0.0) for t, mm in points]
        got = error_stats(traj, grid, latencies, bin_width)
        assert got == error_stats_per_latency(traj, grid, latencies, bin_width)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_raises(self, t):
        grid = constant_grid(20.0, small_spec())
        traj = [TrajectoryPoint(40.0, 60.25, 20.0), TrajectoryPoint(t, 60.25, 20.0)]
        with pytest.raises(ValueError, match="finite"):
            error_stats(traj, grid, [0.0])


def read_log_text(tmp_path, lines):
    """read_run_log on a file of the run-log header and lines."""
    path = tmp_path / "log.csv"
    path.write_text("".join(f"{line}\r\n" for line in [",".join(RUN_LOG_COLUMNS), *lines]),
                    newline="")
    return read_run_log(path)


def _rammed_canonical(log_every=1):
    """Canonical seed 0 with a probe 50 m behind the controlled vehicle,
    24 m/s faster; it never brakes, so it rams the vehicle after about 2 s."""
    base = dataclasses.replace(canonical_scenario(), duration_s=30.0, log_every=log_every)
    ram = VehicleInit("ram", VehicleKind.PROBE, -450.0, 40.0)
    return dataclasses.replace(base, vehicles=[*base.vehicles, ram])


# Scenarios whose logs offset_replay and its row loop read alike.
REPLAY_LOGS = {
    "canonical_30s": lambda: dataclasses.replace(canonical_scenario(), duration_s=30.0),
    "string_n6": lambda: string_scenario(n_controlled=6),
    "string_n6_every10": lambda: dataclasses.replace(
        string_scenario(n_controlled=6), log_every=10
    ),
    "collision": _rammed_canonical,
    "empty": lambda: dataclasses.replace(canonical_scenario(), duration_s=0.0),
}


class TestOffsetReplayMatchesLoop:
    def assert_same(self, log, offsets):
        got = offset_replay(log, offsets)
        want = offset_replay_loop(log, offsets)
        assert got.vehicle_id == want.vehicle_id
        for a, b in [(got.t, want.t), (got.v_pr, want.v_pr), (got.v_gr, want.v_gr)]:
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)
        assert list(got.v_des) == list(want.v_des)
        for k in want.v_des:
            assert got.v_des[k].dtype == np.float64
            assert np.array_equal(got.v_des[k], want.v_des[k])

    @pytest.mark.parametrize("name", sorted(REPLAY_LOGS))
    def test_run_logs(self, name):
        self.assert_same(run(REPLAY_LOGS[name]()), [0.0, 2.0, 4.0, 8.0])

    def test_canonical_log(self, tmp_path):
        path = tmp_path / "run_log.csv"
        write_run_log(run(REPLAY_LOGS["canonical_30s"]()), path)
        self.assert_same(read_run_log(path), [0.0, 2.0, 4.0, 8.0])

    def test_rows_without_advisory_or_estimate_skipped(self, tmp_path):
        # Two controlled vehicles and a human over three steps; each
        # controlled row misses its advisory, its estimate, both or neither.
        lines = [
            "0.000,c,controlled,0.0,70.0,20.0,normal,21.0,26.8,25.0,0.1",
            "0.000,h,human,5.0,70.0,20.0,,,,,0.0",
            "0.000,d,controlled,2.0,70.0,20.0,vsl,21.0,,,-0.0",
            "0.050,c,controlled,1.0,70.0,20.0,normal,21.0,,25.0,0.1",
            "0.050,h,human,5.0,70.0,20.0,,,,,0.0",
            "0.050,d,controlled,2.0,70.0,20.0,,,20.0,30.0,-0.0",
            "0.100,c,controlled,1.0,70.0,20.0,normal,21.0,26.8,,0.1",
            "0.100,h,human,5.0,70.0,20.0,,,,,0.0",
            "0.100,d,controlled,2.0,70.0,20.0,vsl,21.0,20.0,30.0,-0.0",
        ]
        self.assert_same(read_log_text(tmp_path, lines), [1.5, 4.0])

    def test_no_controlled_rows(self, tmp_path):
        lines = ["0.000,h,human,5.0,70.0,20.0,,,,,0.0"]
        self.assert_same(read_log_text(tmp_path, lines), [2.0])
        self.assert_same(read_log_text(tmp_path, []), [2.0])



# Recorded before build_grid, error_stats and offset_replay were vectorised:
# a 30 s canonical seed-0 log written, read back, replayed at four offsets,
# gridded in 2 s reports (30 s reports would leave one report column and
# score nothing) and scored at six latencies. A 30 s log has no report 30 s
# or more before any point, so those latencies score nothing. The grid and
# stats were re-recorded when build_grid stopped putting samples east of
# the last sensor (mile marker 70.0) into its row: the controlled vehicle
# starts east of it, so that row's first eight reports are now empty, and
# fewer points have a realtime estimate at 4 s and 10 s.
GOLDEN_GRID_SHA256 = "e3db031c4f3c0c0b6f3357ea7877dadb1b56638d693b91978bf4ffb0c3b10f3b"
GOLDEN_REPLAY_SHA256 = {
    "t": "f331206495aec55ba630722ad5de863d57f9da9e70b04f1bfa54c6a2b7379ad5",
    "v_pr": "41287e7fffa567bf6aa39c95b773c6b59a4801da3a15cdb993b6352e4091f22f",
    0.0: "fcdcce86b9bd7db2cab1d787cb457ed8d41986bd1330775b7156524e556d01af",
    2.0: "23c7a7fa4dccb725531bdb3efe6da1ce5b5e5ff755cb7c6905335f16e7217004",
    4.0: "23c7a7fa4dccb725531bdb3efe6da1ce5b5e5ff755cb7c6905335f16e7217004",
    8.0: "23c7a7fa4dccb725531bdb3efe6da1ce5b5e5ff755cb7c6905335f16e7217004",
}
GOLDEN_STATS = {
    0.0: (248, "0.5037244568548399", "0.5147031772737038"),
    4.0: (200, "2.9382096400000006", "1.8590801861428505"),
    10.0: (80, "6.366693362500001", "0.21621414999999902"),
    30.0: (0, "0.0", "0.0"),
    60.0: (0, "0.0", "0.0"),
    120.0: (0, "0.0", "0.0"),
}


def _sha256(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestReadSideGolden:
    def test_canonical_seed0_30s(self, tmp_path):
        path = tmp_path / "run_log.csv"
        cfg = dataclasses.replace(canonical_scenario(seed=0), duration_s=30.0)
        write_run_log(run(cfg), path)
        log = read_run_log(path)
        replay = offset_replay(log, [0.0, 2.0, 4.0, 8.0])
        assert _sha256(replay.t) == GOLDEN_REPLAY_SHA256["t"]
        assert _sha256(replay.v_pr) == GOLDEN_REPLAY_SHA256["v_pr"]
        for k, v_des in replay.v_des.items():
            assert _sha256(v_des) == GOLDEN_REPLAY_SHA256[k]

        spec = GridSpec(sensor_mm=default_sensors(), cell_duration_s=2.0, duration_s=30.0)
        samples = [TrajectoryPoint(r[0], r[4], r[5]) for r in log.rows]
        grid = build_grid(samples, spec)
        assert _sha256(grid.speeds) == GOLDEN_GRID_SHA256

        trajectory = [p for p, r in zip(samples, log.rows) if r[2] == "controlled"]
        stats = error_stats(trajectory, grid, sorted(GOLDEN_STATS))
        got = {lat: (s.n, repr(s.mean_mps), repr(s.std_mps)) for lat, s in stats.items()}
        assert got == GOLDEN_STATS

    @pytest.mark.parametrize("name", ["canonical_120s", "string_n6"])
    def test_latency_study_matches_rows(self, tmp_path, name):
        # latency_study grids the columns; the benchmark's path builds one
        # TrajectoryPoint per row, over the reports that cover the run.
        cfg = {
            "canonical_120s": dataclasses.replace(canonical_scenario(), duration_s=120.0),
            "string_n6": string_scenario(n_controlled=6),
        }[name]
        path = tmp_path / "run_log.csv"
        write_run_log(run(cfg), path)
        log = read_run_log(path)
        grid, trajectory = latency_study(log)

        spec = GridSpec(sensor_mm=default_sensors(), duration_s=cfg.duration_s)
        samples = [TrajectoryPoint(r[0], r[4], r[5]) for r in log.rows]
        want = [p for p, r in zip(samples, log.rows) if r[2] == "controlled"]
        assert trajectory == want
        assert grid.spec == spec
        assert np.array_equal(grid.speeds, build_grid(samples, spec).speeds, equal_nan=True)
        latencies = [0.0, 30.0, 60.0]
        stats = error_stats(trajectory, grid, latencies)
        assert stats == error_stats(want, build_grid(samples, spec), latencies)
        assert stats[0.0].n > 0


class TestPointsUntracked:
    """A point is a plain tuple of floats, which the cyclic collector stops
    tracking, so holding a log's worth of them adds nothing to a collection."""

    def test_points_are_untracked_after_a_collection(self):
        _, trajectory = latency_study(
            run(dataclasses.replace(canonical_scenario(), duration_s=60.0)))
        points = [TrajectoryPoint(1.0, 60.0, 20.0), *trajectory]
        assert len(points) > 1000
        gc.collect()
        assert not any(map(gc.is_tracked, points))


class TestSerialization:
    def test_error_report_files(self, tmp_path):
        grid = constant_grid(20.0, small_spec())
        traj = [TrajectoryPoint(40.0, 60.25, 20.0), TrajectoryPoint(50.0, 60.5, 20.0)]
        stats = error_stats(traj, grid, [0.0, 30.0])
        report = tmp_path / "errors.csv"
        hist = tmp_path / "hist.csv"
        write_error_report(stats, report, hist)
        lines = report.read_text().splitlines()
        assert lines[0] == "latency_s,n,mean_err_mps,std_err_mps"
        assert len(lines) == 3
        assert hist.read_text().splitlines()[0] == "latency_s,bin_lo_mph,count"

