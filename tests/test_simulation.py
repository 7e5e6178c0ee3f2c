"""Engine tests: car-following model, integration, waves, logs, determinism."""

import copy
import csv
import dataclasses
import hashlib
import math
import os
import random
import tracemalloc
from array import array
from itertools import chain, islice, repeat
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.perception import RadarConfig, RadarFrame, RadarTarget, synthesize_radar
from middleway.scenarios import (
    canonical_scenario,
    check_string,
    measurement_window,
    steady_v_des,
    string_scenario,
    v_des_traces,
    window_rows,
)
from middleway.simulation import (
    CHUNK_STEPS,
    HUMAN_BRAKE_FLOOR,
    READ_BLOCK_ROWS,
    RUN_LOG_COLUMNS,
    Bottleneck,
    IdmParams,
    PhantomStreamSpec,
    RunLog,
    ScenarioConfig,
    VehicleInit,
    VehicleKind,
    World,
    build_report,
    idm_accel,
    read_run_log,
    run,
    triangle_speed,
    write_run_log,
)
from middleway.units import M_PER_MILE, mph_to_mps


def _fmt(value, precision: int = 6) -> str:
    if value is None:
        return ""
    return f"{value:.{precision}f}"


def write_run_log_csv(log, path) -> None:
    """Reference run-log writer: csv.writer with one formatted cell per field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_LOG_COLUMNS)
        for t, vid, kind, x, mm, v, mode, v_des, v_gr, v_pr, u in log.rows:
            writer.writerow(
                (
                    f"{t:.3f}",
                    vid,
                    kind,
                    _fmt(x),
                    _fmt(mm),
                    _fmt(v),
                    "" if mode is None else mode,
                    _fmt(v_des),
                    _fmt(v_gr),
                    _fmt(v_pr),
                    _fmt(u),
                )
            )


def _controller_cell(cell):
    """A controller float cell as read_run_log_csv reads it: None when
    empty, and a non-finite number raises ValueError."""
    if not cell:
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite controller cell {cell!r}")
    return value


def read_run_log_csv(path) -> list:
    """Reference run-log reader: csv.reader on every line."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, ())
        if tuple(header) != RUN_LOG_COLUMNS:
            raise ValueError(f"unexpected run log header: {header}")
        for raw in reader:
            t, vid, kind, x, mm, v, mode, v_des, v_gr, v_pr, u = raw
            rows.append(
                (
                    float(t),
                    vid,
                    kind,
                    float(x),
                    float(mm),
                    float(v),
                    mode if mode else None,
                    _controller_cell(v_des),
                    _controller_cell(v_gr),
                    _controller_cell(v_pr),
                    float(u),
                )
            )
    return rows


def read_run_log_steps(path) -> RunLog:
    """Reference for read_run_log: the same checks and columns, a step at a
    time. A bad step's error names its t cell, or its last row's when the
    step's cells do not line up."""
    width, log = len(RUN_LOG_COLUMNS), RunLog()
    modes = {"": None}
    controller = (log.v_des, log.v_gr, log.v_pr)
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header) != RUN_LOG_COLUMNS:
            raise ValueError(f"unexpected run log header: {header}")
        block, lines = list(islice(fh, 1)), iter(fh)
        for line in lines:
            if line.split(",", 1)[0] != block[0].split(",", 1)[0]:
                lines = chain([line], lines)
                break
            block.append(line)
        n = len(block)
        while block:
            cells = ",".join(block).split(",")
            if not log.vehicle_ids:
                log.vehicle_ids, log.kinds = cells[1::width], cells[2::width]
                slots = log.controlled
                unset = [width * j + c for j in range(n) if j not in slots
                         for c in range(6, 10)]
                pick = itemgetter(*unset) if unset else lambda cells: ()
            t = cells[::width]
            if (set(map(str.count, block, repeat(","))) != {width - 1} or t.count(t[0]) != n
                    or cells[1::width] != log.vehicle_ids or cells[2::width] != log.kinds
                    or any(pick(cells))):
                raise ValueError(f"run log is not dense at t = {t[-1]}: every step must "
                                 "repeat the first step's vehicles in order, 11 cells a "
                                 "row, and controller cells only on controlled vehicles")
            log.t.append(float(t[0]))
            for col, c in ((log.x, 3), (log.mm, 4), (log.v, 5), (log.u, 10)):
                col.extend(map(float, cells[c::width]))
            for j in slots:
                mode, *floats = cells[width * j + 6:width * j + 10]
                log.mode.append(modes.setdefault(mode, mode))
                for col, cell in zip(controller, floats):
                    value = float(cell) if cell else math.nan
                    if cell and not math.isfinite(value):
                        raise ValueError(f"run log: non-finite controller cell {cell!r} "
                                         f"at t = {t[0]}")
                    col.append(value)
            block = list(islice(lines, n))
    return log


def dense_log(rows, n, **echo):
    """A RunLog holding rows, the rows of a dense log of n vehicles a step
    (see RunLog), with echo as its config echo; a None float cell is held
    as NaN."""
    log = RunLog(
        vehicle_ids=[row[1] for row in rows[:n]],
        kinds=[row[2] for row in rows[:n]],
        config_echo=echo,
    )
    for i, (t, vid, kind, x, mm, v, mode, v_des, v_gr, v_pr, u) in enumerate(rows):
        assert (vid, kind) == (log.vehicle_ids[i % n], log.kinds[i % n])
        if i % n == 0:
            log.t.append(t)
        assert t == log.t[-1]
        for col, value in ((log.x, x), (log.mm, mm), (log.v, v), (log.u, u)):
            col.append(value)
        cells = (mode, v_des, v_gr, v_pr)
        if kind == "controlled":
            log.mode.append(mode)
            for col, value in zip((log.v_des, log.v_gr, log.v_pr), cells[1:]):
                col.append(math.nan if value is None else value)
        else:
            assert cells == (None, None, None, None)
    return log


def rammed_canonical(log_every=1):
    """Canonical seed 0 with a probe 50 m behind the controlled vehicle,
    24 m/s faster; it never brakes, so it rams the vehicle after about 2 s."""
    base = dataclasses.replace(canonical_scenario(), duration_s=30.0, log_every=log_every)
    ram = VehicleInit("ram", VehicleKind.PROBE, -450.0, 40.0)
    return dataclasses.replace(base, vehicles=[*base.vehicles, ram])


def _row(t, vid, kind, mode=None, v_des=None):
    return (t, vid, kind, 1.0, 70.0, 2.0, mode, v_des, None, None, 0.0)


_HAND_ECHO = {"dt": 0.05, "seed": 3, "duration_s": 0.2}

# (log, n_controlled) builders. The row oracles (the csv writer and reader,
# build_report_rows, v_des_traces_rows) are compared with the column code
# on each.
ORACLE_LOGS = {
    "canonical_30s": lambda: (
        run(dataclasses.replace(canonical_scenario(), duration_s=30.0)), 1
    ),
    "string_n6": lambda: (run(string_scenario(n_controlled=6)), 6),
    "string_n6_every10": lambda: (
        run(dataclasses.replace(string_scenario(n_controlled=6), log_every=10)), 6
    ),
    "collision": lambda: (run(rammed_canonical()), 1),
    "collision_every3": lambda: (run(rammed_canonical(log_every=3)), 1),
    "empty": lambda: (run(dataclasses.replace(canonical_scenario(), duration_s=0.0)), 1),
    # "disengaged" is a mode the controller no longer writes; read from an
    # older log, it counts as any other mode.
    "all_disengaged": lambda: (dense_log([
        _row(0.0, "h000", "human"),
        _row(0.0, "cav01", "controlled", "disengaged", 9.0),
        _row(0.0, "cav02", "controlled", "disengaged"),
        _row(0.15, "h000", "human"),
        _row(0.15, "cav01", "controlled", "disengaged", 9.5),
        _row(0.15, "cav02", "controlled", "disengaged"),
    ], 3, **_HAND_ECHO, log_every=3), 2),
    "mode_none": lambda: (dense_log([
        _row(0.0, "cav01", "controlled", "normal", 9.0),
        _row(0.0, "h", "human"),
        _row(0.0, "cav02", "controlled", None),
        _row(0.05, "cav01", "controlled", None, 9.5),
        _row(0.05, "h", "human"),
        _row(0.05, "cav02", "controlled", "cbf"),
        _row(0.1, "cav01", "controlled", "cbf", 8.0),
        _row(0.1, "h", "human"),
        _row(0.1, "cav02", "controlled", "cbf"),
    ], 3, **_HAND_ECHO, log_every=1), 2),
}


def radar_frame_oracle(world, j, now, rng):
    """Reference radar frame for vehicle j: a scan over every vehicle and
    every phantom stream, then a filter on ego id, range and phantom lane, a
    sort on (range, id), the cap and one noise draw per kept target.
    Mainline vehicles are in lane 0."""
    radar = world.cfg.radar
    ego_id, ego_x, ego_v = world.log.vehicle_ids[j], world.x[j], world.v[j]
    x_lo = ego_x
    x_hi = ego_x + radar.max_range
    seen = [(vid, x, v, 0) for vid, x, v in zip(world.log.vehicle_ids, world.x, world.v)
            if x_lo < x <= x_hi]
    for stream in world.phantoms:
        spacing, lane = stream.spec.spacing_m, stream.spec.lane
        k_lo = math.ceil((x_lo - stream.origin) / spacing)
        k_hi = math.floor((x_hi - stream.origin) / spacing)
        seen += [(f"phantom_{lane:+d}_{k}", stream.origin + k * spacing, stream.speed, lane)
                 for k in range(k_lo, k_hi + 1)]
    candidates = []
    for vid, position, speed, lane in seen:
        if vid == ego_id:
            continue
        rel = position - ego_x
        if rel <= 0.0 or rel > radar.max_range:
            continue
        if abs(lane) > 1:
            continue
        candidates.append((rel, vid, speed, lane))
    candidates.sort(key=lambda c: (c[0], c[1]))
    targets = []
    for rel, _, speed, lane in candidates[: radar.max_targets]:
        rel_speed = speed - ego_v
        if radar.noise_sigma > 0.0:
            rel_speed += rng.gauss(0.0, radar.noise_sigma)
        targets.append(RadarTarget(rel, rel_speed, lane))
    return RadarFrame(now, tuple(targets))


def probe(vid, x0, v0):
    return VehicleInit(vid, VehicleKind.PROBE, x0, v0)


def human(vid, x0, v0):
    return VehicleInit(vid, VehicleKind.HUMAN, x0, v0)


def idm_equilibrium_gap(v: float, p: IdmParams) -> float:
    """Gap at which a follower at steady speed v has zero acceleration."""
    if v >= p.v0:
        raise ValueError("no equilibrium at or above the free-flow speed")
    return (p.s0 + v * p.T) / math.sqrt(1.0 - (v / p.v0) ** p.delta)


class TestIdm:
    def test_free_road_acceleration(self):
        assert idm_accel(20.0, None, None, IdmParams()) == pytest.approx(
            1.1348478975437646, abs=1e-12
        )

    def test_interaction_braking(self):
        assert idm_accel(15.0, 25.0, 10.0, IdmParams()) == pytest.approx(
            -2.6441970170094447, abs=1e-12
        )

    def test_equilibrium_gap_value(self):
        assert idm_equilibrium_gap(15.0, IdmParams()) == pytest.approx(
            20.41450153351708, abs=1e-12
        )

    @pytest.mark.parametrize("v", [5.0, 15.0, 25.0, 32.0])
    def test_equilibrium_gap_zeroes_acceleration(self, v):
        p = IdmParams()
        gap = idm_equilibrium_gap(v, p)
        assert idm_accel(v, gap, v, p) == pytest.approx(0.0, abs=1e-12)

    def test_no_equilibrium_at_free_flow_speed(self):
        with pytest.raises(ValueError):
            idm_equilibrium_gap(33.5, IdmParams())

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="delta"):
            IdmParams(delta=0.5)
        with pytest.raises(ValueError):
            IdmParams(T=-1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.floats(0.0, 40.0),
        gap=st.floats(1e-3, 500.0),
        v_lead=st.floats(0.0, 40.0),
        a=st.floats(0.5, 3.0),
        b=st.floats(0.5, 4.0),
        T=st.floats(0.5, 2.0),
    )
    def test_matches_textbook_formula(self, v, gap, v_lead, a, b, T):
        # The same arithmetic, operation for operation, so equal bit for bit.
        p = IdmParams(a=a, b=b, T=T)
        s_star = p.s0 + max(0.0, v * T + v * (v - v_lead) / (2.0 * math.sqrt(a * b)))
        expected = a * (1.0 - (v / p.v0) ** p.delta) - a * (s_star / gap) ** 2
        assert idm_accel(v, gap, v_lead, p) == expected

    def test_tiny_gap_returns_minus_inf(self):
        # (s_star / gap) ** 2 overflows below a gap of about 1e-150 m.
        assert idm_accel(0.0, 1e-200, 0.0, IdmParams()) == -math.inf

    def test_tiny_gap_run_brakes_at_floor(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            vehicles=[
                VehicleInit("a", VehicleKind.HUMAN, 0.0, 0.0),
                VehicleInit("b", VehicleKind.HUMAN, 1e-200, 0.0),
            ],
        )
        log = run(cfg)
        follower = [row for row in log.rows if row[1] == "a"]
        assert len(follower) == 20
        assert all(row[10] == HUMAN_BRAKE_FLOOR for row in follower)


class TestIntegration:
    def test_constant_speed_probe_advances_v_dt(self):
        cfg = ScenarioConfig(duration_s=1.0, vehicles=[probe("p", 0.0, 12.0)])
        log = run(cfg)
        last = log.rows[-1]
        assert last[5] == pytest.approx(12.0, abs=1e-12)
        # Row at step k is logged before integrating, so the final row
        # sits one dt before the end of the run.
        assert last[3] == pytest.approx(12.0 * (1.0 - cfg.dt), abs=1e-9)

    def test_one_step_semi_implicit_euler(self):
        cfg = ScenarioConfig(duration_s=0.05, vehicles=[human("h", 0.0, 10.0)])
        world = World(cfg)
        world.step()
        v_next = 10.0 + idm_accel(10.0, None, None, cfg.human) * 0.05
        assert world.v[0] == v_next
        assert world.x[0] == v_next * 0.05

    def test_follower_at_equilibrium_gap_is_steady(self):
        p = IdmParams()
        gap = idm_equilibrium_gap(15.0, p)
        cfg = ScenarioConfig(
            duration_s=10.0,
            vehicles=[human("rear", 0.0, 15.0), probe("front", gap, 15.0)],
        )
        log = run(cfg)
        for row in log.rows:
            assert row[5] == pytest.approx(15.0, abs=1e-9)

    def test_velocity_floored_at_zero(self):
        cfg = ScenarioConfig(
            duration_s=10.0,
            vehicles=[human("h", 0.0, 5.0)],
            bottlenecks=[Bottleneck(0.0, 1e6, 0.0, 10.0, speed_cap=0.0)],
        )
        log = run(cfg)
        assert all(row[5] >= 0.0 for row in log.rows)
        assert log.rows[-1][5] == pytest.approx(0.0, abs=1e-12)

    def test_positions_monotone(self):
        cfg = dataclasses.replace(canonical_scenario(), duration_s=20.0)
        log = run(cfg)
        seen: dict[str, float] = {}
        for row in log.rows:
            vid, x = row[1], row[3]
            assert x >= seen.get(vid, -math.inf)
            seen[vid] = x


class TestScenarioValidation:
    def test_overlapping_positions_rejected(self):
        cfg = ScenarioConfig(
            vehicles=[human("a", 0.0, 10.0), human("b", 0.0, 10.0)]
        )
        with pytest.raises(ValueError, match="overlapping positions"):
            cfg.validate()

    def test_duplicate_ids_rejected(self):
        cfg = ScenarioConfig(
            vehicles=[human("a", 0.0, 10.0), human("a", 50.0, 10.0)]
        )
        with pytest.raises(ValueError, match="unique"):
            cfg.validate()

    @pytest.mark.parametrize("v0", [-5.0, math.nan, math.inf])
    def test_bad_initial_speed_rejected(self, v0):
        cfg = ScenarioConfig(vehicles=[human("a", 0.0, 10.0), human("b", 50.0, v0)])
        with pytest.raises(ValueError, match="initial speeds"):
            cfg.validate()

    def test_dt_range_enforced(self):
        cfg = ScenarioConfig(dt=0.2, vehicles=[human("a", 0.0, 10.0)])
        with pytest.raises(ValueError, match="dt"):
            cfg.validate()

    @pytest.mark.parametrize("n", [1, 12])
    def test_check_string_accepts_the_generator_configs(self, n):
        cfg = string_scenario(n_controlled=n)
        check_string(cfg)
        assert len(cfg.vehicles) == n + 3


class TestCollision:
    def test_rear_end_halts_run(self):
        cfg = ScenarioConfig(
            duration_s=30.0,
            vehicles=[
                probe("ram", 0.0, 30.0),
                probe("wall", 40.0, 0.0),
            ],
        )
        log = run(cfg)
        assert log.collision is not None
        assert log.collision["rear_id"] == "ram"
        assert log.collision["front_id"] == "wall"
        assert log.rows[-1][0] < 30.0 - cfg.dt
        assert any(e["event"] == "collision" for e in log.events)
        # The keys of README's "Events" table.
        assert set(log.collision) == {"t", "event", "rear_id", "front_id", "position_m"}

    def test_collision_is_the_last_event(self):
        cfg = ScenarioConfig(
            duration_s=30.0,
            vehicles=[probe("ram", 0.0, 30.0), probe("wall", 40.0, 0.0)],
        )
        log = run(cfg)
        assert log.collision is log.events[-1]
        assert log.collision["event"] == "collision"
        assert log.collision["t"] == pytest.approx(log.rows[-1][0] + cfg.dt)


class TestEventRecords:
    def test_keys_match_the_readme_events_table(self):
        log, _ = ORACLE_LOGS["canonical_30s"]()
        keys = {"vsl_update": {"gantry_id", "prev_mph", "posted_mph"},
                "acquisition": {"vehicle_id", "gantry_id"}}
        assert {e["event"] for e in log.events} == set(keys)
        for e in log.events:
            assert set(e) == {"t", "event", *keys[e["event"]]}, e


def run_slowing_leader(cfg, leader_id, t_start, t_end, speed_cap):
    """Run cfg with a wave seeded at one vehicle only.

    Before every step a zero-width bottleneck is pinned to the leader's
    position, so the bottleneck braking law acts on the leader alone. Every
    other vehicle is asserted to stay behind the zone's start.
    """
    world = World(cfg)
    leader = world.log.vehicle_ids.index(leader_id)
    for _ in range(int(round(cfg.duration_s / cfg.dt))):
        x = world.x[leader]
        cfg.bottlenecks[:] = [Bottleneck(x, x, t_start, t_end, speed_cap)]
        assert all(p < x for j, p in enumerate(world.x) if j != leader)
        world.step()
        assert world.log.collision is None
    return world.log


class TestWaveSeeding:
    def test_pulse_brakes_at_bounded_rate(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            vehicles=[human("solo", 0.0, 16.0)],
            bottlenecks=[Bottleneck(0.0, 1e6, 0.0, 5.0, speed_cap=2.0, decel=2.0)],
        )
        world = World(cfg)
        world.step()
        assert world.v[0] == pytest.approx(16.0 - 2.0 * 0.05, abs=1e-12)

    def test_dense_platoon_wave_propagates(self):
        p = IdmParams()
        gap = idm_equilibrium_gap(16.0, p) + 5.0
        vehicles = [human(f"h{i:02d}", i * gap, 16.0) for i in range(12)]
        cfg = ScenarioConfig(duration_s=120.0, vehicles=vehicles)
        log = run_slowing_leader(cfg, "h11", 5.0, 25.0, speed_cap=2.0)
        upstream_after = [
            row[5] for row in log.rows if row[0] > 25.0 and row[1] != "h11"
        ]
        assert min(upstream_after) < 5.0
        assert min(row[5] for row in log.rows if row[1] == "h00") < 5.0

    def test_sparse_road_wave_dissipates(self):
        cfg = ScenarioConfig(
            duration_s=60.0,
            vehicles=[human("follower", 0.0, 16.0), human("leader", 500.0, 16.0)],
        )
        log = run_slowing_leader(cfg, "leader", 5.0, 25.0, speed_cap=2.0)
        follower = [row[5] for row in log.rows if row[1] == "follower"]
        assert min(follower) >= 0.9 * 16.0


class TestRunLogSerialization:
    def test_zero_duration_gives_header_only(self, tmp_path):
        cfg = ScenarioConfig(duration_s=0.0, vehicles=[human("a", 0.0, 10.0)])
        log = run(cfg)
        assert len(log.rows) == 0
        path = tmp_path / "empty.csv"
        write_run_log(log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("t,vehicle_id,kind,")
        assert list(read_run_log(path).rows) == []
        assert build_report(log).duration_s == 0.0

    def test_round_trip_is_byte_stable(self, tmp_path):
        log = run(dataclasses.replace(canonical_scenario(), duration_s=6.0))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_run_log(log, first)
        write_run_log(read_run_log(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_human_rows_leave_controller_fields_empty(self, tmp_path):
        log = run(dataclasses.replace(canonical_scenario(), duration_s=3.0))
        path = tmp_path / "log.csv"
        write_run_log(log, path)
        lines = path.read_text().splitlines()[1:]
        saw_human = saw_controlled = False
        for line in lines:
            cells = line.split(",")
            if cells[2] == "human":
                assert cells[6] == "" and cells[7] == "" and cells[9] == ""
                assert cells[10] != ""
                saw_human = True
            elif cells[2] == "controlled":
                assert cells[6] != ""
                saw_controlled = True
        assert saw_human and saw_controlled


# Cell text with the writer's own template character and line separators
# that str.splitlines would split on but a file does not. A comma, quote,
# CR or LF may not appear in a cell.
_CELL_TEXT = st.text(st.sampled_from(list('ab7% \x85\u2028')), max_size=6)
_KIND = st.one_of(st.sampled_from(["human", "controlled"]), _CELL_TEXT)
_NUMBER = st.floats(allow_nan=False, width=32)
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=32)


def _logged(bound):
    """Floats up to bound in size, as a run logs them, and -0.0."""
    return st.one_of(st.just(-0.0), st.floats(-bound, bound))


_MODE = st.one_of(st.sampled_from(["normal", "cbf"]), _CELL_TEXT)


@st.composite
def dense_rows(draw, numbers=_NUMBER, modes=_MODE, cell_numbers=None):
    """(rows, n): the rows of a dense log of n vehicles a step. Every step
    holds the same vehicles, the first two steps' t cells differ, and only
    a controlled vehicle's row holds controller cells, each of which may be
    None; the float cells are cell_numbers, by default numbers."""
    cell_numbers = numbers if cell_numbers is None else cell_numbers
    vehicles = draw(st.lists(st.tuples(_CELL_TEXT, _KIND), min_size=1, max_size=3,
                             unique_by=lambda vehicle: vehicle[0]))
    times = draw(st.lists(numbers, max_size=4).filter(
        lambda ts: len(ts) < 2 or f"{ts[0]:.3f}" != f"{ts[1]:.3f}"))
    optional = lambda s: st.one_of(st.none(), s)  # noqa: E731
    rows = []
    for t in times:
        for vid, kind in vehicles:
            cells = (None, None, None, None)
            if kind == "controlled":
                cells = (draw(optional(modes)),
                         *(draw(optional(cell_numbers)) for _ in range(3)))
            rows.append((t, vid, kind, draw(numbers), draw(numbers), draw(numbers),
                         *cells, draw(numbers)))
    return rows, len(vehicles)


# Numbers up to the size a run logs (positions up to 1e7 m; t, mile
# markers and speeds stay smaller) and the modes the controller writes.
logged_rows = dense_rows(_logged(1e7), st.sampled_from(["normal", "vsl", "middleway", "cbf"]))


class TestRunLogRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rows=logged_rows)
    def test_rewriting_what_was_read_gives_the_same_bytes(self, tmp_path_factory, rows):
        first = tmp_path_factory.mktemp("log") / "first.csv"
        second = first.with_name("second.csv")
        write_run_log(dense_log(*rows), first)
        write_run_log(read_run_log(first), second)
        assert second.read_bytes() == first.read_bytes()


class TestRunLogWriterOracle:
    """write_run_log writes the bytes the csv.writer reference writes."""

    @staticmethod
    def assert_same_bytes(log, tmp_path):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_run_log(log, fast)
        write_run_log_csv(log, ref)
        assert fast.read_bytes() == ref.read_bytes()
        return fast

    def test_canonical_run(self, tmp_path):
        self.assert_same_bytes(ORACLE_LOGS["canonical_30s"]()[0], tmp_path)

    @pytest.mark.parametrize("name", sorted(set(ORACLE_LOGS) - {"canonical_30s"}))
    def test_run_logs(self, tmp_path, name):
        self.assert_same_bytes(ORACLE_LOGS[name]()[0], tmp_path)

    def test_hand_built_rows(self, tmp_path):
        log = dense_log([
            (0.0, "h000", "human", 12.5, 69.992233, 15.25, None, None, None, None, -0.0),
            (0.0, "cav", "controlled", -3.0, 70.001864, 0.0,
             "vsl", 13.411200, None, 0.0, -2.75),
            (0.05, "h000", "human", 13.0, 69.991923, 15.5, None, None, None, None, 0.5),
            (0.05, "cav", "controlled", 1.0, 69.999379, 16.5,
             "cbf", 13.4112, 13.4112, 18.0, -3.0),
        ], 2)
        path = self.assert_same_bytes(log, tmp_path)
        assert list(read_run_log(path).rows) == list(log.rows)

    def test_ids_needing_quotes(self):
        # The writer does not quote cells, so such ids are rejected up front.
        for vid in ("truck,big", 'say "hi"', "a\rb", "a\nb"):
            cfg = ScenarioConfig(vehicles=[human(vid, 0.0, 10.0)])
            with pytest.raises(ValueError, match="vehicles: an id may not hold"):
                cfg.validate()

    def test_signed_zero_times_and_percent_ids(self, tmp_path):
        # A step at -0.0 next to one at 0.0, which compare equal but format
        # differently, and ids and kinds holding the template character.
        vehicles = [("50%", "human", (None,) * 4), ("%s%%", "%d", (None,) * 4),
                    ("cav", "controlled", ("normal%", 2.0, None, 0.0))]
        log = dense_log([
            (t, vid, kind, -0.0, -0.0, 0.0, *cells, -0.0)
            for t in (-0.0, 0.0, float("0.05")) for vid, kind, cells in vehicles
        ], 3)
        path = self.assert_same_bytes(log, tmp_path)
        assert b"\r\n-0.000,%s%%,%d,-0.000000," in path.read_bytes()
        assert b"\r\n0.000,%s%%,%d,-0.000000," in path.read_bytes()
        assert list(read_run_log(path).rows) == list(log.rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=dense_rows())
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, rows):
        self.assert_same_bytes(dense_log(*rows), tmp_path_factory.mktemp("log"))


# Bodies that no run-log reader accepts, each a row at t = 0 of vehicle a.
MALFORMED_ROWS = {
    "short": "0.000,a,human,1.0,70.0,2.0,,,,\r\n",
    "extra": "0.000,a,human,1.0,70.0,2.0,,,,,0.5,9\r\n",
    "blank": "0.000,a,human,1.0,70.0,2.0,,,,,0.5\r\n\r\n",
    "non_numeric": "0.000,a,human,fast,70.0,2.0,,,,,0.5\r\n",
    "quoted_non_numeric": '0.000,"a,b",controlled,1.0,70.0,2.0,cbf,x,,,0.5\r\n',
    "nan_v_des": "0.000,a,controlled,1.0,70.0,2.0,cbf,nan,,,0.5\r\n",
    "inf_v_gr": "0.000,a,controlled,1.0,70.0,2.0,cbf,1.0,inf,2.0,0.5\r\n",
    "minus_inf_v_pr": "0.000,a,controlled,1.0,70.0,2.0,cbf,1.0,,-Infinity,0.5\r\n",
    "overflowing_v_des": "0.000,a,controlled,1.0,70.0,2.0,cbf,1e400,,,0.5\r\n",
}


class TestRunLogReaderOracle:
    """read_run_log reads the rows the csv.reader reference reads."""

    # A non-finite controller cell raises in both readers; the malformed
    # cases below hold those.
    @settings(max_examples=200, deadline=None)
    @given(rows=dense_rows(cell_numbers=_FINITE))
    def test_same_rows_as_csv_reader(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("log") / "run_log.csv"
        write_run_log(dense_log(*rows), path)
        assert list(read_run_log(path).rows) == read_run_log_csv(path)

    def test_canonical_run(self, tmp_path):
        self.assert_same_rows(ORACLE_LOGS["canonical_30s"]()[0], tmp_path)

    @pytest.mark.parametrize("name", sorted(set(ORACLE_LOGS) - {"canonical_30s"}))
    def test_run_logs(self, tmp_path, name):
        self.assert_same_rows(ORACLE_LOGS[name]()[0], tmp_path)

    @staticmethod
    def assert_same_rows(log, tmp_path):
        path = tmp_path / "run_log.csv"
        write_run_log(log, path)
        assert list(read_run_log(path).rows) == read_run_log_csv(path)

    @pytest.mark.parametrize("body", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
    def test_malformed_rows_raise_in_both(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RUN_LOG_COLUMNS) + "\r\n" + body, newline="")
        with pytest.raises(ValueError):
            read_run_log(path)
        with pytest.raises(ValueError):
            read_run_log_csv(path)


# Three vehicles a step, so read_run_log parses this many steps a block.
BLOCK_STEPS = max(1, READ_BLOCK_ROWS // 3)


def write_block_log(path, steps, kind="controlled"):
    """Write a dense log of steps steps at 0.05 s to path, each step of
    vehicle a of kind, a human and a controlled vehicle, in that order. The
    last cell differs from step to step, so a shifted t cell shows."""
    rows = []
    for s in range(steps):
        t = round(s * 0.05, 9)
        for vid, k in (("a", kind), ("h", "human"), ("c", "controlled")):
            cells = ("cbf", 20.0 + s, None, 18.5) if k == "controlled" else (None,) * 4
            rows.append((t, vid, k, 10.0 * s, 70.0 - s / 1e4, 20.0, *cells, s / 1e3))
    write_run_log(dense_log(rows, 3), path)


# Where a bad step goes in a log of 2 * BLOCK_STEPS + 1 steps.
BAD_STEP_AT = {"first_step": 0, "block_1_last_step": BLOCK_STEPS - 1,
               "block_2_first_step": BLOCK_STEPS, "cut_final_step": 2 * BLOCK_STEPS}


class TestRunLogBlocks:
    """read_run_log parses whole steps in blocks of BLOCK_STEPS; it reads and
    rejects what the step-at-a-time reference does, and names the same t."""

    @pytest.mark.parametrize("steps", [1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
                                       2 * BLOCK_STEPS + 1])
    def test_round_trip_across_block_boundaries(self, tmp_path, steps):
        path, again = tmp_path / "log.csv", tmp_path / "again.csv"
        write_block_log(path, steps)
        log = read_run_log(path)
        assert len(log.t) == steps
        assert list(log.rows) == list(read_run_log_steps(path).rows)
        write_run_log(log, again)
        assert again.read_bytes() == path.read_bytes()

    # Each malformed row at each place, and a cut-off final step alone.
    @pytest.mark.parametrize("name, at", [
        *((name, at) for name in MALFORMED_ROWS for at in BAD_STEP_AT),
        ("none", "cut_final_step"),
    ])
    def test_bad_step_names_the_reference_t(self, tmp_path, name, at):
        body = MALFORMED_ROWS.get(name)
        path = tmp_path / "bad.csv"
        write_block_log(path, 2 * BLOCK_STEPS + 1,
                        "controlled" if body and ",controlled," in body else "human")
        lines = path.read_bytes().decode().splitlines(keepends=True)
        if at == "cut_final_step":
            del lines[-1]
        if body is not None:
            row = 1 + 3 * BAD_STEP_AT[at]
            lines[row] = lines[row].split(",", 1)[0] + body.removeprefix("0.000")
        path.write_text("".join(lines), newline="")
        with pytest.raises(ValueError) as want:
            read_run_log_steps(path)
        with pytest.raises(ValueError) as got:
            read_run_log(path)
        assert str(got.value) == str(want.value)


def one_lane_noisy_scenario():
    """Canonical seed 0 for 120 s with three more controlled vehicles 60,
    120 and 180 m behind the first, and radar noise, so four radars draw
    noise from one generator and the order of the draws shows in the log."""
    base = dataclasses.replace(canonical_scenario(seed=0), duration_s=120.0)
    humans = [v for v in base.vehicles if v.kind is VehicleKind.HUMAN]
    (cav,) = [v for v in base.vehicles if v.kind is VehicleKind.CONTROLLED]
    extra = [
        dataclasses.replace(cav, vehicle_id=f"cav_{k}", x0=cav.x0 - 60.0 * k)
        for k in (1, 2, 3)
    ]
    return dataclasses.replace(
        base,
        vehicles=humans + [cav] + extra,
        radar=RadarConfig(noise_sigma=0.3),
    )


# sha256 of run_log.csv, each recorded on the source before the change it
# guards: the first two before the streamed writer replaced csv.writer, the
# one-lane one before the world's per-lane position indexes gave way to one
# fixed position order. The builtin float sum rounds differently from
# Python 3.12 on; TestRunLogGoldensUnderCompensatedSum shows that none
# reaches the simulation.
GOLDEN_SHA256 = {
    "canonical_seed0_30s": "e9fe906e5e60714e3f4f82369368f5888fb67e86eb8a65fde83b71230cb61bd2",
    "string_n6": "e8886a9e375f329c37820e1f371e7a907c5872380cb80b9e4284a629075540ff",
    "one_lane_noisy_seed0_120s": (
        "27a5dc1d1efb197df3f9bdcf795afb943d300e77ffb2c2627d77a2ae25241e8a"
    ),
}


GOLDEN_SCENARIOS = {
    "canonical_seed0_30s": lambda: dataclasses.replace(
        canonical_scenario(seed=0), duration_s=30.0
    ),
    "string_n6": lambda: string_scenario(n_controlled=6),
    "one_lane_noisy_seed0_120s": one_lane_noisy_scenario,
}


class TestRunLogGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_run_log_bytes(self, tmp_path, name):
        path = tmp_path / "run_log.csv"
        write_run_log(run(GOLDEN_SCENARIOS[name]()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


def short_canonical(seed=0, duration_s=30.0, **changes):
    return dataclasses.replace(canonical_scenario(seed=seed), duration_s=duration_s, **changes)


# Runs whose log run(cfg, path) streams to its writer process, with what
# each one pins: the seeds, a collision halt, a last chunk that is partial
# after a full one, logged steps that fill whole chunks, no logged step, and
# several controlled vehicles a step.
STREAMED_RUNS = {
    "canonical_30s_seed0": short_canonical,
    "canonical_30s_seed1": lambda: short_canonical(seed=1),
    "collision": rammed_canonical,
    "log_every_7": lambda: short_canonical(duration_s=120.0, log_every=7),
    "whole_chunks": lambda: short_canonical(duration_s=2 * CHUNK_STEPS * 0.05),
    "empty": lambda: short_canonical(duration_s=0.0),
    "string_n4": lambda: string_scenario(n_controlled=4),
}


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestStreamedRunLog:
    @pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
    def test_same_bytes_and_columns_as_write_run_log(self, tmp_path, name):
        streamed = run(STREAMED_RUNS[name](), tmp_path / "streamed.csv")
        serial = run(STREAMED_RUNS[name]())
        write_run_log(serial, tmp_path / "serial.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        # The streamed log has sent its float columns to the writer; every
        # other field is the serial log's.
        floats = ("x", "mm", "v", "u")
        assert all(len(getattr(streamed, col)) == 0 for col in floats)

        def kept(log):
            # NaN != NaN, so arrays compare as bytes.
            return {k: v.tobytes() if isinstance(v, array) else v
                    for k, v in vars(log).items() if k not in floats}

        assert kept(streamed) == kept(serial)
        assert len(streamed.t) * len(streamed.vehicle_ids) == len(serial.x)
        assert sorted(os.listdir(tmp_path)) == ["serial.csv", "streamed.csv"]
        assert_no_child_process()

    @pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
    def test_parent_holds_at_most_one_chunk(self, tmp_path, monkeypatch, name):
        cfg = STREAMED_RUNS[name]()
        step = World.step
        held = []

        def recording_step(world):
            step(world)
            held.append(len(world.log.x))

        monkeypatch.setattr(World, "step", recording_step)
        run(cfg, tmp_path / "run_log.csv")
        assert max(held, default=0) <= CHUNK_STEPS * len(cfg.vehicles)

    def test_runs_cover_the_chunk_cases(self):
        logs = {name: run(STREAMED_RUNS[name]()) for name in
                ("collision", "log_every_7", "whole_chunks", "empty")}
        assert logs["collision"].collision is not None
        assert len(logs["log_every_7"].t) > CHUNK_STEPS
        assert len(logs["log_every_7"].t) % CHUNK_STEPS
        assert len(logs["whole_chunks"].t) == 2 * CHUNK_STEPS
        assert len(logs["empty"].t) == 0

    @pytest.mark.parametrize("fail_after", [0, CHUNK_STEPS + 10])
    def test_failing_step_leaves_no_file_and_no_child(self, tmp_path, monkeypatch, fail_after):
        step = World.step

        def failing_step(world):
            if world.step_index == fail_after:
                raise RuntimeError("step failed")
            step(world)

        monkeypatch.setattr(World, "step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            run(short_canonical(), tmp_path / "run_log.csv")
        assert os.listdir(tmp_path) == []
        assert_no_child_process()

    def test_failing_step_removes_an_earlier_file(self, tmp_path, monkeypatch):
        # The log is written in place: a failed run leaves no file, not the
        # file it overwrote.
        path = tmp_path / "run_log.csv"
        path.write_text("earlier\n")
        def failing_step(world):
            raise RuntimeError("step failed")

        monkeypatch.setattr(World, "step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            run(short_canonical(), path)
        assert os.listdir(tmp_path) == []
        assert_no_child_process()

    def test_unopenable_path_fails_before_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(World, "step", lambda world: pytest.fail("the run started"))
        path = tmp_path / "missing" / "run_log.csv"
        with pytest.raises(FileNotFoundError) as raised:
            run(short_canonical(), path)
        assert raised.value.filename == str(path)

    def test_directory_at_the_path_leaves_no_file(self, tmp_path):
        (tmp_path / "run_log.csv").mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            run(short_canonical(duration_s=1.0), tmp_path / "run_log.csv")
        assert raised.value.filename == str(tmp_path / "run_log.csv")
        assert os.listdir(tmp_path) == ["run_log.csv"]
        assert_no_child_process()


class TestRunLogGoldensUnderCompensatedSum:
    """Python 3.12 changed how the builtin sum rounds floats. The goldens
    hold on every version because no float sum reaches the simulation: the
    means it takes are exact or math.fsum."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_run_log_bytes(self, tmp_path, name):
        builtin_sum = sum

        def int_sum(iterable, /, start=0):
            values = list(iterable)
            if any(isinstance(item, float) for item in (start, *values)):
                raise AssertionError(f"a float sum reached the simulation: {values[:4]}")
            return builtin_sum(values, start)

        path = tmp_path / "run_log.csv"
        with mock.patch("builtins.sum", int_sum):
            log = run(GOLDEN_SCENARIOS[name]())
        write_run_log(log, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@st.composite
def one_lane_worlds(draw):
    """Mainline vehicles, some placed exactly at an anchor (a vehicle's
    x_lo) or at an anchor plus the radar range (x_hi), and phantom streams
    in lanes -3..3.

    The vehicles that are not controlled are probes holding their speed:
    the radar filter ignores the kind, and IDM humans at arbitrary gaps
    would test car following instead."""
    max_range = draw(st.sampled_from([50.0, 120.0]))
    # k + 1/3 keeps low mantissa bits, so for many k the anchor plus the
    # range minus the anchor rounds above the range.
    anchor = st.one_of(
        st.floats(-500.0, 500.0), st.integers(-500, 500).map(lambda k: k + 1 / 3)
    )
    anchors = draw(st.lists(anchor, min_size=1, max_size=4))
    position = st.one_of(
        st.sampled_from(anchors),
        st.sampled_from([a + max_range for a in anchors]),
        st.floats(-600.0, 700.0),
    )
    xs = draw(st.lists(position, min_size=1, max_size=14, unique=True))
    controlled = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    controlled[0] = True
    vehicles = [
        VehicleInit(
            f"v{i:02d}",
            VehicleKind.CONTROLLED if is_cav else VehicleKind.PROBE,
            x,
            draw(st.sampled_from([0.0, 10.0, 25.0])),
        )
        for i, (x, is_cav) in enumerate(zip(xs, controlled))
    ]
    phantoms = draw(
        st.lists(
            st.builds(
                PhantomStreamSpec,
                lane=st.integers(-3, 3),
                spacing_m=st.sampled_from([15.0, 45.0]),
                phase_m=st.floats(-50.0, 50.0),
            ),
            max_size=2,
        )
    )
    return ScenarioConfig(
        duration_s=1.0,
        radar=RadarConfig(
            max_range=max_range, max_targets=draw(st.sampled_from([2, 16]))
        ),
        vehicles=vehicles,
        phantoms=phantoms,
    )


class TestRadarCandidatesMatchScan:
    """The world's candidates through synthesize_radar against the scan
    oracle, whole frames on every controlled vehicle's tick, with the same
    rng seed on both sides."""

    def check_every_tick(self, cfg, steps):
        world = World(cfg)
        candidates = world._radar_candidates
        checked = []

        def compare(j):
            got = candidates(j)
            assert isinstance(got, list)
            seed = len(checked)
            frame = synthesize_radar(
                world.v[j], got, cfg.radar, world.t, random.Random(seed)
            )
            assert frame == radar_frame_oracle(world, j, world.t, random.Random(seed))
            checked.append(world.log.vehicle_ids[j])
            return got

        world._radar_candidates = compare
        for _ in range(steps):
            world.step()
        assert checked

    @settings(max_examples=200, deadline=None)
    @given(cfg=one_lane_worlds(), steps=st.integers(1, 4))
    def test_same_frame_every_tick(self, cfg, steps):
        self.check_every_tick(cfg, steps)

    @settings(max_examples=100, deadline=None)
    @given(cfg=one_lane_worlds(), steps=st.integers(1, 4))
    def test_same_noisy_frame_every_tick(self, cfg, steps):
        radar = dataclasses.replace(cfg.radar, noise_sigma=0.5)
        self.check_every_tick(dataclasses.replace(cfg, radar=radar), steps)


class TestRadarCandidates:
    """World._radar_candidates alone decides what a radar can see."""

    def candidates(self, others, phantoms=(), x=1000.0):
        ego = VehicleInit("ego", VehicleKind.CONTROLLED, x, 20.0)
        world = World(ScenarioConfig(
            duration_s=1.0,
            radar=RadarConfig(max_range=120.0),
            vehicles=[ego, *others],
            phantoms=list(phantoms),
        ))
        return sorted(world._radar_candidates(0))

    def test_filters_behind_out_of_range_and_far_lanes(self):
        others = [
            VehicleInit("behind", VehicleKind.PROBE, 990.0, 25.0),
            VehicleInit("far", VehicleKind.PROBE, 1120.5, 25.0),
            VehicleInit("edge", VehicleKind.PROBE, 1120.0, 24.0),
            VehicleInit("good", VehicleKind.PROBE, 1060.0, 26.0),
        ]
        assert self.candidates(others) == [
            (60.0, "good", 26.0, 0),
            (120.0, "edge", 24.0, 0),
        ]

    def test_range_test_runs_on_rel_position(self):
        # The scan's stop bound x + 120 holds this target, but position - x
        # rounds to just over 120 m.
        x = 8.0 + 1.0 / 3.0
        target = VehicleInit("edge", VehicleKind.PROBE, x + 120.0, 25.0)
        assert target.x0 - x > 120.0
        assert self.candidates([target], x=x) == []

    def test_phantom_stream_two_lanes_over_unseen(self):
        phantoms = [
            PhantomStreamSpec(lane=2, spacing_m=15.0),
            PhantomStreamSpec(lane=-1, spacing_m=45.0),
        ]
        assert self.candidates([], phantoms) == [
            (35.0, "phantom_-1_23", 25.0, -1),
            (80.0, "phantom_-1_24", 25.0, -1),
        ]

    def far_world(self):
        ego = VehicleInit("ego", VehicleKind.CONTROLLED, 1000.0, 20.0)
        return World(ScenarioConfig(
            duration_s=1.0,
            radar=RadarConfig(max_range=1e6, max_targets=16),
            vehicles=[ego],
            phantoms=[PhantomStreamSpec(lane=1, spacing_m=45.0)],
        ))

    def test_phantom_stream_yields_a_frame_and_one_more_at_any_range(self):
        # About 22,000 targets of the stream lie within 1e6 m.
        world = self.far_world()
        x = world.x[0]
        got = world.phantoms[0].targets_between(x, x + 1e6, 16)
        assert [c[1] for c in got] == [f"phantom_+1_{k}" for k in range(23, 40)]

    def test_far_range_frame_matches_the_scan(self):
        world = self.far_world()
        seen = world._radar_candidates(0)
        assert len(seen) == 17
        frame = synthesize_radar(world.v[0], seen, world.cfg.radar, 0.0, random.Random(0))
        assert frame == radar_frame_oracle(world, 0, 0.0, random.Random(0))
        assert [t.rel_position for t in frame.targets] == [35.0 + 45.0 * k for k in range(16)]


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = dataclasses.replace(canonical_scenario(seed=7), duration_s=30.0)
        write_run_log(run(cfg), a)
        write_run_log(run(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for seed, path in ((0, a), (1, b)):
            cfg = dataclasses.replace(canonical_scenario(seed=seed), duration_s=30.0)
            write_run_log(run(cfg), path)
        assert a.read_bytes() != b.read_bytes()


def noisy_scenario():
    """The run_noisy config: radar noise and feed dropout both draw from
    the rng."""
    cfg = canonical_scenario(seed=1)
    return dataclasses.replace(
        cfg, duration_s=120.0, radar=dataclasses.replace(cfg.radar, noise_sigma=0.5),
        feed=dataclasses.replace(cfg.feed, dropout=0.3))


class TestRunPurity:
    @pytest.mark.parametrize("make_cfg", [
        lambda: dataclasses.replace(canonical_scenario(), duration_s=200.0),
        noisy_scenario,
        lambda: string_scenario(n_controlled=6),
    ], ids=["canonical", "run_noisy", "string"])
    def test_same_config_twice_same_log_and_config_unchanged(self, make_cfg):
        cfg = make_cfg()
        before = copy.deepcopy(cfg)
        first = run(cfg)
        second = run(cfg)
        assert list(first.rows) == list(second.rows)
        assert first.events == second.events
        assert cfg == before

    def test_static_posting_reaches_logged_v_gr(self):
        cfg = ScenarioConfig(
            duration_s=5.0,
            vsl_static_mph=45,
            vehicles=[VehicleInit("c0", VehicleKind.CONTROLLED, 0.0, 30.0)],
        )
        world = World(cfg)
        for _ in range(100):
            world.step()
        v_gr = [row[8] for row in world.log.rows if row[8] is not None]
        assert v_gr and set(v_gr) == {mph_to_mps(45)}


class TestVslLookahead:
    def test_lookahead_beyond_the_corridor_reads_every_segment(self):
        # The corridor has 34 segments, so a lookahead of 34 reads all of
        # them; a far larger one must read the same, in bounded time.
        cfg = dataclasses.replace(canonical_scenario(), duration_s=60.0)
        full, huge = (
            run(dataclasses.replace(cfg, vsl=dataclasses.replace(cfg.vsl, lookahead_segments=n)))
            for n in (34, 10**18))
        assert any(e["event"] == "vsl_update" for e in full.events)
        assert list(full.rows) == list(huge.rows)
        assert full.events == huge.events


class TestControlledTick:
    def test_first_tick_ramps_from_initial_speed(self):
        # Alone and outside the corridor, the vehicle tracks its setpoint
        # through the ramp, which starts at v0 and carries over ticks.
        cfg = ScenarioConfig(
            duration_s=0.1,
            entry_mm=10.0,
            vehicles=[VehicleInit("c0", VehicleKind.CONTROLLED, 0.0, 22.0)],
        )
        (first, second) = run(cfg).rows
        ctrl, step = cfg.controller, cfg.controller.ramp_rate * cfg.dt
        assert first[6] == "normal" and first[7] == 33.5
        assert first[10] == ctrl.k_p * ((22.0 + step) - 22.0)
        assert second[10] == ctrl.k_p * ((22.0 + step + step) - second[5])

    def test_logged_mile_marker_counts_down_from_entry(self):
        cfg = dataclasses.replace(canonical_scenario(seed=1), duration_s=20.0, entry_mm=66.0)
        log = run(cfg)
        assert {row[2] for row in log.rows} == {"human", "controlled"}
        for row in log.rows:
            assert row[4] == cfg.entry_mm - row[3] / M_PER_MILE


class TestTimestepRefinement:
    def test_velocities_agree_across_dt(self):
        def gentle(dt):
            p = IdmParams()
            gap = idm_equilibrium_gap(20.0, p)
            return ScenarioConfig(
                duration_s=15.0,
                dt=dt,
                vehicles=[
                    human("rear", 0.0, 19.0),
                    human("mid", gap * 0.9, 20.0),
                    human("front", gap * 1.9, 21.0),
                ],
            )

        coarse = run(gentle(0.05))
        fine = run(gentle(0.01))
        fine_v = {(round(r[0], 3), r[1]): r[5] for r in fine.rows}
        checked = 0
        for row in coarse.rows:
            key = (round(row[0], 3), row[1])
            if key in fine_v:
                assert row[5] == pytest.approx(fine_v[key], abs=0.05)
                checked += 1
        assert checked > 100

    def test_small_dt_canonical_run_keeps_its_margin(self):
        # The heading needs 2 s of mile-marker history. A history trimmed
        # by sample count lost it for part of every cycle below dt = 2/127 s,
        # and this run then collided at t = 92.19 s.
        cfg = dataclasses.replace(canonical_scenario(seed=0), duration_s=100.0, dt=0.0125)
        log = run(cfg)
        assert log.collision is None
        assert log.min_h > 0.0


class TestRunReport:
    def test_free_flow_outside_corridor_is_all_normal(self):
        cfg = ScenarioConfig(
            duration_s=10.0,
            entry_mm=10.0,
            vehicles=[
                VehicleInit(
                    "c0", VehicleKind.CONTROLLED, 0.0, 30.0, driver_setpoint=30.0
                )
            ],
        )
        rep = build_report(run(cfg))
        assert rep.mode_occupancy == {"normal": 1.0}
        assert rep.engaged_time_s == pytest.approx(10.0, abs=0.1)

    def test_occupancy_sums_to_one(self):
        rep = build_report(run(dataclasses.replace(canonical_scenario(), duration_s=60.0)))
        assert sum(rep.mode_occupancy.values()) == pytest.approx(1.0, abs=1e-9)
        assert rep.collision is False

    def test_no_controlled_vehicle_gives_empty_report(self):
        cfg = ScenarioConfig(duration_s=2.0, vehicles=[human("a", 0.0, 10.0)])
        rep = build_report(run(cfg))
        assert rep.mode_occupancy == {}
        assert rep.engaged_time_s == 0.0
        assert rep.min_h_m is None


def build_report_rows(log):
    """Reference for build_report's aggregation: one pass over every row.
    Returns the fields build_report derives from the rows."""
    echo = log.config_echo
    dt_row = echo["dt"] * echo["log_every"]
    engaged_rows = 0
    occupancy, transitions, last_mode = {}, {}, {}
    t_max = 0.0
    engaged_at = {}
    for row in log.rows:
        t, vid, kind, mode = row[0], row[1], row[2], row[6]
        t_max = max(t_max, t)
        if kind != "controlled" or mode is None:
            continue
        if mode != last_mode.get(vid):
            transitions[mode] = transitions.get(mode, 0) + 1
            last_mode[vid] = mode
        engaged_rows += 1
        engaged_at[t] = engaged_at.get(t, 0) + 1
        occupancy[mode] = occupancy.get(mode, 0) + 1
    fractions = {
        mode: count / engaged_rows for mode, count in sorted(occupancy.items())
    } if engaged_rows else {}
    duration, engaged_time = 0.0, engaged_rows * dt_row
    if len(log.rows):
        # The last logged step ends at the run's end.
        end = (log.collision["t"] if log.collision is not None
               else round(echo["duration_s"] / echo["dt"]) * echo["dt"])
        duration = min(t_max + dt_row, end)
        engaged_time -= engaged_at.get(t_max, 0) * (t_max + dt_row - duration)
    return (duration, engaged_time, fractions, dict(sorted(transitions.items())))


def v_des_traces_rows(log, n_controlled):
    """Reference for v_des_traces: the enum value looked up on every row."""
    traces = {f"cav{k:02d}": [] for k in range(1, n_controlled + 1)}
    for row in log.rows:
        vid, kind, v_des = row[1], row[2], row[7]
        if kind == VehicleKind.CONTROLLED.value and vid in traces:
            traces[vid].append(v_des if v_des is not None else float("nan"))
    return traces


class TestWholeLogConsumersMatchRowLoops:
    @pytest.mark.parametrize("name", sorted(ORACLE_LOGS))
    def test_build_report(self, name):
        log, _ = ORACLE_LOGS[name]()
        rep, ref = build_report(log), build_report_rows(log)
        assert (rep.duration_s, rep.engaged_time_s, rep.mode_occupancy,
                rep.mode_transitions) == ref
        assert list(rep.mode_occupancy) == list(ref[2])

    @pytest.mark.parametrize("name", sorted(ORACLE_LOGS))
    def test_v_des_traces(self, name):
        log, n = ORACLE_LOGS[name]()
        fast, ref = v_des_traces(log, n), v_des_traces_rows(log, n)
        assert list(fast) == list(ref)
        for vid in ref:
            assert type(fast[vid]) is array and fast[vid].typecode == "d"
            assert all(type(v) is float for v in [*fast[vid], *ref[vid]])
            np.testing.assert_array_equal(fast[vid], ref[vid])

    def test_string_logs_hold_engaged_rows(self):
        log, n = ORACLE_LOGS["string_n6_every10"]()
        assert build_report(log).engaged_time_s > 0.0
        assert all(len(trace) for trace in v_des_traces(log, n).values())

    def test_collision_logs_end_at_the_collision(self):
        for name in ("collision", "collision_every3"):
            log, _ = ORACLE_LOGS[name]()
            assert log.collision is not None
            assert build_report(log).duration_s <= log.collision["t"]


class TestRunLogRowView:
    def test_indexing_matches_iteration(self):
        log, _ = ORACLE_LOGS["mode_none"]()
        rows = list(log.rows)
        assert len(log.rows) == len(rows) == 9
        assert [log.rows[i] for i in range(len(rows))] == rows
        assert [log.rows[i] for i in range(-len(rows), 0)] == rows
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                log.rows[i]

    def test_rows_are_built_on_access(self):
        log, _ = ORACLE_LOGS["canonical_30s"]()
        assert log.rows[0] is not log.rows[0]
        assert log.rows is not log.rows


class TestRunLogMemory:
    def test_log_keeps_under_64_bytes_a_row(self):
        # A logged vehicle-step holds four floats (32 B) plus the
        # controlled vehicle's cells; a tuple a row held about 235 B.
        cfg = dataclasses.replace(canonical_scenario(), duration_s=60.0)
        run(dataclasses.replace(cfg, duration_s=1.0))
        tracemalloc.start()
        try:
            log = run(cfg)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.rows) == 1200 * 26
        assert kept / len(log.rows) <= 64

    def test_string_log_keeps_under_72_bytes_a_row(self):
        # Every vehicle but the three pace probes is controlled, so nearly
        # every row holds a mode and three controller floats, each held as
        # 8 B in an array; as float objects in a list they took about 94 B
        # a row in all.
        cfg = string_scenario(n_controlled=12)
        run(dataclasses.replace(cfg, duration_s=1.0))
        tracemalloc.start()
        try:
            log = run(cfg)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.rows) == 1460 * 15
        assert kept / len(log.rows) <= 72

    def test_read_log_keeps_under_64_bytes_a_row(self, tmp_path):
        # A read log holds what a run holds, with one string a distinct
        # mode; a float object and a string a cell took about 139 B a row.
        path = tmp_path / "run_log.csv"
        write_run_log(run(string_scenario(n_controlled=6)), path)
        read_run_log(path)
        tracemalloc.start()
        try:
            log = read_run_log(path)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log.rows) == 980 * 9
        assert kept / len(log.rows) <= 64


def triangle_table(duration_s, period_s, lo, hi):
    """Reference for triangle_speed: the knot table the canonical scenario
    once built, four (t, speed) knots per period up to a period past
    duration_s, with times rounded to 1 ms."""
    points = []
    t = 0.0
    while t < duration_s + period_s:
        points.append((t, hi))
        points.append((t + 0.35 * period_s, lo))
        points.append((t + 0.50 * period_s, lo))
        points.append((t + 0.85 * period_s, hi))
        t += period_s
    return tuple((round(t, 3), v) for t, v in points)


def interp_scan(profile, t):
    """Piecewise-linear lookup by a scan over the knot pairs: t
    interpolates toward the first knot at or after it, clamped to the
    profile's endpoints."""
    if t <= profile[0][0]:
        return profile[0][1]
    for (t0, v0), (t1, v1) in zip(profile, profile[1:]):
        if t <= t1:
            if t1 == t0:
                return v1
            w = (t - t0) / (t1 - t0)
            return v0 + w * (v1 - v0)
    return profile[-1][1]


class TestTriangleSpeed:
    @pytest.mark.parametrize("dt", [0.1, 0.05, 0.025, 0.0125])
    def test_equals_table_on_every_step(self, dt):
        # The canonical wave, at the step times World takes.
        wave = canonical_scenario().phantoms[0].wave
        assert wave == (90.0, 5.0, 22.0)
        table = triangle_table(600.0, *wave)
        t = 0.0
        while t <= 600.0:
            assert triangle_speed(t, *wave) == interp_scan(table, t), t
            t = round(t + dt, 9)

    @settings(max_examples=300, deadline=None)
    @given(
        period=st.sampled_from([90.0, 60.0, 20.0, 10.0]),
        lo=st.floats(0.0, 40.0),
        hi=st.floats(0.0, 40.0),
        t=st.one_of(
            st.floats(0.0, 400.0),
            st.integers(0, 400).map(lambda k: k * 0.5),
        ),
    )
    def test_equals_table_anywhere(self, period, lo, hi, t):
        # At these periods every table knot is a multiple of the period
        # plus a knot offset, exactly; t falls on knots and between them.
        table = triangle_table(400.0, period, lo, hi)
        assert triangle_speed(t, period, lo, hi) == interp_scan(table, t)

    def test_knots(self):
        for t, want in [(0.0, 22.0), (31.5, 5.0), (40.0, 5.0), (45.0, 5.0),
                        (60.75, 13.5), (76.5, 22.0), (80.0, 22.0), (90.0, 22.0),
                        (121.5, 5.0)]:
            assert triangle_speed(t, 90.0, 5.0, 22.0) == want, t

    def test_other_period_matches_table_to_rounding(self):
        # The table's knot times were rounded sums of repeated additions of
        # the period, so at a period like this one they differ in the last
        # bits from a whole number of periods plus a rounded offset.
        table = triangle_table(600.0, 37.3, 5.0, 22.0)
        for k in range(6000):
            t = k * 0.1
            assert triangle_speed(t, 37.3, 5.0, 22.0) == pytest.approx(
                interp_scan(table, t), abs=1e-9
            )


class TestSteadyVDes:
    """The window holds the rows at i·dt in [lo, hi); each trace here holds
    its own row times, so the mean names the rows taken."""

    @pytest.mark.parametrize("log_every", [1, 2, 3, 7, 10])
    def test_window_rows_at_every_spacing(self, log_every):
        row_dt = 0.05 * log_every
        times = np.arange(1000) * row_dt
        for lo, hi in ((12.0, 24.0), (32.0, 44.0), (8.05, 9.95)):
            inside = [t for t in times.tolist() if lo - 1e-9 <= t < hi - 1e-9]
            mean = math.fsum(inside) / len(inside)
            for trace in (times, times.tolist()):
                assert steady_v_des({"cav01": trace}, row_dt, (lo, hi))["cav01"] == mean

    def test_log_every_3_window_starts_at_12_s(self):
        # 12 / 0.15 is 79.99999999999999, which int() took to row 79 (11.85 s).
        row_dt = 0.05 * 3
        trace = np.zeros(200)
        trace[79] = 1.0
        assert steady_v_des({"cav01": trace}, row_dt, (12.0, 24.0))["cav01"] == 0.0
        trace[159] = 80.0
        assert steady_v_des({"cav01": trace}, row_dt, (12.0, 24.0))["cav01"] == 1.0

    @pytest.mark.parametrize("n, offset, log_every", [(4, 2.0, 1), (12, 2.0, 1),
                                                      (3, 3.0, 1), (6, 2.0, 10)])
    def test_readout_text_equals_numpy_mean_text(self, n, offset, log_every):
        # The commands print steady v_des with %.6f and %.3f; the fsum mean
        # reads as np.mean did over the same rows.
        cfg = dataclasses.replace(string_scenario(n_controlled=n, v_offset=offset),
                                  log_every=log_every)
        row_dt = cfg.dt * log_every
        window = measurement_window(n)
        traces = v_des_traces(run(cfg), n)
        lo, hi = window_rows(row_dt, window)
        steady = steady_v_des(traces, row_dt, window)
        assert len(steady) == n
        for vid, trace in traces.items():
            reference = np.mean(trace[lo:hi])
            for fmt in ("%.6f", "%.3f"):
                assert fmt % steady[vid] == fmt % reference, (vid, fmt)

    def test_trace_ending_before_the_window_is_nan(self):
        # A run halted by a collision ends before the window opens; the
        # mean of the empty slice would divide by zero.
        steady = steady_v_des({"cav01": np.ones(100)}, 0.05, (12.0, 24.0))
        assert math.isnan(steady["cav01"])
