"""Engine tests: car-following model, integration, waves, logs, determinism."""

import copy
import csv
import dataclasses
import hashlib
import math
import random
import sys
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.perception import RadarConfig, RadarFrame, RadarTarget, synthesize_radar
from middleway.scenarios import (
    canonical_scenario,
    check_string,
    steady_v_des,
    string_scenario,
    v_des_traces,
)
from middleway.simulation import (
    HUMAN_BRAKE_FLOOR,
    MAX_DURATION_S,
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
                    float(v_des) if v_des else None,
                    float(v_gr) if v_gr else None,
                    float(v_pr) if v_pr else None,
                    float(u),
                )
            )
    return rows


def radar_frame_oracle(world, veh, now, rng):
    """Reference radar frame for veh: a scan over every vehicle and every
    phantom stream, then a filter on ego id, range and phantom lane, a sort
    on (range, id), the cap and one noise draw per kept target. Mainline
    vehicles are in lane 0."""
    radar = world.cfg.radar
    x_lo = veh.position
    x_hi = veh.position + radar.max_range
    seen = [(o.vehicle_id, o.position, o.velocity, 0)
            for o in world.vehicles if x_lo < o.position <= x_hi]
    for stream in world.phantoms:
        spacing, lane = stream.spec.spacing_m, stream.spec.lane
        k_lo = math.ceil((x_lo - stream.origin) / spacing)
        k_hi = math.floor((x_hi - stream.origin) / spacing)
        seen += [(f"phantom_{lane:+d}_{k}", stream.origin + k * spacing, stream.speed, lane)
                 for k in range(k_lo, k_hi + 1)]
    candidates = []
    for vid, position, speed, lane in seen:
        if vid == veh.vehicle_id:
            continue
        rel = position - veh.position
        if rel <= 0.0 or rel > radar.max_range:
            continue
        if abs(lane) > 1:
            continue
        candidates.append((rel, vid, speed, lane))
    candidates.sort(key=lambda c: (c[0], c[1]))
    targets = []
    for rel, _, speed, lane in candidates[: radar.max_targets]:
        rel_speed = speed - veh.velocity
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
        veh = world.vehicles[0]
        v_next = 10.0 + idm_accel(10.0, None, None, cfg.human) * 0.05
        assert veh.velocity == v_next
        assert veh.position == v_next * 0.05

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

    def test_collision_is_the_last_event(self):
        cfg = ScenarioConfig(
            duration_s=30.0,
            vehicles=[probe("ram", 0.0, 30.0), probe("wall", 40.0, 0.0)],
        )
        log = run(cfg)
        assert log.collision is log.events[-1]
        assert log.collision["event"] == "collision"
        assert log.collision["t"] == pytest.approx(log.rows[-1][0] + cfg.dt)


def run_slowing_leader(cfg, leader_id, t_start, t_end, speed_cap):
    """Run cfg with a wave seeded at one vehicle only.

    Before every step a zero-width bottleneck is pinned to the leader's
    position, so the bottleneck braking law acts on the leader alone. Every
    other vehicle is asserted to stay behind the zone's start.
    """
    world = World(cfg)
    leader = next(v for v in world.vehicles if v.vehicle_id == leader_id)
    for _ in range(int(round(cfg.duration_s / cfg.dt))):
        x = leader.position
        cfg.bottlenecks[:] = [Bottleneck(x, x, t_start, t_end, speed_cap)]
        assert all(v.position < x for v in world.vehicles if v is not leader)
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
        assert world.vehicles[0].velocity == pytest.approx(16.0 - 2.0 * 0.05, abs=1e-12)

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
        assert log.rows == []
        path = tmp_path / "empty.csv"
        write_run_log(log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("t,vehicle_id,kind,")
        assert read_run_log(path).rows == []
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


@st.composite
def run_log_rows(draw):
    optional = lambda s: st.one_of(st.none(), s)  # noqa: E731
    return (
        draw(_NUMBER), draw(_CELL_TEXT), draw(_KIND),
        draw(_NUMBER), draw(_NUMBER), draw(_NUMBER),
        draw(optional(st.one_of(st.sampled_from(["normal", "cbf"]), _CELL_TEXT))),
        draw(optional(_NUMBER)), draw(optional(_NUMBER)), draw(optional(_NUMBER)),
        draw(_NUMBER),
    )


@st.composite
def world_run_log_rows(draw):
    """Rows as World logs them: the same vehicles in every step, and each
    step's rows sharing one t object."""
    vehicles = draw(st.lists(st.tuples(_CELL_TEXT, _KIND), min_size=1, max_size=3))
    rows = []
    for t in draw(st.lists(_NUMBER, max_size=4)):
        for vid, kind in vehicles:
            rows.append((t, vid, kind, *draw(run_log_rows())[3:]))
    return rows


def _logged(bound):
    """Floats up to bound in size, as a run logs them, and -0.0."""
    return st.one_of(st.just(-0.0), st.floats(-bound, bound))


@st.composite
def logged_rows(draw):
    """Rows with numbers of the size a run logs: t up to a day, positions
    up to 1e7 m, mile markers up to 1e4, speeds and accelerations up to
    100; each controller cell may be None."""
    optional = lambda s: st.one_of(st.none(), s)  # noqa: E731
    small = _logged(100.0)
    return (
        draw(_logged(MAX_DURATION_S)), draw(_CELL_TEXT), draw(_KIND),
        draw(_logged(1e7)), draw(_logged(1e4)), draw(small),
        draw(optional(st.sampled_from(["normal", "vsl", "middleway", "cbf"]))),
        draw(optional(small)), draw(optional(small)), draw(optional(small)),
        draw(small),
    )


class TestRunLogRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(logged_rows(), max_size=8))
    def test_rewriting_what_was_read_gives_the_same_bytes(self, tmp_path_factory, rows):
        first = tmp_path_factory.mktemp("log") / "first.csv"
        second = first.with_name("second.csv")
        write_run_log(RunLog(rows), first)
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
        cfg = dataclasses.replace(canonical_scenario(), duration_s=30.0)
        self.assert_same_bytes(run(cfg), tmp_path)

    def test_hand_built_rows(self, tmp_path):
        log = RunLog([
            (0.0, "h000", "human", 12.5, 69.992233, 15.25, None, None, None, None, -0.0),
            (0.05, "cav", "controlled", -3.0, 70.001864, 0.0,
             "vsl", 13.411200, None, 0.0, -2.75),
            (0.1, "cav", "controlled", 1.0, 69.999379, 16.5,
             "cbf", 13.4112, 13.4112, 18.0, -3.0),
        ])
        path = self.assert_same_bytes(log, tmp_path)
        assert read_run_log(path).rows == log.rows

    def test_ids_needing_quotes(self):
        # The writer does not quote cells, so such ids are rejected up front.
        for vid in ("truck,big", 'say "hi"', "a\rb", "a\nb"):
            cfg = ScenarioConfig(vehicles=[human(vid, 0.0, 10.0)])
            with pytest.raises(ValueError, match="vehicles: an id may not hold"):
                cfg.validate()

    def test_signed_zero_times_and_percent_ids(self, tmp_path):
        # Equal t values in distinct float objects, and -0.0 next to 0.0,
        # which compare equal but format differently.
        log = RunLog([
            (-0.0, "50%", "human", 1.0, 70.0, 2.0, None, None, None, None, 0.5),
            (0.0, "50%", "human", 1.0, 70.0, 2.0, None, None, None, None, 0.5),
            (-0.0, "%s%%", "%d", -0.0, -0.0, 0.0, None, None, None, None, -0.0),
            (float("0.05"), "50%", "human", 1.1, 70.0, 2.0, None, None, None, None, 0.5),
            (float("0.05"), "cav", "controlled", 3.0, 70.0, 2.0,
             "normal%", 2.0, None, 0.0, 0.25),
        ])
        path = self.assert_same_bytes(log, tmp_path)
        assert b"\r\n-0.000,%s%%,%d,-0.000000," in path.read_bytes()
        assert read_run_log(path).rows == log.rows

    @settings(max_examples=200, deadline=None)
    @given(rows=st.one_of(world_run_log_rows(), st.lists(run_log_rows(), max_size=8)))
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, rows):
        self.assert_same_bytes(RunLog(rows), tmp_path_factory.mktemp("log"))


class TestRunLogReaderOracle:
    """read_run_log reads the rows the csv.reader reference reads."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(run_log_rows(), max_size=8))
    def test_same_rows_as_csv_reader(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("log") / "run_log.csv"
        write_run_log(RunLog(rows), path)
        assert read_run_log(path).rows == read_run_log_csv(path)

    def test_canonical_run(self, tmp_path):
        path = tmp_path / "run_log.csv"
        write_run_log(run(dataclasses.replace(canonical_scenario(), duration_s=30.0)), path)
        assert read_run_log(path).rows == read_run_log_csv(path)

    @pytest.mark.parametrize(
        "body",
        [
            "0.000,a,human,1.0,70.0,2.0,,,,\r\n",
            "0.000,a,human,1.0,70.0,2.0,,,,,0.5,9\r\n",
            "0.000,a,human,1.0,70.0,2.0,,,,,0.5\r\n\r\n",
            "0.000,a,human,fast,70.0,2.0,,,,,0.5\r\n",
            '0.000,"a,b",controlled,1.0,70.0,2.0,cbf,x,,,0.5\r\n',
        ],
        ids=["short", "extra", "blank", "non_numeric", "quoted_non_numeric"],
    )
    def test_malformed_rows_raise_in_both(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RUN_LOG_COLUMNS) + "\r\n" + body, newline="")
        with pytest.raises(ValueError):
            read_run_log(path)
        with pytest.raises(ValueError):
            read_run_log_csv(path)


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
# fixed position order. The simulation sums float windows with the builtin
# sum, whose rounding Python 3.12 changed;
# TestRunLogGoldensUnderCompensatedSum shows that the logs keep these bytes
# under the 3.12 rounding.
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


def compensated_sum(iterable, /, start=0):
    """builtins.sum as CPython 3.12 computes it. An int total adds int items
    exactly; once the total is an exact float, float items add with
    Neumaier compensation, which joins the total at the end or before an
    item of any other type. Any other total adds items plainly."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
        else:
            return total
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    comp = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif type(item) in (int, bool):
            total += float(item)
        else:
            if comp and math.isfinite(comp):
                total += comp
            for rest in chain((item,), items):
                total = total + rest
            return total
    if comp and math.isfinite(comp):
        total += comp
    return total


def left_to_right_sum(iterable, /, start=0):
    total = start
    for item in iterable:
        total = total + item
    return total


class TestRunLogGoldensUnderCompensatedSum:
    def test_port_rounds_as_documented(self):
        assert compensated_sum([0.1] * 10) == 1.0
        assert left_to_right_sum([0.1] * 10) == 0.9999999999999999
        assert left_to_right_sum([1e16, 1.0, -1e16]) == 0.0
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
        # An infinite compensation is left out rather than turn inf to nan.
        assert compensated_sum([1e308, 1e308]) == math.inf
        assert compensated_sum([1.0, -1e16], 1e16) == 1.0
        assert compensated_sum(range(5), 2) == 12
        assert compensated_sum([0.5, np.float64(0.25)]) == 0.75
        assert type(compensated_sum([np.float64(0.5), 0.25])) is np.float64

    @pytest.mark.skipif(
        sys.version_info < (3, 12), reason="the builtin sum compensates from 3.12 on"
    )
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=20))
    def test_port_matches_builtin(self, xs):
        expected, got = sum(xs), compensated_sum(xs)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_run_log_bytes(self, tmp_path, name):
        differing = 0

        def counted_sum(iterable, /, start=0):
            nonlocal differing
            values = list(iterable)
            total = compensated_sum(values, start)
            differing += total != left_to_right_sum(values, start)
            return total

        path = tmp_path / "run_log.csv"
        with mock.patch("builtins.sum", counted_sum):
            log = run(GOLDEN_SCENARIOS[name]())
        write_run_log(log, path)
        # The patched rounding reached the simulation.
        assert differing > 0
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

        def compare(veh):
            got = candidates(veh)
            assert isinstance(got, list)
            seed = len(checked)
            frame = synthesize_radar(
                veh.velocity, got, cfg.radar, world.t, random.Random(seed)
            )
            assert frame == radar_frame_oracle(world, veh, world.t, random.Random(seed))
            checked.append(veh.vehicle_id)
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
        return sorted(world._radar_candidates(world.vehicles[0]))

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


class TestRunPurity:
    def test_same_config_twice_same_log_and_config_unchanged(self):
        cfg = dataclasses.replace(canonical_scenario(), duration_s=200.0)
        before = copy.deepcopy(cfg)
        first = run(cfg)
        second = run(cfg)
        assert first.rows == second.rows
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
    dt_row = log.config_echo["dt"] * log.config_echo["log_every"]
    engaged_rows = 0
    occupancy, transitions, last_mode = {}, {}, {}
    t_max = 0.0
    for row in log.rows:
        t, vid, kind, mode = row[0], row[1], row[2], row[6]
        t_max = max(t_max, t)
        if kind != "controlled" or mode is None:
            continue
        if mode != last_mode.get(vid):
            transitions[mode] = transitions.get(mode, 0) + 1
            last_mode[vid] = mode
        engaged_rows += 1
        occupancy[mode] = occupancy.get(mode, 0) + 1
    fractions = {
        mode: count / engaged_rows for mode, count in sorted(occupancy.items())
    } if engaged_rows else {}
    duration = t_max + dt_row if log.rows else 0.0
    return (duration, engaged_rows * dt_row, fractions,
            dict(sorted(transitions.items())))


def v_des_traces_rows(log, n_controlled):
    """Reference for v_des_traces: the enum value looked up on every row."""
    traces = {f"cav{k:02d}": [] for k in range(1, n_controlled + 1)}
    for row in log.rows:
        vid, kind, v_des = row[1], row[2], row[7]
        if kind == VehicleKind.CONTROLLED.value and vid in traces:
            traces[vid].append(v_des if v_des is not None else float("nan"))
    return {vid: np.asarray(vals) for vid, vals in traces.items()}


def _hand_built_log(rows, log_every=1):
    return RunLog(rows, config_echo={"dt": 0.05, "seed": 3, "log_every": log_every})


def _row(t, vid, kind, mode=None, v_des=None):
    return (t, vid, kind, 1.0, 70.0, 2.0, mode, v_des, None, None, 0.0)


# (log, n_controlled) builders for the whole-log consumers' oracles.
CONSUMER_LOGS = {
    "canonical_30s": lambda: (
        run(dataclasses.replace(canonical_scenario(), duration_s=30.0)), 1
    ),
    "string_n6": lambda: (run(string_scenario(n_controlled=6)), 6),
    "string_n6_every10": lambda: (
        run(dataclasses.replace(string_scenario(n_controlled=6), log_every=10)), 6
    ),
    "empty": lambda: (_hand_built_log([]), 2),
    # "disengaged" is a mode the controller no longer writes; read from an
    # older log, it counts as any other mode.
    "all_disengaged": lambda: (_hand_built_log([
        _row(0.0, "h000", "human"),
        _row(0.0, "cav01", "controlled", "disengaged", 9.0),
        _row(0.05, "cav01", "controlled", "disengaged", 9.5),
        _row(0.05, "cav02", "controlled", "disengaged"),
    ], log_every=3), 2),
    "mode_none": lambda: (_hand_built_log([
        _row(-1.0, "cav01", "controlled", "normal", 9.0),
        _row(-0.5, "cav01", "controlled", None, 9.5),
        _row(-0.5, "cav02", "controlled", None),
        _row(-0.25, "cav01", "controlled", "cbf", 8.0),
        _row(-0.25, "cav01", "human", "vsl", 7.0),
        _row(-0.25, "cav02", "controlled", "cbf"),
    ]), 2),
}


class TestWholeLogConsumersMatchRowLoops:
    @pytest.mark.parametrize("name", sorted(CONSUMER_LOGS))
    def test_build_report(self, name):
        log, _ = CONSUMER_LOGS[name]()
        rep, ref = build_report(log), build_report_rows(log)
        assert (rep.duration_s, rep.engaged_time_s, rep.mode_occupancy,
                rep.mode_transitions) == ref
        assert list(rep.mode_occupancy) == list(ref[2])

    @pytest.mark.parametrize("name", sorted(CONSUMER_LOGS))
    def test_v_des_traces(self, name):
        log, n = CONSUMER_LOGS[name]()
        fast, ref = v_des_traces(log, n), v_des_traces_rows(log, n)
        assert list(fast) == list(ref)
        for vid in ref:
            np.testing.assert_array_equal(fast[vid], ref[vid])

    def test_string_logs_hold_engaged_rows(self):
        log, n = CONSUMER_LOGS["string_n6_every10"]()
        assert build_report(log).engaged_time_s > 0.0
        assert all(len(trace) for trace in v_des_traces(log, n).values())


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
            inside = times[(times >= lo - 1e-9) & (times < hi - 1e-9)]
            steady = steady_v_des({"cav01": times}, row_dt, (lo, hi))
            assert steady["cav01"] == float(np.mean(inside))

    def test_log_every_3_window_starts_at_12_s(self):
        # 12 / 0.15 is 79.99999999999999, which int() took to row 79 (11.85 s).
        row_dt = 0.05 * 3
        trace = np.zeros(200)
        trace[79] = 1.0
        assert steady_v_des({"cav01": trace}, row_dt, (12.0, 24.0))["cav01"] == 0.0
        trace[159] = 80.0
        assert steady_v_des({"cav01": trace}, row_dt, (12.0, 24.0))["cav01"] == 1.0

    def test_trace_ending_before_the_window_is_nan(self):
        # A run halted by a collision ends before the window opens; np.mean
        # of the empty slice would warn (an error under the tier-1 filter).
        steady = steady_v_des({"cav01": np.ones(100)}, 0.05, (12.0, 24.0))
        assert math.isnan(steady["cav01"])
