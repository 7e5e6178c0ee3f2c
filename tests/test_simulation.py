"""Engine tests: car-following model, integration, waves, logs, determinism."""

import copy
import csv
import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.perception import ObservedVehicle, RadarConfig
from middleway.scenarios import canonical_scenario, string_scenario
from middleway.simulation import (
    RUN_LOG_COLUMNS,
    IdmParams,
    PhantomStreamSpec,
    RunLog,
    ScenarioConfig,
    SpeedPulse,
    VehicleInit,
    VehicleKind,
    World,
    build_report,
    idm_accel,
    idm_equilibrium_gap,
    read_run_log,
    run,
    write_run_log,
)
from middleway.units import mph_to_mps


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


def radar_candidates_scan(world, veh):
    """Reference for World._radar_candidates: a scan over every vehicle."""
    x_lo = veh.position
    x_hi = veh.position + world.cfg.radar.max_range
    out = [
        ObservedVehicle(o.vehicle_id, o.position, o.velocity, o.lane)
        for o in world.vehicles
        if o is not veh
        and x_lo < o.position <= x_hi
        and abs(o.lane - veh.lane) <= 1
    ]
    for stream in world.phantoms:
        out.extend(stream.targets_between(x_lo, x_hi))
    return out


def probe(vid, x0, v0, profile=None):
    return VehicleInit(vid, VehicleKind.PROBE, x0, v0, profile=profile)


def human(vid, x0, v0):
    return VehicleInit(vid, VehicleKind.HUMAN, x0, v0)


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
        cfg = ScenarioConfig(
            duration_s=0.05,
            vehicles=[probe("p", 0.0, 10.0, profile=((0.0, 10.0), (1.0, 11.0)))],
        )
        world = World(cfg)
        world.step()
        veh = world.vehicles[0]
        assert veh.velocity == pytest.approx(10.05, abs=1e-12)
        assert veh.position == pytest.approx(10.05 * 0.05, abs=1e-12)

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
            vehicles=[
                probe("p", 0.0, 5.0, profile=((0.0, 5.0), (2.0, 0.0), (10.0, 0.0)))
            ],
        )
        log = run(cfg)
        assert all(row[5] >= 0.0 for row in log.rows)
        assert log.rows[-1][5] == pytest.approx(0.0, abs=1e-12)

    def test_positions_monotone(self):
        cfg = canonical_scenario(duration_s=20.0)
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
        with pytest.raises(ValueError, match="lane"):
            cfg.validate()

    def test_duplicate_ids_rejected(self):
        cfg = ScenarioConfig(
            vehicles=[human("a", 0.0, 10.0), human("a", 50.0, 10.0)]
        )
        with pytest.raises(ValueError, match="unique"):
            cfg.validate()

    def test_profile_brake_limit_enforced(self):
        cfg = ScenarioConfig(
            vehicles=[probe("p", 0.0, 20.0, profile=((0.0, 20.0), (1.0, 10.0)))]
        )
        with pytest.raises(ValueError, match="brakes harder"):
            cfg.validate()

    def test_profile_must_match_initial_speed(self):
        cfg = ScenarioConfig(
            vehicles=[probe("p", 0.0, 15.0, profile=((0.0, 20.0), (10.0, 20.0)))]
        )
        with pytest.raises(ValueError, match="profile start"):
            cfg.validate()

    def test_dt_range_enforced(self):
        cfg = ScenarioConfig(dt=0.2, vehicles=[human("a", 0.0, 10.0)])
        with pytest.raises(ValueError, match="dt"):
            cfg.validate()


class TestCollision:
    def test_rear_end_halts_run(self):
        cfg = ScenarioConfig(
            duration_s=30.0,
            vehicles=[
                probe("ram", 0.0, 30.0, profile=((0.0, 30.0), (30.0, 30.0))),
                probe("wall", 40.0, 0.0),
            ],
        )
        log = run(cfg)
        assert log.collision is not None
        assert log.collision.rear_id == "ram"
        assert log.collision.front_id == "wall"
        assert log.rows[-1][0] < 30.0 - cfg.dt
        assert any(e["event"] == "collision" for e in log.events)


class TestWaveSeeding:
    def test_pulse_brakes_at_bounded_rate(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            vehicles=[human("solo", 0.0, 16.0)],
            pulses=[SpeedPulse("solo", 0.0, 5.0, 2.0, decel=2.0)],
        )
        world = World(cfg)
        world.step()
        assert world.vehicles[0].velocity == pytest.approx(16.0 - 2.0 * 0.05, abs=1e-12)

    def test_dense_platoon_wave_propagates(self):
        p = IdmParams()
        gap = idm_equilibrium_gap(16.0, p) + 5.0
        vehicles = [human(f"h{i:02d}", i * gap, 16.0) for i in range(12)]
        cfg = ScenarioConfig(
            duration_s=120.0,
            vehicles=vehicles,
            pulses=[SpeedPulse("h11", 5.0, 20.0, 2.0)],
        )
        log = run(cfg)
        assert log.collision is None
        upstream_after = [
            row[5] for row in log.rows if row[0] > 25.0 and row[1] != "h11"
        ]
        assert min(upstream_after) < 5.0

    def test_sparse_road_wave_dissipates(self):
        cfg = ScenarioConfig(
            duration_s=60.0,
            vehicles=[human("follower", 0.0, 16.0), human("leader", 500.0, 16.0)],
            pulses=[SpeedPulse("leader", 5.0, 20.0, 2.0)],
        )
        log = run(cfg)
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

    def test_round_trip_is_byte_stable(self, tmp_path):
        log = run(canonical_scenario(duration_s=6.0))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_run_log(log, first)
        write_run_log(read_run_log(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_human_rows_leave_controller_fields_empty(self, tmp_path):
        log = run(canonical_scenario(duration_s=3.0))
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
        self.assert_same_bytes(run(canonical_scenario(duration_s=30.0)), tmp_path)

    def test_hand_built_rows(self, tmp_path):
        log = RunLog(dt=0.05, seed=0)
        log.rows = [
            (0.0, "h000", "human", 12.5, 69.992233, 15.25, None, None, None, None, -0.0),
            (0.05, "cav", "controlled", -3.0, 70.001864, 0.0,
             "vsl", 13.411200, None, 0.0, -2.75),
            (0.1, "cav", "controlled", 1.0, 69.999379, 16.5,
             "cbf", 13.4112, 13.4112, 18.0, -3.0),
        ]
        path = self.assert_same_bytes(log, tmp_path)
        assert read_run_log(path).rows == log.rows

    def test_ids_needing_quotes(self, tmp_path):
        log = RunLog(dt=0.05, seed=0)
        log.rows = [
            (0.0, 'truck,"big"', "human", 1.0, 70.0, 2.0, None, None, None, None, 0.5),
            (0.0, 'say "hi"', "human", 1.5, 70.0, 2.0, None, None, None, None, 0.5),
            (0.0, "plain", "controlled", 3.0, 70.0, 2.0, "normal", 2.0, None, 0.0, 0.25),
            (0.05, 'truck,"big"', "human", 1.1, 70.0, 2.0, None, None, None, None, 0.5),
        ]
        path = self.assert_same_bytes(log, tmp_path)
        assert read_run_log(path).rows == log.rows


def multilane_noisy_scenario():
    """Canonical seed 0 for 120 s with the humans spread over lanes -2..2,
    three more controlled vehicles in lanes -1, 1 and 2, and radar noise, so
    the adjacent-lane filter and the order of the noise draws show in the log."""
    base = canonical_scenario(seed=0, duration_s=120.0)
    humans = [v for v in base.vehicles if v.kind is VehicleKind.HUMAN]
    (cav,) = [v for v in base.vehicles if v.kind is VehicleKind.CONTROLLED]
    spread = [dataclasses.replace(v, lane=i % 5 - 2) for i, v in enumerate(humans)]
    extra = [
        dataclasses.replace(cav, vehicle_id=f"cav_{lane:+d}", lane=lane, x0=cav.x0 + dx)
        for lane, dx in ((-1, 60.0), (1, 30.0), (2, 90.0))
    ]
    return dataclasses.replace(
        base,
        vehicles=spread + [cav] + extra,
        radar=RadarConfig(noise_sigma=0.3),
    )


# sha256 of run_log.csv, each recorded on the source before the change it
# guards: the first two before the streamed writer replaced csv.writer, the
# multi-lane one before the radar lookup moved to per-lane bisect. The
# simulation sums float windows with the builtin sum, whose rounding Python
# 3.12 changed, so these hold on 3.10 and 3.11.
GOLDEN_SHA256 = {
    "canonical_seed0_30s": "e9fe906e5e60714e3f4f82369368f5888fb67e86eb8a65fde83b71230cb61bd2",
    "string_n6": "e8886a9e375f329c37820e1f371e7a907c5872380cb80b9e4284a629075540ff",
    "multilane_noisy_seed0_120s": (
        "17db70628e488f385d9b392d785f0fe0c0df02cf59be0f842c672d8b8a3d16f3"
    ),
}


GOLDEN_SCENARIOS = {
    "canonical_seed0_30s": lambda: canonical_scenario(seed=0, duration_s=30.0),
    "string_n6": lambda: string_scenario(n_controlled=6),
    "multilane_noisy_seed0_120s": multilane_noisy_scenario,
}


class TestRunLogGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_run_log_bytes(self, tmp_path, name):
        path = tmp_path / "run_log.csv"
        write_run_log(run(GOLDEN_SCENARIOS[name]()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@st.composite
def multilane_worlds(draw):
    """Vehicles in lanes -2..2, some placed exactly at another vehicle's
    position (x_lo) or at that position plus the radar range (x_hi).

    The vehicles that are not controlled are probes holding their speed:
    the radar filter ignores the kind, and IDM humans at arbitrary gaps
    would test car following instead."""
    max_range = draw(st.sampled_from([50.0, 120.0]))
    anchors = draw(st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=4))
    position = st.one_of(
        st.sampled_from(anchors),
        st.sampled_from([a + max_range for a in anchors]),
        st.floats(-600.0, 700.0),
    )
    slots = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), position),
            min_size=1,
            max_size=14,
            unique=True,
        )
    )
    controlled = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    controlled[0] = True
    vehicles = [
        VehicleInit(
            f"v{i:02d}",
            VehicleKind.CONTROLLED if is_cav else VehicleKind.PROBE,
            x,
            draw(st.sampled_from([0.0, 10.0, 25.0])),
            lane=lane,
        )
        for i, ((lane, x), is_cav) in enumerate(zip(slots, controlled))
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
        radar=RadarConfig(max_range=max_range),
        vehicles=vehicles,
        phantoms=phantoms,
    )


class TestRadarCandidatesMatchScan:
    """Per-lane bisect against the scan over every vehicle, on every
    controlled vehicle's tick."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=multilane_worlds(), steps=st.integers(1, 4))
    def test_same_candidates_every_tick(self, cfg, steps):
        world = World(cfg)
        bisected = world._radar_candidates
        checked = []

        def compare(veh):
            got = bisected(veh)
            assert isinstance(got, list)
            assert sorted(got) == sorted(radar_candidates_scan(world, veh))
            checked.append(veh.vehicle_id)
            return got

        world._radar_candidates = compare
        for _ in range(steps):
            world.step()
        assert checked


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_log(run(canonical_scenario(seed=7, duration_s=30.0)), a)
        write_run_log(run(canonical_scenario(seed=7, duration_s=30.0)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_log(run(canonical_scenario(seed=0, duration_s=30.0)), a)
        write_run_log(run(canonical_scenario(seed=1, duration_s=30.0)), b)
        assert a.read_bytes() != b.read_bytes()


class TestRunPurity:
    def test_same_config_twice_same_log_and_config_unchanged(self):
        cfg = canonical_scenario(duration_s=200.0)
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
        log = RunLog(dt=cfg.dt, seed=cfg.seed)
        for _ in range(100):
            world.step(log)
        v_gr = [row[8] for row in log.rows if row[8] is not None]
        assert v_gr and set(v_gr) == {mph_to_mps(45)}


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
        rep = build_report(run(canonical_scenario(duration_s=60.0)))
        assert sum(rep.mode_occupancy.values()) == pytest.approx(1.0, abs=1e-9)
        assert rep.collision is False

    def test_no_controlled_vehicle_gives_empty_report(self):
        cfg = ScenarioConfig(duration_s=2.0, vehicles=[human("a", 0.0, 10.0)])
        rep = build_report(run(cfg))
        assert rep.mode_occupancy == {}
        assert rep.engaged_time_s == 0.0
        assert rep.min_h_m is None
