"""End-to-end acceptance suite.

One test per acceptance property; each prints a single
"ACCEPTANCE <n> <name>: PASS" line with its elapsed time and asserts the
stated tolerance and runtime budget.
"""

import dataclasses
import random
import time
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from middleway.controller import ControllerConfig, middleway, step_controller
from middleway.perception import EstimatorConfig, PrevailingSpeedEstimator, RadarFrame
from middleway.rds import RdsGrid, TrajectoryPoint, error_stats, latency_study
from middleway.scenarios import (
    canonical_scenario,
    measurement_window,
    offset_replay,
    steady_v_des,
    string_scenario,
    v_des_traces,
)
from middleway.simulation import build_report, read_run_log, run, write_run_log
from middleway.units import M_PER_MILE, mph_to_mps


def _passed(n: int, name: str, elapsed: float, limit: float) -> None:
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.2f} s < {limit:.0f} s)")
    assert elapsed < limit


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    t0 = time.monotonic()
    cfg = canonical_scenario()
    log = run(cfg)
    path = tmp_path_factory.mktemp("acceptance") / "run_log_seed0.csv"
    write_run_log(log, path)
    return SimpleNamespace(
        cfg=cfg,
        log=log,
        report=build_report(log),
        path=path,
        elapsed=time.monotonic() - t0,
    )


# (v_pr, v_offset, v_gr, v_des_max, expected) covering every strict
# ordering of v_pr - v_offset, v_gr, and the cap, plus every tie, an
# unbounded cap, a zero offset, and the zero-prevailing sentinel.
SETPOINT_CASES = [
    (30.0, 2.0, 13.4112, 33.5, 28.0),
    (11.0, 2.0, 13.4112, 33.5, 13.4112),
    (42.0, 2.0, 13.4112, 33.5, 33.5),
    (15.4112, 2.0, 13.4112, 33.5, 13.4112),
    (35.5, 2.0, 13.4112, 33.5, 33.5),
    (27.0, 2.0, 20.0, 20.0, 20.0),
    (17.0, 2.0, 20.0, 20.0, 20.0),
    (27.0, 2.0, 20.0, 15.0, 15.0),
    (12.0, 2.0, 20.0, 15.0, 15.0),
    (22.0, 2.0, 20.0, 20.0, 20.0),
    (2.0, 2.0, 5.0, 30.0, 5.0),
    (1.0, 4.0, 2.0, 30.0, 2.0),
    (50.0, 6.0, 31.2928, None, 44.0),
    (20.0, 6.0, 22.352, None, 22.352),
    (25.0, 0.0, 20.0, 30.0, 25.0),
    (29.0576, 2.0, 26.8224, 33.5, 27.0576),
    (15.4111, 2.0, 13.4112, 33.5, 13.4112),
    (15.4113, 2.0, 13.4112, 33.5, 13.4113),
    (25.0, 2.0, 31.2928, 20.0, 20.0),
    (12.0, 2.0, 31.2928, 29.0576, 29.0576),
]


def test_01_setpoint_blend_cases():
    t0 = time.monotonic()
    assert len(SETPOINT_CASES) == 20
    for v_pr, v_offset, v_gr, cap, expected in SETPOINT_CASES:
        cfg = ControllerConfig(v_offset=v_offset, v_des_max=cap)
        got = middleway(v_pr, v_gr, cfg)
        assert abs(got - expected) <= 1e-12, (v_pr, v_offset, v_gr, cap, got)
    _passed(1, "setpoint blend", time.monotonic() - t0, 1.0)


def test_02_safety_filter_invariance():
    t0 = time.monotonic()
    cfg = ControllerConfig()
    assert (cfg.k_cbf, cfg.t_min, cfg.s_min) == (0.1, 2.0, 15.0)
    rng = np.random.default_rng(2)
    n, dt, steps = 1000, 0.05, 6000

    v = rng.uniform(0.0, 33.5, n)
    v_l = rng.uniform(0.0, 33.5, n)
    gap = cfg.t_min * v + cfg.s_min + rng.uniform(0.0, 60.0, n)
    # Feasible starts only: the filter cannot honor a state that already
    # demands braking beyond the actuator floor.
    for _ in range(100):
        h = gap - (cfg.t_min * v + cfg.s_min)
        bad = (cfg.k_cbf / cfg.t_min) * h + (v_l - v) / cfg.t_min < cfg.u_min
        if not bad.any():
            break
        m = int(bad.sum())
        v[bad] = rng.uniform(0.0, 33.5, m)
        v_l[bad] = rng.uniform(0.0, 33.5, m)
        gap[bad] = cfg.t_min * v[bad] + cfg.s_min + rng.uniform(0.0, 60.0, m)
    else:
        pytest.fail("feasible-start sampling did not converge")

    lead_accel = np.empty((n, steps))
    for i in range(n):
        k = 0
        while k < steps:
            seg = max(1, int(rng.uniform(1.0, 10.0) / dt))
            lead_accel[i, k : k + seg] = rng.uniform(-3.0, 2.0)
            k += seg

    min_h = np.full(n, np.inf)
    min_gap = np.full(n, np.inf)
    for k in range(steps):
        h = gap - (cfg.t_min * v + cfg.s_min)
        min_h = np.minimum(min_h, h)
        min_gap = np.minimum(min_gap, gap)
        u_safe = (cfg.k_cbf / cfg.t_min) * h + (v_l - v) / cfg.t_min
        u = np.clip(np.minimum(cfg.u_max, u_safe), cfg.u_min, cfg.u_max)
        gap = gap + (v_l - v) * dt
        v_l = np.maximum(0.0, v_l + lead_accel[:, k] * dt)
        v = np.maximum(0.0, v + u * dt)
    min_h = np.minimum(min_h, gap - (cfg.t_min * v + cfg.s_min))
    min_gap = np.minimum(min_gap, gap)

    assert min_h.min() >= -0.1, f"barrier violated: min h {min_h.min():.6f}"
    assert min_gap.min() > 0.0, f"gap collapsed: {min_gap.min():.6f}"

    # The rollout's inline law must be the controller's law.
    py_rng = random.Random(22)
    for _ in range(500):
        vv = py_rng.uniform(0.0, 35.0)
        target = py_rng.uniform(0.0, 35.0)
        g = py_rng.uniform(0.1, 120.0)
        vl = py_rng.uniform(0.0, 35.0)
        out = step_controller(target, vv, None, 0.0, (g, vl), target, cfg, dt)
        h = g - (cfg.t_min * vv + cfg.s_min)
        u_safe = (cfg.k_cbf / cfg.t_min) * h + (vl - vv) / cfg.t_min
        assert (out.h, out.u_safe, out.u_nom) == (h, u_safe, cfg.k_p * (target - vv))
        expected = min(max(min(out.u_nom, out.u_safe), cfg.u_min), cfg.u_max)
        assert out.u == expected
    _passed(2, "safety filter invariance", time.monotonic() - t0, 30.0)


def test_03_canonical_mode_mix(canonical):
    t0 = time.monotonic()
    occupancy = canonical.report.mode_occupancy
    for mode in ("cbf", "vsl", "middleway"):
        assert occupancy.get(mode, 0.0) > 0.05, (mode, occupancy)
    assert max(occupancy, key=occupancy.get) == "cbf", occupancy
    # The barrier margin and the advisory contract hold across seeds, not
    # only on seed 0.
    _assert_advisory_contract(canonical.log, 0)
    reports = [canonical.report]
    for seed in (1, 2):
        log = run(canonical_scenario(seed=seed))
        _assert_advisory_contract(log, seed)
        reports.append(build_report(log))
    for seed, report in enumerate(reports):
        _assert_barrier_margin(report, seed, canonical.cfg.dt)
    _passed(
        3,
        "canonical mode mix",
        canonical.elapsed + time.monotonic() - t0,
        120.0,
    )


def _assert_advisory_contract(log, seed):
    # Normal follows the driver because no fresh advisory came; vsl and
    # middleway follow one, which the log records as v_gr.
    v_gr_by_mode = {"normal": set(), "vsl": set(), "middleway": set()}
    for row in log.rows:
        if row[2] == "controlled" and row[6] in v_gr_by_mode:
            v_gr_by_mode[row[6]].add(row[8] is None)
    assert v_gr_by_mode == {
        "normal": {True}, "vsl": {False}, "middleway": {False}
    }, (seed, v_gr_by_mode)


def _assert_barrier_margin(report, seed, dt):
    # The filter acts once per step, so h may dip below zero by a fraction
    # of a step: about -0.48 dt m on seeds 0-2 at every dt measured.
    assert not report.collision, (seed, dt)
    assert report.min_h_m is not None, (seed, dt)
    assert report.min_h_m >= -0.5 * dt, (seed, dt, report.min_h_m)


@pytest.mark.parametrize("seed, dt", [(0, 0.1), (1, 0.1), (2, 0.025), (1, 0.0125)])
def test_03_barrier_margin_across_dt(seed, dt):
    # The full canonical run: at dt 0.05 the minimum falls at t = 288 s.
    t0 = time.monotonic()
    cfg = dataclasses.replace(canonical_scenario(seed=seed), dt=dt)
    _assert_barrier_margin(build_report(run(cfg)), seed, dt)
    _passed(3, f"barrier margin seed {seed} dt {dt}", time.monotonic() - t0, 120.0)


def test_04_offset_dominance(canonical):
    t0 = time.monotonic()
    replay = offset_replay(canonical.log, [2.0, 4.0, 6.0])
    v2, v4, v6 = replay.v_des[2.0], replay.v_des[4.0], replay.v_des[6.0]
    assert len(v2) > 1000
    assert np.all(v2 >= v4) and np.all(v4 >= v6)
    floor_binds = replay.v_pr - 2.0 <= replay.v_gr
    all_equal = (v2 == v4) & (v4 == v6)
    assert np.array_equal(all_equal, floor_binds)
    assert floor_binds.any() and (~floor_binds).any()
    _passed(4, "offset dominance", time.monotonic() - t0, 5.0)


def test_05_string_cascade_convergence():
    t0 = time.monotonic()
    n = 12
    cfg = string_scenario(n_controlled=n, traffic_speed_mps=30.0,
                          posted_mph=30, v_offset=2.0)
    v_gr = mph_to_mps(30)
    traces = v_des_traces(run(cfg), n)
    steady = steady_v_des(traces, cfg.dt, measurement_window(n))
    values = [steady[f"cav{k:02d}"] for k in range(1, n + 1)]
    for upstream, downstream in zip(values[1:], values):
        assert upstream <= downstream + 1e-9, values
    assert all(value >= v_gr - 1e-6 for value in values), values
    assert abs(values[-1] - v_gr) <= 0.5, values[-1]
    _passed(5, "string cascade convergence", time.monotonic() - t0, 60.0)


def test_06_latency_error_growth(canonical):
    t0 = time.monotonic()
    latencies = [0.0, 30.0, 60.0, 120.0]

    # The 560 s canonical log, read back: its traffic gridded into 30 s
    # sensor reports, scored from the controlled vehicle.
    grid, trajectory = latency_study(read_run_log(canonical.path))
    stats = error_stats(trajectory, grid, latencies)
    stds = [stats[lat].std_mps for lat in latencies]
    assert all(stats[lat].n >= 150 for lat in latencies)
    for slower, faster in zip(stds[1:], stds):
        assert slower > faster, stds
    assert stds[2] >= 2.0 * stds[0], stds

    # The control: a constant grid, and a probe driving west from mile
    # marker 69.4 at that speed, is scored with no error at any latency.
    calm_grid = RdsGrid(grid.spec, np.full_like(grid.speeds, 20.0))
    calm_traj = [TrajectoryPoint(t, 69.4 - 20.0 * t / M_PER_MILE, 20.0)
                 for t in np.arange(0.0, 541.0, 5.0).tolist()]
    calm_stats = error_stats(calm_traj, calm_grid, latencies)
    for lat in latencies:
        assert calm_stats[lat].n >= 50
        assert abs(calm_stats[lat].mean_mps) <= 1e-12
        assert calm_stats[lat].std_mps <= 1e-12
    _passed(6, "latency error growth", time.monotonic() - t0, 30.0)


def test_07_run_determinism(canonical, tmp_path):
    t0 = time.monotonic()
    repeat = tmp_path / "repeat.csv"
    write_run_log(run(canonical_scenario(seed=0)), repeat)
    assert repeat.read_bytes() == canonical.path.read_bytes()

    other = tmp_path / "other_seed.csv"
    write_run_log(run(canonical_scenario(seed=1)), other)
    assert other.read_bytes() != canonical.path.read_bytes()
    _passed(
        7,
        "run determinism",
        canonical.elapsed + time.monotonic() - t0,
        240.0,
    )


def test_08_estimator_contract_fuzz():
    t0 = time.monotonic()
    cfg = EstimatorConfig()
    assert (cfg.window_s, cfg.min_count) == (5.0, 5)
    estimator = PrevailingSpeedEstimator(cfg=cfg)
    shadow: deque = deque()
    rng = random.Random(8)
    t = 0.0
    violations = 0
    for _ in range(10_000):
        t += rng.uniform(0.05, 1.0)
        v_ego = rng.uniform(0.0, 35.0)
        targets = tuple(
            (rng.uniform(5.0, 120.0), rng.uniform(-10.0, 10.0), rng.choice((-1, 0, 1)))
            for _ in range(rng.randint(0, 8))
        )
        got = estimator.update_prevailing(RadarFrame(t, targets), v_ego)

        for _, rel_speed, _ in targets:
            if rel_speed > 0.0:
                shadow.append((t, v_ego + rel_speed))
        while shadow and shadow[0][0] <= t - cfg.window_s:
            shadow.popleft()
        if len(shadow) < cfg.min_count:
            expected = 0.0
        else:
            expected = sum(s for _, s in shadow) / len(shadow)
        if abs(got - expected) > 1e-9:
            violations += 1
    assert violations == 0
    assert all(t - ts < cfg.window_s for ts, _ in shadow)
    _passed(8, "estimator contract fuzz", time.monotonic() - t0, 10.0)
