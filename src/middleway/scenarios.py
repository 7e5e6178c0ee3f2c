"""Prebuilt scenarios: the canonical wave corridor and the string study.

The canonical scenario drops a congested human platoon onto the westbound
corridor, throttles it through a temporary downstream bottleneck so
stop-and-go waves form, lets the surrogate posting policy react, and
embeds one controlled vehicle behind the platoon with oscillating
adjacent-lane phantom streams feeding its radar. Initial platoon speeds
and gaps are jittered from the scenario seed so distinct seeds produce
distinct runs.

The string study places n controlled vehicles in one lane behind a small
constant-speed pace platoon over a statically posted corridor, spaced so
each vehicle's radar sees only its immediate leader. Each vehicle then
tracks its leader minus the offset, which is the cascade the steady-state
readout samples.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .controller import ControllerConfig
from .infrastructure import FeedConfig
from .perception import RadarConfig
from .simulation import (
    Bottleneck,
    IdmParams,
    PhantomStreamSpec,
    RunLog,
    ScenarioConfig,
    VehicleInit,
    VehicleKind,
)
from .units import mph_to_mps


def _triangle_profile(
    duration_s: float, period_s: float, lo: float, hi: float, phase_s: float = 0.0
) -> tuple[tuple[float, float], ...]:
    """Repeating high-low-high speed table, piecewise linear."""
    points: list[tuple[float, float]] = []
    t = -phase_s
    while t < duration_s + period_s:
        points.append((t, hi))
        points.append((t + 0.35 * period_s, lo))
        points.append((t + 0.50 * period_s, lo))
        points.append((t + 0.85 * period_s, hi))
        t += period_s
    return tuple((round(t, 3), v) for t, v in points if t >= 0.0) or ((0.0, hi),)


def canonical_scenario(
    seed: int = 0,
    duration_s: float = 560.0,
    n_humans: int = 25,
    platoon_x0: float = 800.0,
    mean_gap_m: float = 30.0,
    mean_speed_mps: float = 16.0,
    human_free_speed_mps: float = 36.0,
    controlled_gap_m: float = 1200.0,
    driver_setpoint_mps: float = 33.5,
    v_offset: float = 2.0,
    phantom_lo_mps: float = 5.0,
    phantom_hi_mps: float = 22.0,
    phantom_period_s: float = 90.0,
    phantom_mirror_bias_mps: float = 2.0,
    bottleneck_cap_mps: float = 2.5,
) -> ScenarioConfig:
    if phantom_period_s <= 0:
        raise ValueError("phantom_period_s: must be positive")
    rng = random.Random(seed)
    vehicles: list[VehicleInit] = []
    x = platoon_x0
    for i in range(n_humans):
        v0 = mean_speed_mps * rng.uniform(0.95, 1.05)
        vehicles.append(VehicleInit(f"h{i:03d}", VehicleKind.HUMAN, x, v0))
        x += mean_gap_m * rng.uniform(0.85, 1.15)
    vehicles.append(
        VehicleInit(
            "cav",
            VehicleKind.CONTROLLED,
            platoon_x0 - controlled_gap_m,
            mean_speed_mps,
            driver_setpoint=driver_setpoint_mps,
        )
    )
    phantoms = [
        PhantomStreamSpec(
            lane=1,
            spacing_m=45.0,
            speed_profile=_triangle_profile(
                duration_s, phantom_period_s, phantom_lo_mps, phantom_hi_mps
            ),
            phase_m=10.0,
        ),
        PhantomStreamSpec(
            lane=-1,
            spacing_m=45.0,
            mirror_bias_mps=phantom_mirror_bias_mps,
            phase_m=-12.0,
            initial_speed=mean_speed_mps + phantom_mirror_bias_mps,
        ),
    ]
    return ScenarioConfig(
        duration_s=duration_s,
        seed=seed,
        controller=ControllerConfig(v_offset=v_offset),
        feed=FeedConfig(latency_s=0.5),
        human=IdmParams(v0=human_free_speed_mps),
        vehicles=vehicles,
        bottlenecks=[
            Bottleneck(
                x_start=2200.0,
                x_end=2800.0,
                t_start=20.0,
                t_end=230.0,
                speed_cap=bottleneck_cap_mps,
            )
        ],
        phantoms=phantoms,
    )


def string_scenario(
    n_controlled: int = 12,
    traffic_speed_mps: float = 30.0,
    posted_mph: int = 30,
    v_offset: float = 2.0,
    gap0_m: float = 200.0,
    duration_s: Optional[float] = None,
    seed: int = 0,
) -> ScenarioConfig:
    """Pace platoon at traffic_speed ahead of n controlled vehicles.

    The radar reaches 350 m. check_string_spacing tests the final config
    (after any radar override) for the spacing that keeps the
    prevailing-speed estimate of each vehicle pinned to its leader and the
    cascade decrement equal to the offset. The default measurement window
    (see measurement_window) sits after the cascade settles and before the
    leading links outrun radar range.
    """
    if n_controlled < 1:
        raise ValueError("n_controlled: must be at least 1")
    v_gr = mph_to_mps(posted_mph)
    v_init = max(traffic_speed_mps - v_offset, v_gr)
    if duration_s is None:
        duration_s = measurement_window(n_controlled)[1] + 5.0

    vehicles: list[VehicleInit] = []
    x = 0.0
    for k in range(n_controlled, 0, -1):
        vehicles.append(
            VehicleInit(
                f"cav{k:02d}",
                VehicleKind.CONTROLLED,
                x,
                v_init,
                driver_setpoint=v_init,
            )
        )
        x += gap0_m
    for j in range(3):
        vehicles.append(
            VehicleInit(f"pace{j}", VehicleKind.PROBE, x + 60.0 * j, traffic_speed_mps)
        )
    return ScenarioConfig(
        duration_s=duration_s,
        seed=seed,
        controller=ControllerConfig(v_offset=v_offset),
        radar=RadarConfig(max_range=350.0),
        vehicles=vehicles,
        vsl_static_mph=posted_mph,
    )


def check_string_spacing(cfg: ScenarioConfig) -> None:
    """Raise ValueError unless a string_scenario roster, rearmost vehicle
    first, spaces its vehicles more than half the radar range apart, so
    each radar sees only its immediate leader."""
    gap0_m = cfg.vehicles[1].x0 - cfg.vehicles[0].x0
    if gap0_m <= cfg.radar.max_range / 2.0:
        raise ValueError("scenario.gap0_m: must exceed half of radar.max_range")


def measurement_window(n_controlled: int) -> tuple[float, float]:
    """Steady-state sampling window for the string cascade."""
    t_lo = 8.0 + 4.0 * n_controlled
    return t_lo, t_lo + 12.0


def v_des_traces(log: RunLog, n_controlled: int) -> dict[str, np.ndarray]:
    """Per-vehicle logged v_des series, keyed cav01..cavNN.

    Keys are ordered downstream to upstream (cav01 leads); a row without a
    v_des (none that run writes) becomes NaN.
    """
    traces: dict[str, list[float]] = {
        f"cav{k:02d}": [] for k in range(1, n_controlled + 1)
    }
    controlled = VehicleKind.CONTROLLED.value
    for row in log.rows:
        vid, kind, v_des = row[1], row[2], row[7]
        if kind == controlled and vid in traces:
            traces[vid].append(v_des if v_des is not None else float("nan"))
    return {vid: np.asarray(vals) for vid, vals in traces.items()}


def steady_v_des(
    traces: dict[str, np.ndarray],
    dt: float,
    window: tuple[float, float],
) -> dict[str, float]:
    """Mean of each trace over the rows at i·dt in [lo, hi). A time within
    float noise of an edge counts as on it (12 / 0.15 is 79.99999999999999)."""
    lo, hi = window
    i_lo = math.ceil(lo / dt - 1e-9)
    i_hi = math.ceil(hi / dt - 1e-9)
    return {vid: float(np.mean(trace[i_lo:i_hi])) for vid, trace in traces.items()}


class OffsetReplay(NamedTuple):
    t: np.ndarray
    vehicle_id: tuple[str, ...]
    v_pr: np.ndarray
    v_gr: np.ndarray
    v_des: dict[float, np.ndarray]


def offset_replay(log: RunLog, offsets: Sequence[float]) -> OffsetReplay:
    """Recompute uncapped setpoints from recorded advisory/prevailing pairs.

    Open-loop projection: each controlled-vehicle row that recorded both a
    prevailing-speed estimate and a posted advisory is re-evaluated under
    every offset, with no feedback into the trajectory and no desired-speed
    cap, so differences between traces are due to the offset alone. A
    non-finite t, v_pr or v_gr in a replayed row raises ValueError.
    """
    if not offsets:
        raise ValueError("offsets: must be non-empty")
    controlled = VehicleKind.CONTROLLED.value
    picked = [
        (row[0], row[1], row[9], row[8])
        for row in log.rows
        if row[2] == controlled and row[8] is not None and row[9] is not None
    ]
    ts, vids, v_prs, v_grs = zip(*picked) if picked else ((), (), (), ())
    t_arr = np.asarray(ts, dtype=float)
    v_pr_arr = np.asarray(v_prs, dtype=float)
    v_gr_arr = np.asarray(v_grs, dtype=float)
    if not np.isfinite((t_arr, v_pr_arr, v_gr_arr)).all():
        raise ValueError("run log: non-finite t, v_pr or v_gr in a replayed row")
    traces = {
        float(k): np.maximum(v_pr_arr - float(k), v_gr_arr) for k in offsets
    }
    return OffsetReplay(
        t=t_arr,
        vehicle_id=vids,
        v_pr=v_pr_arr,
        v_gr=v_gr_arr,
        v_des=traces,
    )
