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
from array import array
from itertools import compress, cycle
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .controller import ControlInputs, ControllerConfig, select_setpoint
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

if TYPE_CHECKING:
    import numpy as np


# The most humans or controlled vehicles a generator places.
MAX_ROSTER = 10_000


def canonical_scenario(seed: int = 0, n_humans: int = 25) -> ScenarioConfig:
    if not 0 <= n_humans <= MAX_ROSTER:
        raise ValueError(f"n_humans: must be in [0, {MAX_ROSTER}]")
    rng = random.Random(seed)
    vehicles: list[VehicleInit] = []
    x = 800.0
    for i in range(n_humans):
        v0 = 16.0 * rng.uniform(0.95, 1.05)
        vehicles.append(VehicleInit(f"h{i:03d}", VehicleKind.HUMAN, x, v0))
        x += 30.0 * rng.uniform(0.85, 1.15)
    # The controlled vehicle starts 1200 m behind the platoon's rear.
    vehicles.append(
        VehicleInit("cav", VehicleKind.CONTROLLED, -400.0, 16.0, driver_setpoint=33.5)
    )
    phantoms = [
        PhantomStreamSpec(lane=1, spacing_m=45.0, wave=(90.0, 5.0, 22.0), phase_m=10.0),
        PhantomStreamSpec(
            lane=-1,
            spacing_m=45.0,
            mirror_bias_mps=2.0,
            phase_m=-12.0,
            initial_speed=18.0,
        ),
    ]
    return ScenarioConfig(
        duration_s=560.0,
        seed=seed,
        feed=FeedConfig(latency_s=0.5),
        human=IdmParams(v0=36.0),
        vehicles=vehicles,
        bottlenecks=[
            Bottleneck(
                x_start=2200.0,
                x_end=2800.0,
                t_start=20.0,
                t_end=230.0,
                speed_cap=2.5,
            )
        ],
        phantoms=phantoms,
    )


def string_scenario(
    n_controlled: int = 12,
    traffic_speed_mps: float = 30.0,
    posted_mph: int = 30,
    v_offset: float = 2.0,
) -> ScenarioConfig:
    """Pace platoon at traffic_speed ahead of n controlled vehicles.

    The vehicles sit 200 m apart, more than half the 350 m radar range,
    so each radar sees only its immediate leader and the cascade decrement
    equals the offset. The run lasts until 5 s after
    measurement_window closes; check_string tests whether a config,
    after any override, reads each vehicle's own cascade step there.
    """
    if not 1 <= n_controlled <= MAX_ROSTER:
        raise ValueError(f"n_controlled: must be in [1, {MAX_ROSTER}]")
    v_gr = mph_to_mps(posted_mph)
    v_init = max(traffic_speed_mps - v_offset, v_gr)

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
        x += 200.0
    for j in range(3):
        vehicles.append(
            VehicleInit(f"pace{j}", VehicleKind.PROBE, x + 60.0 * j, traffic_speed_mps)
        )
    return ScenarioConfig(
        duration_s=measurement_window(n_controlled)[1] + 5.0,
        controller=ControllerConfig(v_offset=v_offset),
        radar=RadarConfig(max_range=350.0),
        vehicles=vehicles,
        vsl_static_mph=posted_mph,
    )


def check_string(cfg: ScenarioConfig) -> None:
    """Raise ValueError unless the steady-state readout of a string_scenario
    config, rearmost vehicle first, reads each vehicle's own cascade step;
    the commands that read it out check that the run logs the window's rows.

    Two conditions:
    - the vehicles sit more than half the radar range apart, so each radar
      sees only its immediate leader;
    - the pace0 -> cav01 link stays within radar range until the run ends
      or measurement_window closes, whichever is first. The link opens at
      the pace speed less cav01's setpoint against it; without a static
      posting, the lowest posting bounds that setpoint.

    The second test is conservative by the estimator window: at n = 14 and
    a 2 m/s offset the link leaves range at 75 s, 1 s before the window
    closes, but the 5 s estimator window still holds the leader's speed,
    so that readout is correct.
    """
    n = sum(v.kind is VehicleKind.CONTROLLED for v in cfg.vehicles)
    cav01, pace0 = cfg.vehicles[n - 1], cfg.vehicles[n]
    spacing = pace0.x0 - cav01.x0
    max_range = cfg.radar.max_range
    if spacing <= max_range / 2.0:
        raise ValueError(
            f"radar.max_range: must be under twice the {spacing:g} m string spacing"
        )
    posted = cfg.vsl.min_mph if cfg.vsl_static_mph is None else cfg.vsl_static_mph
    inputs = ControlInputs(cav01.driver_setpoint, cav01.v0, mph_to_mps(posted), pace0.v0)
    v_des = select_setpoint(inputs, cfg.controller)
    horizon = min(cfg.duration_s, measurement_window(n)[1])
    if max(spacing, spacing + (pace0.v0 - v_des) * horizon) > max_range:
        raise ValueError(
            f"scenario: pace0 leaves cav01's {max_range:g} m radar.max_range "
            f"before {horizon:g} s; lower n_controlled or the offset"
        )


def measurement_window(n_controlled: int) -> tuple[float, float]:
    """Steady-state sampling window for the string cascade."""
    t_lo = 8.0 + 4.0 * n_controlled
    return t_lo, t_lo + 12.0


def v_des_traces(log: RunLog, n_controlled: int) -> dict[str, array]:
    """Per-vehicle logged v_des series, array('d') slices of log.v_des, keyed cav01..cavNN.

    Keys are ordered downstream to upstream (cav01 leads); a row without a
    v_des (none that run writes) is NaN, as the log holds it, and a key
    that is no controlled vehicle of the log has an empty series.
    """
    nc = len(log.controlled)
    column = {log.vehicle_ids[j]: log.v_des[k::nc] for k, j in enumerate(log.controlled)}
    return {vid: column.get(vid, array("d"))
            for vid in (f"cav{k:02d}" for k in range(1, n_controlled + 1))}


def window_rows(dt: float, window: tuple[float, float]) -> tuple[int, ...]:
    """The indexes [lo, hi) of the rows at i·dt in window; a time within float
    noise of an edge counts as on it (12 / 0.15 is 79.99999999999999)."""
    return tuple(math.ceil(edge / dt - 1e-9) for edge in window)


def steady_v_des(
    traces: dict[str, Sequence[float]],
    dt: float,
    window: tuple[float, float],
) -> dict[str, float]:
    """Mean of each trace over its window_rows, NaN when it has none there
    (a run that halted before the window). fsum rounds once, so the mean
    is the same on every Python; sum is compensated only from 3.12."""
    i_lo, i_hi = window_rows(dt, window)
    steady = {}
    for vid, trace in traces.items():
        rows = trace[i_lo:i_hi]
        steady[vid] = math.fsum(rows) / len(rows) if len(rows) else math.nan
    return steady


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
    # Imported here so that only the replay, not every run, loads numpy.
    import numpy as np

    if not offsets:
        raise ValueError("offsets: must be non-empty")
    ids = [log.vehicle_ids[j] for j in log.controlled]
    # The log's NaN is an empty cell: a row replays when it holds both.
    v_pr_arr, v_gr_arr = (np.array(col, dtype=float) for col in (log.v_pr, log.v_gr))
    picked = ~(np.isnan(v_pr_arr) | np.isnan(v_gr_arr))
    t_arr = np.repeat(np.array(log.t, dtype=float), len(ids))[picked]
    v_pr_arr, v_gr_arr = v_pr_arr[picked], v_gr_arr[picked]
    vids = tuple(compress(cycle(ids), picked.tolist()))
    if not np.isfinite((t_arr, v_pr_arr, v_gr_arr)).all():
        raise ValueError("run log: non-finite t, v_pr or v_gr in a replayed row")
    traces = {float(k): np.maximum(v_pr_arr - float(k), v_gr_arr) for k in offsets}
    return OffsetReplay(t_arr, vids, v_pr_arr, v_gr_arr, traces)
