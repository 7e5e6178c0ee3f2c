"""Single-corridor microsimulation around the controlled vehicle.

The world holds point vehicles on a straight westbound corridor. A
position is meters travelled from the corridor entry, so its mile marker
is entry_mm - position / M_PER_MILE. Human vehicles follow the
intelligent-driver model, probe vehicles hold their initial speed, and
controlled vehicles run the full perception / infrastructure / control
pipeline off synthesized radar frames and gantry advisories, engaged from
the first tick. The mainline is one lane with no passing, so its vehicles
keep their position order for the whole run. Adjacent lanes exist only as
phantom target streams that feed radar and never interact with the
mainline.

Integration is semi-implicit Euler at a fixed step: v += u * dt first,
then x += v * dt with the updated velocity, velocities floored at zero.
A non-positive bumper gap anywhere halts the run and is reported as a
collision. Identical configs and seeds reproduce identical logs byte for
byte; all randomness flows through one seeded generator.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, pairwise
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

from .controller import ControlInputs, ControllerConfig, step_controller
from .infrastructure import (
    GANTRY_IDS,
    GANTRY_MM,
    MM_HI,
    MM_LO,
    FeedClient,
    FeedConfig,
    GantryTracker,
    VslConfig,
    vsl_algorithm,
)
from .perception import (
    EstimatorConfig,
    PrevailingSpeedEstimator,
    RadarConfig,
    lead_vehicle,
    synthesize_radar,
)
from .units import M_PER_MILE, mph_to_mps

RUN_LOG_COLUMNS = (
    "t",
    "vehicle_id",
    "kind",
    "position_m",
    "mile_marker",
    "velocity_mps",
    "mode",
    "v_des",
    "v_gr",
    "v_pr",
    "u",
)

HUMAN_BRAKE_FLOOR = -8.0
# Every gantry's posting before the first policy update.
INITIAL_POSTED_MPH = 70
# The longest run a scenario may ask for: one simulated day.
MAX_DURATION_S = 86_400.0
# The shortest time step: 1 ms, so a day is at most 86.4 million steps.
MIN_DT_S = 0.001


class VehicleKind(str, Enum):
    HUMAN = "human"
    CONTROLLED = "controlled"
    PROBE = "probe"


@dataclass(frozen=True)
class IdmParams:
    v0: float = 33.5
    T: float = 1.2
    a: float = 1.3
    b: float = 2.0
    s0: float = 2.0
    delta: float = 4.0

    def __post_init__(self) -> None:
        for name in ("v0", "T", "a", "b", "s0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")
        if self.delta < 1.0:
            raise ValueError("delta: must be at least 1")

    @cached_property
    def two_sqrt_ab(self) -> float:
        """2·sqrt(a·b); a property, not a field, so config_echo omits it."""
        return 2.0 * math.sqrt(self.a * self.b)


def idm_accel(
    v: float, gap: Optional[float], v_lead: Optional[float], p: IdmParams
) -> float:
    """Car-following acceleration; free-road when gap is None."""
    try:
        free = p.a * (1.0 - (v / p.v0) ** p.delta)
        if gap is None:
            return free
        dyn = v * p.T + v * (v - v_lead) / p.two_sqrt_ab
        # As max(0.0, dyn), which also maps -0.0 and NaN to 0.0.
        s_star = p.s0 + (dyn if dyn > 0.0 else 0.0)
        return free - p.a * (s_star / gap) ** 2
    except OverflowError:
        # v far above v0 at a large delta, or a gap below about 1e-150 m:
        # brake as hard as the caller allows.
        return -math.inf


@dataclass
class VehicleState:
    vehicle_id: str
    kind: VehicleKind
    position: float
    velocity: float


@dataclass(frozen=True)
class VehicleInit:
    vehicle_id: str
    kind: VehicleKind
    x0: float
    v0: float
    driver_setpoint: float = 33.5


@dataclass(frozen=True)
class Bottleneck:
    """Zone where human vehicles brake (at most `decel`) toward a cap."""

    x_start: float
    x_end: float
    t_start: float
    t_end: float
    speed_cap: float
    decel: float = 2.0


@dataclass(frozen=True)
class PhantomStreamSpec:
    """Adjacent-lane target stream: evenly spaced, shared speed trace.

    wave is (period_s, lo, hi), the triangle_speed wave. With
    mirror_bias_mps set instead, the stream follows the mean mainline
    human speed plus the bias, re-evaluated every step. Until a step sets
    a speed, the stream has initial_speed.
    """

    lane: int
    spacing_m: float
    wave: Optional[tuple[float, float, float]] = None
    mirror_bias_mps: Optional[float] = None
    phase_m: float = 0.0
    initial_speed: float = 25.0


@functools.lru_cache(maxsize=16)
def _wave_offsets(period_s: float) -> tuple[float, ...]:
    """Where a period's wave reaches lo, leaves lo and regains hi, to 1 ms;
    cached, so they are computed once per period, not once per step."""
    return tuple(round(f * period_s, 3) for f in (0.35, 0.5, 0.85))


def triangle_speed(t: float, period_s: float, lo: float, hi: float) -> float:
    """Repeating speed at t >= 0, piecewise linear: hi at each period's
    start, lo from 0.35 to 0.5 of the period, hi again from 0.85. Within a
    period, s interpolates toward the first knot at or after it."""
    s = math.fmod(t, period_s)
    s0, v0 = 0.0, hi
    for s1, v1 in zip(_wave_offsets(period_s), (lo, lo, hi)):
        if s <= s1:
            return v0 if s <= s0 else v0 + (s - s0) / (s1 - s0) * (v1 - v0)
        s0, v0 = s1, v1
    return hi


@dataclass
class ScenarioConfig:
    duration_s: float = 600.0
    dt: float = 0.05
    seed: int = 0
    log_every: int = 1
    entry_mm: float = MM_HI
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    radar: RadarConfig = field(default_factory=RadarConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    vsl: VslConfig = field(default_factory=VslConfig)
    feed: FeedConfig = field(default_factory=FeedConfig)
    human: IdmParams = field(default_factory=IdmParams)
    vehicles: list[VehicleInit] = field(default_factory=list)
    bottlenecks: list[Bottleneck] = field(default_factory=list)
    phantoms: list[PhantomStreamSpec] = field(default_factory=list)
    vsl_static_mph: Optional[int] = None

    def validate(self) -> None:
        if not (MIN_DT_S <= self.dt <= 0.1):
            raise ValueError(f"dt: must be in [{MIN_DT_S:g}, 0.1] s")
        if not 0.0 <= self.duration_s <= MAX_DURATION_S:
            raise ValueError(f"duration_s: must be in [0, {MAX_DURATION_S:g}] s")
        if self.log_every < 1:
            raise ValueError("log_every: must be at least 1")
        if not self.vehicles:
            raise ValueError("vehicles: roster is empty")
        ids = [v.vehicle_id for v in self.vehicles]
        if len(set(ids)) != len(ids):
            raise ValueError("vehicles: vehicle ids must be unique")
        # The run log writes ids unquoted.
        if any(c in vid for vid in ids for c in ',"\r\n'):
            raise ValueError("vehicles: an id may not hold a comma, quote, CR or LF")
        # The world floors speeds at zero only from the first step on.
        if not all(math.isfinite(v.v0) and v.v0 >= 0.0 for v in self.vehicles):
            raise ValueError("vehicles: initial speeds must be finite and non-negative")
        xs = sorted(v.x0 for v in self.vehicles)
        if any(b - a <= 0.0 for a, b in pairwise(xs)):
            raise ValueError("vehicles: overlapping positions")
        if self.vsl_static_mph is not None:
            if not (self.vsl.min_mph <= self.vsl_static_mph <= self.vsl.max_mph):
                raise ValueError("vsl_static_mph: outside posting range")


@dataclass
class RunLog:
    rows: list[tuple] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    # The "collision" event, the same dict as the last of events.
    collision: Optional[dict] = None
    min_h: float = math.inf
    config_echo: dict = field(default_factory=dict)


@dataclass
class RunReport:
    seed: int
    duration_s: float
    engaged_time_s: float
    mode_occupancy: dict
    mode_transitions: dict
    min_h_m: Optional[float]
    collision: bool
    config_echo: dict


class _PhantomStream:
    def __init__(self, spec: PhantomStreamSpec):
        self.spec = spec
        self.origin = spec.phase_m
        self.speed = spec.initial_speed

    def update_speed(self, t: float, mainline_mean: Optional[float]) -> None:
        if self.spec.wave is not None:
            self.speed = triangle_speed(t, *self.spec.wave)
        elif self.spec.mirror_bias_mps is not None and mainline_mean is not None:
            self.speed = max(0.0, mainline_mean + self.spec.mirror_bias_mps)

    def advance(self, dt: float) -> None:
        self.origin += self.speed * dt

    def targets_between(self, x: float, x_hi: float) -> list[tuple]:
        """Radar candidates of a mainline ego at x: targets at x < position
        <= x_hi, to rounding, with the stream's lane as their lane offset."""
        spacing, lane = self.spec.spacing_m, self.spec.lane
        name = f"phantom_{lane:+d}_"
        k_lo = math.ceil((x - self.origin) / spacing)
        k_hi = math.floor((x_hi - self.origin) / spacing)
        return [(self.origin + k * spacing - x, f"{name}{k}", self.speed, lane)
                for k in range(k_lo, k_hi + 1)]


class _ControlledAgent:
    def __init__(self, init: VehicleInit, cfg: ScenarioConfig, rng: random.Random):
        self.driver_setpoint = init.driver_setpoint
        self.estimator = PrevailingSpeedEstimator(cfg.estimator)
        self.tracker = GantryTracker(cfg.feed.poll_period_s)
        self.feed = FeedClient(cfg.feed, rng)
        # The controller's ramp speed; the first tick ramps from the
        # vehicle's initial speed.
        self.v_ramp = init.v0


class World:
    """Mutable simulation state plus the step loop; self.log records the run."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.log = RunLog(config_echo=config_echo(cfg))
        self.rng = random.Random(cfg.seed)
        self.t = 0.0
        self.step_index = 0
        self.vehicles = [
            VehicleState(v.vehicle_id, v.kind, v.x0, v.v0) for v in cfg.vehicles
        ]
        # Log-row kind strings, in self.vehicles order.
        self._kind_names = [v.kind.value for v in self.vehicles]
        self._humans = [v for v in self.vehicles if v.kind is VehicleKind.HUMAN]
        # The vehicles by position, rear first. No passing and a collision
        # halt on any overlap keep this order for the whole run, so a
        # vehicle's lead is the next entry.
        self.order = sorted(self.vehicles, key=lambda v: v.position)
        # Each vehicle's index in self.order, by id.
        self._rank = {v.vehicle_id: i for i, v in enumerate(self.order)}
        self.agents = {
            v.vehicle_id: _ControlledAgent(v, cfg, self.rng)
            for v in cfg.vehicles
            if v.kind is VehicleKind.CONTROLLED
        }
        self.phantoms = [_PhantomStream(spec) for spec in cfg.phantoms]
        self._next_vsl_update = 0.0
        initial = (
            INITIAL_POSTED_MPH if cfg.vsl_static_mph is None else cfg.vsl_static_mph
        )
        self.posted_mph = dict.fromkeys(GANTRY_IDS, initial)

    def mm_of(self, x: float) -> float:
        return self.cfg.entry_mm - x / M_PER_MILE

    def _segment_means(self) -> dict[int, Optional[float]]:
        """Mean vehicle speed per inter-gantry segment, by lower-mm index."""
        mms = GANTRY_MM
        sums = [0.0] * (len(mms) - 1)
        counts = [0] * (len(mms) - 1)
        for veh in self.vehicles:
            mm = self.mm_of(veh.position)
            if mm < mms[0] or mm > mms[-1]:
                continue
            idx = min(bisect.bisect_right(mms, mm) - 1, len(sums) - 1)
            sums[idx] += veh.velocity
            counts[idx] += 1
        return {
            i: (sums[i] / counts[i] if counts[i] else None) for i in range(len(sums))
        }

    def _update_vsl(self) -> None:
        """Run the posting policy over every gantry (skipped in static mode)."""
        means = self._segment_means()
        lookahead = self.cfg.vsl.lookahead_segments
        for i, gantry_id in enumerate(GANTRY_IDS):
            # Westbound traffic leaves gantry i into segment i - 1.
            downstream = [means[i - k] for k in range(1, lookahead + 1) if i >= k]
            prev = self.posted_mph[gantry_id]
            posted = vsl_algorithm(downstream, prev, self.cfg.vsl)
            if posted != prev:
                self.log.events.append(
                    {
                        "t": self.t,
                        "event": "vsl_update",
                        "gantry_id": gantry_id,
                        "prev_mph": prev,
                        "posted_mph": posted,
                    }
                )
                self.posted_mph[gantry_id] = posted

    def _radar_candidates(self, veh: VehicleState) -> list[tuple]:
        """The one decision of what veh's radar sees: every mainline vehicle
        and every phantom target in lanes -1..1 with 0 < rel_position <=
        max_range, as synthesize_radar candidates (rel_position, target_id,
        speed, lane_offset). The mainline scan from veh's index in
        self.order and the phantom index bounds stop at absolute positions,
        which round unlike rel_position, so the range test runs on
        rel_position too."""
        x = veh.position
        max_range = self.cfg.radar.max_range
        x_hi = x + max_range
        seen = []
        order = self.order
        for i in range(self._rank[veh.vehicle_id] + 1, len(order)):
            o = order[i]
            if o.position > x_hi:
                break
            seen.append((o.position - x, o.vehicle_id, o.velocity, 0))
        for stream in self.phantoms:
            if -1 <= stream.spec.lane <= 1:
                seen.extend(stream.targets_between(x, x_hi))
        return [c for c in seen if 0.0 < c[0] <= max_range]

    def _controlled_accel(self, veh: VehicleState) -> tuple[float, tuple]:
        """Run the vehicle's control stack; returns u and its log fields
        (mile marker, mode, v_des, v_gr, v_pr)."""
        agent = self.agents[veh.vehicle_id]
        cfg = self.cfg
        now = self.t
        seen = self._radar_candidates(veh)
        frame = synthesize_radar(veh.velocity, seen, cfg.radar, now, self.rng)
        v_pr = agent.estimator.update_prevailing(frame, veh.velocity)
        lead = lead_vehicle(frame, veh.velocity)

        mm = self.mm_of(veh.position)
        gantry_id, acquired, fetch = agent.tracker.update(mm, now)
        if acquired:
            self.log.events.append(
                {
                    "t": now,
                    "event": "acquisition",
                    "vehicle_id": veh.vehicle_id,
                    "gantry_id": gantry_id,
                }
            )
        if fetch:
            agent.feed.publish(mph_to_mps(self.posted_mph[gantry_id]), now)
        # The feed drains its in-flight readings every tick. The tracker
        # holds no gantry outside the corridor, so there v_gr is None.
        delivered = agent.feed.poll(now)
        v_gr = delivered if gantry_id is not None else None

        inputs = ControlInputs(agent.driver_setpoint, veh.velocity, v_gr, v_pr, lead)
        out = step_controller(inputs, agent.v_ramp, cfg.controller, cfg.dt)
        agent.v_ramp = out.v_ramp

        if out.h is not None and out.h < self.log.min_h:
            self.log.min_h = out.h

        return out.u, (mm, out.mode.value, out.v_des, v_gr, v_pr)

    def step(self) -> None:
        """Advance one dt, logging this step's rows every log_every steps."""
        log = self.log
        if log.collision is not None:
            return
        cfg = self.cfg
        t = self.t
        dt = cfg.dt
        if cfg.vsl_static_mph is None and t >= self._next_vsl_update:
            self._update_vsl()
            self._next_vsl_update += cfg.vsl.update_period_s

        mainline = [v.velocity for v in self._humans]
        mainline_mean = sum(mainline) / len(mainline) if mainline else None
        for stream in self.phantoms:
            stream.update_speed(t, mainline_mean)

        human = cfg.human
        order, rank, n = self.order, self._rank, len(self.order)
        bottlenecks = [bn for bn in cfg.bottlenecks if bn.t_start <= t < bn.t_end]
        logged = self.step_index % cfg.log_every == 0
        append = log.rows.append
        entry_mm = cfg.entry_mm
        accels: list[float] = []
        push = accels.append
        human_kind, probe_kind = VehicleKind.HUMAN, VehicleKind.PROBE
        for veh, kind in zip(self.vehicles, self._kind_names):
            x, v = veh.position, veh.velocity
            if veh.kind is human_kind:
                # IDM, capped by the first active bottleneck whose zone
                # holds the vehicle.
                i = rank[veh.vehicle_id] + 1
                if i == n:
                    u = idm_accel(v, None, None, human)
                else:
                    lead = order[i]
                    u = idm_accel(v, lead.position - x, lead.velocity, human)
                for bn in bottlenecks:
                    if bn.x_start <= x <= bn.x_end:
                        v_next = max(bn.speed_cap, v - bn.decel * dt)
                        u = min(u, (v_next - v) / dt)
                        break
                if u < HUMAN_BRAKE_FLOOR:
                    u = HUMAN_BRAKE_FLOOR
                elif u > human.a:
                    u = human.a
            elif veh.kind is probe_kind:
                u = 0.0
            else:
                u, (mm, mode, v_des, v_gr, v_pr) = self._controlled_accel(veh)
                push(u)
                if logged:
                    append((t, veh.vehicle_id, kind, x, mm, v, mode, v_des, v_gr, v_pr, u))
                continue
            push(u)
            if logged:
                append((t, veh.vehicle_id, kind, x, entry_mm - x / M_PER_MILE,
                        v, None, None, None, None, u))

        for veh, u in zip(self.vehicles, accels):
            # As max(0.0, v), which also maps -0.0 and NaN to 0.0.
            v = veh.velocity + u * dt
            if not v > 0.0:
                v = 0.0
            veh.velocity = v
            veh.position += v * dt
        for stream in self.phantoms:
            stream.advance(dt)

        self.t = round(self.t + dt, 9)
        self.step_index += 1

        for rear, front in pairwise(self.order):
            if front.position - rear.position <= 0.0:
                log.collision = {
                    "t": self.t,
                    "event": "collision",
                    "rear_id": rear.vehicle_id,
                    "front_id": front.vehicle_id,
                    "position_m": front.position,
                }
                log.events.append(log.collision)
                return


def run(cfg: ScenarioConfig) -> RunLog:
    """Simulate the scenario; returns the log, with any collision recorded.

    A collision stops the simulation at the offending step; rows up to and
    including that step are kept so the halt is inspectable.
    """
    world = World(cfg)
    log = world.log
    for _ in range(int(round(cfg.duration_s / cfg.dt))):
        world.step()
        if log.collision is not None:
            break
    return log


def config_echo(cfg: ScenarioConfig) -> dict:
    echo = {
        "duration_s": cfg.duration_s,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "log_every": cfg.log_every,
        "entry_mm": cfg.entry_mm,
        "corridor": {"mm_lo": MM_LO, "mm_hi": MM_HI, "gantries": len(GANTRY_IDS)},
        "controller": asdict(cfg.controller),
        "radar": asdict(cfg.radar),
        "estimator": asdict(cfg.estimator),
        "vsl": asdict(cfg.vsl),
        "feed": asdict(cfg.feed),
        "human": asdict(cfg.human),
        "vehicles": len(cfg.vehicles),
        "bottlenecks": len(cfg.bottlenecks),
        "phantoms": len(cfg.phantoms),
        "vsl_static_mph": cfg.vsl_static_mph,
    }
    return echo


def _run_log_lines(rows: Sequence[tuple]):
    """One CSV line per row, ending in CRLF as write_table's lines do. t,
    position, mile marker, velocity and u must be numbers; the four
    controller fields may each be None. Text cells are written as they are,
    so they must hold no comma, quote, CR or LF (ScenarioConfig.validate
    rejects such vehicle ids).

    Rows without controller fields go through one % template per (vehicle,
    kind). t is formatted once per float object, since World logs one per
    step; an identity test keeps -0.0 and 0.0 apart."""
    templates: dict[tuple, str] = {}
    t_prev, t_cell = object(), ""
    for t, vid, kind, x, mm, v, mode, v_des, v_gr, v_pr, u in rows:
        if t is not t_prev:
            t_prev, t_cell = t, f"{t:.3f}"
        if mode is None and v_des is None and v_gr is None and v_pr is None:
            try:
                template = templates[vid, kind]
            except KeyError:
                ids = f"{vid},{kind}".replace("%", "%%")
                template = templates[vid, kind] = f"%s,{ids},%.6f,%.6f,%.6f,,,,,%.6f\r\n"
            yield template % (t_cell, x, mm, v, u)
        else:
            v_des_cell = "" if v_des is None else f"{v_des:.6f}"
            v_gr_cell = "" if v_gr is None else f"{v_gr:.6f}"
            v_pr_cell = "" if v_pr is None else f"{v_pr:.6f}"
            yield (
                f"{t_cell},{vid},{kind},{x:.6f},{mm:.6f},{v:.6f},"
                f"{mode or ''},{v_des_cell},{v_gr_cell},{v_pr_cell},{u:.6f}\r\n"
            )


def write_run_log(log: RunLog, path: str | Path) -> None:
    """Write the rows as CSV, streamed line by line (never one big string)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(RUN_LOG_COLUMNS) + "\r\n")
        fh.writelines(_run_log_lines(log.rows))


def read_run_log(path: str | Path) -> RunLog:
    """Parse a run-log CSV into rows, without a config echo; re-writing
    reproduces the file. No cell is quoted, so lines split on commas."""
    rows = []
    append = rows.append
    with open(path, newline="", encoding="utf-8") as fh:
        lines = (line.rstrip("\r\n").split(",") for line in fh)
        header = next(lines, [])
        if tuple(header) != RUN_LOG_COLUMNS:
            raise ValueError(f"unexpected run log header: {header}")
        for t, vid, kind, x, mm, v, mode, v_des, v_gr, v_pr, u in lines:
            if mode or v_des or v_gr or v_pr:
                append((float(t), vid, kind, float(x), float(mm), float(v), mode or None,
                        float(v_des) if v_des else None, float(v_gr) if v_gr else None,
                        float(v_pr) if v_pr else None, float(u)))
            else:
                append((float(t), vid, kind, float(x), float(mm), float(v),
                        None, None, None, None, float(u)))
    return RunLog(rows)


def write_events(log: RunLog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in log.events:
            fh.write(json.dumps(event, sort_keys=True, default=str))
            fh.write("\n")


def build_report(log: RunLog) -> RunReport:
    """Aggregate controlled-vehicle rows into occupancy and transitions.

    Every controlled row with a mode is engaged time; the occupancy
    fractions are over those rows and sum to 1 when there are any. The
    duration is the largest row t plus the row spacing, or 0 without rows.
    The row spacing and the seed come from the log's config echo.
    """
    echo = log.config_echo
    dt_row = echo["dt"] * echo["log_every"]
    occupancy: dict[str, int] = {}
    transitions: dict[str, int] = {}
    last_mode: dict[str, str] = {}
    rows = log.rows
    t_max = max(chain((0.0,), map(itemgetter(0), rows)))
    controlled = VehicleKind.CONTROLLED.value
    for row in [r for r in rows if r[2] == controlled and r[6] is not None]:
        vid, mode = row[1], row[6]
        if mode != last_mode.get(vid):
            transitions[mode] = transitions.get(mode, 0) + 1
            last_mode[vid] = mode
        occupancy[mode] = occupancy.get(mode, 0) + 1
    engaged_rows = sum(occupancy.values())
    engaged_time = engaged_rows * dt_row
    fractions = (
        {mode: count / engaged_rows for mode, count in sorted(occupancy.items())}
        if engaged_rows
        else {}
    )
    return RunReport(
        seed=echo["seed"],
        duration_s=t_max + dt_row if rows else 0.0,
        engaged_time_s=engaged_time,
        mode_occupancy=fractions,
        mode_transitions=dict(sorted(transitions.items())),
        min_h_m=None if math.isinf(log.min_h) else log.min_h,
        collision=log.collision is not None,
        config_echo=log.config_echo,
    )
