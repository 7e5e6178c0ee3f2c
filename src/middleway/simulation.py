"""Single-corridor microsimulation around the controlled vehicle.

The world holds point vehicles on a straight corridor, positions measured
in meters along the travel direction from the corridor entry and mapped
affinely to mile markers. Human vehicles follow the intelligent-driver
model, probe vehicles track scripted speed profiles exactly, and
controlled vehicles run the full perception / infrastructure / control
pipeline off synthesized radar frames and gantry advisories. Adjacent
lanes carry phantom target streams that feed radar only and never
interact with the mainline.

Integration is semi-implicit Euler at a fixed step: v += u * dt first,
then x += v * dt with the updated velocity, velocities floored at zero.
A non-positive bumper gap anywhere halts the run and is reported as a
collision. Identical configs and seeds reproduce identical logs byte for
byte; all randomness flows through one seeded generator.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .controller import (
    ControlInputs,
    ControllerConfig,
    ControllerState,
    Mode,
    step_controller,
)
from .infrastructure import (
    CorridorMap,
    Direction,
    FeedClient,
    FeedConfig,
    GantryTracker,
    PollTimer,
    VslConfig,
    VslReading,
    infer_heading,
    vsl_algorithm,
)
from .perception import (
    EstimatorConfig,
    ObservedVehicle,
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


def idm_accel(
    v: float, gap: Optional[float], v_lead: Optional[float], p: IdmParams
) -> float:
    """Car-following acceleration; free-road when gap is None."""
    free = p.a * (1.0 - (v / p.v0) ** p.delta)
    if gap is None:
        return free
    s_star = p.s0 + max(0.0, v * p.T + v * (v - v_lead) / (2.0 * math.sqrt(p.a * p.b)))
    return free - p.a * (s_star / gap) ** 2


def idm_equilibrium_gap(v: float, p: IdmParams) -> float:
    """Gap at which a follower at steady speed v has zero acceleration."""
    if v >= p.v0:
        raise ValueError("no equilibrium at or above the free-flow speed")
    return (p.s0 + v * p.T) / math.sqrt(1.0 - (v / p.v0) ** p.delta)


@dataclass
class VehicleState:
    vehicle_id: str
    kind: VehicleKind
    position: float
    velocity: float
    lane: int = 0
    engaged: bool = False


@dataclass(frozen=True)
class VehicleInit:
    vehicle_id: str
    kind: VehicleKind
    x0: float
    v0: float
    lane: int = 0
    engage_at: Optional[float] = 0.0
    driver_setpoint: float = 33.5
    profile: Optional[tuple[tuple[float, float], ...]] = None


@dataclass(frozen=True)
class SpeedPulse:
    """Scripted deceleration applied to one vehicle for a fixed window."""

    vehicle_id: str
    t_start: float
    duration: float
    target_speed: float
    decel: float = 2.0


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

    speed_profile is a piecewise-linear (t, speed) table. With
    mirror_bias_mps set instead, the stream follows the mean mainline
    human speed plus the bias, re-evaluated every step.
    """

    lane: int
    spacing_m: float
    speed_profile: Optional[tuple[tuple[float, float], ...]] = None
    mirror_bias_mps: Optional[float] = None
    phase_m: float = 0.0
    initial_speed: float = 25.0


def interp_profile(profile: Sequence[tuple[float, float]], t: float) -> float:
    """Piecewise-linear lookup, clamped to the profile's endpoints."""
    if t <= profile[0][0]:
        return profile[0][1]
    for (t0, v0), (t1, v1) in zip(profile, profile[1:]):
        if t <= t1:
            if t1 == t0:
                return v1
            w = (t - t0) / (t1 - t0)
            return v0 + w * (v1 - v0)
    return profile[-1][1]


def max_profile_decel(profile: Sequence[tuple[float, float]]) -> float:
    worst = 0.0
    for (t0, v0), (t1, v1) in zip(profile, profile[1:]):
        if t1 > t0:
            worst = min(worst, (v1 - v0) / (t1 - t0))
    return -worst


@dataclass
class ScenarioConfig:
    duration_s: float = 600.0
    dt: float = 0.05
    seed: int = 0
    log_every: int = 1
    entry_mm: float = 70.0
    direction: Direction = Direction.WESTBOUND
    corridor: CorridorMap = field(default_factory=CorridorMap.build)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    radar: RadarConfig = field(default_factory=RadarConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    vsl: VslConfig = field(default_factory=VslConfig)
    feed: FeedConfig = field(default_factory=FeedConfig)
    human: IdmParams = field(default_factory=IdmParams)
    vehicles: list[VehicleInit] = field(default_factory=list)
    pulses: list[SpeedPulse] = field(default_factory=list)
    bottlenecks: list[Bottleneck] = field(default_factory=list)
    phantoms: list[PhantomStreamSpec] = field(default_factory=list)
    vsl_static_mph: Optional[int] = None

    def validate(self) -> None:
        if not (0.0 < self.dt <= 0.1):
            raise ValueError("dt: must be in (0, 0.1]")
        if self.duration_s < 0:
            raise ValueError("duration_s: must be non-negative")
        if self.log_every < 1:
            raise ValueError("log_every: must be at least 1")
        if not self.vehicles:
            raise ValueError("vehicles: roster is empty")
        ids = [v.vehicle_id for v in self.vehicles]
        if len(set(ids)) != len(ids):
            raise ValueError("vehicles: vehicle ids must be unique")
        by_lane: dict[int, list[VehicleInit]] = {}
        for v in self.vehicles:
            by_lane.setdefault(v.lane, []).append(v)
        for lane, vehs in by_lane.items():
            xs = sorted(v.x0 for v in vehs)
            if any(b - a <= 0.0 for a, b in zip(xs, xs[1:])):
                raise ValueError(f"vehicles: overlapping positions in lane {lane}")
        brake_limit = -self.controller.u_min + 1e-9
        for v in self.vehicles:
            if v.profile is not None:
                if not v.profile:
                    raise ValueError(
                        f"vehicles: profile of {v.vehicle_id} has no points"
                    )
                if max_profile_decel(v.profile) > brake_limit:
                    raise ValueError(
                        f"vehicles: profile of {v.vehicle_id} brakes harder than |u_min|"
                    )
                v_start = interp_profile(v.profile, 0.0)
                if abs(v_start - v.v0) > 1e-6:
                    raise ValueError(
                        f"vehicles: {v.vehicle_id} v0 does not match its profile start"
                    )
        for pulse in self.pulses:
            if pulse.decel > brake_limit:
                raise ValueError("pulses: decel exceeds |u_min|")
        if self.vsl_static_mph is not None:
            if not (self.vsl.min_mph <= self.vsl_static_mph <= self.vsl.max_mph):
                raise ValueError("vsl_static_mph: outside posting range")


@dataclass(frozen=True)
class CollisionEvent:
    t: float
    rear_id: str
    front_id: str
    position: float


@dataclass
class RunLog:
    dt: float
    seed: int
    log_every: int = 1
    rows: list[tuple] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    collision: Optional[CollisionEvent] = None
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
        self.speed = (
            interp_profile(spec.speed_profile, 0.0)
            if spec.speed_profile is not None
            else spec.initial_speed
        )

    def update_speed(self, t: float, mainline_mean: Optional[float]) -> None:
        if self.spec.speed_profile is not None:
            self.speed = interp_profile(self.spec.speed_profile, t)
        elif self.spec.mirror_bias_mps is not None and mainline_mean is not None:
            self.speed = max(0.0, mainline_mean + self.spec.mirror_bias_mps)

    def advance(self, dt: float) -> None:
        self.origin += self.speed * dt

    def targets_between(self, x_lo: float, x_hi: float) -> list[ObservedVehicle]:
        spacing = self.spec.spacing_m
        k_lo = math.ceil((x_lo - self.origin) / spacing)
        k_hi = math.floor((x_hi - self.origin) / spacing)
        out = []
        for k in range(k_lo, k_hi + 1):
            out.append(
                ObservedVehicle(
                    f"phantom_{self.spec.lane:+d}_{k}",
                    self.origin + k * spacing,
                    self.speed,
                    self.spec.lane,
                )
            )
        return out


class _ControlledAgent:
    def __init__(self, init: VehicleInit, cfg: ScenarioConfig, rng: random.Random):
        self.engage_at = init.engage_at
        self.driver_setpoint = init.driver_setpoint
        self.estimator = PrevailingSpeedEstimator(cfg.estimator)
        self.tracker = GantryTracker(cfg.corridor)
        self.poll_timer = PollTimer(cfg.feed.poll_period_s)
        self.feed = FeedClient(cfg.feed, rng)
        self.ctrl_state = ControllerState()
        self.mm_history: list[tuple[float, float]] = []


class World:
    """Mutable simulation state plus the step loop."""

    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        if cfg.controller.dt != cfg.dt:
            self.ctrl_cfg = replace(cfg.controller, dt=cfg.dt)
        else:
            self.ctrl_cfg = cfg.controller
        self.rng = random.Random(cfg.seed)
        self.t = 0.0
        self.step_index = 0
        self.vehicles = [
            VehicleState(v.vehicle_id, v.kind, v.x0, v.v0, v.lane)
            for v in cfg.vehicles
        ]
        self._init_by_id = {v.vehicle_id: v for v in cfg.vehicles}
        # Log-row kind strings, in self.vehicles order.
        self._kind_names = [v.kind.value for v in self.vehicles]
        self._humans = [v for v in self.vehicles if v.kind is VehicleKind.HUMAN]
        self._pulses: dict[str, list[SpeedPulse]] = {}
        for pulse in cfg.pulses:
            self._pulses.setdefault(pulse.vehicle_id, []).append(pulse)
        self.lanes: dict[int, list[VehicleState]] = {}
        for veh in self.vehicles:
            self.lanes.setdefault(veh.lane, []).append(veh)
        for lane in self.lanes.values():
            lane.sort(key=lambda v: v.position)
        # No lane changes and a collision halt on any overlap mean the
        # within-lane ordering is fixed for the whole run.
        self._lead_map: dict[str, Optional[VehicleState]] = {}
        for lane in self.lanes.values():
            for rear, front in zip(lane, lane[1:]):
                self._lead_map[rear.vehicle_id] = front
            self._lead_map[lane[-1].vehicle_id] = None
        self._index_lane_positions()
        self.agents = {
            v.vehicle_id: _ControlledAgent(self._init_by_id[v.vehicle_id], cfg, self.rng)
            for v in self.vehicles
            if v.kind is VehicleKind.CONTROLLED
        }
        self.phantoms = [_PhantomStream(spec) for spec in cfg.phantoms]
        self.collision: Optional[CollisionEvent] = None
        self.events: list[dict] = []
        self.min_h = math.inf
        self._next_vsl_update = 0.0
        # Postings live here, not on the config's gantries, so running a
        # config leaves it unchanged.
        initial = (
            INITIAL_POSTED_MPH if cfg.vsl_static_mph is None else cfg.vsl_static_mph
        )
        self.posted_mph = {g.gantry_id: initial for g in cfg.corridor.gantries}

    def _index_lane_positions(self) -> None:
        """Each lane's positions, in lane order, for the radar's bisect.

        Built at the start of every step that has a controlled vehicle, so
        it holds the positions that step's radar frames are taken at.
        """
        self._lane_positions = {
            lane: [v.position for v in vehs] for lane, vehs in self.lanes.items()
        }

    def mm_of(self, x: float) -> float:
        if self.cfg.direction is Direction.WESTBOUND:
            return self.cfg.entry_mm - x / M_PER_MILE
        return self.cfg.entry_mm + x / M_PER_MILE

    def _segment_means(self) -> dict[int, Optional[float]]:
        """Mean vehicle speed per inter-gantry segment, by lower-mm index."""
        mms = [g.mile_marker for g in self.cfg.corridor.gantries]
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
        gantries = self.cfg.corridor.gantries
        n_seg = len(gantries) - 1
        westbound = self.cfg.direction is Direction.WESTBOUND
        for i, g in enumerate(gantries):
            downstream: list[Optional[float]] = []
            for k in range(1, self.cfg.vsl.lookahead_segments + 1):
                seg = i - k if westbound else i + k - 1
                if 0 <= seg < n_seg:
                    downstream.append(means[seg])
            prev = self.posted_mph[g.gantry_id]
            posted = vsl_algorithm(downstream, prev, self.cfg.vsl)
            if posted != prev:
                self.events.append(
                    {
                        "t": self.t,
                        "event": "vsl_update",
                        "gantry_id": g.gantry_id,
                        "prev_mph": prev,
                        "posted_mph": posted,
                    }
                )
                self.posted_mph[g.gantry_id] = posted

    def _probe_accel(self, veh: VehicleState) -> float:
        init = self._init_by_id[veh.vehicle_id]
        if init.profile is None:
            return 0.0
        v_next = interp_profile(init.profile, self.t + self.cfg.dt)
        return (v_next - veh.velocity) / self.cfg.dt

    def _radar_candidates(self, veh: VehicleState) -> list[ObservedVehicle]:
        """Vehicles within one lane of veh with x_lo < position <= x_hi,
        then the phantom targets in that range."""
        x_lo = veh.position
        x_hi = veh.position + self.cfg.radar.max_range
        out = []
        for lane in (veh.lane - 1, veh.lane, veh.lane + 1):
            xs = self._lane_positions.get(lane)
            if xs is None:
                continue
            vehs = self.lanes[lane]
            for i in range(bisect.bisect_right(xs, x_lo), bisect.bisect_right(xs, x_hi)):
                o = vehs[i]
                out.append(ObservedVehicle(o.vehicle_id, o.position, o.velocity, lane))
        for stream in self.phantoms:
            out.extend(stream.targets_between(x_lo, x_hi))
        return out

    def _controlled_accel(self, veh: VehicleState) -> tuple[float, tuple]:
        """Run the vehicle's control stack; returns u and its log fields
        (mode, v_des, v_gr, v_pr)."""
        agent = self.agents[veh.vehicle_id]
        cfg = self.cfg
        now = self.t
        engaged = agent.engage_at is not None and now >= agent.engage_at
        if engaged != veh.engaged:
            veh.engaged = engaged
            self.events.append(
                {
                    "t": now,
                    "event": "engagement",
                    "vehicle_id": veh.vehicle_id,
                    "engaged": engaged,
                }
            )

        ego = ObservedVehicle(veh.vehicle_id, veh.position, veh.velocity, veh.lane)
        rng = self.rng if cfg.radar.noise_sigma > 0.0 else None
        frame = synthesize_radar(ego, self._radar_candidates(veh), cfg.radar, now, rng)
        v_pr = agent.estimator.update_prevailing(frame, veh.velocity)
        lead = lead_vehicle(frame, veh.velocity)

        mm = self.mm_of(veh.position)
        agent.mm_history.append((now, mm))
        if len(agent.mm_history) > 256:
            del agent.mm_history[:128]
        heading = infer_heading(agent.mm_history)

        gantry_id, newly_acquired = agent.tracker.update(mm, heading)
        if gantry_id is not None:
            if newly_acquired:
                agent.poll_timer.on_entry(now)
                fetch = True
                self.events.append(
                    {
                        "t": now,
                        "event": "acquisition",
                        "vehicle_id": veh.vehicle_id,
                        "gantry_id": gantry_id,
                    }
                )
            else:
                fetch = agent.poll_timer.due(now)
            if fetch:
                v_posted = mph_to_mps(self.posted_mph[gantry_id])
                agent.feed.publish(VslReading(gantry_id, v_posted, now), now)
        delivered = agent.feed.poll(now)
        vsl_valid = gantry_id is not None and delivered is not None
        v_gr = delivered.v_gr if vsl_valid else 0.0
        in_corridor = cfg.corridor.contains(mm)

        inputs = ControlInputs(
            engaged, in_corridor, vsl_valid, agent.driver_setpoint,
            veh.velocity, v_gr, v_pr, lead,
        )
        out = step_controller(inputs, agent.ctrl_state, self.ctrl_cfg)

        if lead is not None:
            h = lead.gap - (self.ctrl_cfg.t_min * veh.velocity + self.ctrl_cfg.s_min)
            if h < self.min_h:
                self.min_h = h

        return out.u, (out.mode.value, out.v_des, v_gr if vsl_valid else None, v_pr)

    def step(self, log: Optional[RunLog] = None) -> None:
        """Advance one dt; optionally append this step's rows to log."""
        if self.collision is not None:
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

        if self.agents:
            self._index_lane_positions()
        human = cfg.human
        lead_of = self._lead_map
        pulses_of = self._pulses
        bottlenecks = [bn for bn in cfg.bottlenecks if bn.t_start <= t < bn.t_end]
        commands: list[tuple[VehicleState, float, Optional[tuple]]] = []
        for veh in self.vehicles:
            if veh.kind is VehicleKind.HUMAN:
                # IDM, capped by the vehicle's first live pulse and by the
                # first active bottleneck whose zone holds it.
                v = veh.velocity
                lead = lead_of[veh.vehicle_id]
                if lead is None:
                    u = idm_accel(v, None, None, human)
                else:
                    u = idm_accel(v, lead.position - veh.position, lead.velocity, human)
                for pulse in pulses_of.get(veh.vehicle_id, ()):
                    if pulse.t_start <= t < pulse.t_start + pulse.duration:
                        v_next = max(pulse.target_speed, v - pulse.decel * dt)
                        u = min(u, (v_next - v) / dt)
                        break
                for bn in bottlenecks:
                    if bn.x_start <= veh.position <= bn.x_end:
                        v_next = max(bn.speed_cap, v - bn.decel * dt)
                        u = min(u, (v_next - v) / dt)
                        break
                if u < HUMAN_BRAKE_FLOOR:
                    u = HUMAN_BRAKE_FLOOR
                elif u > human.a:
                    u = human.a
                commands.append((veh, u, None))
            elif veh.kind is VehicleKind.PROBE:
                commands.append((veh, self._probe_accel(veh), None))
            else:
                u, fields = self._controlled_accel(veh)
                commands.append((veh, u, fields))

        if log is not None and self.step_index % cfg.log_every == 0:
            append = log.rows.append
            mm_of = self.mm_of
            for (veh, u, fields), kind in zip(commands, self._kind_names):
                x = veh.position
                if fields is None:
                    mode = v_des = v_gr = v_pr = None
                else:
                    mode, v_des, v_gr, v_pr = fields
                append(
                    (t, veh.vehicle_id, kind, x, mm_of(x), veh.velocity,
                     mode, v_des, v_gr, v_pr, u)
                )

        for veh, u, _ in commands:
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

        for lane in self.lanes.values():
            for rear, front in zip(lane, lane[1:]):
                if front.position - rear.position <= 0.0:
                    self.collision = CollisionEvent(
                        self.t, rear.vehicle_id, front.vehicle_id, front.position
                    )
                    self.events.append(
                        {
                            "t": self.t,
                            "event": "collision",
                            "rear_id": rear.vehicle_id,
                            "front_id": front.vehicle_id,
                            "position_m": front.position,
                        }
                    )
                    return


def run(cfg: ScenarioConfig) -> RunLog:
    """Simulate the scenario; returns the log, with any collision recorded.

    A collision stops the simulation at the offending step; rows up to and
    including that step are kept so the halt is inspectable.
    """
    world = World(cfg)
    log = RunLog(dt=cfg.dt, seed=cfg.seed, log_every=cfg.log_every)
    log.config_echo = config_echo(cfg)
    n_steps = int(round(cfg.duration_s / cfg.dt))
    for _ in range(n_steps):
        world.step(log)
        if world.collision is not None:
            break
    log.events = world.events
    log.collision = world.collision
    log.min_h = world.min_h
    return log


def config_echo(cfg: ScenarioConfig) -> dict:
    echo = {
        "duration_s": cfg.duration_s,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "log_every": cfg.log_every,
        "entry_mm": cfg.entry_mm,
        "direction": cfg.direction.value,
        "corridor": {
            "mm_lo": cfg.corridor.mm_lo,
            "mm_hi": cfg.corridor.mm_hi,
            "gantries": len(cfg.corridor.gantries),
        },
        "controller": {**asdict(cfg.controller), "dt": cfg.dt},
        "radar": asdict(cfg.radar),
        "estimator": asdict(cfg.estimator),
        "vsl": asdict(cfg.vsl),
        "feed": asdict(cfg.feed),
        "human": asdict(cfg.human),
        "vehicles": len(cfg.vehicles),
        "pulses": len(cfg.pulses),
        "bottlenecks": len(cfg.bottlenecks),
        "phantoms": len(cfg.phantoms),
        "vsl_static_mph": cfg.vsl_static_mph,
    }
    return echo


class _CsvCells(dict):
    """Text cells as csv.writer writes them: None is empty, and a value with
    a comma, quote or line break is quoted. Each distinct value is
    formatted once."""

    def __missing__(self, value: Optional[str]) -> str:
        if value is None:
            cell = ""
        elif any(c in value for c in ',"\r\n'):
            cell = '"' + value.replace('"', '""') + '"'
        else:
            cell = value
        self[value] = cell
        return cell


def _run_log_lines(rows: Sequence[tuple]):
    """One CSV line per row, ending in CRLF as csv.writer's lines do. t,
    position, mile marker, velocity and u must be numbers; the four
    controller fields may each be None."""
    cells = _CsvCells()
    for t, vid, kind, x, mm, v, mode, v_des, v_gr, v_pr, u in rows:
        if mode is None and v_des is None and v_gr is None and v_pr is None:
            yield (
                f"{t:.3f},{cells[vid]},{cells[kind]},{x:.6f},{mm:.6f},{v:.6f},"
                f",,,,{u:.6f}\r\n"
            )
        else:
            v_des_cell = "" if v_des is None else f"{v_des:.6f}"
            v_gr_cell = "" if v_gr is None else f"{v_gr:.6f}"
            v_pr_cell = "" if v_pr is None else f"{v_pr:.6f}"
            yield (
                f"{t:.3f},{cells[vid]},{cells[kind]},{x:.6f},{mm:.6f},{v:.6f},"
                f"{cells[mode]},{v_des_cell},{v_gr_cell},{v_pr_cell},{u:.6f}\r\n"
            )


def write_run_log(log: RunLog, path: str | Path) -> None:
    """Write the rows as CSV, streamed line by line (never one big string)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(RUN_LOG_COLUMNS) + "\r\n")
        fh.writelines(_run_log_lines(log.rows))


def read_run_log(path: str | Path) -> RunLog:
    """Parse a run-log CSV back into rows; re-writing reproduces the file."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
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
    times = sorted({r[0] for r in rows})
    dt = times[1] - times[0] if len(times) > 1 else 0.05
    log = RunLog(dt=dt, seed=-1)
    log.rows = rows
    return log


def write_events(log: RunLog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in log.events:
            fh.write(json.dumps(event, sort_keys=True, default=str))
            fh.write("\n")


def build_report(log: RunLog, duration_s: Optional[float] = None) -> RunReport:
    """Aggregate controlled-vehicle rows into occupancy and transitions.

    Occupancy fractions are over engaged time only (disengaged rows are
    excluded) and sum to 1 when any engaged time exists.
    """
    dt_row = log.dt * log.log_every
    engaged_rows = 0
    occupancy: dict[str, int] = {}
    transitions: dict[str, int] = {}
    last_mode: dict[str, str] = {}
    t_max = 0.0
    controlled = VehicleKind.CONTROLLED.value
    disengaged = Mode.DISENGAGED.value
    for row in log.rows:
        t, vid, kind, mode = row[0], row[1], row[2], row[6]
        t_max = max(t_max, t)
        if kind != controlled or mode is None:
            continue
        prev = last_mode.get(vid)
        if mode != prev:
            transitions[mode] = transitions.get(mode, 0) + 1
            last_mode[vid] = mode
        if mode == disengaged:
            continue
        engaged_rows += 1
        occupancy[mode] = occupancy.get(mode, 0) + 1
    engaged_time = engaged_rows * dt_row
    fractions = (
        {mode: count / engaged_rows for mode, count in sorted(occupancy.items())}
        if engaged_rows
        else {}
    )
    return RunReport(
        seed=log.seed,
        duration_s=duration_s if duration_s is not None else t_max + dt_row,
        engaged_time_s=engaged_time,
        mode_occupancy=fractions,
        mode_transitions=dict(sorted(transitions.items())),
        min_h_m=None if math.isinf(log.min_h) else log.min_h,
        collision=log.collision is not None,
        config_echo=log.config_echo,
    )
