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

import contextlib
import functools
import json
import marshal
import math
import os
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, cycle, groupby, islice, pairwise, repeat
from operator import mod
from pathlib import Path
from typing import Optional

from .controller import ControllerConfig, step_controller
from .infrastructure import (
    GANTRY_IDS,
    GANTRY_MM,
    GANTRY_SPACING_MI,
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
from .tables import clip, read_header
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
RUN_LOG_HEADER = ",".join(RUN_LOG_COLUMNS) + "\r\n"

HUMAN_BRAKE_FLOOR = -8.0
# Every gantry's posting before the first policy update.
INITIAL_POSTED_MPH = 70
# The longest run a scenario may ask for: one simulated day.
MAX_DURATION_S = 86_400.0
# The shortest time step: 1 ms, so a day is at most 86.4 million steps.
MIN_DT_S = 0.001
# Logged steps a chunk carries from run() to its run-log writer process.
CHUNK_STEPS = 256
# Rows read_run_log parses at once, in whole steps.
READ_BLOCK_ROWS = 1024


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


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's run fields, section configs and rosters: frozen, and
    checked when built, so each dataclasses.replace variant is checked too.
    Whether vsl_static_mph lies in the vsl range is build_scenario's rule."""

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
    vehicles: tuple[VehicleInit, ...] = ()
    bottlenecks: tuple[Bottleneck, ...] = ()
    phantoms: tuple[PhantomStreamSpec, ...] = ()
    vsl_static_mph: Optional[int] = None

    def __post_init__(self) -> None:
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


_floats = functools.partial(array, "d")


@dataclass
class RunLog:
    """A run's rows as dense columns, plus its events. Every logged step
    holds the same vehicles in the same order, so ids and kinds are held
    once per vehicle and t once per step. x (position_m), mm (mile_marker),
    v (velocity_mps) and u hold a float a row, step by step; the controller
    cells mode, v_des, v_gr and v_pr are held for the controlled vehicles'
    rows only. v_des, v_gr and v_pr are float arrays too, with NaN for an
    empty cell; a mode may be None. A log that run has streamed to a
    log_path has sent x, mm, v and u to the writer and holds them empty, so
    its rows view is empty too; t, the cells and the events stay."""

    vehicle_ids: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    t: array = field(default_factory=_floats)
    x: array = field(default_factory=_floats)
    mm: array = field(default_factory=_floats)
    v: array = field(default_factory=_floats)
    u: array = field(default_factory=_floats)
    mode: list[Optional[str]] = field(default_factory=list)
    v_des: array = field(default_factory=_floats)
    v_gr: array = field(default_factory=_floats)
    v_pr: array = field(default_factory=_floats)
    events: list[dict] = field(default_factory=list)
    # The "collision" event, the same dict as the last of events.
    collision: Optional[dict] = None
    min_h: float = math.inf
    config_echo: dict = field(default_factory=dict)

    @property
    def controlled(self) -> list[int]:
        """The controlled vehicles' indexes in vehicle_ids."""
        return [j for j, kind in enumerate(self.kinds) if kind == VehicleKind.CONTROLLED]

    @property
    def rows(self) -> "RunLogRows":
        """The rows as RUN_LOG_COLUMNS tuples, built when they are read."""
        return RunLogRows(self)


def _cell(value: float) -> Optional[float]:
    """A controller cell as the rows view holds it: None for NaN."""
    return None if value != value else value


class RunLogRows(Sequence):
    """A read-only view of a RunLog's rows as RUN_LOG_COLUMNS tuples, each
    built when it is read and not kept; indexing walks the rows."""

    def __init__(self, log: RunLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log.x)

    def __getitem__(self, i: int) -> tuple:
        return next(islice(self, range(len(self))[i], None))

    def __iter__(self):
        log = self._log
        cells = [self._spread(log.mode)]
        cells += [self._spread(col, _cell) for col in (log.v_des, log.v_gr, log.v_pr)]
        ts = chain.from_iterable(map(repeat, log.t, repeat(len(log.vehicle_ids))))
        return zip(ts, cycle(log.vehicle_ids), cycle(log.kinds), log.x, log.mm, log.v, *cells,
                   log.u)

    def _spread(self, col, cell=None):
        """Controller column col spread to a cell a row, None off the
        controlled vehicles: each step chains runs of None with one cell a
        controlled vehicle, so no Python code runs per row off them. With
        cell, each controlled vehicle's value is mapped through it."""
        slots = self._log.controlled
        if not slots:
            return repeat(None)
        runs = []
        for k, (prev, j) in enumerate(zip([-1, *slots], slots)):
            values = col[k::len(slots)]
            runs += [repeat((None,) * (j - prev - 1)),
                     zip(values if cell is None else map(cell, values))]
        runs.append(repeat((None,) * (len(self._log.vehicle_ids) - 1 - slots[-1])))
        return chain.from_iterable(chain.from_iterable(zip(*runs)))


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
        # Every target id of the stream starts with this.
        self.id_prefix = f"phantom_{spec.lane:+d}_"

    def update_speed(self, t: float, mainline_mean: Optional[float]) -> None:
        if self.spec.wave is not None:
            self.speed = triangle_speed(t, *self.spec.wave)
        elif self.spec.mirror_bias_mps is not None and mainline_mean is not None:
            # As max(0.0, speed), with the builtin's result in every case.
            speed = mainline_mean + self.spec.mirror_bias_mps
            self.speed = speed if speed > 0.0 else 0.0

    def advance(self, dt: float) -> None:
        self.origin += self.speed * dt

    def targets_between(self, x: float, x_hi: float, max_targets: int) -> list[tuple]:
        """Radar candidates of a mainline ego at x: the nearest max_targets + 1
        targets at x < position <= x_hi, to rounding (a frame's worth if the
        first rounds to rel_position 0), with the stream's lane as their lane offset."""
        spacing, lane, name = self.spec.spacing_m, self.spec.lane, self.id_prefix
        k_lo = math.ceil((x - self.origin) / spacing)
        k_hi = math.floor((x_hi - self.origin) / spacing)
        if k_hi > k_lo + max_targets:
            k_hi = k_lo + max_targets
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
    """Mutable simulation state plus the step loop; self.log records the run.

    Each vehicle's state is held once, in config order, which is the order
    of the log's rows and of its vehicle_ids and kinds: self.x holds the
    positions (m) and self.v the speeds (m/s). self.leads maps each
    vehicle's index, rear first, to the index of the next vehicle ahead;
    the front vehicle has no entry. No passing and a collision halt on any
    overlap keep this position order for the whole run.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.log = RunLog([v.vehicle_id for v in cfg.vehicles],
                          [v.kind.value for v in cfg.vehicles], config_echo=config_echo(cfg))
        self.rng = random.Random(cfg.seed)
        self.t = 0.0
        self.step_index = 0
        self.x = [v.x0 for v in cfg.vehicles]
        self.v = [v.v0 for v in cfg.vehicles]
        self.leads = dict(pairwise(sorted(range(len(self.x)), key=self.x.__getitem__)))
        self._humans = [j for j, v in enumerate(cfg.vehicles) if v.kind is VehicleKind.HUMAN]
        # The controlled vehicles' control stacks, by index, in config order.
        self.agents = {
            j: _ControlledAgent(v, cfg, self.rng)
            for j, v in enumerate(cfg.vehicles)
            if v.kind is VehicleKind.CONTROLLED
        }
        self.phantoms = [_PhantomStream(spec) for spec in cfg.phantoms]
        self._next_vsl_update = 0.0
        initial = (
            INITIAL_POSTED_MPH if cfg.vsl_static_mph is None else cfg.vsl_static_mph
        )
        self.posted_mph = dict.fromkeys(GANTRY_IDS, initial)

    def _event(self, event: str, **fields) -> dict:
        """Append a record of event at self.t with fields to the log; returns it."""
        record = {"t": self.t, "event": event, **fields}
        self.log.events.append(record)
        return record

    def _segment_means(self, mm: list[float]) -> list[Optional[float]]:
        """Mean vehicle speed per inter-gantry segment, by lower-mm index,
        from the vehicles' mile markers mm."""
        n = len(GANTRY_MM) - 1
        sums, counts = [0.0] * n, [0] * n
        for m, v in zip(mm, self.v):
            if MM_LO <= m <= MM_HI:
                # Exact inside the corridor, as in GantryTracker.update; the
                # top gantry's mile marker is in the last segment.
                i = min(int((m - MM_LO) / GANTRY_SPACING_MI), n - 1)
                sums[i] += v
                counts[i] += 1
        return [s / c if c else None for s, c in zip(sums, counts)]

    def _update_vsl(self, mm: list[float]) -> None:
        """Run the posting policy over every gantry (skipped in static mode)."""
        means = self._segment_means(mm)
        lookahead = self.cfg.vsl.lookahead_segments
        for i, gantry_id in enumerate(GANTRY_IDS):
            # Westbound traffic leaves gantry i into segment i - 1.
            downstream = means[max(i - lookahead, 0):i]
            prev = self.posted_mph[gantry_id]
            posted = vsl_algorithm(downstream, prev, self.cfg.vsl)
            if posted != prev:
                self._event("vsl_update", gantry_id=gantry_id, prev_mph=prev,
                            posted_mph=posted)
                self.posted_mph[gantry_id] = posted

    def _radar_candidates(self, j: int) -> list[tuple]:
        """The one decision of what vehicle j's radar sees: every mainline
        vehicle and, of each phantom stream in lanes -1..1, the nearest
        targets (enough to fill a frame) with 0 < rel_position <= max_range,
        as synthesize_radar candidates (rel_position, target_id, speed,
        lane_offset). The mainline scan along self.leads and the phantom
        index bounds stop at absolute positions, which round unlike
        rel_position, so the range test runs on rel_position too."""
        xs, vs, ids = self.x, self.v, self.log.vehicle_ids
        x = xs[j]
        max_range = self.cfg.radar.max_range
        x_hi = x + max_range
        seen = []
        o = self.leads.get(j)
        while o is not None and xs[o] <= x_hi:
            seen.append((xs[o] - x, ids[o], vs[o], 0))
            o = self.leads.get(o)
        for stream in self.phantoms:
            if -1 <= stream.spec.lane <= 1:
                seen.extend(stream.targets_between(x, x_hi, self.cfg.radar.max_targets))
        return [c for c in seen if 0.0 < c[0] <= max_range]

    def _controlled_accel(self, j: int, mm: list[float], logged: bool) -> float:
        """Run vehicle j's control stack, at the mile markers mm; returns u,
        and on a logged step records the controller cells."""
        agent = self.agents[j]
        cfg = self.cfg
        now = self.t
        v = self.v[j]
        seen = self._radar_candidates(j)
        frame = synthesize_radar(v, seen, cfg.radar, now, self.rng)
        v_pr = agent.estimator.update_prevailing(frame, v)
        lead = lead_vehicle(frame, v)

        gantry_id, acquired, fetch = agent.tracker.update(mm[j], now)
        if acquired:
            self._event("acquisition", vehicle_id=self.log.vehicle_ids[j], gantry_id=gantry_id)
        if fetch:
            agent.feed.publish(mph_to_mps(self.posted_mph[gantry_id]), now)
        # The feed drains its in-flight readings every tick. The tracker
        # holds no gantry outside the corridor, so there v_gr is None.
        delivered = agent.feed.poll(now)
        v_gr = delivered if gantry_id is not None else None

        out = step_controller(agent.driver_setpoint, v, v_gr, v_pr, lead, agent.v_ramp,
                              cfg.controller, cfg.dt)
        agent.v_ramp = out.v_ramp

        if out.h is not None and out.h < self.log.min_h:
            self.log.min_h = out.h
        if logged:
            log = self.log
            # _value_ is the label itself; the .value property is a call.
            log.mode.append(out.mode._value_)
            log.v_des.append(out.v_des)
            log.v_gr.append(math.nan if v_gr is None else v_gr)
            log.v_pr.append(v_pr)
        return out.u

    def step(self) -> None:
        """Advance one dt, logging this step's columns every log_every steps."""
        log = self.log
        if log.collision is not None:
            return
        cfg = self.cfg
        t = self.t
        dt = cfg.dt
        xs, vs = self.x, self.v
        mm = [cfg.entry_mm - x / M_PER_MILE for x in xs]
        if cfg.vsl_static_mph is None and t >= self._next_vsl_update:
            self._update_vsl(mm)
            self._next_vsl_update += cfg.vsl.update_period_s

        mainline = [vs[j] for j in self._humans]
        mainline_mean = math.fsum(mainline) / len(mainline) if mainline else None
        for stream in self.phantoms:
            stream.update_speed(t, mainline_mean)

        human = cfg.human
        leads = self.leads
        bottlenecks = [bn for bn in cfg.bottlenecks if bn.t_start <= t < bn.t_end]
        logged = self.step_index % cfg.log_every == 0
        # Probes hold their speed.
        accels = [0.0] * len(xs)
        for j in self._humans:
            # IDM, capped by the first active bottleneck whose zone holds
            # the vehicle.
            x, v = xs[j], vs[j]
            lead = leads.get(j)
            if lead is None:
                u = idm_accel(v, None, None, human)
            else:
                u = idm_accel(v, xs[lead] - x, vs[lead], human)
            for bn in bottlenecks:
                if bn.x_start <= x <= bn.x_end:
                    # As u = min(u, (max(cap, v - decel * dt) - v) / dt).
                    v_next = v - bn.decel * dt
                    v_next = v_next if v_next > bn.speed_cap else bn.speed_cap
                    u_cap = (v_next - v) / dt
                    u = u_cap if u_cap < u else u
                    break
            if u < HUMAN_BRAKE_FLOOR:
                u = HUMAN_BRAKE_FLOOR
            elif u > human.a:
                u = human.a
            accels[j] = u
        for j in self.agents:
            accels[j] = self._controlled_accel(j, mm, logged)

        if logged:
            log.t.append(t)
            log.x.extend(xs)
            log.mm.extend(mm)
            log.v.extend(vs)
            log.u.extend(accels)
        for j, u in enumerate(accels):
            # As max(0.0, v), which also maps -0.0 and NaN to 0.0.
            v = vs[j] + u * dt
            if not v > 0.0:
                v = 0.0
            vs[j] = v
            xs[j] += v * dt
        for stream in self.phantoms:
            stream.advance(dt)

        self.t = round(self.t + dt, 9)
        self.step_index += 1

        for rear, front in leads.items():
            if xs[front] - xs[rear] <= 0.0:
                log.collision = self._event("collision", rear_id=log.vehicle_ids[rear],
                                            front_id=log.vehicle_ids[front], position_m=xs[front])
                return


def run(cfg: ScenarioConfig, log_path: str | Path | None = None) -> RunLog:
    """Simulate the scenario; returns the log, with any collision recorded.

    A collision stops the simulation at the offending step; rows up to and
    including that step are kept so the halt is inspectable.

    With log_path, the log is also written there, with write_run_log's
    bytes, while the simulation runs (see _forked_writer). A failed write
    raises OSError naming log_path and leaves no file there. The log then
    holds at most CHUNK_STEPS logged steps of x, mm, v and u at a time and
    returns with them empty: its len(t) * len(vehicle_ids) rows are in the
    file, not in its rows view.
    """
    world = World(cfg)
    log = world.log
    writer = (contextlib.nullcontext(lambda: None) if log_path is None
              else _forked_writer(log, log_path))
    with writer as send:
        for _ in range(int(round(cfg.duration_s / cfg.dt))):
            world.step()
            send()
            if log.collision is not None:
                break
    return log


@contextlib.contextmanager
def _forked_writer(log: RunLog, path: str | Path):
    """Fork a process that writes log to path while the caller's block
    extends it. The block calls the yielded send() after each step; every
    CHUNK_STEPS logged steps, it sends their columns through a pipe (the
    float columns as bytes and mode as a list, by marshal, which needs no
    import), and the child formats them with _write_steps. Once sent, x,
    mm, v and u are emptied, so they hold the unsent steps only; t and the
    controller cells are kept for the caller. When the block ends, the
    rest follows with an end marker. path is opened here, before the block
    runs; if the block raises or the child fails, the file is removed. An
    exception of the block propagates; a failed child raises OSError naming
    path. The child is always reaped. Needs os.fork (POSIX), in a process
    with no other threads."""
    fh = open(path, "w", newline="", encoding="utf-8")
    pid = 0
    try:
        try:
            with fh:
                rx, tx = os.pipe()
                with open(rx, "rb") as source, open(tx, "wb") as pipe:
                    pid = os.fork()
                    if pid == 0:
                        _write_chunks(log, fh, source, pipe)
                    fh.close()
                    source.close()
                    nc, sent = len(log.controlled), 0

                    def send(least: int = CHUNK_STEPS) -> None:
                        nonlocal sent
                        hi = len(log.t)
                        if hi - sent >= least:
                            floats = [log.t[sent:hi].tobytes()]
                            floats += [col.tobytes() for col in (log.x, log.mm, log.v, log.u)]
                            floats += [col[sent * nc:hi * nc].tobytes()
                                       for col in (log.v_des, log.v_gr, log.v_pr)]
                            marshal.dump((floats, log.mode[sent * nc:hi * nc]), pipe)
                            pipe.flush()
                            del log.x[:], log.mm[:], log.v[:], log.u[:]
                            sent = hi

                    yield send
                    send(least=1)
                    marshal.dump(None, pipe)
        except BrokenPipeError:
            pass  # The child has exited; its status says why.
        finally:
            if pid:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            reason = (os.strerror(code) if 0 < code < 255
                      else f"the run-log writer failed (status {code})")
            raise OSError(code, reason, str(path))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        raise


def _write_chunks(log: RunLog, fh, source, pipe) -> None:
    """The run-log writer process of _forked_writer: close its copy of the
    pipe's write end, write the header to fh, then each chunk read from
    source until the end marker. It never returns: it exits 0 once all is
    written, with an OSError's errno if one is raised, and with 255 on any
    other failure, such as a stream that ends before its end marker."""
    code = 255
    try:
        pipe.close()
        with source, fh:
            fh.write(RUN_LOG_HEADER)
            for floats, mode in iter(functools.partial(marshal.load, source), None):
                t, x, mm, v, u, v_des, v_gr, v_pr = (array("d", col) for col in floats)
                _write_steps(RunLog(log.vehicle_ids, log.kinds, t, x, mm, v, u, mode,
                                    v_des, v_gr, v_pr), fh)
        code = 0
    except OSError as exc:
        code = exc.errno if 0 < (exc.errno or 0) < 255 else 255
    finally:
        os._exit(code)


def config_echo(cfg: ScenarioConfig) -> dict:
    """The config as report.json echoes it: the roster, bottlenecks and
    phantom streams by count, and the corridor's extent."""
    echo = {f.name: asdict(value) if is_dataclass(value := getattr(cfg, f.name)) else value
            for f in fields(cfg)}
    echo.update(vehicles=len(cfg.vehicles), bottlenecks=len(cfg.bottlenecks),
                phantoms=len(cfg.phantoms),
                corridor={"mm_lo": MM_LO, "mm_hi": MM_HI, "gantries": len(GANTRY_IDS)})
    return echo


def write_run_log(log: RunLog, path: str | Path) -> None:
    """Write the header and every row of log to path (see _write_steps)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(RUN_LOG_HEADER)
        _write_steps(log, fh)


def _write_steps(log: RunLog, fh) -> None:
    """Write every logged step of log to the text file fh as CSV lines
    ending in CRLF, as write_table's lines do, a step at a time. Text cells
    are written as they are, so they must hold no comma, quote, CR or LF
    (a ScenarioConfig rejects such vehicle ids). Each vehicle has one
    % template; a controlled vehicle's also takes its controller cells, of
    which a None mode and a NaN float are written empty."""
    n, slots = len(log.vehicle_ids), log.controlled
    templates = ["%s," + f"{vid},{kind}".replace("%", "%%") + (
        ",%.6f,%.6f,%.6f,%s,%s,%s,%s,%.6f\r\n" if kind == VehicleKind.CONTROLLED
        else ",%.6f,%.6f,%.6f,,,,,%.6f\r\n") for vid, kind in zip(log.vehicle_ids, log.kinds)]
    for step, t in enumerate(log.t):
        lo, t_cell = step * n, f"{t:.3f}"
        cells = list(zip(repeat(t_cell), *(
            col[lo:lo + n].tolist() for col in (log.x, log.mm, log.v, log.u))))
        for k, j in enumerate(slots, step * len(slots)):
            floats = (log.v_des[k], log.v_gr[k], log.v_pr[k])
            cells[j] = (*cells[j][:4], log.mode[k] or "",
                        *("" if c != c else f"{c:.6f}" for c in floats), cells[j][4])
        fh.write("".join(map(mod, templates, cells)))


def read_run_log(path: str | Path) -> RunLog:
    """Parse a dense run-log CSV (see RunLog) into columns, without a config
    echo; re-writing reproduces the file. The rows sharing the first t cell
    name the vehicles. Every later step must repeat them in order under one
    t cell, every row must have 11 cells, only a controlled vehicle's row
    may hold controller cells, and those must be finite, since NaN stands
    for an empty one; any other log raises ValueError, naming the first bad
    step. No cell is quoted, so a block of about READ_BLOCK_ROWS lines,
    joined with commas, splits into its cells; a line's last cell keeps the
    line end, which float() ignores. Each distinct mode is one string."""
    width, log = len(RUN_LOG_COLUMNS), RunLog()
    modes: dict[str, Optional[str]] = {"": None}
    controller = (log.v_des, log.v_gr, log.v_pr)
    with open(path, newline="", encoding="utf-8") as fh:
        read_header(fh, RUN_LOG_COLUMNS, "run log")
        block, lines = list(islice(fh, 1)), iter(fh)
        for line in lines:
            if line.split(",", 1)[0] != block[0].split(",", 1)[0]:
                lines = chain([line], lines)
                break
            block.append(line)
        if not block:
            return log
        n = len(block)
        first = ",".join(block).split(",")
        log.vehicle_ids, log.kinds = first[1::width], first[2::width]
        slots, stride = log.controlled, width * n
        # The controller cells of the vehicles that are not controlled.
        unset = [width * j + c for j in range(n) if j not in slots for c in range(6, 10)]

        def append(block: list[str]) -> None:
            """Append block, whole steps of lines, to log."""
            cells = ",".join(block).split(",")
            steps, firsts = len(block) // n, cells[::stride]
            if (len(block) % n or set(map(str.count, block, repeat(","))) != {width - 1}
                    or any(cells[width * j::stride] != firsts for j in range(1, n))
                    or cells[1::width] != log.vehicle_ids * steps
                    or cells[2::width] != log.kinds * steps
                    or any(any(cells[i::stride]) for i in unset)):
                raise ValueError(f"run log is not dense at t = {clip(cells[::width][-1])}: "
                                 "every step must repeat the first step's vehicles in order, "
                                 "11 cells a row, and controller cells only on controlled "
                                 "vehicles")
            for col, c in ((log.t, 0), (log.x, 3), (log.mm, 4), (log.v, 5), (log.u, 10)):
                try:
                    col.extend(map(float, cells[c::stride if c == 0 else width]))
                except ValueError:
                    raise ValueError(f"run log: a {RUN_LOG_COLUMNS[c]} cell is not a number "
                                     f"at t = {clip(firsts[-1])}") from None
            # A controlled row's cells from k, where its t cell is its step's.
            for k in (base + width * j for base in range(0, len(cells), stride) for j in slots):
                mode, *floats = cells[k + 6:k + 10]
                log.mode.append(modes.setdefault(mode, mode))
                for col, cell in zip(controller, floats):
                    try:
                        value = float(cell) if cell else math.nan
                    except ValueError:  # not a number, so not finite either
                        value = math.inf
                    if cell and not math.isfinite(value):
                        raise ValueError(f"run log: non-finite controller cell {clip(cell)} "
                                         f"at t = {clip(cells[k])}")
                    col.append(value)

        steps = max(1, READ_BLOCK_ROWS // n)
        block += islice(lines, (steps - 1) * n)
        while block:
            try:
                append(block)
            except ValueError:  # Parse the block a step at a time to name its bad step.
                for lo in range(0, len(block), n):
                    append(block[lo:lo + n])
                raise
            block = list(islice(lines, steps * n))
    return log


def write_events(log: RunLog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in log.events:
            fh.write(json.dumps(event, sort_keys=True, default=str))
            fh.write("\n")


def build_report(log: RunLog) -> RunReport:
    """Aggregate the controlled vehicles' modes into occupancy and
    transitions. Every controlled row with a mode is engaged time. A logged
    step stands for dt · log_every, but the last one only up to the run's
    end (the steps run times dt, or the collision time), where the duration
    ends; it is 0 without rows. dt, log_every, the step count and the seed
    come from the log's config echo."""
    echo = log.config_echo
    dt_row = echo["dt"] * echo["log_every"]
    nc = len(log.controlled)
    occupancy: Counter = Counter()
    transitions: Counter = Counter()
    for k in range(nc):
        modes = [mode for mode in log.mode[k::nc] if mode is not None]
        occupancy.update(modes)
        transitions.update(mode for mode, _ in groupby(modes))
    engaged_rows = sum(occupancy.values())
    duration = overshoot = 0.0
    if log.t:
        end = (log.collision["t"] if log.collision is not None
               else round(echo["duration_s"] / echo["dt"]) * echo["dt"])
        duration = min(log.t[-1] + dt_row, end)
        overshoot = log.t[-1] + dt_row - duration
    last_engaged = sum(mode is not None for mode in log.mode[len(log.mode) - nc:])
    return RunReport(
        seed=echo["seed"],
        duration_s=duration,
        engaged_time_s=engaged_rows * dt_row - last_engaged * overshoot,
        mode_occupancy={m: count / engaged_rows for m, count in sorted(occupancy.items())},
        mode_transitions=dict(sorted(transitions.items())),
        min_h_m=None if math.isinf(log.min_h) else log.min_h,
        collision=log.collision is not None,
        config_echo=log.config_echo,
    )
