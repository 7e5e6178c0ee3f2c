"""Roadside infrastructure: gantries, advisory acquisition, and the feed.

Variable-speed gantries sit every half mile along a mile-marker corridor
and post speeds in whole multiples of 5 mph between 30 and 70. Each
controlled vehicle's GantryTracker acquires the advisory of the nearest
same-direction gantry once it comes within ACQUIRE_MI of it; the
acquisition then sticks until a new gantry is acquired or the vehicle
leaves the corridor, which mirrors how a geofence lookup behaves between
gantries. The tracker also paces fetches: one on each new acquisition and
one every poll_period_s thereafter. Fetched speeds reach the vehicle
through a feed with scalar latency, random dropout, and a staleness bound
after which the held reading is no longer trusted.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Optional, Sequence

from .units import mps_to_mph, round_to_multiple


class Direction(str, Enum):
    EASTBOUND = "eastbound"
    WESTBOUND = "westbound"


@dataclass(frozen=True)
class Gantry:
    """A gantry's geometry; the posted speed is simulation state (World)."""

    gantry_id: str
    mile_marker: float
    direction: Direction


@dataclass
class CorridorMap:
    """Gantries sorted by mile marker plus the corridor bounds."""

    gantries: list[Gantry]
    mm_lo: float
    mm_hi: float

    def __post_init__(self) -> None:
        self.gantries.sort(key=lambda g: (g.mile_marker, g.gantry_id))
        if self.mm_lo >= self.mm_hi:
            raise ValueError("corridor: need mm_lo < mm_hi")

    def contains(self, mile_marker: float) -> bool:
        return self.mm_lo <= mile_marker <= self.mm_hi

    @cached_property
    def _by_direction(self) -> dict[Direction, tuple[list[float], list[Gantry]]]:
        """Per direction: its mile markers and its gantries, both sorted by
        mile marker as self.gantries is.

        Built on first use, so the gantry list must not change after that.
        """
        index = {}
        for heading in Direction:
            matching = [g for g in self.gantries if g.direction == heading]
            index[heading] = ([g.mile_marker for g in matching], matching)
        return index

    def nearest(self, mile_marker: float, heading: Direction) -> Optional[Gantry]:
        """The heading's gantry minimising (distance, gantry_id), or None.

        Distances only grow moving away from mile_marker on either side, so
        every gantry tied for the smallest distance (duplicate markers, or
        equal rounded distances) sits in one run around the bisect point.
        """
        mms, gantries = self._by_direction[heading]
        n = len(mms)
        if not n:
            return None
        i = bisect.bisect_left(mms, mile_marker)
        if i == 0:
            best = abs(mms[0] - mile_marker)
        elif i == n:
            best = abs(mms[-1] - mile_marker)
        else:
            best = min(abs(mms[i - 1] - mile_marker), abs(mms[i] - mile_marker))
        lo = i
        while lo > 0 and abs(mms[lo - 1] - mile_marker) == best:
            lo -= 1
        hi = i
        while hi < n and abs(mms[hi] - mile_marker) == best:
            hi += 1
        if hi - lo == 1:
            return gantries[lo]
        return min(gantries[lo:hi], key=lambda g: g.gantry_id)

    @classmethod
    def build(
        cls,
        mm_lo: float = 53.0,
        mm_hi: float = 70.0,
        spacing_mi: float = 0.5,
        direction: Direction = Direction.WESTBOUND,
    ) -> "CorridorMap":
        prefix = "wb" if direction is Direction.WESTBOUND else "eb"
        gantries = []
        n = int(round((mm_hi - mm_lo) / spacing_mi))
        for i in range(n + 1):
            mm = mm_lo + i * spacing_mi
            gantries.append(Gantry(f"{prefix}_{mm:06.2f}", mm, direction))
        return cls(gantries, mm_lo, mm_hi)


# Seconds of mile-marker history a heading is read across.
HEADING_WINDOW_S = 2.0


def infer_heading(mm_history: Sequence[tuple[float, float]]) -> Optional[Direction]:
    """Infer travel direction from (time, mile_marker) samples in time order.

    The history must be trimmed as GantryTracker.update trims it, so its
    first sample is the newest one at least HEADING_WINDOW_S old; the sign
    of the mile-marker change since then is the heading. Returns None until
    the history spans the window or while the vehicle is not measurably
    moving, and callers treat None as an invalid-advisory condition.
    """
    if len(mm_history) < 2:
        return None
    (t_first, mm_first), (t_last, mm_last) = mm_history[0], mm_history[-1]
    if t_last - t_first < HEADING_WINDOW_S:
        return None
    delta = mm_last - mm_first
    if delta > 1e-9:
        return Direction.EASTBOUND
    if delta < -1e-9:
        return Direction.WESTBOUND
    return None


# Distance (mi) within which the nearest same-direction gantry is acquired.
ACQUIRE_MI = 0.15


class GantryTracker:
    """One vehicle's advisory source: heading, acquisition and fetch cadence.

    Keeps the vehicle's (time, mile marker) history, reads the heading off
    it, and acquires the nearest same-direction gantry once it lies within
    ACQUIRE_MI. The acquisition sticks until another gantry is acquired,
    and is dropped outside the corridor or while the heading is unknown.
    Fetches happen on each acquisition and every poll_period_s thereafter.
    """

    def __init__(self, corridor: CorridorMap, poll_period_s: float):
        self.corridor = corridor
        self.poll_period_s = poll_period_s
        self.gantry_id: Optional[str] = None
        # Set on each acquisition, before any poll-cadence test reads it.
        self.last_fetch = 0.0
        self.mm_history: list[tuple[float, float]] = []

    def update(
        self, mile_marker: float, now: float
    ) -> tuple[Optional[str], bool, bool]:
        """Record the position; return (gantry id or None, acquired, fetch)."""
        history = self.mm_history
        history.append((now, mile_marker))
        # infer_heading reads the heading against the newest sample that is
        # at least the window old, so that sample is the oldest kept.
        while len(history) > 2 and now - history[1][0] >= HEADING_WINDOW_S:
            del history[0]
        heading = infer_heading(history)

        prior_id = self.gantry_id
        nearest = None
        if heading is not None and self.corridor.contains(mile_marker):
            nearest = self.corridor.nearest(mile_marker, heading)
        if nearest is None:
            gantry_id = None
        elif abs(nearest.mile_marker - mile_marker) <= ACQUIRE_MI:
            gantry_id = nearest.gantry_id
        else:
            gantry_id = prior_id
        self.gantry_id = gantry_id

        acquired = gantry_id is not None and gantry_id != prior_id
        fetch = acquired or (
            gantry_id is not None and now - self.last_fetch >= self.poll_period_s
        )
        if fetch:
            self.last_fetch = now
        return gantry_id, acquired, fetch


@dataclass(frozen=True)
class VslConfig:
    """Surrogate congestion-responsive posting policy."""

    activation_mph: float = 45.0
    buffer_mph: float = 10.0
    min_mph: int = 30
    max_mph: int = 70
    round_mph: int = 5
    max_change_mph: int = 10
    update_period_s: float = 30.0
    lookahead_segments: int = 2

    def __post_init__(self) -> None:
        if self.update_period_s < 30.0:
            raise ValueError("update_period_s: must be at least 30 s")
        if self.min_mph >= self.max_mph:
            raise ValueError("min_mph/max_mph: need min < max")
        if self.round_mph < 1:
            raise ValueError("round_mph: must be at least 1")
        if self.lookahead_segments < 1:
            raise ValueError("lookahead_segments: must be at least 1")


def vsl_algorithm(
    downstream_speeds: Sequence[Optional[float]],
    prev_posted_mph: int,
    cfg: VslConfig,
) -> int:
    """Post a speed from downstream segment means (m/s, None = no data).

    Inactive (all segments empty or the minimum at or above the activation
    threshold) posts max_mph. Active posts the minimum downstream speed
    plus a buffer, rounded to the posting step and clamped to the posting
    range. Either way the change from the previous posting is limited to
    max_change_mph per update.
    """
    speeds = [s for s in downstream_speeds if s is not None and not math.isnan(s)]
    if not speeds:
        target = float(cfg.max_mph)
    else:
        min_mph = mps_to_mph(min(speeds))
        if min_mph >= cfg.activation_mph:
            target = float(cfg.max_mph)
        else:
            target = round_to_multiple(min_mph + cfg.buffer_mph, cfg.round_mph)
            target = min(max(target, cfg.min_mph), cfg.max_mph)
    lo = prev_posted_mph - cfg.max_change_mph
    hi = prev_posted_mph + cfg.max_change_mph
    return int(min(max(target, lo), hi))


@dataclass(frozen=True)
class FeedConfig:
    latency_s: float = 0.0
    dropout: float = 0.0
    staleness_s: float = 60.0
    poll_period_s: float = 5.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s: must be non-negative")
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout: must be in [0, 1]")
        if self.staleness_s <= 0:
            raise ValueError("staleness_s: must be positive")
        if self.poll_period_s <= 0:
            raise ValueError("poll_period_s: must be positive")


class FeedClient:
    """Delivers advisory readings to the vehicle with latency and dropout.

    Each published reading either drops (with probability dropout) or
    arrives latency_s later. The client hands out the most recently
    arrived reading until staleness_s passes without a new arrival, after
    which it reports nothing and the advisory goes invalid.
    """

    def __init__(self, cfg: FeedConfig, rng: Optional[random.Random] = None):
        self.cfg = cfg
        self.rng = rng if rng is not None else random.Random(0)
        self._in_flight: list[tuple[float, float]] = []
        self._held: Optional[float] = None
        self._held_since = -math.inf

    def publish(self, v_gr: float, now: float) -> None:
        """Send a posted speed (m/s) fetched at now."""
        if self.cfg.dropout > 0.0 and self.rng.random() < self.cfg.dropout:
            return
        self._in_flight.append((now + self.cfg.latency_s, v_gr))

    def poll(self, now: float) -> Optional[float]:
        """The held posted speed (m/s), or None when nothing fresh arrived."""
        while self._in_flight and self._in_flight[0][0] <= now:
            arrival, v_gr = self._in_flight.pop(0)
            self._held = v_gr
            self._held_since = arrival
        if self._held is None:
            return None
        if now - self._held_since > self.cfg.staleness_s:
            return None
        return self._held
