"""Roadside infrastructure: gantries, advisory acquisition, and the feed.

Variable-speed gantries sit every half mile along the westbound side of
the corridor, from mile marker 53.0 to 70.0, and post speeds in whole
multiples of 5 mph between 30 and 70. Each controlled vehicle's
GantryTracker acquires the advisory of the nearest gantry once it comes
within ACQUIRE_MI of it while moving westbound, toward lower mile markers;
the acquisition then sticks until a new gantry is acquired or the vehicle
leaves the corridor, which mirrors how a geofence lookup behaves between
gantries. The tracker also paces fetches: one on each new acquisition and
one every poll_period_s thereafter. Fetched speeds reach the vehicle
through a feed with scalar latency, random dropout, and a staleness bound
after which the held reading is no longer trusted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .units import mps_to_mph, round_to_multiple


# The westbound corridor's gantry lattice: one gantry every
# GANTRY_SPACING_MI from MM_LO to MM_HI, ids "wb_053.00" to "wb_070.00".
MM_LO = 53.0
MM_HI = 70.0
GANTRY_SPACING_MI = 0.5
GANTRY_MM = tuple(
    MM_LO + i * GANTRY_SPACING_MI
    for i in range(int(round((MM_HI - MM_LO) / GANTRY_SPACING_MI)) + 1)
)
GANTRY_IDS = tuple(f"wb_{mm:06.2f}" for mm in GANTRY_MM)


# Seconds of mile-marker history a heading is read across.
HEADING_WINDOW_S = 2.0


def infer_heading(mm_history: Sequence[tuple[float, float]]) -> bool:
    """Whether (time, mile_marker) samples in time order show the vehicle
    moving westbound, toward lower mile markers.

    The history must be trimmed as GantryTracker.update trims it, so its
    first sample is the newest one at least HEADING_WINDOW_S old; the
    mile-marker change since then is the heading. False until the history
    spans the window, while the vehicle is not measurably moving, and while
    it moves the other way, and callers then hold no advisory.
    """
    if len(mm_history) < 2:
        return False
    (t_first, mm_first), (t_last, mm_last) = mm_history[0], mm_history[-1]
    return t_last - t_first >= HEADING_WINDOW_S and mm_last - mm_first < -1e-9


# Distance (mi) within which the nearest gantry is acquired.
ACQUIRE_MI = 0.15


class GantryTracker:
    """One vehicle's advisory source: heading, acquisition and fetch cadence.

    Keeps the vehicle's (time, mile marker) history, reads the heading off
    it, and acquires the nearest gantry once it lies within ACQUIRE_MI. The
    acquisition sticks until another gantry is acquired, and is dropped
    outside the corridor or while the vehicle is not seen moving westbound.
    Fetches happen on each acquisition and every poll_period_s thereafter.
    """

    def __init__(self, poll_period_s: float):
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
        prior_id = self.gantry_id
        if infer_heading(history) and MM_LO <= mile_marker <= MM_HI:
            # Inside the corridor the subtraction and the division by the
            # 0.5 mi spacing are exact, so i is the nearest gantry's index.
            # ACQUIRE_MI is under half the spacing: no other gantry can be
            # in range, and a midpoint, where round() could pick either
            # neighbour, is in range of neither.
            i = round((mile_marker - MM_LO) / GANTRY_SPACING_MI)
            if abs(GANTRY_MM[i] - mile_marker) <= ACQUIRE_MI:
                gantry_id = GANTRY_IDS[i]
            else:
                gantry_id = prior_id
        else:
            gantry_id = None
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
        if self.max_change_mph < 0:
            raise ValueError("max_change_mph: must be non-negative")
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

    def __init__(self, cfg: FeedConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
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
