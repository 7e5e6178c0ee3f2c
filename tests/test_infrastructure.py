"""Tests for gantries, advisory acquisition, polling, posting, and the feed."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.infrastructure import (
    ACQUIRE_MI,
    GANTRY_IDS,
    GANTRY_MM,
    GANTRY_SPACING_MI,
    HEADING_WINDOW_S,
    MM_HI,
    MM_LO,
    FeedClient,
    FeedConfig,
    GantryTracker,
    VslConfig,
    infer_heading,
    vsl_algorithm,
)
from middleway.units import mph_to_mps


def poll_schedule(
    entry_times: list[float], until: float, period: float = 5.0
) -> list[float]:
    """Reference fetch times: one on each acquisition, then every period
    seconds until the next acquisition resets the cadence."""
    entries = sorted(entry_times)
    fetches: list[float] = []
    for i, start in enumerate(entries):
        stop = entries[i + 1] if i + 1 < len(entries) else math.inf
        t = start
        while t < stop and t <= until:
            fetches.append(t)
            t += period
    return fetches


def active_gantry_scan(mile_marker, westbound, prior_id=None):
    """Reference for the tracker's acquisition: by a scan over every gantry,
    the nearest (ties to the lower id) if within ACQUIRE_MI, else the prior
    one; None outside [MM_LO, MM_HI] or unless the vehicle is seen moving
    westbound."""
    if not westbound or not MM_LO <= mile_marker <= MM_HI:
        return None
    mm, gantry_id = min(
        zip(GANTRY_MM, GANTRY_IDS), key=lambda g: (abs(g[0] - mile_marker), g[1])
    )
    return gantry_id if abs(mm - mile_marker) <= ACQUIRE_MI else prior_id


def infer_heading_scan(mm_history, window_s=2.0):
    """Reference for infer_heading: scan back from the newest sample."""
    if len(mm_history) < 2:
        return False
    t_last, mm_last = mm_history[-1]
    if t_last - mm_history[0][0] < window_s:
        return False
    mm_then = None
    for t, mm in reversed(mm_history):
        if t_last - t >= window_s:
            mm_then = mm
            break
    if mm_then is None:
        return False
    return mm_last - mm_then < -1e-9


def acquire_edges(mm):
    """The farthest mile markers west and east of mm within ACQUIRE_MI of it.

    No float lies exactly ACQUIRE_MI from a gantry, so these are the
    acquisition's edges."""
    edges = []
    for sign in (-1.0, 1.0):
        x = mm + sign * ACQUIRE_MI
        while abs(x - mm) > ACQUIRE_MI:
            x = math.nextafter(x, mm)
        edges.append(x)
    return edges


# On every gantry, every midpoint, both acquisition edges of every gantry
# and the floats either side of them, and just outside [MM_LO, MM_HI].
LATTICE_MARKS = sorted(
    {m for mm in GANTRY_MM for x in acquire_edges(mm)
     for m in (mm, mm + GANTRY_SPACING_MI / 2, x, math.nextafter(x, mm),
               math.nextafter(x, 2 * x - mm))}
    | {MM_LO - GANTRY_SPACING_MI / 2, math.nextafter(MM_LO, -math.inf),
       math.nextafter(MM_HI, math.inf)}
)


class TestGantryLattice:
    def test_covers_bounds_at_half_mile_spacing(self):
        assert len(GANTRY_MM) == len(GANTRY_IDS) == 35
        assert GANTRY_MM[0] == MM_LO == 53.0 and GANTRY_MM[-1] == MM_HI == 70.0
        assert all(b - a == GANTRY_SPACING_MI for a, b in zip(GANTRY_MM, GANTRY_MM[1:]))
        assert GANTRY_IDS[0] == "wb_053.00" and GANTRY_IDS[-1] == "wb_070.00"
        assert "wb_060.50" in GANTRY_IDS

    def test_acquire_mi_under_half_the_spacing(self):
        # At most one gantry is in range, and a midpoint is in range of none.
        assert ACQUIRE_MI < GANTRY_SPACING_MI / 2


def gantry_after_approach(mile_marker, step=1e-3, prior_id=None):
    """The tracker's gantry at mile_marker, reached over one heading window
    from mile_marker + step (positive: westbound, 0: standing still), with
    prior_id held."""
    tracker = GantryTracker(poll_period_s=5.0)
    tracker.update(mile_marker + step, 0.0)
    tracker.gantry_id = prior_id
    return tracker.update(mile_marker, HEADING_WINDOW_S)[0]


class TestActiveGantry:
    def test_acquires_within_bound(self):
        assert gantry_after_approach(59.95) == "wb_060.00"

    @pytest.mark.parametrize("gantry", range(len(GANTRY_MM)))
    def test_acquires_on_each_gantry(self, gantry):
        assert gantry_after_approach(GANTRY_MM[gantry]) == GANTRY_IDS[gantry]

    @pytest.mark.parametrize("side", [0, 1], ids=["west", "east"])
    def test_acquisition_edge_at_acquire_mi(self, side):
        edge = acquire_edges(60.0)[side]
        assert gantry_after_approach(edge) == "wb_060.00"
        beyond = math.nextafter(edge, 2 * edge - 60.0)
        assert gantry_after_approach(beyond) is None
        assert gantry_after_approach(beyond, prior_id="wb_059.50") == "wb_059.50"

    def test_no_acquisition_without_prior_is_invalid(self):
        assert gantry_after_approach(60.30) is None

    def test_midpoint_acquires_neither_neighbour(self):
        assert gantry_after_approach(60.25) is None
        assert gantry_after_approach(60.25, prior_id="wb_060.50") == "wb_060.50"

    def test_prior_acquisition_persists_between_gantries(self):
        gantry_id = gantry_after_approach(59.80, prior_id="wb_060.00")
        assert gantry_id == "wb_060.00"

    def test_outside_corridor_is_invalid_even_with_prior(self):
        # All but 52.0 lie within ACQUIRE_MI of an end gantry.
        for mm in (52.0, math.nextafter(MM_LO, -math.inf),
                   math.nextafter(MM_HI, math.inf), 70.1):
            assert gantry_after_approach(mm, prior_id="wb_053.00") is None

    def test_wrong_direction_gantries_ignored(self):
        # The gantries face westbound traffic; moving eastbound sees none.
        assert gantry_after_approach(60.0, step=-1e-3, prior_id="wb_060.00") is None

    def test_unknown_heading_is_invalid(self):
        assert gantry_after_approach(60.0, step=0.0, prior_id="wb_060.00") is None


class TestActiveGantryMatchesScan:
    """The tracker's lattice index against the scan over every gantry."""

    @settings(max_examples=300, deadline=None)
    @given(
        mm=st.one_of(st.sampled_from(LATTICE_MARKS), st.floats(52.0, 71.0)),
        prior_id=st.one_of(st.none(), st.sampled_from(GANTRY_IDS)),
    )
    def test_lattice(self, mm, prior_id):
        expected = active_gantry_scan(mm, True, prior_id)
        assert gantry_after_approach(mm, prior_id=prior_id) == expected


class PollTimerRef:
    """Reference fetch cadence: one fetch on each acquisition, then one at
    the first tick at least period seconds after the last fetch."""

    def __init__(self, period):
        self.period = period
        self.last_fetch = None

    def fetch(self, gantry_id, acquired, now):
        if acquired:
            self.last_fetch = now
            return True
        if gantry_id is None or now - self.last_fetch < self.period:
            return False
        self.last_fetch = now
        return True


class TestGantryTracker:
    def test_acquisition_hold_and_reset(self):
        tracker = GantryTracker(poll_period_s=5.0)
        assert tracker.update(60.25, 0.0) == (None, False, False)
        assert tracker.update(60.05, 2.0) == ("wb_060.00", True, True)
        assert tracker.update(59.80, 4.0) == ("wb_060.00", False, False)
        assert tracker.update(59.70, 7.0) == ("wb_060.00", False, True)
        assert tracker.update(59.60, 8.0) == ("wb_059.50", True, True)
        assert tracker.update(52.5, 10.0) == (None, False, False)
        assert tracker.gantry_id is None

    @settings(max_examples=200, deadline=None)
    @given(
        dt=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
        period=st.sampled_from([0.05, 1.0, 2.5, 5.0]),
        start=st.one_of(st.sampled_from(LATTICE_MARKS), st.floats(MM_LO, MM_HI)),
        moves=st.lists(
            st.one_of(
                # Drives, stops (heading unknown) and jumps out of and back
                # into the corridor.
                st.sampled_from([0.0, -1e-3, 1e-3, -0.02, 0.02, -5.0, 5.0]),
                st.floats(-0.05, 0.05),
            ),
            min_size=1,
            max_size=300,
        ),
    )
    def test_same_events_as_oracle(self, dt, period, start, moves):
        """Per tick, update gives what the scan oracles and the reference
        cadence give on the untrimmed history."""
        tracker = GantryTracker(period)
        timer = PollTimerRef(period)
        history = []
        prior_id = None
        t = 0.0
        mm = start
        for move in moves:
            history.append((t, mm))
            gantry_id = active_gantry_scan(mm, infer_heading_scan(history), prior_id)
            acquired = gantry_id is not None and gantry_id != prior_id
            expected = (gantry_id, acquired, timer.fetch(gantry_id, acquired, t))
            assert tracker.update(mm, t) == expected
            prior_id = gantry_id
            t = round(t + dt, 9)
            mm += move


class TestPollSchedule:
    def test_single_entry_every_five_seconds(self):
        assert poll_schedule([100.0], until=117.0) == [100.0, 105.0, 110.0, 115.0]

    def test_reentry_resets_cadence(self):
        assert poll_schedule([100.0, 103.0], until=114.0) == [
            100.0,
            103.0,
            108.0,
            113.0,
        ]

    def test_no_entry_no_fetches(self):
        assert poll_schedule([], until=1000.0) == []

    def test_poll_timer_matches_schedule(self):
        # Gantry wb_060.00 is reached (within ACQUIRE_MI) at t = 10 s.
        tracker = GantryTracker(poll_period_s=5.0)
        fetches = []
        dt = 0.05
        for i in range(int(120.0 / dt)):
            now = round(i * dt, 3)
            _, acquired, fetch = tracker.update(60.15 + 1e-3 * (10.0 - now), now)
            assert acquired == (now == 10.0)
            if fetch:
                fetches.append(now)
        assert fetches == poll_schedule([10.0], until=119.95)


class TestVslAlgorithm:
    def setup_method(self):
        self.cfg = VslConfig()

    def test_congested_minimum_posts_buffered_speed(self):
        # 8.9 m/s is just under 20 mph; +10 mph buffer rounds to 30.
        assert vsl_algorithm([8.9, 20.0], 40, self.cfg) == 30

    def test_free_flow_posts_maximum(self):
        assert vsl_algorithm([31.3, 33.0], 70, self.cfg) == 70

    def test_above_activation_threshold_stays_at_maximum(self):
        # 22.35 m/s is 50 mph, above the 45 mph activation threshold.
        assert vsl_algorithm([22.35], 70, self.cfg) == 70

    def test_rate_limit_caps_drop_per_update(self):
        assert vsl_algorithm([8.9], 70, self.cfg) == 60
        assert vsl_algorithm([8.9], 60, self.cfg) == 50

    def test_rate_limit_caps_recovery_per_update(self):
        assert vsl_algorithm([31.3], 30, self.cfg) == 40

    def test_no_data_posts_maximum(self):
        assert vsl_algorithm([None, math.nan], 70, self.cfg) == 70

    @given(
        speeds=st.lists(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
            max_size=5,
        ),
        prev=st.sampled_from([30, 35, 40, 45, 50, 55, 60, 65, 70]),
    )
    @settings(max_examples=300)
    def test_posting_invariants(self, speeds, prev):
        posted = vsl_algorithm(speeds, prev, self.cfg)
        assert 30 <= posted <= 70
        assert posted % 5 == 0
        assert abs(posted - prev) <= 10


class TestFeedClient:
    def test_latency_delays_delivery(self):
        feed = FeedClient(FeedConfig(latency_s=60.0), random.Random(0))
        feed.publish(mph_to_mps(50), now=100.0)
        assert feed.poll(159.95) is None
        assert feed.poll(160.0) == mph_to_mps(50)

    def test_total_dropout_goes_stale_after_bound(self):
        feed = FeedClient(FeedConfig(dropout=0.0, staleness_s=60.0), random.Random(0))
        feed.publish(20.0, now=0.0)
        assert feed.poll(0.0) == 20.0
        blackout = FeedConfig(dropout=1.0, staleness_s=60.0)
        feed.cfg = blackout
        for t in range(1, 91, 5):
            feed.publish(25.0, now=float(t))
        assert feed.poll(60.0) == 20.0
        assert feed.poll(60.1) is None

    def test_dropout_is_seeded(self):
        def run(seed):
            # Each posted speed is its publish time, so a delivery names it.
            feed = FeedClient(FeedConfig(dropout=0.5), random.Random(seed))
            out = []
            for t in range(40):
                feed.publish(float(t), now=float(t))
                out.append(feed.poll(float(t)))
            return out

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestInferHeading:
    def test_decreasing_mile_markers_is_westbound(self):
        hist = [(t * 0.5, 60.0 - 0.005 * t) for t in range(10)]
        assert infer_heading(hist) is True

    def test_increasing_mile_markers_is_not_westbound(self):
        hist = [(t * 0.5, 60.0 + 0.005 * t) for t in range(10)]
        assert infer_heading(hist) is False

    def test_insufficient_history_is_unknown(self):
        assert infer_heading([(0.0, 60.0), (1.0, 59.99)]) is False

    def test_stationary_is_unknown(self):
        hist = [(t * 0.5, 60.0) for t in range(10)]
        assert infer_heading(hist) is False


class TestInferHeadingMatchesScan:
    """infer_heading against the backward scan on histories stamped as World
    stamps them, t = round(t + dt, 9), and trimmed by GantryTracker.update."""

    @settings(max_examples=200, deadline=None)
    @given(
        dt=st.one_of(st.sampled_from([0.05, 0.1, 0.01]), st.floats(0.001, 0.1)),
        t0=st.sampled_from([0.0, 0.05, 12.3, 599.95]),
        moves=st.lists(
            st.one_of(
                st.sampled_from([-1e-3, -1e-9, 0.0, 1e-9, 2e-9, 1e-3]),
                st.floats(-1e-3, 1e-3),
            ),
            min_size=1,
            max_size=600,
        ),
    )
    def test_same_heading_as_scan(self, dt, t0, moves):
        tracker = GantryTracker(poll_period_s=5.0)
        t, mm = t0, 60.0
        for move in moves:
            tracker.update(mm, t)
            history = tracker.mm_history
            assert infer_heading(history) is infer_heading_scan(history)
            t = round(t + dt, 9)
            mm += move
