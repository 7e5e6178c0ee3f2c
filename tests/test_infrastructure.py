"""Tests for gantries, advisory acquisition, polling, posting, and the feed."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.infrastructure import (
    ACQUIRE_MI,
    HEADING_WINDOW_S,
    CorridorMap,
    Direction,
    FeedClient,
    FeedConfig,
    Gantry,
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


def nearest_scan(corridor, mile_marker, heading):
    """Reference for CorridorMap.nearest: a linear scan over every gantry."""
    matching = [g for g in corridor.gantries if g.direction == heading]
    if not matching:
        return None
    return min(
        matching, key=lambda g: (abs(g.mile_marker - mile_marker), g.gantry_id)
    )


def active_gantry_scan(mile_marker, heading, corridor, prior_id=None):
    """Reference for the tracker's acquisition: the nearest same-direction
    gantry within ACQUIRE_MI, else the prior one; None outside the corridor
    or with an unknown heading."""
    if heading is None or not corridor.contains(mile_marker):
        return None
    nearest = nearest_scan(corridor, mile_marker, heading)
    if nearest is None:
        return None
    if abs(nearest.mile_marker - mile_marker) <= ACQUIRE_MI:
        return nearest.gantry_id
    return prior_id


def infer_heading_scan(mm_history, window_s=2.0):
    """Reference for infer_heading: scan back from the newest sample."""
    if len(mm_history) < 2:
        return None
    t_last, mm_last = mm_history[-1]
    if t_last - mm_history[0][0] < window_s:
        return None
    mm_then = None
    for t, mm in reversed(mm_history):
        if t_last - t >= window_s:
            mm_then = mm
            break
    if mm_then is None:
        return None
    delta = mm_last - mm_then
    if delta > 1e-9:
        return Direction.EASTBOUND
    if delta < -1e-9:
        return Direction.WESTBOUND
    return None


@pytest.fixture
def corridor():
    return CorridorMap.build(mm_lo=53.0, mm_hi=70.0, spacing_mi=0.5)


# Both headings, shared and duplicate mile markers, ids out of marker order.
MIXED_CORRIDOR_ROWS = (
    ("wb_b", 60.0, "westbound"),
    ("wb_a", 60.0, "westbound"),
    ("eb_60", 60.0, "eastbound"),
    ("wb_60_3", 60.3, "westbound"),
    ("eb_60_2", 60.2, "eastbound"),
    ("eb_60_2x", 60.2, "eastbound"),
    ("wb_z", 60.5, "westbound"),
    ("wb_y", 61.1, "westbound"),
    ("eb_61", 61.0, "eastbound"),
    ("eb_62", 62.0, "eastbound"),
)


@pytest.fixture(scope="module")
def mixed_corridor():
    gantries = [Gantry(gid, mm, Direction(d)) for gid, mm, d in MIXED_CORRIDOR_ROWS]
    return CorridorMap(gantries, 60.0, 62.0)


def _midpoints(corridor):
    mms = sorted({g.mile_marker for g in corridor.gantries})
    return [(a + b) / 2.0 for a, b in zip(mms, mms[1:])] + mms


class TestCorridorMap:
    def test_build_covers_bounds_at_half_mile_spacing(self, corridor):
        mms = [g.mile_marker for g in corridor.gantries]
        assert len(mms) == 35
        assert mms[0] == 53.0 and mms[-1] == 70.0
        assert all(
            b - a == pytest.approx(0.5) for a, b in zip(mms, mms[1:])
        )


def gantry_after_approach(corridor, mile_marker, heading, prior_id=None):
    """The tracker's gantry at mile_marker, reached over one heading window
    in the given heading (None: standing still), with prior_id held."""
    step = {Direction.WESTBOUND: 1e-3, Direction.EASTBOUND: -1e-3, None: 0.0}
    tracker = GantryTracker(corridor, poll_period_s=5.0)
    tracker.update(mile_marker + step[heading], 0.0)
    tracker.gantry_id = prior_id
    return tracker.update(mile_marker, HEADING_WINDOW_S)[0]


class TestActiveGantry:
    def test_acquires_within_bound(self, corridor):
        gantry_id = gantry_after_approach(corridor, 59.95, Direction.WESTBOUND)
        assert gantry_id == "wb_060.00"

    def test_acquires_at_exactly_acquire_mi(self):
        corridor = CorridorMap([Gantry("g", 0.0, Direction.WESTBOUND)], -1.0, 1.0)
        assert gantry_after_approach(corridor, ACQUIRE_MI, Direction.WESTBOUND) == "g"

    def test_no_acquisition_without_prior_is_invalid(self, corridor):
        assert gantry_after_approach(corridor, 60.30, Direction.WESTBOUND) is None

    def test_prior_acquisition_persists_between_gantries(self, corridor):
        gantry_id = gantry_after_approach(
            corridor, 59.80, Direction.WESTBOUND, prior_id="wb_060.00"
        )
        assert gantry_id == "wb_060.00"

    def test_outside_corridor_is_invalid_even_with_prior(self, corridor):
        gantry_id = gantry_after_approach(
            corridor, 52.0, Direction.WESTBOUND, prior_id="wb_053.00"
        )
        assert gantry_id is None

    def test_wrong_direction_gantries_ignored(self):
        gantries = [Gantry("eb_060.00", 60.0, Direction.EASTBOUND)]
        corridor = CorridorMap(gantries, 53.0, 70.0)
        assert gantry_after_approach(corridor, 60.0, Direction.WESTBOUND) is None

    def test_unknown_heading_is_invalid(self, corridor):
        assert gantry_after_approach(
            corridor, 60.0, None, prior_id="wb_060.00"
        ) is None


class TestActiveGantryMatchesScan:
    """CorridorMap.nearest's bisect lookup against the linear scan, ties and
    duplicates included."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        heading=st.sampled_from(list(Direction)),
    )
    def test_mixed_corridor(self, mixed_corridor, data, heading):
        mm = data.draw(
            st.one_of(
                st.sampled_from(_midpoints(mixed_corridor)),
                st.floats(59.5, 62.5, allow_nan=False),
            )
        )
        assert mixed_corridor.nearest(mm, heading) == nearest_scan(
            mixed_corridor, mm, heading
        )

    @settings(max_examples=300, deadline=None)
    @given(
        markers=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0, 1e-300, 5e-324, 1e16]),
                    st.floats(-10.0, 10.0, allow_nan=False),
                ),
                st.sampled_from(list(Direction)),
                st.text("abc", min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda m: m[2],
        ),
        data=st.data(),
        heading=st.sampled_from(list(Direction)),
    )
    def test_generated_corridor(self, markers, data, heading):
        gantries = [Gantry(gid, mm, d) for mm, d, gid in markers]
        corridor = CorridorMap(gantries, -20.0, 2e16)
        mm = data.draw(
            st.one_of(
                st.sampled_from(_midpoints(corridor)),
                st.floats(corridor.mm_lo, corridor.mm_hi, allow_nan=False),
            )
        )
        assert corridor.nearest(mm, heading) == nearest_scan(corridor, mm, heading)


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
    def test_acquisition_hold_and_reset(self, corridor):
        tracker = GantryTracker(corridor, poll_period_s=5.0)
        assert tracker.update(60.25, 0.0) == (None, False, False)
        assert tracker.update(60.05, 2.0) == ("wb_060.00", True, True)
        assert tracker.update(59.80, 4.0) == ("wb_060.00", False, False)
        assert tracker.update(59.70, 7.0) == ("wb_060.00", False, True)
        assert tracker.update(59.60, 8.0) == ("wb_059.50", True, True)
        assert tracker.update(52.5, 10.0) == (None, False, False)
        assert tracker.gantry_id is None

    @settings(max_examples=200, deadline=None)
    @given(
        use_mixed=st.booleans(),
        dt=st.sampled_from([0.05, 0.1, 0.3, 1.0]),
        period=st.sampled_from([0.05, 1.0, 2.5, 5.0]),
        start=st.floats(0.0, 1.0),
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
    def test_same_events_as_oracle(
        self, mixed_corridor, use_mixed, dt, period, start, moves
    ):
        """Per tick, update gives what the scan oracles and the reference
        cadence give on the untrimmed history."""
        cmap = mixed_corridor if use_mixed else CorridorMap.build()
        tracker = GantryTracker(cmap, period)
        timer = PollTimerRef(period)
        history = []
        prior_id = None
        t = 0.0
        mm = cmap.mm_lo + start * (cmap.mm_hi - cmap.mm_lo)
        for move in moves:
            history.append((t, mm))
            gantry_id = active_gantry_scan(
                mm, infer_heading_scan(history), cmap, prior_id
            )
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
        # One westbound gantry, reached (within ACQUIRE_MI) at t = 10 s.
        gantries = [Gantry("g", 60.0, Direction.WESTBOUND)]
        tracker = GantryTracker(CorridorMap(gantries, 50.0, 70.0), poll_period_s=5.0)
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
        feed = FeedClient(FeedConfig(latency_s=60.0))
        feed.publish(mph_to_mps(50), now=100.0)
        assert feed.poll(159.95) is None
        assert feed.poll(160.0) == mph_to_mps(50)

    def test_total_dropout_goes_stale_after_bound(self):
        feed = FeedClient(FeedConfig(dropout=0.0, staleness_s=60.0))
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
        assert infer_heading(hist) is Direction.WESTBOUND

    def test_increasing_mile_markers_is_eastbound(self):
        hist = [(t * 0.5, 60.0 + 0.005 * t) for t in range(10)]
        assert infer_heading(hist) is Direction.EASTBOUND

    def test_insufficient_history_is_unknown(self):
        assert infer_heading([(0.0, 60.0), (1.0, 59.99)]) is None

    def test_stationary_is_unknown(self):
        hist = [(t * 0.5, 60.0) for t in range(10)]
        assert infer_heading(hist) is None


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
        tracker = GantryTracker(CorridorMap.build(), poll_period_s=5.0)
        t, mm = t0, 60.0
        for move in moves:
            tracker.update(mm, t)
            history = tracker.mm_history
            assert infer_heading(history) is infer_heading_scan(history)
            t = round(t + dt, 9)
            mm += move
