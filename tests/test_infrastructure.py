"""Tests for gantries, advisory acquisition, polling, posting, and the feed."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.infrastructure import (
    CorridorMap,
    Direction,
    FeedClient,
    FeedConfig,
    Gantry,
    GantryTracker,
    PollTimer,
    VslConfig,
    VslReading,
    active_gantry,
    infer_heading,
    vsl_algorithm,
)
from middleway.units import mph_to_mps


def poll_schedule(
    entry_times: list[float], until: float, period: float = 5.0
) -> list[float]:
    """Reference fetch times for PollTimer: one on each bounds entry, then
    every period seconds until the next entry resets the cadence."""
    entries = sorted(entry_times)
    fetches: list[float] = []
    for i, start in enumerate(entries):
        stop = entries[i + 1] if i + 1 < len(entries) else math.inf
        t = start
        while t < stop and t <= until:
            fetches.append(t)
            t += period
    return fetches


def active_gantry_scan(mile_marker, heading, corridor, prior_id=None, acquire_mi=0.15):
    """Reference for active_gantry: a linear scan over every gantry."""
    if heading is None or not corridor.contains(mile_marker):
        return None
    matching = [g for g in corridor.gantries if g.direction == heading]
    if not matching:
        return None
    nearest = min(
        matching, key=lambda g: (abs(g.mile_marker - mile_marker), g.gantry_id)
    )
    if abs(nearest.mile_marker - mile_marker) <= acquire_mi:
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
MIXED_CORRIDOR_CSV = """gantry_id,mile_marker,direction
wb_b,60.0,westbound
wb_a,60.0,westbound
eb_60,60.0,eastbound
wb_60_3,60.3,westbound
eb_60_2,60.2,eastbound
eb_60_2x,60.2,eastbound
wb_z,60.5,westbound
wb_y,61.1,westbound
eb_61,61.0,eastbound
eb_62,62.0,eastbound
"""


@pytest.fixture(scope="module")
def mixed_corridor(tmp_path_factory):
    path = tmp_path_factory.mktemp("corridor") / "mixed.csv"
    path.write_text(MIXED_CORRIDOR_CSV, encoding="utf-8")
    return CorridorMap.load(path)


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

    def test_csv_round_trip(self, corridor, tmp_path):
        path = tmp_path / "corridor.csv"
        corridor.save(path)
        loaded = CorridorMap.load(path)
        assert [g.gantry_id for g in loaded.gantries] == [
            g.gantry_id for g in corridor.gantries
        ]
        assert loaded.mm_lo == corridor.mm_lo
        assert loaded.mm_hi == corridor.mm_hi
        assert all(
            a.mile_marker == b.mile_marker and a.direction == b.direction
            for a, b in zip(loaded.gantries, corridor.gantries)
        )


class TestActiveGantry:
    def test_acquires_within_bound(self, corridor):
        assert active_gantry(59.95, Direction.WESTBOUND, corridor) == "wb_060.00"

    def test_no_acquisition_without_prior_is_invalid(self, corridor):
        assert active_gantry(60.30, Direction.WESTBOUND, corridor) is None

    def test_prior_acquisition_persists_between_gantries(self, corridor):
        gantry_id = active_gantry(
            59.80, Direction.WESTBOUND, corridor, prior_id="wb_060.00"
        )
        assert gantry_id == "wb_060.00"

    def test_outside_corridor_is_invalid_even_with_prior(self, corridor):
        gantry_id = active_gantry(
            52.0, Direction.WESTBOUND, corridor, prior_id="wb_053.00"
        )
        assert gantry_id is None

    def test_wrong_direction_gantries_ignored(self):
        gantries = [Gantry("eb_060.00", 60.0, Direction.EASTBOUND)]
        corridor = CorridorMap(gantries, 53.0, 70.0)
        assert active_gantry(60.0, Direction.WESTBOUND, corridor) is None

    def test_unknown_heading_is_invalid(self, corridor):
        assert active_gantry(60.0, None, corridor) is None


class TestActiveGantryMatchesScan:
    """Bisect lookup against the linear scan, ties and duplicates included."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        heading=st.sampled_from([Direction.WESTBOUND, Direction.EASTBOUND, None]),
        prior_id=st.sampled_from([None, "wb_a", "eb_61"]),
        acquire_mi=st.sampled_from([0.0, 0.1, 0.15, 0.25, 1.0]),
    )
    def test_mixed_corridor(self, mixed_corridor, data, heading, prior_id, acquire_mi):
        mm = data.draw(
            st.one_of(
                st.sampled_from(_midpoints(mixed_corridor)),
                st.floats(59.5, 62.5, allow_nan=False),
            )
        )
        assert active_gantry(
            mm, heading, mixed_corridor, prior_id, acquire_mi
        ) == active_gantry_scan(mm, heading, mixed_corridor, prior_id, acquire_mi)

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
        assert active_gantry(mm, heading, corridor, None, 1e300) == active_gantry_scan(
            mm, heading, corridor, None, 1e300
        )


class TestGantryTracker:
    def test_acquisition_hold_and_reset(self, corridor):
        tracker = GantryTracker(corridor)
        assert tracker.update(60.05, Direction.WESTBOUND) == ("wb_060.00", True)
        assert tracker.update(59.80, Direction.WESTBOUND) == ("wb_060.00", False)
        assert tracker.update(59.60, Direction.WESTBOUND) == ("wb_059.50", True)
        assert tracker.update(52.5, Direction.WESTBOUND) == (None, False)
        assert tracker.prior_id is None


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
        timer = PollTimer(period=5.0)
        fetches = []
        dt = 0.05
        for i in range(int(120.0 / dt)):
            now = round(i * dt, 3)
            if now == 10.0:
                timer.on_entry(now)
                fetches.append(now)
            elif timer.due(now):
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
        reading = VslReading("g", mph_to_mps(50), 100.0)
        feed.publish(reading, now=100.0)
        assert feed.poll(159.95) is None
        delivered = feed.poll(160.0)
        assert delivered == reading

    def test_total_dropout_goes_stale_after_bound(self):
        feed = FeedClient(FeedConfig(dropout=0.0, staleness_s=60.0))
        good = VslReading("g", 20.0, 0.0)
        feed.publish(good, now=0.0)
        assert feed.poll(0.0) == good
        blackout = FeedConfig(dropout=1.0, staleness_s=60.0)
        feed.cfg = blackout
        for t in range(1, 91, 5):
            feed.publish(VslReading("g", 20.0, float(t)), now=float(t))
        assert feed.poll(60.0) == good
        assert feed.poll(60.1) is None

    def test_dropout_is_seeded(self):
        readings = [VslReading("g", 20.0, float(t)) for t in range(40)]

        def run(seed):
            feed = FeedClient(FeedConfig(dropout=0.5), random.Random(seed))
            out = []
            for r in readings:
                feed.publish(r, now=r.fetched_at)
                delivered = feed.poll(r.fetched_at)
                out.append(None if delivered is None else delivered.fetched_at)
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
    """Bisect against the backward scan on histories stamped as World stamps
    them, t = round(t + dt, 9), and trimmed as the controlled tick trims them
    (past 256 samples, drop the oldest 128)."""

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
        window=st.one_of(
            st.sampled_from([2.0, 0.0]),
            st.floats(0.0, 30.0),
            # Back this many samples from the newest: the history then spans
            # exactly window_s when it starts there.
            st.integers(0, 300),
        ),
    )
    def test_same_heading_as_scan(self, dt, t0, moves, window):
        history = []
        t, mm = t0, 60.0
        for move in moves:
            history.append((t, mm))
            if len(history) > 256:
                del history[:128]
            if isinstance(window, int):
                window_s = history[-1][0] - history[max(0, len(history) - 1 - window)][0]
            else:
                window_s = window
            assert infer_heading(history, window_s) is infer_heading_scan(
                history, window_s
            )
            t = round(t + dt, 9)
            mm += move
