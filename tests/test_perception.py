"""Tests for radar synthesis and the prevailing-speed estimator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.perception import (
    MAX_NOISE_SIGMA,
    EstimatorConfig,
    PrevailingSpeedEstimator,
    RadarConfig,
    RadarFrame,
    lead_vehicle,
    synthesize_radar,
)


def make_frame(t, specs):
    """specs: list of (rel_position, rel_speed, lane_offset) targets."""
    return RadarFrame(timestamp=t, targets=tuple(specs))


class TestSynthesizeRadar:
    """synthesize_radar sorts, caps and adds noise; the world has already
    chosen the candidates, (rel_position, target_id, speed, lane_offset)."""

    def setup_method(self):
        self.cfg = RadarConfig(max_range=120.0, max_targets=16)

    def test_sorted_by_range_and_capped_at_max_targets(self):
        candidates = [(2.0 * (i + 1), f"v{i:02d}", 22.0, 0) for i in range(30)]
        random.Random(3).shuffle(candidates)
        frame = synthesize_radar(20.0, candidates, self.cfg, 3.0, random.Random(0))
        assert frame.timestamp == 3.0
        assert len(frame.targets) == 16
        assert frame.targets == tuple((2.0 * (i + 1), 2.0, 0) for i in range(16))
        assert all(type(t) is tuple for t in frame.targets)

    def test_max_targets_bounds(self):
        # The world builds up to max_targets + 1 candidates per phantom
        # stream each tick, so the cap bounds that work too.
        assert RadarConfig(max_targets=1).max_targets == 1
        assert RadarConfig(max_targets=256).max_targets == 256
        for bad in (0, 257, 10**9):
            with pytest.raises(ValueError, match="max_targets: must be 1 to 256"):
                RadarConfig(max_targets=bad)

    def test_range_tie_breaks_on_vehicle_id(self):
        candidates = [(40.0, "bbb", 22.0, 1), (40.0, "aaa", 24.0, -1)]
        frame = synthesize_radar(20.0, candidates, self.cfg, 0.0, random.Random(0))
        assert frame.targets == ((40.0, 4.0, -1), (40.0, 2.0, 1))

    def test_tie_break_keeps_targets_at_the_cap(self):
        cfg = RadarConfig(max_targets=2)
        candidates = [(30.0, "c", 20.0, 0), (10.0, "z", 20.0, 1), (30.0, "b", 21.0, -1)]
        frame = synthesize_radar(20.0, candidates, cfg, 0.0, random.Random(0))
        assert frame.targets == ((10.0, 0.0, 1), (30.0, 1.0, -1))

    def test_keeps_what_it_is_given(self):
        # Range, lane and ego tests belong to World._radar_candidates.
        candidates = [(-5.0, "behind", 25.0, 0), (500.0, "far", 25.0, 2)]
        frame = synthesize_radar(20.0, candidates, self.cfg, 0.0, random.Random(0))
        assert frame.targets == ((-5.0, 5.0, 0), (500.0, 5.0, 2))

    def test_noise_is_reproducible_and_zero_mean_ish(self):
        cfg = RadarConfig(noise_sigma=0.5, max_targets=2)
        candidates = [(50.0, "b", 26.0, 1), (30.0, "a", 25.0, 0), (90.0, "c", 27.0, 0)]
        rng = random.Random(7)
        f1 = synthesize_radar(20.0, candidates, cfg, 0.0, rng)
        assert f1 == synthesize_radar(20.0, candidates, cfg, 0.0, random.Random(7))
        # One draw per kept target, nearest first, and none for the rest.
        draws = random.Random(7)
        assert [rel_speed for _, rel_speed, _ in f1.targets] == [
            5.0 + draws.gauss(0.0, 0.5),
            6.0 + draws.gauss(0.0, 0.5),
        ]
        assert rng.getstate() == draws.getstate()

    def test_noise_sigma_above_its_bound_is_rejected(self):
        # At 1e308 a draw could overflow to an infinite target speed, which
        # the estimator's exact window cannot hold and no reader accepts.
        RadarConfig(noise_sigma=MAX_NOISE_SIGMA)
        for sigma in (MAX_NOISE_SIGMA * (1 + 1e-15), 1e308):
            with pytest.raises(ValueError, match="noise_sigma: must be 0 to 10 m/s"):
                RadarConfig(noise_sigma=sigma)

    def test_non_finite_noise_sigma_is_rejected(self):
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="noise_sigma"):
                RadarConfig(noise_sigma=sigma)


class TestLeadVehicle:
    def test_nearest_ego_lane_target_wins(self):
        frame = make_frame(
            0.0, [(12.0, 3.0, 1), (20.0, -2.0, 0), (35.0, 1.0, 0)]
        )
        assert lead_vehicle(frame, v_ego=20.0) == (20.0, 18.0)

    def test_no_ego_lane_target_means_no_lead(self):
        frame = make_frame(0.0, [(12.0, 3.0, 1), (30.0, 1.0, -1)])
        assert lead_vehicle(frame, v_ego=20.0) is None


def admit(est, samples, v_ego=10.0):
    """Fill est's window through update_prevailing: a frame at each sample's
    (t, speed), holding one ego-lane target that much faster than v_ego."""
    for t, speed in samples:
        est.update_prevailing(make_frame(t, [(30.0, speed - v_ego, 0)]), v_ego)


class TestPrevailingEstimator:
    def test_mean_over_window_and_new_samples(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=5.0, min_count=5))
        admit(est, [(9.0, 13.0), (9.5, 12.0), (9.8, 14.0)])
        frame = make_frame(10.0, [(30.0, 2.0, 0), (50.0, 4.0, 1), (70.0, -1.0, 0)])
        v_pr = est.update_prevailing(frame, v_ego=10.0)
        assert v_pr == pytest.approx(13.0, abs=1e-12)

    def test_below_min_count_reports_off(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=5.0, min_count=5))
        admit(est, [(9.0, 13.0), (9.5, 12.0)])
        frame = make_frame(10.0, [(30.0, 2.0, 0)])
        assert est.update_prevailing(frame, v_ego=10.0) == 0.0

    def test_old_samples_age_out(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=5.0, min_count=1))
        admit(est, [(1.0, 30.0), (4.9, 28.0)])
        frame = make_frame(9.0, [(30.0, 2.0, 0)])
        v_pr = est.update_prevailing(frame, v_ego=10.0)
        assert v_pr == pytest.approx((28.0 + 12.0) / 2.0)

    def test_slower_targets_never_enter(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(min_count=1))
        frame = make_frame(0.0, [(20.0, -3.0, 0), (40.0, 0.0, 0)])
        assert est.update_prevailing(frame, v_ego=10.0) == 0.0
        assert len(est.samples) == 0

    def test_adjacent_lane_exclusion_flag(self):
        cfg = EstimatorConfig(min_count=1, include_adjacent=False)
        est = PrevailingSpeedEstimator(cfg)
        frame = make_frame(0.0, [(20.0, 3.0, 1), (40.0, 5.0, 0)])
        v_pr = est.update_prevailing(frame, v_ego=10.0)
        assert v_pr == pytest.approx(15.0)
        assert len(est.samples) == 1

    @given(
        v_ego=st.floats(min_value=0.0, max_value=40.0),
        rels=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=119.0),
                st.floats(min_value=-10.0, max_value=10.0).map(
                    lambda x: round(x, 3)
                ),
                st.integers(min_value=-1, max_value=1),
            ),
            max_size=16,
        ),
    )
    @settings(max_examples=200)
    def test_estimator_contract(self, v_ego, rels):
        """Off exactly below min_count; otherwise the mean of admitted
        speeds, all of which exceeded the ego speed at admission."""
        est = PrevailingSpeedEstimator(EstimatorConfig(min_count=3))
        frame = make_frame(0.0, rels)
        v_pr = est.update_prevailing(frame, v_ego)
        admitted = [v_ego + rs for _, rs, _ in rels if rs > 0.0]
        if len(admitted) < 3:
            assert v_pr == 0.0
        else:
            assert v_pr == pytest.approx(sum(admitted) / len(admitted))
            assert v_pr > v_ego

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=40.0),
                st.lists(st.one_of(st.floats(min_value=-1e-300, max_value=1e-300),
                                   st.floats(min_value=-50.0, max_value=50.0),
                                   st.floats(min_value=-1e300, max_value=1e300)),
                         max_size=6),
            ),
            max_size=30,
        ),
    )
    def test_mean_is_the_correctly_rounded_window_mean(self, frames):
        # The running integer sum gives the exact mean of the window's
        # speeds, rounded once, on every tick: speeds of very different
        # sizes, entering and ageing out, leave no rounding behind.
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=3.0, min_count=1))
        window, t = [], 0.0
        for dt, v_ego, rel_speeds in frames:
            t += dt
            frame = make_frame(t, [(10.0 + k, rs, 0) for k, rs in enumerate(rel_speeds)])
            v_pr = est.update_prevailing(frame, v_ego)
            window += [(t, v_ego + rs) for rs in rel_speeds if rs > 0.0]
            window = [(ts, speed) for ts, speed in window if ts > t - 3.0]
            speeds = [Fraction(speed) for _, speed in window]
            assert v_pr == (float(sum(speeds) / len(speeds)) if speeds else 0.0)
        if not window:
            assert est.exact_sum == 0
