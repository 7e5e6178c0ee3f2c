"""Tests for radar synthesis and the prevailing-speed estimator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.perception import (
    EstimatorConfig,
    ObservedVehicle,
    PrevailingSpeedEstimator,
    RadarConfig,
    RadarFrame,
    RadarTarget,
    lead_vehicle,
    synthesize_radar,
)


def veh(vid, pos, speed, lane=0):
    return ObservedVehicle(vid, pos, speed, lane)


def make_frame(t, specs):
    """specs: list of (rel_position, rel_speed, lane_offset)."""
    targets = tuple(
        RadarTarget(rel_position=p, rel_speed=s, lane_offset=lane)
        for p, s, lane in specs
    )
    return RadarFrame(timestamp=t, targets=targets)


class TestSynthesizeRadar:
    def setup_method(self):
        self.cfg = RadarConfig(max_range=120.0, max_targets=16)
        self.ego = veh("ego", 1000.0, 20.0, lane=0)

    def test_filters_behind_out_of_range_and_far_lanes(self):
        others = [
            veh("behind", 990.0, 25.0),
            veh("far", 1200.0, 25.0),
            veh("two_over", 1050.0, 25.0, lane=2),
            veh("good", 1060.0, 25.0, lane=1),
        ]
        frame = synthesize_radar(self.ego, others, self.cfg, 3.0, random.Random(0))
        assert len(frame.targets) == 1
        t = frame.targets[0]
        assert t.rel_position == pytest.approx(60.0)
        assert t.rel_speed == pytest.approx(5.0)
        assert t.lane_offset == 1
        assert frame.timestamp == 3.0

    def test_sorted_by_range_and_capped_at_max_targets(self):
        others = [veh(f"v{i:02d}", 1000.0 + 2.0 * (i + 1), 22.0) for i in range(30)]
        frame = synthesize_radar(self.ego, others, self.cfg, 0.0, random.Random(0))
        assert len(frame.targets) == 16
        rels = [t.rel_position for t in frame.targets]
        assert rels == sorted(rels)
        assert rels[-1] == pytest.approx(32.0)

    def test_range_tie_breaks_on_vehicle_id(self):
        others = [
            veh("bbb", 1040.0, 22.0, lane=1),
            veh("aaa", 1040.0, 24.0, lane=-1),
        ]
        frame = synthesize_radar(self.ego, others, self.cfg, 0.0, random.Random(0))
        assert [t.lane_offset for t in frame.targets] == [-1, 1]

    def test_vehicle_exactly_at_ego_position_excluded(self):
        others = [veh("same", 1000.0, 25.0)]
        frame = synthesize_radar(self.ego, others, self.cfg, 0.0, random.Random(0))
        assert frame.targets == ()

    def test_noise_is_reproducible_and_zero_mean_ish(self):
        cfg = RadarConfig(noise_sigma=0.5)
        others = [veh("a", 1030.0, 25.0)]
        f1 = synthesize_radar(self.ego, others, cfg, 0.0, random.Random(7))
        f2 = synthesize_radar(self.ego, others, cfg, 0.0, random.Random(7))
        assert f1 == f2
        assert f1.targets[0].rel_speed != pytest.approx(5.0, abs=1e-9)


class TestLeadVehicle:
    def test_nearest_ego_lane_target_wins(self):
        frame = make_frame(
            0.0, [(12.0, 3.0, 1), (20.0, -2.0, 0), (35.0, 1.0, 0)]
        )
        lead = lead_vehicle(frame, v_ego=20.0)
        assert lead is not None
        assert lead.gap == pytest.approx(20.0)
        assert lead.speed == pytest.approx(18.0)

    def test_no_ego_lane_target_means_no_lead(self):
        frame = make_frame(0.0, [(12.0, 3.0, 1), (30.0, 1.0, -1)])
        assert lead_vehicle(frame, v_ego=20.0) is None


class TestPrevailingEstimator:
    def test_mean_over_window_and_new_samples(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=5.0, min_count=5))
        est.samples.extend([(9.0, 13.0), (9.5, 12.0), (9.8, 14.0)])
        frame = make_frame(10.0, [(30.0, 2.0, 0), (50.0, 4.0, 1), (70.0, -1.0, 0)])
        v_pr = est.update_prevailing(frame, v_ego=10.0)
        assert v_pr == pytest.approx(13.0, abs=1e-12)

    def test_below_min_count_reports_off(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=5.0, min_count=5))
        est.samples.extend([(9.0, 13.0), (9.5, 12.0)])
        frame = make_frame(10.0, [(30.0, 2.0, 0)])
        assert est.update_prevailing(frame, v_ego=10.0) == 0.0

    def test_old_samples_age_out(self):
        est = PrevailingSpeedEstimator(EstimatorConfig(window_s=5.0, min_count=1))
        est.samples.extend([(1.0, 30.0), (4.9, 28.0)])
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
