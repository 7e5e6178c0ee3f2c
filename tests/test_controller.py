"""Unit and property tests for the longitudinal control stack."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from middleway.controller import (
    ControlInputs,
    ControllerConfig,
    Lead,
    Mode,
    cbf_limit,
    classify_mode,
    middleway,
    nominal,
    ramp,
    select_setpoint,
    step_controller,
)


# The controller tick of the default scenario.
DT = 0.05


def cfg_with(**kw) -> ControllerConfig:
    return ControllerConfig(**kw)


speeds = st.floats(min_value=0.0, max_value=45.0, allow_nan=False)
offsets = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
caps = st.floats(min_value=1.0, max_value=45.0, allow_nan=False)


class TestMiddleway:
    def test_blend_inside_bounds(self):
        cfg = cfg_with(v_offset=2.0, v_des_max=38.0)
        assert middleway(33.5, 13.4, cfg) == pytest.approx(31.5, abs=1e-12)

    def test_estimator_off_falls_back_to_posted(self):
        cfg = cfg_with(v_offset=2.0, v_des_max=38.0)
        assert middleway(0.0, 22.35, cfg) == pytest.approx(22.35, abs=1e-12)

    def test_cap_binds(self):
        cfg = cfg_with(v_offset=2.0, v_des_max=35.0)
        assert middleway(42.0, 13.4, cfg) == pytest.approx(35.0, abs=1e-12)

    def test_floor_boundary_equality(self):
        """v_pr - v_offset == v_gr sits exactly on the posted speed."""
        cfg = cfg_with(v_offset=2.0, v_des_max=38.0)
        assert middleway(15.4, 13.4, cfg) == pytest.approx(13.4, abs=1e-12)

    def test_none_cap_is_unbounded(self):
        cfg = cfg_with(v_offset=2.0, v_des_max=None)
        assert middleway(60.0, 13.4, cfg) == 58.0

    @given(v_pr=speeds, v_gr=speeds, v_offset=offsets, cap=caps)
    def test_output_bounded(self, v_pr, v_gr, v_offset, cap):
        cfg = cfg_with(v_offset=v_offset, v_des_max=cap)
        out = middleway(v_pr, v_gr, cfg)
        assert min(v_gr, cap) - 1e-12 <= out <= cap + 1e-12

    @given(v_pr=speeds, v_gr=speeds, v_offset=offsets, cap=caps, bump=offsets)
    def test_monotone_in_prevailing_and_posted(self, v_pr, v_gr, v_offset, cap, bump):
        cfg = cfg_with(v_offset=v_offset, v_des_max=cap)
        assert middleway(v_pr + bump, v_gr, cfg) >= middleway(v_pr, v_gr, cfg)
        assert middleway(v_pr, v_gr + bump, cfg) >= middleway(v_pr, v_gr, cfg)

    @given(v_pr=speeds, v_gr=speeds, cap=caps, bump=offsets)
    def test_antitone_in_offset(self, v_pr, v_gr, cap, bump):
        lo = middleway(v_pr, v_gr, cfg_with(v_offset=2.0 + bump, v_des_max=cap))
        hi = middleway(v_pr, v_gr, cfg_with(v_offset=2.0, v_des_max=cap))
        assert lo <= hi


class TestRamp:
    def test_limits_rise(self):
        cfg = cfg_with(ramp_rate=1.5)
        assert ramp(30.0, 20.0, cfg, 0.1) == pytest.approx(20.15, abs=1e-12)

    def test_limits_fall(self):
        cfg = cfg_with(ramp_rate=1.5)
        assert ramp(10.0, 20.0, cfg, 0.1) == pytest.approx(19.85, abs=1e-12)

    def test_fixed_point(self):
        cfg = cfg_with(ramp_rate=1.5)
        assert ramp(20.0, 20.0, cfg, 0.1) == 20.0

    def test_small_gap_lands_exactly(self):
        cfg = cfg_with(ramp_rate=1.5)
        assert ramp(20.1, 20.0, cfg, 0.1) == pytest.approx(20.1, abs=1e-12)

    @given(
        v_des=speeds,
        v_prev=speeds,
        rate=st.floats(min_value=0.1, max_value=3.0),
        dt=st.floats(min_value=0.01, max_value=0.1),
    )
    def test_rate_limit_and_direction(self, v_des, v_prev, rate, dt):
        cfg = cfg_with(ramp_rate=rate)
        out = ramp(v_des, v_prev, cfg, dt)
        # 1e-12 slack: the v_des - v_prev subtraction can round across the
        # target when the magnitudes are wildly mismatched.
        assert abs(out - v_prev) <= rate * dt + 1e-12
        if v_des >= v_prev:
            assert v_prev <= out <= max(v_des, v_prev) + 1e-12
        else:
            assert min(v_des, v_prev) - 1e-12 <= out <= v_prev


class TestNominal:
    def test_proportional_gain(self):
        cfg = cfg_with(k_p=0.8)
        assert nominal(30.0, 28.0, cfg) == pytest.approx(1.6, abs=1e-12)

    @given(v_ramp=speeds, v=speeds)
    def test_sign_matches_error(self, v_ramp, v):
        out = nominal(v_ramp, v, cfg_with())
        assert out == pytest.approx(0.8 * (v_ramp - v), abs=1e-12)


class TestCbfLimit:
    def test_zero_on_barrier_matched_speed(self):
        cfg = cfg_with()
        assert cbf_limit(35.0, 10.0, 10.0, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_slack_cancels_closing_speed(self):
        cfg = cfg_with()
        assert cbf_limit(55.0, 10.0, 8.0, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_binding_case(self):
        cfg = cfg_with()
        assert cbf_limit(20.0, 10.0, 12.0, cfg) == pytest.approx(0.25, abs=1e-12)

    @given(
        gap=st.floats(min_value=0.0, max_value=200.0),
        v=speeds,
        v_lead=speeds,
        extra=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_monotone_in_gap(self, gap, v, v_lead, extra):
        cfg = cfg_with()
        assert cbf_limit(gap + extra, v, v_lead, cfg) >= cbf_limit(gap, v, v_lead, cfg)


class TestSelectSetpoint:
    def test_out_of_corridor_uses_driver_setpoint(self):
        inputs = ControlInputs(
            driver_setpoint=33.5,
            v=20.0,
            v_gr=None,
            v_pr=25.0,
        )
        v_des = select_setpoint(inputs, cfg_with())
        assert v_des == 33.5

    def test_invalid_advisory_uses_driver_setpoint(self):
        inputs = ControlInputs(
            driver_setpoint=31.3,
            v=20.0,
            v_gr=None,
            v_pr=25.0,
        )
        v_des = select_setpoint(inputs, cfg_with())
        assert v_des == 31.3

    def test_engaged_in_corridor_blends(self):
        inputs = ControlInputs(
            driver_setpoint=33.5,
            v=20.0,
            v_gr=13.4,
            v_pr=25.0,
        )
        v_des = select_setpoint(inputs, cfg_with(v_offset=2.0))
        assert v_des == pytest.approx(23.0, abs=1e-12)

    def test_driver_setpoint_caps_blend_when_no_explicit_cap(self):
        """With v_des_max unset the blend never exceeds the HUD setpoint."""
        inputs = ControlInputs(
            driver_setpoint=24.0,
            v=20.0,
            v_gr=13.4,
            v_pr=35.0,
        )
        v_des = select_setpoint(inputs, cfg_with(v_des_max=None))
        assert v_des == 24.0


class TestClassifyModeAndStep:
    def make_inputs(self, **kw) -> ControlInputs:
        base = dict(
            driver_setpoint=33.5,
            v=13.4,
            v_gr=13.4,
            v_pr=0.0,
            lead=None,
        )
        base.update(kw)
        return ControlInputs(**base)

    def test_steady_vsl_tick(self):
        cfg = cfg_with()
        out = step_controller(self.make_inputs(), 13.4, cfg, DT)
        assert out.u == pytest.approx(0.0, abs=1e-12)
        assert out.mode is Mode.VSL
        assert out.v_des == pytest.approx(13.4)

    def test_filter_binding_gives_cbf_mode(self):
        cfg = cfg_with()
        inputs = self.make_inputs(
            v=10.0, v_gr=12.0, lead=Lead(gap=20.0, speed=12.0)
        )
        out = step_controller(inputs, 12.0, cfg, DT)
        assert out.u_nom == pytest.approx(1.6, abs=1e-12)
        assert out.u_safe == pytest.approx(0.25, abs=1e-12)
        assert out.u == pytest.approx(0.25, abs=1e-12)
        assert out.mode is Mode.CBF

    def test_traffic_speedup_moves_vsl_to_middleway(self):
        cfg = cfg_with()
        out = step_controller(self.make_inputs(v_pr=0.0), 13.4, cfg, DT)
        assert out.mode is Mode.VSL
        out = step_controller(self.make_inputs(v_pr=20.0), out.v_ramp, cfg, DT)
        assert out.mode is Mode.MIDDLEWAY

    def test_normal_mode_without_advisory(self):
        cfg = cfg_with()
        out = step_controller(
            self.make_inputs(v_gr=None, v=30.0, v_pr=25.0), 30.0, cfg, DT
        )
        assert out.mode is Mode.NORMAL

    def test_output_clamped_to_actuation_envelope(self):
        cfg = cfg_with()
        out = step_controller(self.make_inputs(v=5.0, v_pr=40.0), 35.0, cfg, DT)
        assert out.u == cfg.u_max
        out = step_controller(
            self.make_inputs(v=35.0, v_pr=0.0, driver_setpoint=5.0), 5.0, cfg, DT
        )
        assert out.u == cfg.u_min

    @given(
        v=speeds,
        v_gr=st.one_of(st.none(), st.floats(min_value=13.4, max_value=31.3)),
        v_pr=st.one_of(st.just(0.0), speeds),
        setpoint=st.floats(min_value=5.0, max_value=38.0),
        ramp0=speeds,
        lead=st.one_of(
            st.none(),
            st.builds(
                Lead,
                gap=st.floats(min_value=0.5, max_value=200.0),
                speed=speeds,
            ),
        ),
    )
    @settings(max_examples=300)
    def test_mode_exclusivity_and_consistency(
        self, v, v_gr, v_pr, setpoint, ramp0, lead
    ):
        cfg = cfg_with()
        inputs = ControlInputs(
            driver_setpoint=setpoint,
            v=v,
            v_gr=v_gr,
            v_pr=v_pr,
            lead=lead,
        )
        out = step_controller(inputs, ramp0, cfg, DT)

        assert cfg.u_min <= out.u <= cfg.u_max
        assert abs(out.v_ramp - ramp0) <= cfg.ramp_rate * DT + 1e-12
        if out.mode is Mode.NORMAL:
            assert v_gr is None
        if out.mode in (Mode.VSL, Mode.MIDDLEWAY):
            assert v_gr is not None
        if out.mode is Mode.CBF:
            assert lead is not None
            assert out.u_safe is not None and out.u_safe < out.u_nom
        if lead is not None:
            assert out.u <= max(out.u_safe, cfg.u_min) + 1e-12


def test_config_validation_names_offending_field():
    with pytest.raises(ValueError, match="ramp_rate"):
        ControllerConfig(ramp_rate=0.0)
    with pytest.raises(ValueError, match="v_offset"):
        ControllerConfig(v_offset=-1.0)
    with pytest.raises(ValueError, match="u_min"):
        ControllerConfig(u_min=1.0)
