"""Longitudinal control stack for a speed-advisory-following vehicle.

The stack is engaged on every tick and runs in three stages:

1. setpoint selection: pick a desired speed from the driver's cruise
   setpoint, the posted gantry speed, and the prevailing-traffic estimate;
2. tracking: rate-limit the setpoint with a linear ramp and convert the
   ramped speed into a nominal acceleration with a proportional law;
3. safety filtering: upper-bound the nominal acceleration with a control
   barrier function on time gap to the lead vehicle, then clamp to the
   actuation envelope.

The desired-speed blend is

    v_des = min(max(v_pr - v_offset, v_gr), v_des_max)

so the vehicle drives a little slower than the traffic around it, never
slower than the posted speed, and never faster than the cap. With the
prevailing-speed estimator off (v_pr == 0) the blend degrades to
min(v_gr, v_des_max) because v_gr dominates the inner max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional


class Mode(str, Enum):
    """Operating mode labels, exactly one per controller tick."""

    NORMAL = "normal"
    VSL = "vsl"
    MIDDLEWAY = "middleway"
    CBF = "cbf"


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and limits for the longitudinal stack.

    v_des_max of None means the desired-speed cap is the driver's setpoint,
    resolved per tick inside select_setpoint.
    """

    k_p: float = 0.8
    k_cbf: float = 0.1
    t_min: float = 2.0
    s_min: float = 15.0
    v_offset: float = 2.0
    v_des_max: Optional[float] = None
    ramp_rate: float = 1.5
    u_min: float = -3.0
    u_max: float = 2.0

    def __post_init__(self) -> None:
        for name in ("k_p", "k_cbf", "t_min", "ramp_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")
        if self.s_min < 0:
            raise ValueError("s_min: must be non-negative")
        if self.v_offset < 0:
            raise ValueError("v_offset: must be non-negative")
        if self.v_des_max is not None and self.v_des_max <= 0:
            raise ValueError("v_des_max: must be positive when set")
        if not (self.u_min < 0 < self.u_max):
            raise ValueError("u_min/u_max: need u_min < 0 < u_max")


class Lead(NamedTuple):
    """Radar-derived lead vehicle: bumper gap (m) and absolute speed (m/s)."""

    gap: float
    speed: float


class ControlInputs(NamedTuple):
    """One tick's inputs. v_gr is the posted speed, or None when no fresh
    advisory arrived from a gantry acquired inside the corridor."""

    driver_setpoint: float
    v: float
    v_gr: Optional[float]
    v_pr: float
    lead: Optional[Lead] = None


class ControllerOutput(NamedTuple):
    """One tick's outputs. u_safe and the barrier margin h are None
    without a lead."""

    u: float
    mode: Mode
    v_des: float
    v_ramp: float
    u_nom: float
    u_safe: Optional[float]
    h: Optional[float]


def middleway(v_pr: float, v_gr: float, cfg: ControllerConfig) -> float:
    """Blend prevailing speed, posted speed, and the cap into a setpoint.

    A None cap is unbounded here; select_setpoint then caps the blend at
    the driver setpoint.
    """
    cap = cfg.v_des_max if cfg.v_des_max is not None else math.inf
    return min(max(v_pr - cfg.v_offset, v_gr), cap)


def select_setpoint(inputs: ControlInputs, cfg: ControllerConfig) -> float:
    """Multiplex the desired speed: the driver setpoint without an
    advisory, the blend with one."""
    if inputs.v_gr is None:
        return inputs.driver_setpoint
    v_des = middleway(inputs.v_pr, inputs.v_gr, cfg)
    if cfg.v_des_max is None:
        return min(v_des, inputs.driver_setpoint)
    return v_des


def ramp(v_des: float, v_ramp_prev: float, cfg: ControllerConfig, dt: float) -> float:
    """Move the ramp speed toward v_des, at most ramp_rate * dt per tick."""
    step = cfg.ramp_rate * dt
    return v_ramp_prev + min(max(v_des - v_ramp_prev, -step), step)


def nominal(v_ramp: float, v: float, cfg: ControllerConfig) -> float:
    """Proportional tracking acceleration on the ramped setpoint."""
    return cfg.k_p * (v_ramp - v)


def barrier_margin(gap: float, v: float, cfg: ControllerConfig) -> float:
    """The barrier h = gap - (t_min*v + s_min); negative inside the
    minimum time gap."""
    return gap - (cfg.t_min * v + cfg.s_min)


def cbf_limit(h: float, v: float, v_lead: float, cfg: ControllerConfig) -> float:
    """Largest acceleration that keeps the barrier margin h decaying no
    faster than the barrier rate k_cbf."""
    return (cfg.k_cbf / cfg.t_min) * h + (v_lead - v) / cfg.t_min


def classify_mode(
    inputs: ControlInputs, v_des: float, u_nom: float, u_applied: float
) -> Mode:
    """Label the tick with exactly one mode.

    The safety filter takes priority whenever it binds (u_applied < u_nom),
    regardless of the advisory. Otherwise the label follows the setpoint
    source, splitting the advisory case on whether the blend exceeded the
    posted speed.
    """
    if inputs.lead is not None and u_applied < u_nom:
        return Mode.CBF
    if inputs.v_gr is None:
        return Mode.NORMAL
    if v_des > inputs.v_gr:
        return Mode.MIDDLEWAY
    return Mode.VSL


def step_controller(
    inputs: ControlInputs, v_ramp_prev: float, cfg: ControllerConfig, dt: float
) -> ControllerOutput:
    """Run one controller tick of dt seconds from the previous tick's ramp
    speed; the caller carries the output's v_ramp into the next tick."""
    v_des = select_setpoint(inputs, cfg)
    v_ramp = ramp(v_des, v_ramp_prev, cfg, dt)
    u_nom = nominal(v_ramp, inputs.v, cfg)

    if inputs.lead is not None:
        h: Optional[float] = barrier_margin(inputs.lead.gap, inputs.v, cfg)
        u_safe: Optional[float] = cbf_limit(h, inputs.v, inputs.lead.speed, cfg)
        u_filtered = min(u_nom, u_safe)
    else:
        h = u_safe = None
        u_filtered = u_nom

    u = min(max(u_filtered, cfg.u_min), cfg.u_max)
    mode = classify_mode(inputs, v_des, u_nom, u_filtered)
    return ControllerOutput(u, mode, v_des, v_ramp, u_nom, u_safe, h)
