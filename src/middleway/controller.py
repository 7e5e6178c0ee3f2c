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

The tick runs for every controlled vehicle on every step, so it is one
straight-line function of plain arguments. It writes min(a, b) as
`b if b < a else a` and max(a, b) as `b if b > a else a`: the same float
as the builtins in every case, NaN and signed zeros included, without a
builtin call. A lead is a plain (gap, speed) tuple, not a NamedTuple.
"""

from __future__ import annotations

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
    resolved per tick inside step_controller.
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


# A radar-derived lead vehicle: (bumper gap m, absolute speed m/s).
Lead = tuple[float, float]


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

    A None cap is unbounded here; step_controller then caps the blend at
    the driver setpoint.
    """
    v_des = v_pr - cfg.v_offset
    v_des = v_gr if v_gr > v_des else v_des
    cap = cfg.v_des_max
    return cap if cap is not None and cap < v_des else v_des


def step_controller(
    driver_setpoint: float,
    v: float,
    v_gr: Optional[float],
    v_pr: float,
    lead: Optional[Lead],
    v_ramp_prev: float,
    cfg: ControllerConfig,
    dt: float,
) -> ControllerOutput:
    """Run one controller tick of dt seconds at speed v from the previous
    tick's ramp speed; the caller carries the output's v_ramp into the
    next tick. v_gr is the posted speed, or None when no fresh advisory
    arrived from a gantry acquired inside the corridor.

    The setpoint is the driver's without an advisory and the blend with
    one, capped at the driver's when v_des_max is None. The ramp moves
    toward it by at most ramp_rate * dt, the P-law gives u_nom, and with a
    lead the barrier h = gap - (t_min*v + s_min) bounds u by the largest
    acceleration that keeps h decaying no faster than the rate k_cbf.

    The mode is CBF whenever that bound binds (u_safe < u_nom), whatever
    the advisory; otherwise NORMAL without an advisory, MIDDLEWAY when the
    blend exceeds the posted speed and VSL when it does not.
    """
    if v_gr is None:
        v_des = driver_setpoint
        mode = Mode.NORMAL
    else:
        v_des = middleway(v_pr, v_gr, cfg)
        if cfg.v_des_max is None and driver_setpoint < v_des:
            v_des = driver_setpoint
        mode = Mode.MIDDLEWAY if v_des > v_gr else Mode.VSL

    step = cfg.ramp_rate * dt
    dv = v_des - v_ramp_prev
    dv = -step if -step > dv else dv
    v_ramp = v_ramp_prev + (step if step < dv else dv)
    u = u_nom = cfg.k_p * (v_ramp - v)

    if lead is None:
        h = u_safe = None
    else:
        gap, v_lead = lead
        t_min = cfg.t_min
        h = gap - (t_min * v + cfg.s_min)
        u_safe = (cfg.k_cbf / t_min) * h + (v_lead - v) / t_min
        if u_safe < u_nom:
            u = u_safe
            mode = Mode.CBF

    u = cfg.u_min if cfg.u_min > u else u
    u = cfg.u_max if cfg.u_max < u else u
    # tuple.__new__ skips the Python frame of ControllerOutput's __new__.
    return tuple.__new__(ControllerOutput, (u, mode, v_des, v_ramp, u_nom, u_safe, h))
