"""Radar synthesis and the prevailing-speed estimator.

The simulated radar reports up to max_targets point targets in
ego-relative coordinates, nearest first. The world decides which targets
it can see (simulation.World._radar_candidates: ahead of the ego, within
max_range, in the ego lane or one lane to either side); the radar here
only sorts, caps and adds noise.

The prevailing-speed estimator keeps a rolling window of absolute speeds
of targets that were moving faster than the ego at the moment of
observation, and reports their mean once enough samples have
accumulated; otherwise it reports 0.0, the conventional "estimator off"
value that downstream logic treats as no-information.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .controller import Lead


class RadarTarget(NamedTuple):
    rel_position: float
    rel_speed: float
    lane_offset: int


class RadarFrame(NamedTuple):
    timestamp: float
    targets: tuple[RadarTarget, ...]


# The largest radar speed noise, m/s: every target speed stays finite, so
# the estimator's window holds exact speeds and every logged v_pr reads back.
MAX_NOISE_SIGMA = 10.0


@dataclass(frozen=True)
class RadarConfig:
    max_range: float = 120.0
    max_targets: int = 16
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.max_range <= 0:
            raise ValueError("max_range: must be positive")
        if not 1 <= self.max_targets <= 256:
            raise ValueError("max_targets: must be 1 to 256")
        if not 0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValueError(f"noise_sigma: must be 0 to {MAX_NOISE_SIGMA:g} m/s")


_RANGE_THEN_ID = itemgetter(0, 1)


def synthesize_radar(
    v_ego: float,
    candidates: Iterable[tuple[float, str, float, int]],
    cfg: RadarConfig,
    now: float,
    rng: random.Random,
) -> RadarFrame:
    """Build a radar frame from the (rel_position, target_id, absolute
    speed, lane_offset) candidates the world says the radar sees.

    Keeps the nearest max_targets, sorted by range with ties broken on
    target id so frames are reproducible. With noise_sigma set, one draw
    of zero-mean Gaussian noise from rng per kept target, in frame order,
    perturbs rel_speed.
    """
    kept = sorted(candidates, key=_RANGE_THEN_ID)[: cfg.max_targets]
    noisy = cfg.noise_sigma > 0.0
    targets = []
    for rel, _, speed, lane_offset in kept:
        rel_speed = speed - v_ego
        if noisy:
            rel_speed += rng.gauss(0.0, cfg.noise_sigma)
        targets.append(RadarTarget(rel, rel_speed, lane_offset))
    return RadarFrame(now, tuple(targets))


def lead_vehicle(frame: RadarFrame, v_ego: float) -> Optional[Lead]:
    """Nearest ego-lane target, as an absolute-speed Lead, or None."""
    for target in frame.targets:
        if target.lane_offset == 0:
            return Lead(target.rel_position, v_ego + target.rel_speed)
    return None


@dataclass(frozen=True)
class EstimatorConfig:
    window_s: float = 5.0
    min_count: int = 5
    include_adjacent: bool = True

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s: must be positive")
        if self.min_count < 1:
            raise ValueError("min_count: must be at least 1")


# A finite float times 2**_EXACT_SHIFT is an integer: the smallest
# subnormal is 2**-1074.
_EXACT_SHIFT = 1074


def _exact(speed: float) -> int:
    """speed * 2**_EXACT_SHIFT, exactly; the denominator of a finite
    float's ratio is a power of two."""
    num, den = speed.as_integer_ratio()
    return num << (_EXACT_SHIFT + 1 - den.bit_length())


@dataclass
class PrevailingSpeedEstimator:
    """Rolling-window mean of faster-than-ego target speeds.

    Samples are (timestamp, exact speed) pairs, the speed as _exact scales
    it; a sample is admitted only when the target's relative speed is
    strictly positive, so every speed in the window exceeded the ego speed
    at its admission time. Samples age out once they are window_s or older
    than the newest frame. The window's exact sum is kept as an integer, so
    each tick adds and removes only the samples that enter and leave, and
    the mean is the correctly rounded mean of the window's speeds.
    """

    cfg: EstimatorConfig = field(default_factory=EstimatorConfig)
    samples: deque = field(default_factory=deque)
    exact_sum: int = 0

    def update_prevailing(self, frame: RadarFrame, v_ego: float) -> float:
        samples = self.samples
        for target in frame.targets:
            if not self.cfg.include_adjacent and target.lane_offset != 0:
                continue
            if target.rel_speed > 0.0:
                exact = _exact(v_ego + target.rel_speed)
                samples.append((frame.timestamp, exact))
                self.exact_sum += exact
        cutoff = frame.timestamp - self.cfg.window_s
        while samples and samples[0][0] <= cutoff:
            self.exact_sum -= samples.popleft()[1]
        if len(samples) < self.cfg.min_count:
            return 0.0
        # Python's int true division rounds correctly.
        return self.exact_sum / (len(samples) << _EXACT_SHIFT)
