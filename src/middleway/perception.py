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
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma: must be non-negative")


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


_SPEED = itemgetter(1)


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


@dataclass
class PrevailingSpeedEstimator:
    """Rolling-window mean of faster-than-ego target speeds.

    Samples are (timestamp, absolute speed) pairs; a sample is admitted
    only when the target's relative speed is strictly positive, so every
    speed in the window exceeded the ego speed at its admission time.
    Samples age out once they are window_s or older than the newest frame.
    """

    cfg: EstimatorConfig = field(default_factory=EstimatorConfig)
    samples: deque = field(default_factory=deque)

    def update_prevailing(self, frame: RadarFrame, v_ego: float) -> float:
        for target in frame.targets:
            if not self.cfg.include_adjacent and target.lane_offset != 0:
                continue
            if target.rel_speed > 0.0:
                self.samples.append((frame.timestamp, v_ego + target.rel_speed))
        cutoff = frame.timestamp - self.cfg.window_s
        while self.samples and self.samples[0][0] <= cutoff:
            self.samples.popleft()
        if len(self.samples) < self.cfg.min_count:
            return 0.0
        # Summed in window order, as a generator would; a running sum would
        # round differently and change the logged v_pr.
        return sum(map(_SPEED, self.samples)) / len(self.samples)
