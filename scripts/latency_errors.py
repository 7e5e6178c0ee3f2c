#!/usr/bin/env python3
"""Measure how stale sensor-grid estimates degrade with feed latency.

Builds a synthetic stop-and-go wave field, aggregates it into the fixed
sensor grid, drives a probe trajectory through the waves, and compares
real-time (laggy) grid estimates against ideal (hindsight) ones at each
latency. Writes the grid, trajectory, per-latency stats, and error
histograms for plotting.
"""

import argparse
import math
from pathlib import Path

from middleway.rds import (
    GridSpec,
    default_sensors,
    error_stats,
    grid_from_field,
    static_field,
    synthetic_trajectory,
    wave_field,
    write_error_report,
    write_grid,
    write_trajectory,
)


def latency_list(text: str) -> list[float]:
    """Comma-separated finite seconds."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"latencies must be finite: {text!r}")
    return values


def positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return value


def parse_args() -> argparse.Namespace:
    """The options; a malformed one exits 2 with a usage message."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--latencies", type=latency_list, default="0,60,120,300",
                        help="comma-separated seconds")
    parser.add_argument("--static", action="store_true",
                        help="use a constant field (control case)")
    parser.add_argument("--duration", type=positive_seconds, default=1260.0,
                        help="grid coverage in seconds")
    parser.add_argument("--out", type=Path, default=Path("out/latency"))
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    field = static_field(20.0) if args.static else wave_field()
    spec = GridSpec(sensor_mm=default_sensors(), duration_s=args.duration)

    grid = grid_from_field(field, spec)
    t_end = args.duration - 60.0
    trajectory = synthetic_trajectory(field, 330.0, t_end, 69.4)
    stats = error_stats(trajectory, grid, args.latencies)

    args.out.mkdir(parents=True, exist_ok=True)
    write_grid(grid, args.out / "grid.csv")
    write_trajectory(trajectory, args.out / "trajectory.csv")
    write_error_report(stats, args.out / "error_stats.csv",
                       args.out / "error_hist.csv")

    kind = "static control" if args.static else "wave train"
    print(f"{kind}: {len(trajectory)} trajectory samples")
    for latency in args.latencies:
        s = stats[latency]
        print(f"  latency {latency:6.1f} s: n={s.n:4d} "
              f"mean {s.mean_mps:+.3f} m/s, std {s.std_mps:.3f} m/s")
    print(f"outputs in {args.out}")


if __name__ == "__main__":
    main()
