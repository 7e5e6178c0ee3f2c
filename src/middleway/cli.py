"""Command-line harness: run scenarios, sweep parameters, analyze grids.

Subcommands:
  run     simulate one scenario; write run_log.csv, events.jsonl, report.json
  sweep   rerun a scenario across parameter values, or replay offsets
          open-loop over a recorded log; write an aggregated CSV
  rds     compare trajectory speeds against a sensor grid per latency
  string  run the platoon cascade study; write traces and steady values

Exit codes: 0 success, 1 collision or safety halt, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import (
    ConfigError,
    apply_override,
    build_scenario,
    load_config,
    parse_yaml,
    set_dotted,
)
from .rds import error_stats, read_grid, read_trajectory, write_error_report
from .scenarios import (
    measurement_window,
    offset_replay,
    steady_v_des,
    v_des_traces,
)
from .simulation import (
    RunLog,
    ScenarioConfig,
    VehicleKind,
    build_report,
    read_run_log,
    run,
    write_events,
    write_run_log,
)


def _load_data(args: argparse.Namespace) -> dict:
    data = load_config(args.config)
    for spec in args.override or []:
        apply_override(data, spec)
    if args.seed is not None:
        set_dotted(data, "scenario.seed", args.seed)
    return data


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(report, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True,
                  default=str)
        fh.write("\n")


def _parse_values(raw: str) -> list:
    values = [parse_yaml(tok, "values") for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ConfigError("values: must be non-empty")
    return values


def _finite_floats(values: list, name: str) -> list[float]:
    try:
        floats = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"{name}: values must be finite")
    return floats


def _run_one(data: dict, out: Path):
    loaded = build_scenario(data)
    log = run(loaded.cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_run_log(log, out / "run_log.csv")
    write_events(log, out / "events.jsonl")
    report = build_report(log)
    _write_report(report, out / "report.json")
    return loaded, log, report


def cmd_run(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    _, log, report = _run_one(_load_data(args), out)
    occupancy = ", ".join(
        f"{mode}={frac:.3f}" for mode, frac in sorted(report.mode_occupancy.items())
    )
    print(f"wrote {out / 'run_log.csv'} ({len(log.rows)} rows)")
    print(f"engaged {report.engaged_time_s:.1f} s; occupancy: {occupancy or 'none'}")
    min_h = "n/a" if report.min_h_m is None else f"{report.min_h_m:.3f}"
    print(f"min h {min_h} m; collision: {report.collision}")
    return 1 if report.collision else 0


def _read_input(reader, path):
    """reader(path), with a malformed or unreadable file as a ConfigError."""
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _sweep_replay(args: argparse.Namespace) -> int:
    # The replay reads only the log and the offsets.
    ignored = [flag for flag, is_set in (
        ("--config", args.config is not None),
        ("--override", args.override),
        ("--seed", args.seed is not None),
        ("--parameter", args.parameter != "controller.v_offset"),
    ) if is_set]
    if ignored:
        raise ConfigError(f"sweep --replay: does not read {', '.join(ignored)}")
    offsets = _finite_floats(_parse_values(args.values), "values")
    out = _out_dir(args)
    replay = _read_input(lambda path: offset_replay(read_run_log(path), offsets),
                         args.replay)
    dest = out / "replay_v_des.csv"
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        cols = [f"v_des_offset_{k:g}" for k in offsets]
        writer.writerow(["t", "vehicle_id", "v_pr", "v_gr", *cols])
        for i in range(len(replay.t)):
            writer.writerow(
                [
                    f"{replay.t[i]:.3f}",
                    replay.vehicle_id[i],
                    f"{replay.v_pr[i]:.6f}",
                    f"{replay.v_gr[i]:.6f}",
                    *(f"{replay.v_des[k][i]:.6f}" for k in offsets),
                ]
            )
    print(f"wrote {dest} ({len(replay.t)} rows, offsets {offsets})")
    return 0


def _string_readout(cfg: ScenarioConfig, log: RunLog):
    """A string-study log's v_des traces, row spacing, window and steady v_des."""
    n = sum(v.kind is VehicleKind.CONTROLLED for v in cfg.vehicles)
    traces = v_des_traces(log, n)
    row_dt = cfg.dt * cfg.log_every
    window = measurement_window(n)
    return traces, row_dt, window, steady_v_des(traces, row_dt, window)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.replay is not None:
        return _sweep_replay(args)
    out = _out_dir(args)
    values = _parse_values(args.values)

    parameter = args.parameter
    if "." not in parameter:
        raise ConfigError(f"parameter '{parameter}': must be section.field")
    base = _load_data(args)
    leaf = parameter.rsplit(".", 1)[1]

    summaries = []
    string_rows = []
    collided = False
    for value in values:
        data = copy.deepcopy(base)
        set_dotted(data, parameter, value)
        run_dir = out / f"{leaf}={value}"
        loaded, log, report = _run_one(data, run_dir)
        collided = collided or bool(report.collision)
        summaries.append((value, report))
        if loaded.kind == "string":
            steady = _string_readout(loaded.cfg, log)[-1]
            for vid in sorted(steady):
                string_rows.append((value, vid, steady[vid]))
        print(f"{parameter}={value}: engaged {report.engaged_time_s:.1f} s, "
              f"collision {report.collision}")

    modes = sorted({m for _, rep in summaries for m in rep.mode_occupancy})
    dest = out / "sweep_summary.csv"
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["value", "engaged_time_s", "min_h_m", "collision",
             *(f"occ_{m}" for m in modes)]
        )
        for value, rep in summaries:
            writer.writerow(
                [
                    value,
                    f"{rep.engaged_time_s:.3f}",
                    "" if rep.min_h_m is None else f"{rep.min_h_m:.6f}",
                    int(bool(rep.collision)),
                    *(f"{rep.mode_occupancy.get(m, 0.0):.6f}" for m in modes),
                ]
            )
    print(f"wrote {dest}")

    if string_rows:
        conv = out / "string_convergence.csv"
        with open(conv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "vehicle_id", "steady_v_des_mps"])
            for value, vid, v in string_rows:
                writer.writerow([value, vid, f"{v:.6f}"])
        print(f"wrote {conv}")
    return 1 if collided else 0


def cmd_rds(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    grid = _read_input(read_grid, args.grid)
    trajectory = _read_input(read_trajectory, args.trajectory)
    latencies = _finite_floats(_parse_values(args.latencies), "latencies")
    if not (math.isfinite(args.bin_width_mph) and args.bin_width_mph > 0):
        raise ConfigError("bin-width-mph: must be positive and finite")
    try:
        stats = error_stats(trajectory, grid, latencies, args.bin_width_mph)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_error_report(stats, out / "error_stats.csv", out / "error_hist.csv")
    for latency in latencies:
        s = stats[latency]
        print(f"latency {latency:6.1f} s: n={s.n:5d} "
              f"mean={s.mean_mps:+.3f} m/s std={s.std_mps:.3f} m/s")
    print(f"wrote {out / 'error_stats.csv'} and {out / 'error_hist.csv'}")
    return 0


def cmd_string(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    data = _load_data(args)
    set_dotted(data, "scenario.kind", "string")
    loaded, log, _ = _run_one(data, out)
    traces, row_dt, window, steady = _string_readout(loaded.cfg, log)

    ids = sorted(traces)
    dest = out / "string_traces.csv"
    n_rows = max(len(t) for t in traces.values())
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *ids])
        for i in range(n_rows):
            t = i * row_dt
            cells = []
            for vid in ids:
                trace = traces[vid]
                v = trace[i] if i < len(trace) else np.nan
                cells.append("" if np.isnan(v) else f"{v:.6f}")
            writer.writerow([f"{t:.3f}", *cells])

    summary = out / "string_summary.csv"
    with open(summary, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["vehicle_id", "steady_v_des_mps", "window_lo_s", "window_hi_s"]
        )
        for vid in ids:
            writer.writerow(
                [vid, f"{steady[vid]:.6f}", f"{window[0]:.1f}", f"{window[1]:.1f}"]
            )
    for vid in ids:
        print(f"{vid}: steady v_des {steady[vid]:.3f} m/s")
    print(f"wrote {dest} and {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="middleway",
        description="Corridor speed-advisory simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="YAML config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="set one config field, e.g. controller.v_offset=4")

    p_run = sub.add_parser("run", help="simulate one scenario")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun across parameter values")
    common(p_sweep)
    p_sweep.add_argument("--parameter", default="controller.v_offset",
                         help="dotted config field to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 2,4,6")
    p_sweep.add_argument("--replay", default=None, metavar="RUN_LOG",
                         help="recompute offset setpoints open-loop from "
                              "this recorded run log instead of resimulating")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rds = sub.add_parser("rds", help="grid-versus-trajectory error stats")
    p_rds.add_argument("--grid", required=True, help="grid CSV path")
    p_rds.add_argument("--trajectory", required=True, help="trajectory CSV path")
    p_rds.add_argument("--latencies", default="0,60,120,300",
                       help="comma-separated latencies in seconds")
    p_rds.add_argument("--bin-width-mph", type=float, default=1.0)
    p_rds.add_argument("--out", default="out", help="output directory")
    p_rds.set_defaults(func=cmd_rds)

    p_string = sub.add_parser("string", help="platoon cascade study")
    common(p_string)
    p_string.set_defaults(func=cmd_string)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
