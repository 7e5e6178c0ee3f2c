"""Command-line harness: run scenarios, sweep parameters, analyze grids.

Subcommands:
  run    simulate one scenario; write run_log.csv, events.jsonl, report.json,
         and for scenario.kind=string string_traces.csv, string_summary.csv
  sweep  rerun a scenario across parameter values, or replay offsets
         open-loop over a recorded log; write an aggregated CSV
  rds    score a trajectory against stale sensor-grid reports per latency,
         or a run log's controlled rows against reports of its own traffic

Every command's files appear together or not at all (see _staged); a
resimulating sweep's run directories each do, as run's, then its tables.

Exit codes: 0 success, 1 collision or safety halt, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .config import (
    ConfigError,
    LoadedScenario,
    apply_override,
    build_scenario,
    load_config,
    parse_yaml,
    set_dotted,
)
from .scenarios import (
    measurement_window,
    offset_replay,
    steady_v_des,
    v_des_traces,
    window_rows,
)
from .simulation import (
    VehicleKind,
    build_report,
    read_run_log,
    run,
    write_events,
)
from .tables import write_table


def _load_data(args: argparse.Namespace) -> dict:
    data = load_config(args.config)
    for spec in args.override or []:
        apply_override(data, spec)
    if args.seed is not None:
        set_dotted(data, "scenario.seed", args.seed)
    return data


@contextlib.contextmanager
def _staged(out: Path, names: Sequence[str]):
    """Make directory out and a new directory in it to write the files
    names into. Only once the block completes do they replace the files of
    those names in out, and the new directory is removed either way, so a
    failed block creates or replaces none of them. A name that is a
    directory in out, the one thing that can stop a rename within a
    writable directory, is a ConfigError before out is made; an OSError in
    making out, in the block or in the renames is one naming the file, a
    file in the new directory by its name in out."""
    for name in names:
        if (out / name).is_dir():
            raise ConfigError(f"{out / name}: {os.strerror(errno.EISDIR)}")
    stage = None
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        yield stage
        for name in names:
            os.replace(stage / name, out / name)
    except OSError as exc:
        where = Path(exc.filename or out)
        if where.parent == stage:
            where = out / where.name
        raise ConfigError(f"{where}: {exc.strerror or exc}") from exc
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)


def _write_report(report, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True,
                  default=str)
        fh.write("\n")


def _parse_values(raw: str, name: str) -> list:
    """The comma-separated YAML values of option name; none, or one equal
    to an earlier one, is a ConfigError."""
    values = [parse_yaml(tok, name) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{name}: must be non-empty")
    # ==, not a set: a YAML value may be unhashable.
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ConfigError(f"{name}: {value!r} is repeated")
    return values


def _finite_floats(raw: str, name: str) -> list[float]:
    values = _parse_values(raw, name)
    try:
        floats = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not all(map(math.isfinite, floats)):
        raise ConfigError(f"{name}: values must be finite")
    return floats


def _scenario(data: dict):
    """build_scenario(data), with a string study's readout checked: its
    window must hold a logged row, and the run must log them all."""
    loaded = build_scenario(data)
    cfg = loaded.cfg
    if loaded.kind == "string":
        # The readout's rows, lo to hi, as steady_v_des takes them.
        window = measurement_window(sum(v.kind is VehicleKind.CONTROLLED for v in cfg.vehicles))
        row_dt = cfg.dt * cfg.log_every
        lo, hi = window_rows(row_dt, window)
        if lo == hi:
            raise ConfigError(f"scenario.log_every: a row every {row_dt:g} s leaves "
                              f"no logged row in the measurement window {window}")
        if hi > math.ceil(round(cfg.duration_s / cfg.dt) / cfg.log_every):
            raise ConfigError(f"scenario.duration_s: a {cfg.duration_s:g} s run ends "
                              f"before the measurement window {window} closes")
    return loaded


RUN_FILES = ("run_log.csv", "events.jsonl", "report.json")


def _run_files(kind: str) -> tuple[str, ...]:
    """The files a run of scenario kind writes."""
    if kind == "string":
        return (*RUN_FILES, "string_traces.csv", "string_summary.csv")
    return RUN_FILES


def _run_into(loaded: LoadedScenario, stage: Path):
    """Run loaded.cfg and write its _run_files(loaded.kind) into stage;
    returns the log, the report and a string study's steady v_des per
    vehicle (None for any other kind)."""
    cfg = loaded.cfg
    log = run(cfg, stage / "run_log.csv")
    report = build_report(log)
    write_events(log, stage / "events.jsonl")
    _write_report(report, stage / "report.json")
    if loaded.kind != "string":
        return log, report, None
    n = sum(v.kind is VehicleKind.CONTROLLED for v in cfg.vehicles)
    traces = v_des_traces(log, n)
    row_dt = cfg.dt * cfg.log_every
    window = measurement_window(n)
    steady = steady_v_des(traces, row_dt, window)
    # A run logs every vehicle on every logged step, and v_des is finite.
    ids = sorted(traces)
    write_table(stage / "string_traces.csv", ["t", *ids], (
        [f"{i * row_dt:.3f}", *(f"{v:.6f}" for v in values)]
        for i, values in enumerate(zip(*(traces[vid] for vid in ids), strict=True))
    ))
    write_table(stage / "string_summary.csv",
                ["vehicle_id", "steady_v_des_mps", "window_lo_s", "window_hi_s"], (
        [vid, f"{steady[vid]:.6f}", f"{window[0]:.1f}", f"{window[1]:.1f}"] for vid in ids
    ))
    return log, report, steady


def cmd_run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    loaded = _scenario(_load_data(args))
    with _staged(out, _run_files(loaded.kind)) as stage:
        log, report, steady = _run_into(loaded, stage)
    occupancy = ", ".join(
        f"{mode}={frac:.3f}" for mode, frac in sorted(report.mode_occupancy.items())
    )
    print(f"wrote {out / 'run_log.csv'} ({len(log.t) * len(log.vehicle_ids)} rows)")
    print(f"engaged {report.engaged_time_s:.1f} s; occupancy: {occupancy or 'none'}")
    min_h = "n/a" if report.min_h_m is None else f"{report.min_h_m:.3f}"
    print(f"min h {min_h} m; collision: {report.collision}")
    for vid in sorted(steady or ()):
        print(f"{vid}: steady v_des {steady[vid]:.3f} m/s")
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
    offsets = _finite_floats(args.values, "values")
    # As --override would reject each offset.
    if any(k < 0 for k in offsets):
        raise ConfigError("controller.v_offset: must be non-negative")
    replay = _read_input(lambda path: offset_replay(read_run_log(path), offsets),
                         args.replay)
    out = Path(args.out)
    header = ["t", "vehicle_id", "v_pr", "v_gr", *(f"v_des_offset_{k:g}" for k in offsets)]
    with _staged(out, ("replay_v_des.csv",)) as stage:
        write_table(stage / "replay_v_des.csv", header, (
            [f"{replay.t[i]:.3f}", replay.vehicle_id[i], f"{replay.v_pr[i]:.6f}",
             f"{replay.v_gr[i]:.6f}", *(f"{replay.v_des[k][i]:.6f}" for k in offsets)]
            for i in range(len(replay.t))
        ))
    print(f"wrote {out / 'replay_v_des.csv'} ({len(replay.t)} rows, offsets {offsets})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.replay is not None:
        return _sweep_replay(args)
    values = _parse_values(args.values, "values")
    out = Path(args.out)

    parameter = args.parameter
    if "." not in parameter:
        raise ConfigError(f"parameter '{parameter}': must be section.field")
    base = _load_data(args)
    leaf = parameter.rsplit(".", 1)[1]
    # Every value's scenario is checked before the first run.
    runs = []
    for value in values:
        data = copy.deepcopy(base)
        set_dotted(data, parameter, value)
        runs.append((value, _scenario(data)))
    strings = any(loaded.kind == "string" for _, loaded in runs)
    names = ("sweep_summary.csv", "string_convergence.csv") if strings else ("sweep_summary.csv",)

    summaries = []
    string_rows = []
    with _staged(out, names) as stage:
        for value, loaded in runs:
            with _staged(out / f"{leaf}={value}", _run_files(loaded.kind)) as run_stage:
                _, report, steady = _run_into(loaded, run_stage)
            summaries.append((value, report))
            if steady is not None:
                for vid in sorted(steady):
                    string_rows.append((value, vid, steady[vid]))
            print(f"{parameter}={value}: engaged {report.engaged_time_s:.1f} s, "
                  f"collision {report.collision}")

        modes = sorted({m for _, rep in summaries for m in rep.mode_occupancy})
        header = ["value", "engaged_time_s", "min_h_m", "collision",
                  *(f"occ_{m}" for m in modes)]
        write_table(stage / "sweep_summary.csv", header, (
            [value, f"{rep.engaged_time_s:.3f}",
             "" if rep.min_h_m is None else f"{rep.min_h_m:.6f}",
             int(bool(rep.collision)), *(f"{rep.mode_occupancy.get(m, 0.0):.6f}" for m in modes)]
            for value, rep in summaries
        ))
        if strings:
            write_table(stage / "string_convergence.csv",
                        ["value", "vehicle_id", "steady_v_des_mps"],
                        ([value, vid, f"{v:.6f}"] for value, vid, v in string_rows))
    for name in names:
        print(f"wrote {out / name}")
    return 1 if any(rep.collision for _, rep in summaries) else 0


def cmd_rds(args: argparse.Namespace) -> int:
    # rds loads numpy; no other command imports it.
    from .rds import (
        error_stats,
        latency_study,
        read_grid,
        read_trajectory,
        write_error_report,
        write_grid,
        write_trajectory,
    )

    given = tuple(path is not None for path in (args.run_log, args.grid, args.trajectory))
    if given not in ((True, False, False), (False, True, True)):
        raise ConfigError("rds: takes either --run-log, or --grid with --trajectory")
    latencies = _finite_floats(args.latencies, "latencies")
    if any(k < 0 for k in latencies):  # before the log is read, not after
        raise ConfigError("latencies: must be non-negative")
    if not (math.isfinite(args.bin_width_mph) and args.bin_width_mph > 0):
        raise ConfigError("bin-width-mph: must be positive and finite")
    if args.run_log is not None:
        source = args.run_log
        grid, trajectory = _read_input(lambda p: latency_study(read_run_log(p)), source)
    else:
        source = f"{args.trajectory} against {args.grid}"
        grid = _read_input(read_grid, args.grid)
        trajectory = _read_input(read_trajectory, args.trajectory)
    try:
        stats = error_stats(trajectory, grid, latencies, args.bin_width_mph)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # A run that scores nothing would report a perfect zero error.
    if not any(s.n for s in stats.values()):
        raise ConfigError(f"{source}: no point is scored at any latency")
    out = Path(args.out)
    names = ("error_stats.csv", "error_hist.csv")
    if args.run_log is not None:
        names += ("grid.csv", "trajectory.csv")
    with _staged(out, names) as stage:
        write_error_report(stats, stage / "error_stats.csv", stage / "error_hist.csv")
        if args.run_log is not None:
            write_grid(grid, stage / "grid.csv")
            write_trajectory(trajectory, stage / "trajectory.csv")
    for latency in latencies:
        s = stats[latency]
        print(f"latency {latency:6.1f} s: n={s.n:5d} "
              f"mean={s.mean_mps:+.3f} m/s std={s.std_mps:.3f} m/s")
    print(f"wrote {out / 'error_stats.csv'} and {out / 'error_hist.csv'}")
    if args.run_log is not None:
        print(f"wrote {out / 'grid.csv'} and {out / 'trajectory.csv'}")
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

    p_run = sub.add_parser("run", help="simulate one scenario or string study")
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

    p_rds = sub.add_parser("rds", help="sensor-grid latency error stats")
    p_rds.add_argument("--run-log", default=None,
                       help="recorded run_log.csv path; also writes its grid "
                            "and trajectory")
    p_rds.add_argument("--grid", default=None, help="grid CSV path")
    p_rds.add_argument("--trajectory", default=None, help="trajectory CSV path")
    p_rds.add_argument("--latencies", default="0,30,60,120",
                       help="comma-separated latencies in seconds")
    p_rds.add_argument("--bin-width-mph", type=float, default=1.0)
    p_rds.add_argument("--out", default="out", help="output directory")
    p_rds.set_defaults(func=cmd_rds)

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
