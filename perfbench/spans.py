"""In-memory span tracer around middleway's layer entry points.

`install` replaces each entry point in TARGETS with a wrapper that records
one span per call: name, start, end, parent span and operation id. Spans
stay in flat arrays until the operation ends; `save` writes them out and
`layer_metrics` reduces them to per-layer counts and self times.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under the operation's root span
add up to the root span's duration. Helpers that are not wrapped (for
example `active_gantry` under `GantryTracker.update`) count toward the
self time of the wrapped layer that calls them.

Several modules import layer functions by name (`simulation` imports
`step_controller`, `cli` imports `run`), so each wrapper is rebound
wherever a middleway module holds the original object, not only where it
is defined. Methods are wrapped on their class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT_SPAN = "op"


def _count_radar(counters, args, result):
    counters["radar.candidates"] += len(args[1])
    counters["radar.kept"] += len(result.targets)


def _count_window(counters, args, result):
    counters["estimator.window"] += len(args[0].samples)


def _count_cbf(counters, args, result):
    counters["controller.cbf"] += result.mode.value == "cbf"


def _count_poll(counters, args, result):
    counters["feed.polls"] += 1
    counters["feed.delivered"] += result is not None


def _count_written(counters, args, result):
    counters["run_log.bytes_written"] += os.path.getsize(args[1])


def _count_read(counters, args, result):
    counters["run_log.rows_read"] += len(result.rows)


def _count_samples(counters, args, result):
    counters["grid.samples"] += len(args[0])


def _count_scored(counters, args, result):
    counters["stats.scored"] += sum(s.n for s in result.values())
    counters["stats.offered"] += len(args[0]) * len(args[2])


# (module, attribute, span name, counter). Both FeedClient methods share
# one span name so the feed is one layer.
TARGETS = (
    ("config", "build_scenario", "config.build_scenario", None),
    ("simulation", "run", "simulation.run", None),
    ("simulation", "World.step", "simulation.World.step", None),
    ("simulation", "idm_accel", "simulation.idm_accel", None),
    ("simulation", "write_run_log", "simulation.write_run_log", _count_written),
    ("simulation", "read_run_log", "simulation.read_run_log", _count_read),
    ("simulation", "build_report", "simulation.build_report", None),
    ("simulation", "write_events", "simulation.write_events", None),
    ("perception", "synthesize_radar", "perception.synthesize_radar", _count_radar),
    (
        "perception",
        "PrevailingSpeedEstimator.update_prevailing",
        "perception.update_prevailing",
        _count_window,
    ),
    ("controller", "step_controller", "controller.step_controller", _count_cbf),
    ("infrastructure", "GantryTracker.update", "infrastructure.GantryTracker.update", None),
    ("infrastructure", "infer_heading", "infrastructure.infer_heading", None),
    ("infrastructure", "FeedClient.publish", "infrastructure.FeedClient", None),
    ("infrastructure", "FeedClient.poll", "infrastructure.FeedClient", _count_poll),
    ("infrastructure", "vsl_algorithm", "infrastructure.vsl_algorithm", None),
    ("scenarios", "offset_replay", "scenarios.offset_replay", None),
    ("scenarios", "v_des_traces", "scenarios.v_des_traces", None),
    ("scenarios", "steady_v_des", "scenarios.steady_v_des", None),
    ("rds", "build_grid", "rds.build_grid", _count_samples),
    ("rds", "error_stats", "rds.error_stats", _count_scored),
)

# Spans the benchmark opens around its own glue code: converting run-log
# rows into rds.TrajectoryPoint samples is work every rds caller does.
GLUE = ("rds.points",)
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS)) + GLUE


class Tracer:
    """Span arrays for one process; spans opened while `op_id` is -1 are set-up."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(i)
        return i

    def wrap(self, fn, name: str, count=None):
        name_id = self._ids[name]
        clock = time.perf_counter_ns
        start, end, stack = self.start, self.end, self.stack
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name_id)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self._ids[name])
        self.start[i] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of the timed operation; spans inside carry op_id."""
        self.op_id = op_id
        self._root = len(self.start)
        with self.span(ROOT_SPAN):
            yield
        self.op_id = -1

    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path) -> None:
        """Write every span to an .npz file (see perfbench/README.md)."""
        name, parent, op, start, end = self._arrays()
        np.savez(
            path, names=np.array(self.names), name=name, parent=parent, op=op,
            start_ns=start, end_ns=end,
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds and ratios, plus the root's remainder."""
        name, parent, op, start, end = self._arrays()
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = (dur - child) / 1e9
        busy = np.bincount(name, weights=self_s, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        root = self._root
        in_op = op == op[root]
        layer_self = float(self_s[in_op].sum() - self_s[root])

        m: dict[str, float] = {}
        for i, layer in enumerate(self.names[1:], start=1):
            m[f"{layer}.calls"] = int(calls[i])
            m[f"{layer}.busy_s"] = float(busy[i])
        m["simulation.World.step.self_s"] = m["simulation.World.step.busy_s"]
        c = self.counters
        m["simulation.write_run_log.mb"] = c["run_log.bytes_written"] / 1e6
        m["simulation.read_run_log.rows"] = c["run_log.rows_read"]
        m["perception.synthesize_radar.candidates_per_call"] = _ratio(
            c["radar.candidates"], m["perception.synthesize_radar.calls"]
        )
        m["perception.synthesize_radar.keep_ratio"] = _ratio(
            c["radar.kept"], c["radar.candidates"]
        )
        m["perception.update_prevailing.window_mean"] = _ratio(
            c["estimator.window"], m["perception.update_prevailing.calls"]
        )
        m["controller.step_controller.cbf_ratio"] = _ratio(
            c["controller.cbf"], m["controller.step_controller.calls"]
        )
        m["infrastructure.FeedClient.delivered_ratio"] = _ratio(
            c["feed.delivered"], c["feed.polls"]
        )
        m["rds.build_grid.samples"] = c["grid.samples"]
        m["rds.error_stats.scored_ratio"] = _ratio(c["stats.scored"], c["stats.offered"])
        wall = dur[root] / 1e9
        m["trace.wall_s"] = wall
        m["trace.other_s"] = float(self_s[root])
        m["trace.layer_share"] = _ratio(layer_self, wall)
        m["trace.spans"] = int(in_op.sum())
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it in all loaded middleway modules."""
    for module_name, _, _, _ in TARGETS:
        importlib.import_module(f"middleway.{module_name}")
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("middleway")]
    for module_name, attr, name, count in TARGETS:
        module = sys.modules[f"middleway.{module_name}"]
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(owner.__dict__[method], name, count))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(original, name, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
