"""Benchmark entry point for middleway: three workloads, one process per operation.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--quick]

Untraced (--trace 0), each workload runs operations one at a time, each in
a fresh child process (perfbench/op.py), until --seconds are used, and
reports the median of every end-to-end metric. Times are scaled to a
reference host speed by perfbench/calibrate.py, run in its own process
before and after each operation (see that file for why). Traced (--trace 1), it runs
pairs of an untraced and a traced operation until --seconds are used, then
the scaling points, and reports the per-layer metrics. Metric names and
units come from BENCHMARK.json. Without --workload every workload runs in
turn. --quick runs one small operation of each kind, for the smoke test.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Per-operation samples, quartiles and the
environment go to .bench_out/results_<workload>[_trace].json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import CAL_REF_S

ROOT = Path(__file__).resolve().parent.parent
OP = Path(__file__).resolve().parent / "op.py"
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
OUT = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("canonical_run", "string_cascade", "replay_rds")
SCALE_POINTS = {
    "canonical_run": ("h25", "h100", "h400"),
    "string_cascade": ("n12", "n24", "n48"),
    "replay_rds": (),
}
SCALE_LAYERS = (
    "simulation.World.step",
    "simulation.idm_accel",
    "perception.synthesize_radar",
    "perception.update_prevailing",
    "controller.step_controller",
    "infrastructure.GantryTracker.update",
)
ALL_SCALE_POINTS = tuple(p for points in SCALE_POINTS.values() for p in points)
# One workload must end within 180 s; children get what is left.
DEADLINE_S = 170.0


def spawn(script: Path, argv: list[str], deadline: float) -> dict:
    """Run a perfbench script in a fresh process; return its JSON result or an error."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned_ns = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(script), *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if "t_first_call_ns" in result:
        result["setup_s"] = (result.pop("t_first_call_ns") - spawned_ns) / 1e9
    return result


class Runner:
    """Runs one workload's operations, each between two host-speed calibrations.

    The calibration after one operation is the one before the next, so
    each operation costs one extra calibration process.
    """

    def __init__(self, name: str, args, deadline: float) -> None:
        self.name = name
        self.args = args
        self.deadline = deadline
        self.last_cal: float | None = None

    def calibrate(self) -> float:
        result = spawn(CALIBRATE, [], self.deadline)
        if "error" in result:
            raise RuntimeError(f"calibration failed: {result['error']}")
        self.last_cal = result["cal_s"]
        return self.last_cal

    def spawn(self, argv: list[str]) -> dict:
        before = self.last_cal or self.calibrate()
        sample = spawn(OP, ["--workload", self.name, "--seed", str(self.args.seed)]
                       + argv + ["--quick"] * self.args.quick, self.deadline)
        sample["cal_s"] = (before + self.calibrate()) / 2
        return sample

    def op(self, k: int, trace: bool = False) -> dict:
        """Operation number k, in its own process."""
        op_dir = OUT / self.name / f"op{k}"
        sample = self.spawn(["--out", str(op_dir), "--op-id", str(k)] + ["--trace"] * trace)
        shutil.rmtree(op_dir, ignore_errors=True)
        return sample


def repeat(step, seconds: float, quick: bool) -> list[dict]:
    """Call step(round) until the next round would end after `seconds`.

    Runs at least one round, and exactly one with --quick or after an error.
    """
    samples: list[dict] = []
    t0 = time.monotonic()
    rounds = 0
    while True:
        batch = step(rounds)
        samples += batch
        rounds += 1
        if quick or any("error" in s for s in batch):
            return samples
        if (time.monotonic() - t0) * (rounds + 1) / rounds > seconds:
            return samples


def failed(sample: dict) -> bool:
    return "error" in sample or bool(sample["failures"])


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(samples: list[dict]) -> dict:
    """Quartiles per metric; times are scaled to the reference host speed."""
    good = [s for s in samples if not failed(s)]
    speed = [CAL_REF_S / s["cal_s"] for s in good]
    per_metric = {
        "wall_s": [s["wall_s"] * f for s, f in zip(good, speed)],
        "vehicle_steps_per_s": [s["vehicle_steps"] / (s["wall_s"] * f)
                                for s, f in zip(good, speed)],
        "setup_s": [s["setup_s"] * f for s, f in zip(good, speed)],
        "peak_rss_mib": [s["rss_mib"] for s in good],
        "raw_wall_s": [s["wall_s"] for s in good],
        "raw_setup_s": [s["setup_s"] for s in good],
        "cal_s": [s["cal_s"] for s in good],
    }
    return {k: quartiles(v) for k, v in per_metric.items() if v}


def per_layer(untraced: list[dict], traced: list[dict], scale: dict) -> dict:
    """Medians over traced operations; overhead is paired with the untraced run
    made just before each traced one. Called only when no sample failed."""
    layers = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)
    )
    min_h = [s["info"]["min_h_m"] for s in untraced + traced
             if s["info"].get("min_h_m") is not None]
    layers["check.min_h_m"] = min(min_h) if min_h else 0.0
    for label in ALL_SCALE_POINTS:
        point = scale.get(label)
        ok = point is not None and not failed(point)
        steps = point["vehicle_steps"] if ok else 0
        for layer in SCALE_LAYERS:
            busy = point["layers"][f"{layer}.busy_s"] if ok else 0.0
            layers[f"scale.{label}.{layer}.us_per_vstep"] = busy / steps * 1e6 if ok else 0.0
        layers[f"scale.{label}.total.us_per_vstep"] = (
            point["layers"]["trace.wall_s"] / steps * 1e6 if ok else 0.0
        )
    return layers


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_cpu0": caches,
        "limits": "no system-wide tracing (spans come from wrappers in "
                  "perfbench/spans.py); on a shared 2-core KVM guest, other "
                  "tenants slowed single operations by 15-25%, at times 2x",
    }


def run_workload(name: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.joinpath(name).mkdir(parents=True, exist_ok=True)
    inputs: dict = {}
    if name == "replay_rds":
        argv = ["--workload", name, "--seed", str(args.seed), "--make-input",
                "--out", str(OUT / name / "op")] + ["--quick"] * args.quick
        inputs = spawn(OP, argv, deadline)
        if "error" in inputs:
            print(f"replay input: {inputs['error']}", file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    runner = Runner(name, args, deadline)
    if args.trace:
        # Pairs of an untraced and a traced operation, close in time, give
        # the overhead.
        pairs = repeat(lambda i: [runner.op(2 * i), runner.op(2 * i + 1, trace=True)],
                       args.seconds, args.quick)
        untraced, traced = pairs[0::2], pairs[1::2]
        scale = {}
        for label in SCALE_POINTS[name]:
            argv = ["--workload", name, "--seed", str(args.seed), "--trace",
                    "--scale", label, "--out", str(OUT / name / f"scale_{label}"),
                    "--op-id", str(len(untraced) + len(traced) + len(scale))]
            scale[label] = spawn(OP, argv + ["--quick"] * args.quick, deadline)
        samples = untraced + traced + list(scale.values())
        computed = (per_layer(untraced, traced, scale)
                    if all(not failed(s) for s in samples) else {})
        if name == "replay_rds" and computed:
            computed["check.min_h_m"] = inputs["min_h_m"]
        wanted = spec["per_layer"]
        summary = None
    else:
        samples = repeat(lambda i: [runner.op(i)], args.seconds, args.quick)
        summary = end_to_end(samples)
        computed = {k: v["median"] for k, v in summary.items()}
        wanted = spec["end_to_end"]

    n_failed = sum(failed(s) for s in samples)
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in computed}
    result = {
        "correct": n_failed == 0 and len(metrics) == len(wanted),
        "attempted": len(samples),
        "failed": n_failed,
        "metrics": metrics,
    }
    suffix = "_trace" if args.trace else ""
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "env": environment(),
        "error_rate": n_failed / len(samples), "end_to_end": summary,
        "computed": computed, "samples": samples, "result": result,
    }
    (OUT / f"results_{name}{suffix}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print_summary(name, record, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    return result


def print_summary(name: str, record: dict, units: dict) -> None:
    result = record["result"]
    print(f"{name}: {result['attempted']} operations, {result['failed']} failed, "
          f"error_rate {record['error_rate']:.3f}")
    for s in record["samples"]:
        if failed(s):
            print(f"  failed: {s.get('error') or '; '.join(s['failures'])}")
    if record["end_to_end"]:
        for metric, q in record["end_to_end"].items():
            print(f"  {metric:<22} {q['median']:>14.4f} {units.get(metric, 's'):<8} "
                  f"(q1 {q['q1']:.4f}, q3 {q['q3']:.4f}, n={q['n']})")
    else:
        for metric, value in sorted(record["computed"].items()):
            print(f"  {metric:<60} {value:>14.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "middleway" / "__init__.py").is_file():
        print(f"perfbench: no middleway package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    print(json.dumps({"env": environment()}))
    if args.workload:
        print(json.dumps(run_workload(args.workload, args, spec)))
        return 0
    results = {name: run_workload(name, args, spec) for name in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
