"""Host-speed calibration: time a fixed slice of interpreter work.

    python3 perfbench/calibrate.py

Prints one JSON line, {"cal_s": seconds}: the median of three runs of a
kernel shaped like the workloads (float arithmetic, tuples, dict updates,
string formatting). It runs in its own fresh process, so nothing the
program under test leaves behind can change it; only the host can.

Why: on the shared 2-core KVM guest this was tuned on, other tenants
slow every process by 15-25%, and at times by 2x for minutes. run.py
times this kernel right before and right after each operation and scales
the operation's seconds by CAL_REF_S / cal_s. Over ten runs, the run medians of the
scaled times spread 3-6% (IQR / median) where the raw ones spread 13-28%.
"""

import json
import statistics
import time

# Kernel seconds on the 2-core KVM guest this benchmark was tuned on, with
# no other load: scaled times read as seconds on that host.
CAL_REF_S = 0.055


def kernel() -> float:
    start = time.perf_counter_ns()
    rows = []
    speeds = {}
    v = 16.0
    for i in range(40_000):
        v = max(0.0, v + (1.3 * (1.0 - (v / 33.5) ** 4) - 0.4) * 0.05)
        speeds[i % 26] = v
        rows.append((i * 0.05, f"h{i % 26:03d}", v, speeds.get((i + 1) % 26)))
    text = [f"{t:.3f},{vid},{x:.6f}" for t, vid, x, _ in rows]
    del rows, text
    return (time.perf_counter_ns() - start) / 1e9


if __name__ == "__main__":
    print(json.dumps({"cal_s": statistics.median(kernel() for _ in range(3))}))
