"""Every command's outputs pinned byte for byte.

Each command runs in-process through ``cli.main``, at a reduced size.
Every file a command writes and its stdout are hashed, with the output
directory masked out of the stdout. The table below is the expected
result; a change to any output byte shows as a changed entry.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from middleway.cli import main

# (name, arguments to main); "--out <dir>/<name>" is appended. The
# commands run in this order, and "{root}" in an argument is the shared
# output directory, so a command may read what an earlier one wrote.
COMMANDS = (
    ("run", ["run", "--seed", "0", "--override", "scenario.duration_s=30"]),
    ("run_noisy", [
        "run", "--seed", "1", "--override", "scenario.duration_s=120",
        "--override", "radar.noise_sigma=0.5", "--override", "feed.dropout=0.3",
    ]),
    ("string", [
        "run", "--override", "scenario.kind=string", "--override", "scenario.n_controlled=4",
    ]),
    ("sweep", ["sweep", "--values", "2,4", "--override", "scenario.duration_s=30"]),
    ("sweep_string", [
        "sweep", "--values", "2,3", "--override", "scenario.kind=string",
        "--override", "scenario.n_controlled=3",
    ]),
    ("sweep_replay", ["sweep", "--values", "0,2,4", "--replay", "{root}/run_noisy/run_log.csv"]),
    ("latency", ["rds", "--run-log", "{root}/run_noisy/run_log.csv"]),
)

# The first 16 hex digits of each output's sha256, keyed by its path under
# the command's output directory; "stdout" is the printed text. Recorded
# with the eastbound and disengaged paths still in place, whose removal
# changed only each report.json (no "direction" line) and events.jsonl (no
# t = 0 engagement event per controlled vehicle). Each report.json was
# recorded again when the config echo's controller block lost its copy of
# the scenario dt. The latency entry, `rds --run-log` on run_noisy's log, was
# recorded again when the study stopped sampling a synthetic wave field, and
# its stdout again when rds stopped writing the log's grid and trajectory
# files, which dropped their "wrote" line. The string entry's stdout was
# recorded again when the study became `run --override scenario.kind=string`,
# which prints run's three lines before the steady setpoints; its files are
# unchanged, and each string sweep run directory gained the study's two files.
GOLDEN = {
    "run": {
        "stdout": "2a306063fb7e5f6e",
        "events.jsonl": "e199743dcf59d031",
        "report.json": "1f4d9406162a6823",
        "run_log.csv": "e9fe906e5e60714e",
    },
    "run_noisy": {
        "stdout": "7cd69e10d2c12764",
        "events.jsonl": "3f5d58643e2dbce8",
        "report.json": "7578d3cac1f2b470",
        "run_log.csv": "456391aa1e44fe08",
    },
    "string": {
        "stdout": "30191e9b85bb9d9a",
        "events.jsonl": "b446d15d3a0edfe8",
        "report.json": "bb4595c02721ee5b",
        "run_log.csv": "6b498692f9d1ee5d",
        "string_summary.csv": "112e43aedfecb916",
        "string_traces.csv": "67efd927644ba6f4",
    },
    "sweep": {
        "stdout": "fc9471f64e0bb580",
        "sweep_summary.csv": "e3fee9322ec2172b",
        "v_offset=2/events.jsonl": "e199743dcf59d031",
        "v_offset=2/report.json": "a29e023a480bd38c",
        "v_offset=2/run_log.csv": "e9fe906e5e60714e",
        "v_offset=4/events.jsonl": "e199743dcf59d031",
        "v_offset=4/report.json": "bc26ef4b7e608b09",
        "v_offset=4/run_log.csv": "e9fe906e5e60714e",
    },
    "sweep_string": {
        "stdout": "3e2d8d7084ccd92f",
        "string_convergence.csv": "c63e38b95a7df374",
        "sweep_summary.csv": "c55abcc0157f503b",
        "v_offset=2/events.jsonl": "2707f5f06953f284",
        "v_offset=2/report.json": "72d08930aa685766",
        "v_offset=2/run_log.csv": "0fad5e01f5f03c8b",
        "v_offset=2/string_summary.csv": "b853661e38182b41",
        "v_offset=2/string_traces.csv": "4e78127a98d9227f",
        "v_offset=3/events.jsonl": "0914701909181c12",
        "v_offset=3/report.json": "563d43307f050af2",
        "v_offset=3/run_log.csv": "096effada404703e",
        "v_offset=3/string_summary.csv": "cf11df8d253d72f9",
        "v_offset=3/string_traces.csv": "ad781abc38db33e5",
    },
    "sweep_replay": {
        "stdout": "f1bb7803412784aa",
        "replay_v_des.csv": "430e160f49fbd229",
    },
    "latency": {
        "stdout": "6f0e04aaf170dbaf",
        "error_hist.csv": "f37b211add53819c",
        "error_stats.csv": "5b2bebfbae0670c2",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_commands(root: Path) -> dict:
    """Run COMMANDS under root; per command, its output hashes."""
    hashes = {}
    for name, argv in COMMANDS:
        out = root / name
        args = [a.replace("{root}", str(root)) for a in argv] + ["--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args)
        assert code == 0, name
        files = {
            path.relative_to(out).as_posix(): _digest(path.read_bytes())
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        text = stdout.getvalue().replace(str(root), "<out>")
        hashes[name] = {"stdout": _digest(text.encode()), **files}
    return hashes


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("outputs"))


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_outputs_pinned(outputs, name):
    assert outputs[name] == GOLDEN[name]


@pytest.mark.parametrize("argv", [
    ["--latencies", "x"],
    ["--latencies", "nan"],
    ["--duration", "0"],
    ["--duration", "-5"],
])
def test_rds_bad_option_exits_2(tmp_path, capsys, argv):
    # With a valid run log, a bad latency list is a config error; the study
    # has no --duration.
    log = tmp_path / "run" / "run_log.csv"
    assert main(["run", "--override", "scenario.duration_s=1", "--out", str(log.parent)]) == 0
    capsys.readouterr()
    try:
        code = main(["rds", "--run-log", str(log), *argv,
                     "--out", str(tmp_path / "latency")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    if argv[0] == "--latencies":
        assert "config error: latencies" in err
    else:
        assert "unrecognized arguments: --duration" in err
    assert not (tmp_path / "latency").exists()
