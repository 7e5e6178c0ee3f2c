"""Every command's outputs pinned byte for byte.

Each command runs in-process at a reduced size: the CLI through
``cli.main``, the latency study through its script. Every file a command
writes and its stdout are hashed, with the output directory masked out of
the stdout. The table below is the expected result; a change to any output
byte shows as a changed entry.
"""

import contextlib
import hashlib
import io
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from middleway.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "latency_errors.py"


def _latency_script(argv):
    with mock.patch.object(sys, "argv", [str(SCRIPT), *argv]):
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return 0


# (name, entry point, arguments); "--out <dir>/<name>" is appended. The
# commands run in this order, and "{root}" in an argument is the shared
# output directory, so a command may read what an earlier one wrote.
COMMANDS = (
    ("run", main, ["run", "--seed", "0", "--override", "scenario.duration_s=30"]),
    ("run_noisy", main, [
        "run", "--seed", "1", "--override", "scenario.duration_s=120",
        "--override", "radar.noise_sigma=0.5", "--override", "feed.dropout=0.3",
    ]),
    ("string", main, ["string", "--override", "scenario.n_controlled=4"]),
    ("sweep", main, ["sweep", "--values", "2,4", "--override", "scenario.duration_s=30"]),
    ("sweep_string", main, [
        "sweep", "--values", "2,3", "--override", "scenario.kind=string",
        "--override", "scenario.n_controlled=3",
    ]),
    ("sweep_replay", main, ["sweep", "--values", "0,2,4", "--replay", "{root}/run_noisy/run_log.csv"]),
    ("latency", _latency_script, []),
    ("latency_static", _latency_script, ["--static"]),
    ("rds", main, [
        "rds", "--grid", "{root}/latency/grid.csv",
        "--trajectory", "{root}/latency/trajectory.csv",
    ]),
)

# The first 16 hex digits of each output's sha256, keyed by its path under
# the command's output directory; "stdout" is the printed text. Recorded
# with the eastbound and disengaged paths still in place, whose removal
# changed only each report.json (no "direction" line) and events.jsonl (no
# t = 0 engagement event per controlled vehicle). Each report.json was
# recorded again when the config echo's controller block lost its copy of
# the scenario dt.
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
        "stdout": "779238f78bff7f63",
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
        "v_offset=3/events.jsonl": "0914701909181c12",
        "v_offset=3/report.json": "563d43307f050af2",
        "v_offset=3/run_log.csv": "096effada404703e",
    },
    "sweep_replay": {
        "stdout": "f1bb7803412784aa",
        "replay_v_des.csv": "430e160f49fbd229",
    },
    "latency": {
        "stdout": "27b9c1273952ff81",
        "error_hist.csv": "257db710383440cc",
        "error_stats.csv": "105631be1995eba5",
        "grid.csv": "a4ae30f6c3398a08",
        "trajectory.csv": "3d529c1f4dbc27fb",
    },
    "latency_static": {
        "stdout": "7685fc549ade2fa9",
        "error_hist.csv": "6a49ce297d9222ed",
        "error_stats.csv": "5701af8db8ce5413",
        "grid.csv": "41f4e0f425e9667e",
        "trajectory.csv": "188978fe726ff3fc",
    },
    "rds": {
        "stdout": "45f78035fa63c790",
        "error_hist.csv": "257db710383440cc",
        "error_stats.csv": "ca0e2e45ab37a0fb",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_commands(root: Path) -> dict:
    """Run COMMANDS under root; per command, its output hashes."""
    hashes = {}
    for name, entry, argv in COMMANDS:
        out = root / name
        args = [a.replace("{root}", str(root)) for a in argv] + ["--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = entry(args)
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


@pytest.mark.parametrize("name", [name for name, _, _ in COMMANDS])
def test_outputs_pinned(outputs, name):
    assert outputs[name] == GOLDEN[name]


@pytest.mark.parametrize("argv", [
    ["--latencies", "x"],
    ["--latencies", "nan"],
    ["--duration", "0"],
    ["--duration", "-5"],
])
def test_latency_script_bad_option_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _latency_script([*argv, "--out", str(tmp_path / "latency")])
    assert exc.value.code == 2
    assert f"argument {argv[0]}" in capsys.readouterr().err
    assert not (tmp_path / "latency").exists()
