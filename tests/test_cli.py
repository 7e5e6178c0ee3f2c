"""Config mapping and command-line harness tests."""

import csv
import dataclasses
import errno
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import middleway
from middleway import simulation
from middleway.cli import RUN_FILES, main
from middleway.config import (
    GENERATORS,
    RUN_FIELDS,
    SECTION_TYPES,
    ConfigError,
    LoadedScenario,
    apply_override,
    build_scenario,
    load_config,
    set_dotted,
)
from middleway.rds import error_stats, latency_study
from middleway.scenarios import MAX_ROSTER, canonical_scenario
from middleway.simulation import (
    HUMAN_BRAKE_FLOOR,
    MAX_DURATION_S,
    MIN_DT_S,
    read_run_log,
    run,
    write_run_log,
)


class TestConfig:
    def test_empty_config_is_canonical_scenario(self):
        loaded = build_scenario({})
        assert loaded.kind == "canonical"
        assert loaded.cfg == canonical_scenario()

    def test_missing_file_raises_with_path(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        with pytest.raises(ConfigError, match="nope.yaml"):
            load_config(missing)

    def test_yaml_sections_flow_into_subconfigs(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "controller:\n  v_offset: 4.0\n"
            "radar:\n  max_range: 200.0\n"
            "scenario:\n  seed: 9\n  duration_s: 30.0\n"
        )
        loaded = build_scenario(load_config(path))
        assert loaded.cfg.controller.v_offset == 4.0
        assert loaded.cfg.radar.max_range == 200.0
        assert loaded.cfg.seed == 9
        assert loaded.cfg.duration_s == 30.0

    def test_string_kind_generator_args(self):
        loaded = build_scenario(
            {"scenario": {"kind": "string", "n_controlled": 8}}
        )
        assert loaded.kind == "string"
        cavs = [v for v in loaded.cfg.vehicles if v.vehicle_id.startswith("cav")]
        assert len(cavs) == 8

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="controler"):
            build_scenario({"controler": {"v_offset": 4}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="controller.v_offzet"):
            build_scenario({"controller": {"v_offzet": 4}})

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ConfigError, match="scenario.wavelength"):
            build_scenario({"scenario": {"wavelength": 4}})

    @pytest.mark.parametrize("field", ["v_offset", "human_free_speed_mps"])
    def test_canonical_rejects_section_copies(self, field):
        # The canonical scenario reads controller.v_offset and human.v0;
        # scenario.v_offset is a string-study input.
        with pytest.raises(ConfigError, match=f"scenario.{field}: unknown field"):
            build_scenario({"scenario": {field: 4.0}})
        loaded = build_scenario(
            {"scenario": {"kind": "string", "n_controlled": 3, "v_offset": 4.0}}
        )
        assert loaded.cfg.controller.v_offset == 4.0

    def test_subconfig_validation_wrapped(self):
        bad = [
            ("controller", "k_p", -1.0),
            ("controller", "k_p", "abc"),
            ("radar", "max_targets", 1.5),
            ("radar", "max_targets", 257),
            ("controller", "v_offset", [1]),
            ("scenario", "log_every", 1.5),
            ("scenario", "duration_s", math.nan),
            ("controller", "k_p", math.inf),
            ("vsl", "round_mph", 0),
            # scenario.dt is the only time step.
            ("controller", "dt", 0.1),
        ]
        for section, field, value in bad:
            with pytest.raises(ConfigError, match=f"{section}.{field}"):
                build_scenario({section: {field: value}})

    @pytest.mark.parametrize("data, static_mph", [
        ({"scenario": {"kind": "string", "posted_mph": 100}, "vsl": {"max_mph": 120}}, 100),
        ({"scenario": {"kind": "string", "posted_mph": 100, "vsl_static_mph": None}}, None),
        ({"scenario": {"kind": "string", "posted_mph": 25}, "vsl": {"min_mph": 20}}, 25),
    ])
    def test_posting_is_checked_once_composed(self, data, static_mph):
        # The string generator posts posted_mph; a vsl section or a run field
        # given with it brings the posting into range, or drops it.
        assert build_scenario(data).cfg.vsl_static_mph == static_mph

    @pytest.mark.parametrize("data", [
        {"scenario": {"vsl_static_mph": 75}},
        {"scenario": {"kind": "string"}, "vsl": {"min_mph": 35}},
    ])
    def test_posting_outside_range_rejected(self, data):
        with pytest.raises(ConfigError, match="vsl_static_mph: outside posting range"):
            build_scenario(data)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_duration_bound(self, kind):
        loaded = build_scenario({"scenario": {"kind": kind, "duration_s": MAX_DURATION_S}})
        assert loaded.cfg.duration_s == MAX_DURATION_S
        with pytest.raises(ConfigError, match="duration_s"):
            build_scenario({"scenario": {"kind": kind, "duration_s": MAX_DURATION_S + 1}})

    def test_dt_floor(self):
        loaded = build_scenario({"scenario": {"dt": MIN_DT_S}})
        assert loaded.cfg.dt == MIN_DT_S
        for dt in (MIN_DT_S / 2, 5e-324):
            with pytest.raises(ConfigError, match="dt: must be in"):
                build_scenario({"scenario": {"dt": dt}})

    @pytest.mark.parametrize(
        "kind, field, least", [("canonical", "n_humans", 0), ("string", "n_controlled", 1)]
    )
    def test_roster_bound(self, kind, field, least):
        # Posted above the pace speed, the string's lead link closes, so
        # the longest string is still read out within radar range.
        extra = {"posted_mph": 70} if kind == "string" else {}
        loaded = build_scenario({"scenario": {"kind": kind, field: MAX_ROSTER, **extra}})
        assert len(loaded.cfg.vehicles) > MAX_ROSTER
        for n in (least - 1, MAX_ROSTER + 1):
            with pytest.raises(ConfigError, match=f"{field}: must be in"):
                build_scenario({"scenario": {"kind": kind, field: n}})

    @pytest.mark.parametrize("kind, field", [
        *(("canonical", field) for field in (
            "platoon_x0", "mean_gap_m", "mean_speed_mps", "controlled_gap_m",
            "driver_setpoint_mps", "phantom_lo_mps", "phantom_hi_mps",
            "phantom_period_s", "phantom_mirror_bias_mps", "bottleneck_cap_mps",
        )),
        ("string", "gap0_m"),
    ])
    def test_fixed_scenario_values_are_unknown_fields(self, kind, field):
        with pytest.raises(ConfigError, match=f"scenario.{field}: unknown field"):
            build_scenario({"scenario": {"kind": kind, field: 1.0}})

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_duration_and_seed_are_run_fields(self, kind):
        loaded = build_scenario({"scenario": {"kind": kind, "duration_s": 7.0, "seed": 5}})
        assert (loaded.cfg.duration_s, loaded.cfg.seed) == (7.0, 5)

    # (scenario mapping, controller.v_offset override or None, accepted).
    # The perfbench points run at a 1 m/s offset; the n = 14 and 2 m/s
    # link leaves radar range at 75 s, 1 s before its window closes.
    STRING_READOUTS = [
        ({"n_controlled": 12}, None, True),
        ({"n_controlled": 13}, None, True),
        ({"n_controlled": 4}, None, True),
        ({"n_controlled": 3}, 2.0, True),
        ({"n_controlled": 3}, 3.0, True),
        ({"n_controlled": 24, "v_offset": 1.0}, None, True),
        ({"n_controlled": 32, "v_offset": 1.0}, None, True),
        ({"n_controlled": 12, "v_offset": 1.0, "duration_s": 40.0}, None, True),
        ({"n_controlled": 24, "v_offset": 1.0, "duration_s": 40.0}, None, True),
        ({"n_controlled": 48, "v_offset": 1.0, "duration_s": 40.0}, None, True),
        ({"n_controlled": 7, "v_offset": 3.0}, None, True),
        ({"n_controlled": 14}, None, False),
        ({"n_controlled": 16}, None, False),
        ({"n_controlled": 24}, None, False),
        ({"n_controlled": 8, "v_offset": 3.0}, None, False),
        ({"n_controlled": 12, "v_offset": 3.0}, None, False),
        ({"n_controlled": 12}, 3.0, False),
        ({"n_controlled": 33, "v_offset": 1.0}, None, False),
        ({"n_controlled": 36, "v_offset": 1.0}, None, False),
    ]

    @pytest.mark.parametrize("scenario, v_offset, accepted", STRING_READOUTS)
    def test_string_lead_link_stays_in_radar_range(self, scenario, v_offset, accepted):
        data = {"scenario": {"kind": "string", **scenario}}
        if v_offset is not None:
            data["controller"] = {"v_offset": v_offset}
        if accepted:
            build_scenario(data)
        else:
            with pytest.raises(ConfigError, match="pace0 leaves cav01's 350 m radar"):
                build_scenario(data)

    def test_string_lead_link_bound_reads_the_final_config(self):
        string = {"kind": "string", "n_controlled": 16}
        accepted = [
            # At 65 mph cav01 holds 29.06 m/s; the link opens at 0.94 m/s.
            {"scenario": {**string, "posted_mph": 65}},
            # A cap at the pace speed holds the link.
            {"scenario": string, "controller": {"v_offset": 0.0, "v_des_max": 30.0}},
            # The n = 12 readout is over at 68 s, however long the run.
            {"scenario": {"kind": "string", "duration_s": 86_400.0}},
        ]
        rejected = [
            # Without a static posting, the lowest posting bounds the blend.
            {"scenario": {**string, "posted_mph": 65, "vsl_static_mph": None}},
            # cav01's driver setpoint caps it at 28 m/s even at a zero
            # offset or a posting above the pace speed.
            {"scenario": string, "controller": {"v_offset": 0.0}},
            {"scenario": {**string, "vsl_static_mph": 70}},
            {"scenario": string, "controller": {"v_offset": 0.0, "v_des_max": 25.0}},
            # A radar shorter than the 200 m spacing never sees the leader.
            {"scenario": {"kind": "string"}, "radar": {"max_range": 199.0}},
        ]
        for data in accepted:
            build_scenario(data)
        for data in rejected:
            with pytest.raises(ConfigError, match="pace0 leaves cav01's"):
                build_scenario(data)

    def test_override_parses_yaml_values(self):
        data = {}
        apply_override(data, "controller.v_offset=4.5")
        apply_override(data, "scenario.kind=string")
        apply_override(data, "vsl.min_mph=25")
        assert data == {
            "controller": {"v_offset": 4.5},
            "scenario": {"kind": "string"},
            "vsl": {"min_mph": 25},
        }

    def test_override_requires_key_value(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_override({}, "controller.v_offset")


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    cfg = dataclasses.replace(canonical_scenario(), duration_s=60.0)
    log = run(cfg)
    path = tmp_path_factory.mktemp("log") / "run_log.csv"
    write_run_log(log, path)
    return path


# Runs run, a string study and a resimulating sweep in one fresh process, then
# prints their exit codes and every numpy module that process loaded.
NUMPY_FREE_COMMANDS = """
import sys
from middleway.cli import main
out = sys.argv[1]
codes = [
    main(["run", "--override", "scenario.duration_s=2", "--out", out + "/run"]),
    main(["run", "--override", "scenario.kind=string", "--override", "scenario.n_controlled=2",
          "--out", out + "/string"]),
    main(["sweep", "--values", "2,4", "--override", "scenario.duration_s=2",
          "--out", out + "/sweep"]),
]
print(codes, sorted(name for name in sys.modules if name.partition(".")[0] == "numpy"))
"""


class TestCli:
    def test_simulating_commands_never_load_numpy(self, tmp_path):
        # Only rds and sweep --replay use numpy; the simulation is plain Python.
        src = str(Path(middleway.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_COMMANDS, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"

    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["run", "--out", str(out), "--seed", "3",
             "--override", "scenario.duration_s=20"]
        )
        assert code == 0
        assert (out / "run_log.csv").exists()
        assert (out / "events.jsonl").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 3
        assert report["collision"] is False
        assert sum(report["mode_occupancy"].values()) == pytest.approx(1.0)
        assert "occupancy" in capsys.readouterr().out

    def test_run_canonical_reports_all_three_engaged_modes(self, tmp_path):
        out = tmp_path / "full"
        code = main(["run", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for mode in ("cbf", "vsl", "middleway"):
            assert report["mode_occupancy"].get(mode, 0.0) > 0.0

    @pytest.mark.parametrize("duration, log_every", [("2", "1000"), ("10", "3")])
    def test_run_report_ends_at_the_run_end(self, tmp_path, duration, log_every):
        # The last logged step stands for log_every steps only up to the
        # run's end: 2 s, not 50 s, and 10 s, not 10.05 s.
        code = main(
            ["run", "--out", str(tmp_path), "--override", f"scenario.duration_s={duration}",
             "--override", f"scenario.log_every={log_every}"]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["duration_s"] == float(duration)
        # cav is engaged on every row.
        assert report["engaged_time_s"] == pytest.approx(float(duration), abs=1e-9)

    def test_run_bad_dt_exits_2_naming_field(self, tmp_path, capsys):
        code = main(
            ["run", "--out", str(tmp_path), "--override", "scenario.dt=0"]
        )
        assert code == 2
        assert "dt" in capsys.readouterr().err

    def test_run_noise_sigma_above_its_bound_exits_2(self, tmp_path, capsys):
        # Its draws could make a target speed, and so a logged v_pr, infinite.
        code = main(["run", "--out", str(tmp_path), "--override", "radar.noise_sigma=1e308"])
        assert code == 2
        assert "noise_sigma: must be 0 to 10 m/s" in capsys.readouterr().err
        assert not (tmp_path / "run_log.csv").exists()

    def test_run_tiny_dt_exits_2(self, tmp_path, capsys):
        # At 5e-324 s the step count would overflow.
        code = main(
            ["run", "--out", str(tmp_path), "--override", "scenario.dt=5e-324",
             "--override", "scenario.duration_s=1"]
        )
        assert code == 2
        assert "dt: must be in" in capsys.readouterr().err
        assert not (tmp_path / "run_log.csv").exists()

    def test_run_config_file_equivalent_to_override(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario:\n  duration_s: 20.0\n  seed: 3\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(
            ["run", "--out", str(out_b), "--seed", "3",
             "--override", "scenario.duration_s=20"]
        ) == 0
        assert (out_a / "run_log.csv").read_bytes() == (
            out_b / "run_log.csv"
        ).read_bytes()

    def test_replay_sweep_traces_ordered(self, short_log, tmp_path):
        out = tmp_path / "replay"
        code = main(
            ["sweep", "--values", "2,4,6", "--replay", str(short_log),
             "--out", str(out)]
        )
        assert code == 0
        with open(out / "replay_v_des.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            v2 = float(row["v_des_offset_2"])
            v4 = float(row["v_des_offset_4"])
            v6 = float(row["v_des_offset_6"])
            assert v2 >= v4 >= v6

    def test_replay_emitted_log_round_trips(self, short_log):
        log = read_run_log(short_log)
        assert log.rows

    def test_replay_missing_log_exits_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "--values", "2,4", "--replay", str(tmp_path / "x.csv"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "x.csv" in capsys.readouterr().err

    def test_sweep_empty_values_exits_2(self, tmp_path):
        code = main(["sweep", "--values", ",", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--values", "2,2", "--override", "scenario.duration_s=1"],
        ["--values", "2,4,2.0", "--replay", "run_log.csv"],
    ], ids=["resimulate", "replay"])
    def test_sweep_repeated_value_exits_2(self, tmp_path, capsys, argv):
        # Both runs would write v_offset=2, and a replay two equal columns.
        assert main(["sweep", *argv, "--out", str(tmp_path / "s")]) == 2
        assert "config error: values: 2" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_undotted_parameter_exits_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "--parameter", "v_offset", "--values", "2,4",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "section.field" in capsys.readouterr().err

    def test_sweep_parameter_under_scalar_exits_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "--override", "controller.v_offset=4",
             "--parameter", "controller.v_offset.x", "--values", "1",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "v_offset is not a section" in capsys.readouterr().err

    def test_string_sweep_convergence_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--parameter", "scenario.n_controlled",
             "--values", "2,3", "--override", "scenario.kind=string",
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "n_controlled=2" / "run_log.csv").exists()
        with open(out / "string_convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_key = {(r["value"], r["vehicle_id"]): float(r["steady_v_des_mps"])
                  for r in rows}
        assert by_key[("2", "cav01")] == pytest.approx(28.0, abs=0.05)
        assert by_key[("3", "cav03")] == pytest.approx(24.0, abs=0.05)

    def test_string_command_cascade(self, tmp_path, capsys):
        out = tmp_path / "string"
        code = main(
            ["run", "--override", "scenario.kind=string", "--out", str(out),
             "--override", "scenario.n_controlled=3"]
        )
        assert code == 0
        with open(out / "string_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        steady = {r["vehicle_id"]: float(r["steady_v_des_mps"]) for r in rows}
        assert steady["cav01"] == pytest.approx(28.0, abs=0.05)
        assert steady["cav02"] == pytest.approx(26.0, abs=0.05)
        assert steady["cav03"] == pytest.approx(24.0, abs=0.05)
        # run's three lines, then one per vehicle.
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"wrote {out / 'run_log.csv'} (")
        assert lines[3:] == [f"{vid}: steady v_des {v:.3f} m/s" for vid, v in steady.items()]

    def test_string_subcommand_is_a_usage_error(self, tmp_path, capsys):
        # A string study is run --override scenario.kind=string.
        with pytest.raises(SystemExit) as exc:
            main(["string", "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "invalid choice: 'string'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_run_directory_equals_run(self, tmp_path):
        string = ["--override", "scenario.kind=string", "--override", "scenario.n_controlled=3"]
        assert main(["sweep", "--values", "2", *string, "--out", str(tmp_path / "sweep")]) == 0
        assert main(["run", *string, "--override", "controller.v_offset=2",
                     "--out", str(tmp_path / "run")]) == 0
        swept = tmp_path / "sweep" / "v_offset=2"
        assert sorted(os.listdir(swept)) == sorted(os.listdir(tmp_path / "run")) == [
            "events.jsonl", "report.json", "run_log.csv",
            "string_summary.csv", "string_traces.csv",
        ]
        for name in os.listdir(swept):
            assert (swept / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    def test_string_collision_exits_1(self, tmp_path, capsys):
        # Braking capped at 0.01 m/s², cav01 runs into pace0 (5 m/s) at
        # t = 7.65 s, before the steady-state window opens.
        code = main(
            ["run", "--override", "scenario.kind=string", "--out", str(tmp_path),
             "--override", "scenario.n_controlled=2",
             "--override", "scenario.traffic_speed_mps=5",
             "--override", "scenario.posted_mph=70",
             "--override", "controller.u_min=-0.01"]
        )
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["collision"] is True
        with open(tmp_path / "string_summary.csv", newline="") as fh:
            steady = [r["steady_v_des_mps"] for r in csv.DictReader(fh)]
        assert steady == ["nan", "nan"]
        assert "steady v_des nan" in capsys.readouterr().out

    def test_string_negative_traffic_speed_exits_2(self, tmp_path, capsys):
        # The pace vehicles start at the traffic speed.
        code = main(["run", "--override", "scenario.kind=string", "--out", str(tmp_path),
                     "--override", "scenario.traffic_speed_mps=-5"])
        assert code == 2
        assert "initial speeds must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [pytest.param("canonical", id="run"), "string"])
    def test_huge_duration_exits_2(self, tmp_path, capsys, kind):
        code = main(
            ["run", "--override", f"scenario.kind={kind}", "--out", str(tmp_path),
             "--override", "scenario.duration_s=1.7e308"]
        )
        assert code == 2
        assert "duration_s" in capsys.readouterr().err
        assert not (tmp_path / "run_log.csv").exists()

    def test_radar_range_beyond_the_corridor_runs(self, tmp_path):
        # Each phantom stream gives a frame's worth of targets, however far
        # the radar reaches; before, a tick built one per target in range.
        code = main(["run", "--override", "scenario.duration_s=20",
                     "--override", "radar.max_range=1e20", "--out", str(tmp_path)])
        assert code == 0

    def test_string_spacing_checked_against_final_radar_range(self, tmp_path, capsys):
        # At a 500 m range cav02 would see cav01's leader too and settle at
        # 28 m/s instead of 26 m/s, so the run must not start.
        code = main(
            ["run", "--override", "scenario.kind=string", "--out", str(tmp_path),
             "--override", "scenario.n_controlled=2",
             "--override", "radar.max_range=500"]
        )
        assert code == 2
        assert "radar.max_range" in capsys.readouterr().err
        assert not (tmp_path / "run_log.csv").exists()
        # The 200 m spacing must exceed half the range.
        loaded = build_scenario({"scenario": {"kind": "string"}, "radar": {"max_range": 399.0}})
        assert loaded.cfg.radar.max_range == 399.0
        with pytest.raises(ConfigError, match="under twice the 200 m string spacing"):
            build_scenario({"scenario": {"kind": "string"}, "radar": {"max_range": 400.0}})

    @pytest.mark.parametrize("override", ["scenario.n_controlled=16", "scenario.v_offset=3"])
    def test_string_lead_link_out_of_range_exits_2(self, tmp_path, capsys, override):
        # cav01 would read 22.833 m/s at n = 16 and 13.411 m/s at a 3 m/s
        # offset instead of its leader less the offset.
        code = main(["run", "--override", "scenario.kind=string", "--out", str(tmp_path),
                     "--override", override])
        assert code == 2
        assert "pace0 leaves cav01's 350 m radar.max_range" in capsys.readouterr().err
        assert not (tmp_path / "run_log.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_string_without_controlled_vehicles_exits_2(self, tmp_path, capsys, n):
        code = main(
            ["run", "--override", "scenario.kind=string", "--out", str(tmp_path),
             "--override", f"scenario.n_controlled={n}"]
        )
        assert code == 2
        assert "n_controlled" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--override", "scenario.kind=string"],
        ["sweep", "--parameter", "scenario.log_every", "--values", "1000",
         "--override", "scenario.kind=string"],
    ])
    def test_string_rows_missing_the_window_exit_2(self, tmp_path, capsys, command):
        # A row every 50 s leaves none in the 56-68 s window of the default
        # 12 vehicles, whose readout was nan.
        code = main([*command, "--out", str(tmp_path), "--override", "scenario.log_every=1000"])
        assert code == 2
        assert "scenario.log_every: a row every 50 s" in capsys.readouterr().err
        assert not list(tmp_path.rglob("run_log.csv"))

    @pytest.mark.parametrize("command", [
        ["run", "--override", "scenario.kind=string"],
        ["sweep", "--values", "2", "--override", "scenario.kind=string"],
    ], ids=["string", "sweep"])
    @pytest.mark.parametrize("duration", ["30", "62"])
    def test_string_ending_before_the_window_exits_2(self, tmp_path, capsys, command,
                                                      duration):
        # The default 12 vehicles' window is 56-68 s: a 30 s run read nan
        # for every vehicle, and a 62 s run averaged only its 56-62 s rows.
        code = main([*command, "--out", str(tmp_path),
                     "--override", f"scenario.duration_s={duration}"])
        assert code == 2
        assert (f"scenario.duration_s: a {duration} s run ends before the measurement "
                "window (56.0, 68.0) closes") in capsys.readouterr().err
        assert not list(tmp_path.rglob("run_log.csv"))

    @pytest.mark.parametrize("log_every", ["1", "3"])
    def test_string_run_to_the_window_close_reads_out(self, tmp_path, log_every):
        # Three vehicles' window is 20-32 s; a run that ends at 32 s logs
        # every row the readout takes, and 31.95 s misses the last.
        args = ["run", "--override", "scenario.kind=string",
                "--override", "scenario.n_controlled=3",
                "--override", f"scenario.log_every={log_every}"]
        assert main([*args, "--override", "scenario.duration_s=31.95",
                     "--out", str(tmp_path / "short")]) == 2
        assert main([*args, "--override", "scenario.duration_s=32",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "string_summary.csv", newline="") as fh:
            steady = [float(r["steady_v_des_mps"]) for r in csv.DictReader(fh)]
        assert len(steady) == 3 and all(map(math.isfinite, steady))

    def test_string_command_steady_v_des_with_log_every(self, tmp_path):
        steady = {}
        for every in (1, 10):
            out = tmp_path / f"every{every}"
            code = main(
                ["run", "--override", "scenario.kind=string", "--out", str(out),
                 "--override", "scenario.n_controlled=3",
                 "--override", f"scenario.log_every={every}"]
            )
            assert code == 0
            with open(out / "string_summary.csv", newline="") as fh:
                steady[every] = {r["vehicle_id"]: float(r["steady_v_des_mps"])
                                 for r in csv.DictReader(fh)}
        assert sorted(steady[10]) == ["cav01", "cav02", "cav03"]
        for vid, v in steady[10].items():
            assert math.isfinite(v)
            assert v == pytest.approx(steady[1][vid], abs=0.05)

    def test_string_command_window_at_log_every_3(self, tmp_path):
        # Rows are 0.15 s apart and 12 / 0.15 is 79.99999999999999, so a
        # window index taken with int() started one row before the window.
        code = main(
            ["run", "--override", "scenario.kind=string", "--out", str(tmp_path),
             "--override", "scenario.n_controlled=3",
             "--override", "scenario.log_every=3"]
        )
        assert code == 0
        with open(tmp_path / "string_traces.csv", newline="") as fh:
            traces = list(csv.DictReader(fh))
        with open(tmp_path / "string_summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        for r in summary:
            lo, hi = float(r["window_lo_s"]), float(r["window_hi_s"])
            inside = [float(row[r["vehicle_id"]]) for row in traces
                      if lo <= float(row["t"]) < hi]
            assert len(inside) == 80
            assert float(r["steady_v_des_mps"]) == pytest.approx(
                sum(inside) / len(inside), abs=1e-6
            )

    def test_string_sweep_steady_v_des_with_log_every(self, tmp_path):
        code = main(
            ["sweep", "--parameter", "scenario.log_every", "--values", "1,10",
             "--override", "scenario.kind=string",
             "--override", "scenario.n_controlled=3", "--out", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "string_convergence.csv", newline="") as fh:
            steady = {(r["value"], r["vehicle_id"]): float(r["steady_v_des_mps"])
                      for r in csv.DictReader(fh)}
        for vid in ("cav01", "cav02", "cav03"):
            assert math.isfinite(steady[("10", vid)])
            assert steady[("10", vid)] == pytest.approx(steady[("1", vid)], abs=0.05)

    @pytest.mark.parametrize(
        "flag, value", [("--latencies", "abc"), ("--latencies", ".nan"),
                        ("--latencies", ","), ("--latencies", "0,0,60"),
                        pytest.param("--latencies", str(10**400), id="--latencies-10**400"),
                        ("--bin-width-mph", "0"), ("--bin-width-mph", "nan")]
    )
    def test_rds_bad_numbers_exit_2(self, short_log, tmp_path, capsys, flag, value):
        out = tmp_path / "rds"
        code = main(["rds", "--run-log", str(short_log), flag, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert flag.lstrip("-") in err
        assert not out.exists()

    def test_rds_scores_its_run_log(self, short_log, tmp_path, capsys):
        # A 60 s log gives two 30 s reports; its 1,200 controlled rows are
        # the trajectory, and rds writes the study's two tables alone.
        out = tmp_path / "latency"
        assert main(["rds", "--run-log", str(short_log), "--latencies", "0,15",
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["error_hist.csv", "error_stats.csv"]
        grid, trajectory = latency_study(read_run_log(short_log))
        assert (len(grid.spec.sensor_mm), grid.spec.n_reports) == (35, 2)
        assert len(trajectory) == 1200
        with open(out / "error_stats.csv", newline="") as fh:
            n = {float(r["latency_s"]): int(r["n"]) for r in csv.DictReader(fh)}
        assert n[0.0] > 0
        assert n == {lat: s.n for lat, s in error_stats(trajectory, grid, [0.0, 15.0]).items()}
        assert capsys.readouterr().out.endswith(
            f"wrote {out / 'error_stats.csv'} and {out / 'error_hist.csv'}\n")

    @pytest.mark.parametrize("edit", [
        "first_30s", "no_rows", "nan_speed", "inf_mile_marker", "last_t_past_a_day",
    ])
    def test_rds_unscorable_run_log_exits_2(self, short_log, tmp_path, capsys, edit):
        # The log holds 25 humans and then cav at every step. A 30 s log has
        # one report, so no point has the next one; a zero-duration run
        # writes the header alone.
        message = {
            "first_30s": "no point is scored at any latency",
            "no_rows": "no rows",
            "nan_speed": "must be finite",
            "inf_mile_marker": "must be finite",
            "last_t_past_a_day": "last t outside [0, 86400] s",
        }[edit]
        header, *lines = short_log.read_bytes().decode().splitlines(keepends=True)
        if edit == "first_30s":
            lines = lines[:600 * 26]
        elif edit == "no_rows":
            lines = []
        elif edit in ("nan_speed", "inf_mile_marker"):
            cells = lines[40].split(",")
            cells[5 if edit == "nan_speed" else 4] = "nan" if edit == "nan_speed" else "inf"
            lines[40] = ",".join(cells)
        else:
            lines[-26:] = [line.replace(line.split(",", 1)[0], "90000.000", 1)
                           for line in lines[-26:]]
        log = tmp_path / "run_log.csv"
        log.write_bytes("".join([header, *lines]).encode())
        out = tmp_path / "latency"
        assert main(["rds", "--run-log", str(log), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "run_log.csv" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("inputs, message", [
        (["--run-log", "{log}", "--grid", "x"], "unrecognized arguments: --grid x"),
        (["--run-log", "{log}", "--trajectory", "y"], "unrecognized arguments: --trajectory y"),
        (["--grid", "x"], "the following arguments are required: --run-log"),
        (["--trajectory", "y"], "the following arguments are required: --run-log"),
        ([], "the following arguments are required: --run-log"),
    ], ids=["run_log_and_grid", "run_log_and_trajectory", "grid_alone",
            "trajectory_alone", "no_input"])
    def test_rds_inputs_exit_2(self, short_log, tmp_path, capsys, inputs, message):
        # rds reads a run log and nothing else; any other input is a usage
        # error, which argparse ends with exit 2.
        argv = [arg.format(log=short_log) for arg in inputs]
        out = tmp_path / "rds"
        with pytest.raises(SystemExit) as exc:
            main(["rds", *argv, "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_rds_run_log_tiny_bin_width_exits_2(self, short_log, tmp_path, capsys):
        out = tmp_path / "rds"
        code = main(["rds", "--run-log", str(short_log), "--bin-width-mph", "1e-310",
                     "--out", str(out)])
        assert code == 2
        assert "bin_width_mph" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("command", ["run", "string", "sweep", "sweep_replay", "rds"])
    def test_out_through_a_file_exits_2(self, short_log, tmp_path, capsys, command, below):
        # An --out that is, or is under, an existing file is no directory.
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        argv = {
            "run": ["run", "--override", "scenario.duration_s=1"],
            "string": ["run", "--override", "scenario.kind=string"],
            "sweep": ["sweep", "--values", "2,4", "--override", "scenario.duration_s=1"],
            "sweep_replay": ["sweep", "--values", "2", "--replay", str(short_log)],
            "rds": ["rds", "--run-log", str(short_log)],
        }[command]
        assert main([*argv, "--out", str(out)]) == 2
        assert "afile" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("command, name", [
        *(pytest.param("run", name, id=name) for name in RUN_FILES),
        *(("string", name) for name in (*RUN_FILES, "string_traces.csv", "string_summary.csv")),
        ("sweep", "sweep_summary.csv"),
        ("sweep_string", "sweep_summary.csv"),
        ("sweep_string", "string_convergence.csv"),
        ("sweep_replay", "replay_v_des.csv"),
        ("rds", "error_stats.csv"),
        ("rds", "error_hist.csv"),
    ])
    def test_failed_run_writes_none_of_its_outputs(self, short_log, tmp_path, capsys,
                                                   monkeypatch, command, name):
        # Any output name that is a directory is found before a run starts
        # and is bad input, not the collision exit 1; the command writes
        # none of its outputs.
        monkeypatch.setattr(simulation.World, "step", lambda world: pytest.fail("ran"))
        argv = {
            "run": ["run", "--override", "scenario.duration_s=5"],
            "string": ["run", "--override", "scenario.kind=string",
                       "--override", "scenario.n_controlled=2"],
            "sweep": ["sweep", "--values", "2,4", "--override", "scenario.duration_s=1"],
            "sweep_string": ["sweep", "--parameter", "scenario.n_controlled",
                             "--values", "2,3", "--override", "scenario.kind=string"],
            "sweep_replay": ["sweep", "--values", "2", "--replay", str(short_log)],
            "rds": ["rds", "--run-log", str(short_log)],
        }[command]
        out = tmp_path / "q"
        (out / name).mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{out / name}: Is a directory" in capsys.readouterr().err
        assert os.listdir(out) == [name]
        assert not any((out / name).iterdir())

    def test_negative_latency_exits_2(self, short_log, tmp_path, capsys):
        # A latency of -30 s scored points against reports from 30 s ahead.
        out = tmp_path / "rds"
        code = main(["rds", "--run-log", str(short_log), "--latencies=-30,0",
                     "--out", str(out)])
        assert code == 2
        assert "config error: latencies: must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_latency_exits_2_before_reading_the_log(self, tmp_path, capsys):
        code = main(["rds", "--run-log", str(tmp_path / "missing.csv"),
                     "--latencies=-30,0", "--out", str(tmp_path / "rds")])
        assert code == 2
        assert "config error: latencies: must be non-negative" in capsys.readouterr().err

    def test_negative_replay_offset_exits_2_as_the_override_does(self, short_log, tmp_path,
                                                                 capsys):
        message = "config error: controller.v_offset: must be non-negative"
        assert main(["run", "--override", "controller.v_offset=-2",
                     "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        out = tmp_path / "s"
        assert main(["sweep", "--replay", str(short_log), "--values=-2,2",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error, message", [
        (RuntimeError("format failed"), "the run-log writer failed (status 255)"),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), os.strerror(errno.ENOSPC)),
    ])
    def test_failed_log_writer_exits_2_and_replaces_nothing(self, tmp_path, capsys,
                                                            monkeypatch, error, message):
        # The writer process inherits the patched formatter when it is forked.
        out = tmp_path / "q"
        argv = ["run", "--override", "scenario.duration_s=2", "--out", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def failing_write_steps(log, fh):
            raise error

        monkeypatch.setattr(simulation, "_write_steps", failing_write_steps)
        capsys.readouterr()
        assert main([*argv, "--seed", "2"]) == 2
        assert f"{out / 'run_log.csv'}: {message}" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("outcome", ["ok", "collision", "raises"])
    def test_no_writer_process_outlives_main(self, tmp_path, monkeypatch, outcome):
        argv = {
            "ok": ["run", "--override", "scenario.duration_s=2"],
            "collision": ["run", "--override", "scenario.kind=string",
                          "--override", "scenario.n_controlled=2",
                          "--override", "scenario.traffic_speed_mps=5",
                          "--override", "scenario.posted_mph=70",
                          "--override", "controller.u_min=-0.01"],
            "raises": ["run", "--override", "scenario.duration_s=20"],
        }[outcome]
        out = tmp_path / "out"
        if outcome == "raises":
            step = simulation.World.step

            def failing_step(world):
                if world.step_index == 300:
                    raise RuntimeError("step failed")
                step(world)

            monkeypatch.setattr(simulation.World, "step", failing_step)
            with pytest.raises(RuntimeError, match="step failed"):
                main([*argv, "--out", str(out)])
            assert os.listdir(out) == []
        else:
            assert main([*argv, "--out", str(out)]) == {"ok": 0, "collision": 1}[outcome]
            assert {"run_log.csv", "events.jsonl", "report.json"} <= set(os.listdir(out))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_run_overflowing_free_road_term_brakes_at_floor(self, tmp_path):
        # The humans start near 16 m/s, so (v / v0) ** delta overflows.
        code = main(
            ["run", "--out", str(tmp_path),
             "--override", "human.v0=10", "--override", "human.delta=2000",
             "--override", "scenario.duration_s=1"]
        )
        assert code == 0
        first = [row for row in read_run_log(tmp_path / "run_log.csv").rows
                 if row[2] == "human" and row[0] == 0.0]
        assert len(first) == 25
        assert all(row[10] == HUMAN_BRAKE_FLOOR for row in first)

    def test_run_negative_vsl_max_change_exits_2(self, tmp_path, capsys):
        # A negative change limit posted down to -25 mph, and the
        # controller followed it.
        code = main(
            ["run", "--out", str(tmp_path), "--override", "vsl.max_change_mph=-5",
             "--override", "scenario.duration_s=1"]
        )
        assert code == 2
        assert "max_change_mph" in capsys.readouterr().err
        assert not (tmp_path / "run_log.csv").exists()

    @pytest.mark.parametrize("source", ["override", "config"])
    @pytest.mark.parametrize(
        "text, value", [("1e-3", 1e-3), ("1e308", 1e308), ("2.0e1", 20.0), ("1E+1", 10.0)]
    )
    def test_exponent_floats_are_floats(self, tmp_path, source, text, value):
        # YAML 1.1 reads an exponent float without a dot or an exponent
        # sign as a string.
        if source == "override":
            args = ["--override", f"controller.v_des_max={text}"]
        else:
            (tmp_path / "cfg.yaml").write_text(f"controller:\n  v_des_max: {text}\n")
            args = ["--config", str(tmp_path / "cfg.yaml")]
        args += ["--override", "scenario.duration_s=1", "--out", str(tmp_path / "out")]
        assert main(["run", *args]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config_echo"]["controller"]["v_des_max"] == value

    def test_overflowing_exponent_float_exits_2(self, tmp_path, capsys):
        code = main(
            ["run", "--out", str(tmp_path), "--override", "controller.k_cbf=1e309"]
        )
        assert code == 2
        assert "k_cbf: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["controller.k_p", "scenario.log_every"])
    def test_int_too_large_for_a_float_exits_2(self, tmp_path, capsys, key):
        # Not an OverflowError where the run first mixes it with a float.
        out = tmp_path / "out"
        assert main(["run", "--override", f"{key}={10**400}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: 1000") and err.count("\n") == 1
        assert err.endswith("... is too large for a float\n")
        assert not out.exists()

    # PyYAML's constructors raise ValueError on a bad date, and its composer
    # RecursionError on deep nesting, not only YAMLError.
    @pytest.mark.parametrize("content", [
        b"controller: [\n", b"\xff\xfe", None,
        pytest.param(b"scenario:\n  seed: 2024-02-30\n", id="bad_date"),
        pytest.param(b"[" * 5000, id="deep_nesting"),
    ])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.yaml"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "cfg.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("command, values", [
        pytest.param("sweep", "2,[", id="sweep"), pytest.param("rds", "0,[", id="rds"),
        pytest.param("sweep", "2024-13-45", id="sweep_bad_date"),
        pytest.param("rds", "2024-13-45", id="rds_bad_date"),
    ])
    def test_unparseable_value_list_exits_2(self, short_log, tmp_path, capsys, command,
                                            values):
        if command == "sweep":
            argv = ["sweep", "--parameter", "scenario.seed", "--values", values,
                    "--out", str(tmp_path)]
        else:
            argv = ["rds", "--run-log", str(short_log), "--latencies", values,
                    "--out", str(tmp_path / "rds")]
        assert main(argv) == 2
        assert "unparseable YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "scenario.seed=2024-13-45", "scenario.seed=!!bool maybe", "controller.v_offset=!!float abc",
    ])
    def test_bad_yaml_scalar_override_exits_2(self, tmp_path, capsys, override):
        code = main(["run", "--override", override, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"override '{override}': unparseable YAML" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # A long input value that a config error echoes is quoted through
    # tables.clip: a config file's field value or scenario kind, an rds
    # latency that is not a number, and a repeated sweep value.
    @pytest.mark.parametrize("case, where", [
        ("config_value", "controller.v_offset: expected float, got 'xxx"),
        ("scenario_kind", "scenario.kind: unknown kind 'xxx"),
        ("latencies", "latencies: 'xxx"),
        ("repeated_value", "values: 'xxx"),
    ])
    def test_long_input_value_is_quoted_briefly(self, short_log, tmp_path, capsys, case,
                                                where):
        keys = {"config_value": "controller:\n  v_offset", "scenario_kind": "scenario:\n  kind"}
        if case in keys:
            path = tmp_path / "cfg.yaml"
            path.write_text(f"{keys[case]}: {'x' * 200_000}\n")
            argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        elif case == "latencies":
            argv = ["rds", "--run-log", str(short_log), "--latencies", "x" * 100_000,
                    "--out", str(tmp_path / "rds")]
        else:
            value = "x" * 60_000
            argv = ["sweep", "--values", f"{value},{value}", "--out", str(tmp_path / "s")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {where}" in err and len(err.encode()) < 1024

    @pytest.mark.parametrize("column", [0, 3, 7])
    @pytest.mark.parametrize("command", ["rds", "sweep_replay"])
    def test_long_run_log_cell_names_its_t_briefly(self, short_log, tmp_path, capsys, command,
                                                   column):
        # Line 30 is a human's row of the step at t = 0.050, and line 52 is
        # that step's controlled row; a t cell is the whole step's.
        header, *lines = short_log.read_bytes().decode().splitlines(keepends=True)
        rows = range(26, 52) if column == 0 else [29 if column == 3 else 51]
        for row in rows:
            cells = lines[row].split(",")
            assert cells[0] == "0.050" and (column != 7 or cells[2] == "controlled")
            cells[column] = "9" * 200_000 if column == 7 else "x" * 200_000
            lines[row] = ",".join(cells)
        log = tmp_path / "bad_log.csv"
        log.write_bytes("".join([header, *lines]).encode())
        argv = {"rds": ["rds", "--run-log", str(log)],
                "sweep_replay": ["sweep", "--values", "2", "--replay", str(log)]}[command]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        t = "'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'..." if column == 0 else "'0.050'"
        assert "bad_log.csv: run log: " in err and f"at t = {t}" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("log_text", ["t,vehicle_id\n0.000,a\n", ""])
    def test_replay_wrong_header_exits_2(self, tmp_path, capsys, log_text):
        log = tmp_path / "bad_log.csv"
        log.write_text(log_text)
        code = main(
            ["sweep", "--values", "2,4", "--replay", str(log), "--out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "bad_log.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", ["nan,inf,3.0", "1,2,inf", "1,-inf,3.0"])
    def test_replay_non_finite_log_exits_2(self, tmp_path, capsys, cells):
        # cells: v_des, v_gr, v_pr of the first row; nothing non-finite may
        # reach replay_v_des.csv as an inf or nan column.
        log = tmp_path / "bad_log.csv"
        log.write_text(
            "t,vehicle_id,kind,position_m,mile_marker,velocity_mps,mode,v_des,v_gr,v_pr,u\n"
            f"0.000,a,controlled,1.0,70.0,2.0,normal,{cells},0.5\n"
            "0.05,a,controlled,1.0,70.0,2.0,normal,1,2,3.0,0.5\n"
        )
        out = tmp_path / "s"
        code = main(["sweep", "--values", "2", "--replay", str(log), "--out", str(out)])
        assert code == 2
        assert "bad_log.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["rds", "sweep_replay"])
    def test_non_finite_controller_cell_exits_2(self, short_log, tmp_path, capsys, command,
                                                cell):
        # NaN stands for an empty controller cell, so a logged one is a bad
        # log, even in v_des, which neither command reads.
        header, *lines = short_log.read_bytes().decode().splitlines(keepends=True)
        cells = lines[25].split(",")
        assert cells[2] == "controlled" and cells[7]
        cells[7] = cell
        lines[25] = ",".join(cells)
        log = tmp_path / "bad_log.csv"
        log.write_bytes("".join([header, *lines]).encode())
        out = tmp_path / "out"
        argv = {"rds": ["rds", "--run-log", str(log)],
                "sweep_replay": ["sweep", "--values", "2", "--replay", str(log)]}[command]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad_log.csv" in err and f"non-finite controller cell '{cell}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["deleted_row", "swapped_vehicles", "human_controller_cells"])
    def test_replay_non_dense_log_exits_2(self, short_log, tmp_path, capsys, edit):
        # The log holds 25 humans and then cav at every step.
        lines = short_log.read_bytes().decode().splitlines(keepends=True)
        if edit == "deleted_row":
            del lines[2]
        elif edit == "swapped_vehicles":
            lines[30], lines[31] = lines[31], lines[30]
        else:
            cells = lines[134].split(",")
            assert cells[2] == "human"
            cells[6:10] = ["normal", "20.0", "13.4", "21.0"]
            lines[134] = ",".join(cells)
        log = tmp_path / "bad_log.csv"
        log.write_bytes("".join(lines).encode())
        out = tmp_path / "s"
        code = main(["sweep", "--values", "2", "--replay", str(log), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad_log.csv" in err
        assert "not dense" in err
        assert not out.exists()

    def test_replay_directory_exits_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "--values", "2", "--replay", str(tmp_path), "--out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values", ["abc", "2,.inf", "[1]", pytest.param(str(10**400), id="10**400")]
    )
    def test_replay_bad_values_exit_2(self, short_log, tmp_path, capsys, values):
        code = main(
            ["sweep", "--values", values, "--replay", str(short_log),
             "--out", str(tmp_path / "s")]
        )
        assert code == 2
        assert "values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--config", "cfg.yaml"], ["--override", "controller.k_p=abc"],
         ["--seed", "3"], ["--parameter", "controller.k_p"]],
    )
    def test_replay_rejects_flags_it_ignores(self, short_log, tmp_path, capsys, extra):
        out = tmp_path / "s"
        code = main(
            ["sweep", "--values", "2", "--replay", str(short_log),
             "--out", str(out), *extra]
        )
        assert code == 2
        assert extra[0] in capsys.readouterr().err
        assert not out.exists()

    def test_rds_missing_run_log_exits_2(self, tmp_path, capsys):
        code = main(["rds", "--run-log", str(tmp_path / "x.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "x.csv" in capsys.readouterr().err


# Every field a config may set: each section's, and the scenario's run and
# generator fields.
CONFIG_FIELDS = sorted(
    {f"{section}.{name}" for section, cls in SECTION_TYPES.items()
     for name in get_type_hints(cls)}
    | {f"scenario.{name}" for gen in GENERATORS.values()
       for name in inspect.signature(gen).parameters}
    | {f"scenario.{name}" for name in RUN_FIELDS}
)
# Every known dotted key, plus a few unknown or malformed ones.
OVERRIDE_KEYS = sorted(
    {*CONFIG_FIELDS, "scenario.kind", "scenario.bogus", "bogus.field", "scenario", "radar"}
)
# Sizes stay small (counts up to 60, durations up to 90 s at steps of at
# least 0.01 s), so every accepted config is cheap to build and to run.
OVERRIDE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 60),
    st.sampled_from(
        [0.0, -0.0, -1.0, 0.01, 0.05, 0.5, 2.5, 30.0, 90.0,
         math.nan, math.inf, -math.inf]
    ),
    st.sampled_from(["canonical", "string", "abc", ""]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "k_p"]), st.integers(0, 3), max_size=2),
)
OVERRIDE_TEXT = [
    "0", "-1", "0.01", "2.5", "30", ".nan", ".inf", "-.inf", "true", "null",
    "abc", "string", "[1]", "{a: 1}", "",
]


class TestOverrideFuzz:
    """Any override mapping builds a scenario or raises ConfigError, and the
    CLI exits 0, 1 or 2: never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(OVERRIDE_KEYS), OVERRIDE_VALUES, max_size=4))
    def test_build_scenario(self, overrides):
        data: dict = {}
        try:
            for key, value in overrides.items():
                set_dotted(data, key, value)
            loaded = build_scenario(data)
        except ConfigError:
            return
        assert isinstance(loaded, LoadedScenario)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        key=st.sampled_from(OVERRIDE_KEYS),
        text=st.sampled_from(OVERRIDE_TEXT),
        duration=st.sampled_from(["0", "0.5", "2"]),
    )
    def test_cli_run(self, key, text, duration):
        with tempfile.TemporaryDirectory() as out:
            code = main(
                ["run", "--out", out, "--override", f"{key}={text}",
                 "--override", f"scenario.duration_s={duration}"]
            )
        assert code in (0, 1, 2)


# Extreme values of every type, as override text.
EXTREME_TEXT = [
    "0", "-1", "1", "5e-324", "1e-300", "1e20", "1e308", "-1e308", str(2**31),
    str(10**18), str(10**400), "true", "null", "x",
]


@pytest.mark.parametrize("text", [*EXTREME_TEXT, ".nan", "[1]"])
@pytest.mark.parametrize("key", CONFIG_FIELDS)
@pytest.mark.parametrize("base", [{"duration_s": 5}, {"kind": "string", "n_controlled": 3}],
                         ids=["canonical", "string"])
def test_every_field_builds_or_is_a_config_error(base, key, text):
    """Every config field at every extreme value, on both scenario kinds,
    builds a config or raises ConfigError, and nothing else."""
    data = {"scenario": dict(base)}
    try:
        apply_override(data, f"{key}={text}")
        loaded = build_scenario(data)
    except ConfigError:
        return
    assert isinstance(loaded, LoadedScenario)


class _Hang(Exception):
    """A case that outran its time budget."""


class TestConfigSurface:
    """One config field at an extreme value ends a short canonical run and a
    short string study in bounded time, with exit 0, 1 or 2: never a
    traceback and never a hang. A run that exits 0 or 1 writes a run log
    that read_run_log reads back."""

    # Each run takes well under a second; a hang fails the case instead of
    # stalling the suite.
    BUDGET_S = 10.0

    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(key=st.sampled_from(CONFIG_FIELDS), text=st.sampled_from(EXTREME_TEXT))
    # The two values that once never ended: a radar range that listed every
    # phantom target within it, and a lookahead that listed every segment
    # index up to it.
    @example(key="radar.max_range", text="1e20")
    @example(key="vsl.lookahead_segments", text=str(10**18))
    # A radar noise whose draws could overflow to an infinite target speed;
    # it is now a config error.
    @example(key="radar.noise_sigma", text="1e308")
    # An int too large for a float, in a float field: a config error, not an
    # OverflowError in the tick.
    @example(key="controller.k_p", text=str(10**400))
    def test_one_extreme_field_exits_in_time(self, key, text):
        def hang(signum, frame):
            raise _Hang(f"{key}={text} ran over {self.BUDGET_S} s")

        previous = signal.signal(signal.SIGALRM, hang)
        try:
            for base in (["scenario.duration_s=5"],
                         ["scenario.kind=string", "scenario.n_controlled=3"]):
                argv = ["run"]
                for kv in (*base, f"{key}={text}"):
                    argv += ["--override", kv]
                with tempfile.TemporaryDirectory() as out:
                    signal.setitimer(signal.ITIMER_REAL, self.BUDGET_S)
                    try:
                        code = main([*argv, "--out", out])
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    if code in (0, 1):
                        simulation.read_run_log(Path(out) / "run_log.csv")
                assert code in (0, 1, 2), argv
        finally:
            signal.signal(signal.SIGALRM, previous)
