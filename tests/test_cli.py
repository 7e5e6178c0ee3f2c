"""Config mapping and command-line harness tests."""

import csv
import inspect
import json
import math
import tempfile
from typing import get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from middleway.cli import main
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
from middleway.scenarios import canonical_scenario
from middleway.simulation import read_run_log, run, write_run_log


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
        assert loaded.generator_args == {"n_controlled": 8}
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

    def test_subconfig_validation_wrapped(self):
        bad = [
            ("controller", "k_p", -1.0),
            ("controller", "k_p", "abc"),
            ("radar", "max_targets", 1.5),
            ("controller", "v_offset", [1]),
            ("scenario", "log_every", 1.5),
            ("scenario", "duration_s", math.nan),
            ("controller", "k_p", math.inf),
            ("vsl", "round_mph", 0),
        ]
        for section, field, value in bad:
            with pytest.raises(ConfigError, match=f"{section}.{field}"):
                build_scenario({section: {field: value}})

    def test_generator_validation_wrapped(self):
        with pytest.raises(ConfigError, match="scenario"):
            build_scenario({"scenario": {"kind": "string", "gap0_m": 100.0}})
        with pytest.raises(ConfigError, match="phantom_period_s"):
            build_scenario({"scenario": {"phantom_period_s": 0.0}})

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
    cfg = canonical_scenario(duration_s=60.0)
    log = run(cfg)
    path = tmp_path_factory.mktemp("log") / "run_log.csv"
    write_run_log(log, path)
    return path


class TestCli:
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

    def test_run_bad_dt_exits_2_naming_field(self, tmp_path, capsys):
        code = main(
            ["run", "--out", str(tmp_path), "--override", "scenario.dt=0"]
        )
        assert code == 2
        assert "dt" in capsys.readouterr().err

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

    def test_string_command_cascade(self, tmp_path):
        out = tmp_path / "string"
        code = main(
            ["string", "--out", str(out),
             "--override", "scenario.n_controlled=3"]
        )
        assert code == 0
        with open(out / "string_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        steady = {r["vehicle_id"]: float(r["steady_v_des_mps"]) for r in rows}
        assert steady["cav01"] == pytest.approx(28.0, abs=0.05)
        assert steady["cav02"] == pytest.approx(26.0, abs=0.05)
        assert steady["cav03"] == pytest.approx(24.0, abs=0.05)

    def test_string_command_steady_v_des_with_log_every(self, tmp_path):
        steady = {}
        for every in (1, 10):
            out = tmp_path / f"every{every}"
            code = main(
                ["string", "--out", str(out),
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

    def test_rds_static_grid_zero_stats(self, tmp_path):
        from middleway.rds import (
            GridSpec,
            TrajectoryPoint,
            grid_from_field,
            static_field,
            write_grid,
            write_trajectory,
        )

        spec = GridSpec(sensor_mm=(60.0, 60.5, 61.0), duration_s=300.0)
        field = static_field(20.0)
        write_grid(grid_from_field(field, spec), tmp_path / "grid.csv")
        traj = [TrajectoryPoint(120.0 + 10.0 * i, 60.2, 20.0) for i in range(6)]
        write_trajectory(traj, tmp_path / "traj.csv")
        out = tmp_path / "rds"
        code = main(
            ["rds", "--grid", str(tmp_path / "grid.csv"),
             "--trajectory", str(tmp_path / "traj.csv"),
             "--latencies", "0,60", "--out", str(out)]
        )
        assert code == 0
        with open(out / "error_stats.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert float(row["mean_err_mps"]) == 0.0
            assert float(row["std_err_mps"]) == 0.0

    def test_rds_missing_grid_exits_2(self, tmp_path, capsys):
        code = main(
            ["rds", "--grid", str(tmp_path / "g.csv"),
             "--trajectory", str(tmp_path / "t.csv"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "g.csv" in capsys.readouterr().err


# Every known dotted key, plus a few unknown or malformed ones.
OVERRIDE_KEYS = sorted(
    {f"{section}.{name}" for section, cls in SECTION_TYPES.items()
     for name in get_type_hints(cls)}
    | {f"scenario.{name}" for gen in GENERATORS.values()
       for name in inspect.signature(gen).parameters}
    | {f"scenario.{name}" for name in RUN_FIELDS}
    | {"scenario.kind", "scenario.bogus", "bogus.field", "scenario", "radar"}
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
