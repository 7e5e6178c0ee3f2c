"""Config file loading: YAML sections mapped onto scenario dataclasses.

A config file is a mapping of sections. The ``scenario`` section picks the
generator (``kind: canonical`` or ``kind: string``), its generator inputs,
and run-level fields (duration, timestep, seed, logging cadence). The
remaining sections (``controller``, ``radar``, ``estimator``, ``vsl``,
``feed``, ``human``) override fields of the corresponding sub-config. Every field
defaults to the canonical wave scenario, so an empty file reproduces it.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import re
from pathlib import Path
from typing import (
    Any,
    NamedTuple,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import yaml

from .controller import ControllerConfig
from .infrastructure import FeedConfig, VslConfig
from .perception import EstimatorConfig, RadarConfig
from .scenarios import canonical_scenario, check_string, string_scenario
from .simulation import IdmParams, ScenarioConfig


class ConfigError(Exception):
    """Invalid config content; the message names the offending field."""


SECTION_TYPES: dict[str, type] = {
    "controller": ControllerConfig,
    "radar": RadarConfig,
    "estimator": EstimatorConfig,
    "vsl": VslConfig,
    "feed": FeedConfig,
    "human": IdmParams,
}

GENERATORS = {"canonical": canonical_scenario, "string": string_scenario}

RUN_FIELDS = ("duration_s", "dt", "seed", "log_every", "entry_mm", "vsl_static_mph")

# Python types a config value may have for each annotated field type.
ACCEPTED_TYPES: dict[type, tuple[type, ...]] = {
    bool: (bool,),
    int: (int,),
    float: (int, float),
}


class LoadedScenario(NamedTuple):
    cfg: ScenarioConfig
    kind: str


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads 1e-3, 1e308 and 2.0e5 as floats; YAML 1.1
    needs a dot and a signed exponent, so plain PyYAML reads them as text."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def parse_yaml(text, source: str) -> Any:
    """Parse YAML text or a text stream, exponent floats included; malformed
    YAML is a ConfigError naming the source."""
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: unparseable YAML") from exc


def load_config(path: Optional[str | Path]) -> dict:
    """Read a YAML config file; None means an empty config."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{p}: no such config file")
    try:
        with open(p, encoding="utf-8") as fh:
            data = parse_yaml(fh, str(p))
    except OSError as exc:
        raise ConfigError(f"{p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: top level must be a mapping")
    return data


def apply_override(data: dict, spec: str) -> None:
    """Apply one ``section.field=value`` override in place.

    The value side is parsed as YAML, so numbers, booleans, nulls, and
    lists all work from the command line.
    """
    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise ConfigError(f"override '{spec}': expected key=value")
    value = parse_yaml(raw, f"override '{spec}'")
    set_dotted(data, key, value)


def set_dotted(data: dict, dotted: str, value: Any) -> None:
    """Set ``a.b.c`` in a nested mapping, creating missing sections."""
    node = data
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{dotted}: {part} is not a section")
    node[parts[-1]] = value


def _check_section(name: str, raw: Any) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: must be a mapping")
    return raw


def _check_type(name: str, value: Any, hint: Any) -> None:
    """Reject a value that does not fit its field's annotated type, and any
    non-finite float."""
    if get_origin(hint) is Union:
        members = get_args(hint)
        if value is None and type(None) in members:
            return
        (hint,) = [m for m in members if m is not type(None)]
    accepted = ACCEPTED_TYPES.get(hint, (hint,))
    # bool is an int subclass, so it fits only a bool field.
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name}: expected {hint.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite, got {value!r}")


def build_scenario(data: dict) -> LoadedScenario:
    """Turn a parsed config mapping into a validated ScenarioConfig."""
    known = set(SECTION_TYPES) | {"scenario"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown config section")

    scenario = dict(_check_section("scenario", data.get("scenario")))
    kind = scenario.pop("kind", "canonical")
    if not isinstance(kind, str) or kind not in GENERATORS:
        raise ConfigError(f"scenario.kind: unknown kind {kind!r}")
    generator = GENERATORS[kind]
    accepted = set(inspect.signature(generator).parameters)
    gen_hints = get_type_hints(generator)

    run_hints = get_type_hints(ScenarioConfig)
    gen_args: dict[str, Any] = {}
    run_fields: dict[str, Any] = {}
    for field, value in scenario.items():
        if field in accepted:
            _check_type(f"scenario.{field}", value, gen_hints[field])
            gen_args[field] = value
        elif field in RUN_FIELDS:
            _check_type(f"scenario.{field}", value, run_hints[field])
            run_fields[field] = value
        else:
            raise ConfigError(f"scenario.{field}: unknown field")

    try:
        cfg = generator(**gen_args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    replacements: dict[str, Any] = dict(run_fields)
    for section, cls in SECTION_TYPES.items():
        raw = _check_section(section, data.get(section))
        if not raw:
            continue
        hints = get_type_hints(cls)
        for field, value in raw.items():
            if field not in hints:
                raise ConfigError(f"{section}.{field}: unknown field")
            _check_type(f"{section}.{field}", value, hints[field])
        try:
            replacements[section] = dataclasses.replace(
                getattr(cfg, section), **raw
            )
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from exc

    if replacements:
        cfg = dataclasses.replace(cfg, **replacements)
    try:
        cfg.validate()
        if kind == "string":
            check_string(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedScenario(cfg=cfg, kind=kind)
