"""Config file loading: YAML sections mapped onto scenario dataclasses.

A config file is a mapping of sections. The ``scenario`` section picks the
generator (``kind: canonical`` or ``kind: string``), its generator inputs,
and run-level fields (duration, timestep, seed, logging cadence). Each other
section (``controller``, ``radar``, ...) overrides fields of the ScenarioConfig
sub-config of its name. Every field defaults to the canonical wave scenario.
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

from .scenarios import canonical_scenario, check_string, string_scenario
from .simulation import ScenarioConfig
from .tables import clip


class ConfigError(Exception):
    """Invalid config content; the message names the offending field."""


# ScenarioConfig's dataclass fields are the sections and its scalars the run
# fields; its tuples (roster, bottlenecks, phantoms) are the generators' alone.
_HINTS = get_type_hints(ScenarioConfig)
SECTION_TYPES = {name: hint for name, hint in _HINTS.items() if dataclasses.is_dataclass(hint)}
RUN_FIELDS = tuple(name for name, hint in _HINTS.items()
                   if name not in SECTION_TYPES and get_origin(hint) is not tuple)

GENERATORS = {"canonical": canonical_scenario, "string": string_scenario}

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


def parse_yaml(text: str, source: str) -> Any:
    """Parse YAML text, exponent floats included; bad YAML is a ConfigError naming source."""
    try:
        return yaml.load(text, Loader=_Loader)
    # Not only YAMLError: a 2024-13-45 date raises ValueError, deep nesting RecursionError.
    except Exception as exc:
        raise ConfigError(f"{source}: unparseable YAML") from exc


def read_input(reader, path: str | Path) -> Any:
    """reader(path); an unreadable, non-UTF-8 or malformed file is a ConfigError naming it."""
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: Optional[str | Path]) -> dict:
    """Read a YAML config file; None means an empty config."""
    if path is None:
        return {}
    data = read_input(lambda p: parse_yaml(p.read_text(encoding="utf-8"), str(p)), Path(path))
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
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
    """Reject a value that does not fit its field's annotated type, any
    non-finite float, and any int too large for a float."""
    if get_origin(hint) is Union:
        members = get_args(hint)
        if value is None and type(None) in members:
            return
        (hint,) = [m for m in members if m is not type(None)]
    accepted = ACCEPTED_TYPES.get(hint, (hint,))
    # bool is an int subclass, so it fits only a bool field.
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name}: expected {hint.__name__}, got {clip(value)}")
    # Ints meet floats in the run's arithmetic, so each must fit a float.
    if isinstance(value, (int, float)):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            raise ConfigError(f"{name}: {clip(value)} is too large for a float") from None
        if not finite:
            raise ConfigError(f"{name}: must be finite, got {clip(value)}")


def build_scenario(data: dict) -> LoadedScenario:
    """Turn a parsed config mapping into a validated ScenarioConfig."""
    known = set(SECTION_TYPES) | {"scenario"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown config section")

    scenario = dict(_check_section("scenario", data.get("scenario")))
    kind = scenario.pop("kind", "canonical")
    if not isinstance(kind, str) or kind not in GENERATORS:
        raise ConfigError(f"scenario.kind: unknown kind {clip(kind)}")
    generator = GENERATORS[kind]
    accepted = set(inspect.signature(generator).parameters)
    gen_hints = get_type_hints(generator)

    gen_args: dict[str, Any] = {}
    run_fields: dict[str, Any] = {}
    for field, value in scenario.items():
        if field in accepted:
            _check_type(f"scenario.{field}", value, gen_hints[field])
            gen_args[field] = value
        elif field in RUN_FIELDS:
            _check_type(f"scenario.{field}", value, _HINTS[field])
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

    try:
        if replacements:
            cfg = dataclasses.replace(cfg, **replacements)
        # Checked here, not by the config: a later stage may set either side.
        if cfg.vsl_static_mph is not None and not (
                cfg.vsl.min_mph <= cfg.vsl_static_mph <= cfg.vsl.max_mph):
            raise ValueError("vsl_static_mph: outside posting range")
        if kind == "string":
            check_string(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedScenario(cfg=cfg, kind=kind)
