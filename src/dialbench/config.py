"""Run configuration files.

INI layout, five optional sections:

    [task]        name
    [policy]      algorithm, plus hyperparameter overrides
    [simuser]     profile
    [errormodel]  preset, plus field overrides
    [harness]     seeds, dialogues, eval_at, test_dialogues, out

Anything the file leaves out falls back to CLI flags or defaults.
"""

from __future__ import annotations

import configparser
import typing
from pathlib import Path

from dialbench import error_channel, simulated_user

SECTIONS = ("task", "policy", "simuser", "errormodel", "harness")
_HARNESS_KEYS = {"seeds", "dialogues", "eval_at", "test_dialogues", "out"}


class ConfigError(Exception):
    pass


def coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    low = text.strip().lower()
    if low in {"true", "yes", "on"}:
        return True
    if low in {"false", "no", "off"}:
        return False
    return text.strip()


def check_type(what: str, value, kind: type) -> None:
    """``value`` must be of ``kind``; an int also serves for a float
    setting, and a bool serves for neither."""
    accepted = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")


def parse_int_list(text: str, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{label} must be a comma list of integers") from exc
    if not values:
        raise ConfigError(f"{label} must not be empty")
    return values


def load_config(path: str | Path) -> dict[str, dict]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        # an output directory is a name, whatever it looks like
        out[section] = {k: v.strip() if (section, k) == ("harness", "out")
                        else coerce(v) for k, v in parser.items(section)}

    _validate(out, path)
    return out


def _validate(config: dict[str, dict], path: Path) -> None:
    task = config.get("task", {})
    for key in task:
        if key != "name":
            raise ConfigError(f"[task] supports only 'name', got {key!r}")

    sim = config.get("simuser", {})
    for key, value in sim.items():
        if key != "profile":
            raise ConfigError(f"[simuser] supports only 'profile', got {key!r}")
        if value not in simulated_user.PROFILES:
            raise ConfigError(f"unknown profile {value!r}; choose from "
                              f"{sorted(simulated_user.PROFILES)}")

    err = config.get("errormodel", {})
    kinds = typing.get_type_hints(error_channel.ErrorParams)
    for key, value in err.items():
        if key == "preset":
            if value not in error_channel.PRESETS:
                raise ConfigError(f"unknown preset {value!r}; choose from "
                                  f"{sorted(error_channel.PRESETS)}")
        elif key not in error_channel.PARAM_NAMES:
            raise ConfigError(f"[errormodel] has no field {key!r}")
        else:
            check_type(f"[errormodel] key {key!r}", value, kinds[key])

    harness = config.get("harness", {})
    for key in harness:
        if key not in _HARNESS_KEYS:
            raise ConfigError(f"[harness] supports {sorted(_HARNESS_KEYS)}, "
                              f"got {key!r}")
    if "seeds" in harness:
        harness["seeds"] = parse_int_list(harness["seeds"], "[harness] seeds")
    if "eval_at" in harness:
        harness["eval_at"] = parse_int_list(harness["eval_at"],
                                            "[harness] eval_at")
    for key in ("dialogues", "test_dialogues"):
        if key in harness and not isinstance(harness[key], int):
            raise ConfigError(f"[harness] {key} must be an integer")
