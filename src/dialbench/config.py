"""Run configuration files.

INI layout, five optional sections:

    [task]        name
    [policy]      algorithm, plus hyperparameter overrides
    [simuser]     profile
    [errormodel]  preset, plus field overrides
    [harness]     seeds, dialogues, eval_at, test_dialogues, out

``load_config`` reads the file as literal text (no ``%`` interpolation)
and refuses an unreadable file, an unknown section (a non-empty
``[DEFAULT]`` too: its keys would leak into every section) or key and a
value its key cannot take.  Each ``[harness]`` value is read by its
``HARNESS`` entry, which also reads the CLI flag of that name.
``bench_cli`` checks ``[policy]`` keys against the chosen algorithms, and
which keys a verb reads against its ``READS`` table.  Anything the file
leaves out falls back to CLI flags or defaults.
"""

from __future__ import annotations

import configparser
import math
import typing
from pathlib import Path

from dialbench import error_channel, simulated_user


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
    setting, a bool serves for neither, and a float must be finite."""
    accepted = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")


def parse_list(text: str, label: str, kind: type = str) -> tuple:
    """The entries of the comma list ``text``, each read by ``kind``
    (``str`` or ``int``); blank entries are skipped, and an empty list or
    a repeated entry is refused."""
    try:
        values = tuple(kind(part.strip()) for part in str(text).split(",")
                       if part.strip())
    except ValueError:
        raise ConfigError(f"{label} must be a comma list of integers") from None
    if not values:
        raise ConfigError(f"{label} must not be empty")
    if len(set(values)) != len(values):
        raise ConfigError(f"{label} must be distinct, got {text!r}")
    return values


def parse_int_list(text: str, label: str) -> tuple[int, ...]:
    return parse_list(text, label, int)


def _count(key: str, least: int, refusal: str):
    """The reader of an integer setting that must be at least ``least``."""
    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
        if value < least:
            raise ConfigError(f"{refusal}, got {value}")
        return value
    return read


def _seeds(text: str) -> tuple[int, ...]:
    seeds = parse_int_list(text, "seeds")
    for seed in seeds:
        if not 0 <= seed < 1 << 128:      # a seed is a 128-bit Philox key
            raise ConfigError(f"seeds must lie in 0 .. 2**128 - 1, got {seed}")
    return seeds


# The reader of each [harness] key's text, from the file or from the CLI
# flag of the same name.  An output directory is a name, whatever it
# looks like.
HARNESS = {
    "seeds": _seeds,
    "dialogues": _count("dialogues", 0,
                        "training dialogues must not be negative"),
    "eval_at": lambda text: tuple(sorted(parse_int_list(text, "eval_at"))),
    "test_dialogues": _count("test_dialogues", 1,
                             "test dialogues must be at least 1"),
    "out": str,
}

# The keys of each section; [policy] keys are the config fields of the
# chosen algorithms, which only the CLI knows.
KEYS = {
    "task": ("name",),
    "policy": None,
    "simuser": ("profile",),
    "errormodel": ("preset",) + error_channel.PARAM_NAMES,
    "harness": tuple(HARNESS),
}
SECTIONS = tuple(KEYS)

_CHOICES = {("simuser", "profile"): simulated_user.PROFILES,
            ("errormodel", "preset"): error_channel.PRESETS}
_ERROR_KINDS = typing.get_type_hints(error_channel.ErrorParams)


def _read(section: str, key: str, text: str):
    """The value of ``[section] key``, checked against what the key takes."""
    keys = KEYS[section]
    if keys is not None and key not in keys:
        raise ConfigError(f"[{section}] supports only "
                          f"{', '.join(map(repr, keys))}; it has no field "
                          f"{key!r}")
    if section == "harness":
        return HARNESS[key](text)
    value = coerce(text)
    choices = _CHOICES.get((section, key))
    if choices is not None and value not in choices:
        raise ConfigError(f"unknown {key} {value!r}; choose from "
                          f"{sorted(choices)}")
    if section == "errormodel" and key != "preset":
        check_type(f"[errormodel] key {key!r}", value, _ERROR_KINDS[key])
    return value


def load_config(path: str | Path) -> dict[str, dict]:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")

    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        out[section] = {key: _read(section, key, text)
                        for key, text in parser.items(section)}
    return out
