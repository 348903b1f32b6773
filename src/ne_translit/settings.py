"""The settings a flag, a --config key or a library parameter can give.

Each parser takes either the text of a flag or config value or a value
that is already of its type, and raises ValueError or TypeError on
anything else.  The CLI's flags and config keys, PipelineConfig and the
estimators all parse through SETTINGS, so a setting takes the same values
everywhere; check() turns a rejection into a ConfigError that names the
setting.  argparse names a parser by its __name__ in a usage error.
"""

from __future__ import annotations

from .decoder import Fallback
from .errors import ConfigError

_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def positive_int(value) -> int:
    """A decimal string or an int (not a bool), at least 1."""
    if isinstance(value, str):
        value = int(value)
    elif not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"not an int: {value!r}")
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def boolean(value) -> bool:
    """A bool, or 1/true/yes/on or 0/false/no/off in any case."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in _BOOLEANS:
        return _BOOLEANS[value.lower()]
    raise ValueError(f"not a boolean: {value!r}")


# Every setting: its parser and its default.  The CLI resolves each one
# from the flag, else the config file, else this default.
SETTINGS = {
    "smoothing_k": (float, 0.1),
    "em_iterations": (positive_int, 10),
    "top_k": (positive_int, 10),
    "fallback": (Fallback, Fallback.ERROR),
    "kb_persons": (boolean, False),
}


def bad_value(key: str, value) -> ConfigError:
    return ConfigError(f"bad value for {key!r}: {value!r}")


def check(key: str, value):
    """value parsed by the parser of SETTINGS[key]; a ConfigError naming
    the key if the parser rejects it."""
    try:
        return SETTINGS[key][0](value)
    except (TypeError, ValueError) as exc:
        raise bad_value(key, value) from exc
