"""The settings a flag, a --config key or an estimator parameter can give.

Each parser takes either the text of a flag or config value or a value
that is already of its type, and raises ValueError or TypeError on
anything else.  Settings are parsed in two places only: the CLI's flags
and config keys, and the estimators where they use a parameter.  Both
parse through SETTINGS, so a setting takes the same values in each;
check() turns a rejection into a ConfigError that names the setting.
The library functions below them (process_sentence and decode_name) take
typed values and check them on entry with decoder.check_decode_settings:
a fallback that is not a Fallback member, or a top_k that is not a plain
int, is a TypeError there, so positive_int returns a plain int.  argparse
names a parser by its __name__ in a usage error.
"""

from __future__ import annotations

from .decoder import Fallback
from .errors import ConfigError
from .model import smoothing_constant


def positive_int(value) -> int:
    """A decimal string or an int (not a bool), at least 1, as a plain int."""
    if isinstance(value, str):
        value = int(value)
    elif not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"not an int: {value!r}")
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return int(value)


def smoothing_k(value) -> float:
    """A number or its text, finite and >= 0 (model.smoothing_constant)."""
    return smoothing_constant(float(value))


# Every setting: its parser and its default.  The CLI resolves each one
# from the flag, else the config file, else this default.
SETTINGS = {
    "smoothing_k": (smoothing_k, 0.1),
    "em_iterations": (positive_int, 10),
    "top_k": (positive_int, 10),
    "fallback": (Fallback, Fallback.ERROR),
}


def bad_value(key: str, value) -> ConfigError:
    return ConfigError(f"bad value for {key!r}: {value!r}")


def check(key: str, value):
    """value parsed by the parser of SETTINGS[key]; a ConfigError naming
    the key if there is no such setting or the parser rejects the value."""
    if key not in SETTINGS:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return SETTINGS[key][0](value)
    except (TypeError, ValueError) as exc:
        raise bad_value(key, value) from exc
