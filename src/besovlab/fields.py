"""Typed readers for JSON config blocks, and the error that names a field.

Every config block, a classify point too, is read through these
functions, so a bad value fails the same way everywhere: a `ConfigError`
that renders as ``<dotted.path>: <reason>``, list indices joined without a
dot (``points[1].beta``).  A reader names only its own key (an object key,
or an int for a list element); `block` and `under` put the enclosing
block's key in front.  Numbers refuse booleans and strings other than
``"inf"``/``"infinity"``.  A missing or null field reads as the default
whenever one is given; a null field with no default fails in its reader.
A `Doc` records the keys its readers read; `known` refuses a non-null key
none read, and `block` calls it on each object it parses.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = [
    "ConfigError", "Doc", "known", "under", "block", "number", "integer", "natural", "string",
    "obj", "array", "numbers", "Natural", "Levels",
]

_MISSING = object()

# bounds the OS threads one replicate loop starts; a constant, not the CPU
# count, so a run that is valid on one host is valid on every host
_MAX_THREADS = 64

# parameter annotations a config reads by `natural` and by the CLI's `_levels`
Natural = int
Levels = Iterable[int]


def _name(key) -> str:
    return f"[{key}]" if isinstance(key, int) else str(key)


def _join(head: str, tail: str) -> str:
    if not head or not tail:
        return head or tail
    return head + tail if tail[0] == "[" else f"{head}.{tail}"


class ConfigError(ValueError):
    """Malformed or incomplete config at the field path ``path``."""

    def __init__(self, key, reason: str) -> None:
        super().__init__(key, reason)
        self.path = _name(key)
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}" if self.path else self.reason


class under:
    """Context whose config errors are led by ``key``: a `ConfigError` gets
    it in front of its path, and any other ``ValueError``, ``TypeError`` or
    ``OverflowError`` (a dataclass validator's, say) becomes a `ConfigError`
    at ``key``."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> bool:
        if isinstance(exc, ConfigError):
            exc.path = _join(_name(self.key), exc.path)
        elif isinstance(exc, (TypeError, ValueError, OverflowError)):
            raise ConfigError(self.key, str(exc)) from exc
        return False


class Doc(dict):
    """A JSON object whose ``read`` set holds the keys a reader has read."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.read = set()


def known(d) -> None:
    """Raise at the first non-null key of the `Doc` ``d`` that no reader read."""
    if isinstance(d, Doc):
        for key, value in d.items():
            if value is not None and key not in d.read:
                raise ConfigError(key, "unknown field")


def _value(d, key, default):
    if isinstance(key, int):  # an element of a list the caller has checked
        return d[key]
    if not isinstance(d, dict):
        raise ConfigError("", f"expected a JSON object, got {d!r}")
    if key in d:
        if isinstance(d, Doc):
            d.read.add(key)
        if d[key] is not None or default is _MISSING:
            return d[key]
    elif default is _MISSING:
        raise ConfigError(key, "required field is missing")
    return default


def block(parse, d, key, default=_MISSING):
    """``parse(d[key])``, then `known` of ``d[key]``; any error is led by ``key``."""
    value = _value(d, key, default)
    if value is default:
        return default
    with under(key):
        parsed = parse(value)
        known(value)
        return parsed


def number(d, key, default=_MISSING) -> float:
    v = _value(d, key, default)
    if isinstance(v, (float, int)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            raise ConfigError(key, f"{v} is out of range for a float") from None
    if isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return math.inf
    if v is default:
        return default
    raise ConfigError(key, f"expected a number, got {v!r}")


def _reader(kind: type, what: str):
    def read(d, key, default=_MISSING):
        v = _value(d, key, default)
        if (isinstance(v, kind) and not isinstance(v, bool)) or v is default:
            return v
        raise ConfigError(key, f"expected {what}, got {v!r}")

    return read


integer = _reader(int, "an integer")
string = _reader(str, "a string")
obj = _reader(dict, "a JSON object")
array = _reader(list, "a list")


def natural(d, key, default=_MISSING) -> int:
    """An integer >= 0: a seed, a replicate, a level."""
    v = integer(d, key, default)
    if v is not default and v < 0:
        raise ConfigError(key, f"expected an integer >= 0, got {v}")
    return v


def numbers(d, key, default=_MISSING) -> list[float]:
    """A list of numbers; a bad element is named ``<key>[i]``."""
    v = array(d, key, default)
    if v is default:
        return default
    with under(key):
        return [number(v, i) for i in range(len(v))]
