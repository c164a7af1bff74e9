"""Settings as flat ``dotted.key`` mappings, and the one codec between
them and settings dataclasses.

File format: one ``dotted.key = value`` per line, ``#`` comments, blank
lines ignored. Values parse as bool/int/float/string; comma-separated lists
of numbers parse to tuples. Dumping is sorted so identical mappings produce
identical bytes.

Codec: ``flatten`` writes a settings dataclass as ``prefix.<field>`` keys,
and ``from_flat`` reads them back, raising ``ConfigError`` for a key that
names no field or a value its field's annotation does not admit. A run
manifest's ``config``, a ``genmesh --config`` file (``jaw.*``) and a
``calibrate-mesh --camera`` file (``camera.*``) are read through it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import types
import typing
from pathlib import Path
from typing import Any, Mapping

# the values a flat key holds, alone or as the items of a tuple field
_SCALARS = (bool, int, float, str, type(None))


class ConfigError(ValueError):
    pass


def parse_scalar(text: str):
    s = text.strip()
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_value(text: str):
    s = text.strip()
    if "," in s:
        return tuple(parse_scalar(p) for p in s.split(",") if p.strip())
    return parse_scalar(s)


def parse_config(text: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = parse_value(val)
    return out


def load_config(path: str | Path) -> dict[str, Any]:
    return parse_config(Path(path).read_text())


def format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(format_value(v) for v in value)
    if hasattr(value, "item"):  # numpy scalars
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(mapping: Mapping[str, Any]) -> str:
    lines = [f"{k} = {format_value(mapping[k])}" for k in sorted(mapping)]
    return "\n".join(lines) + "\n"


def save_config(mapping: Mapping[str, Any], path: str | Path) -> None:
    Path(path).write_text(dump_config(mapping))


def section(mapping: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """Keys under ``prefix.`` with the prefix stripped."""
    p = prefix + "."
    return {k[len(p):]: v for k, v in mapping.items() if k.startswith(p)}


def config_hash(mapping: Mapping[str, Any]) -> str:
    return hashlib.sha256(dump_config(mapping).encode()).hexdigest()


def flatten(prefix: str, obj) -> dict[str, Any]:
    """``prefix.<field>`` -> value for each field of the dataclass ``obj``;
    a nested dataclass's fields under ``prefix.<field>.``, a tuple as a
    list. Raises ``ConfigError`` on a value ``from_flat`` could not read
    back."""
    out = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        key = f"{prefix}.{f.name}"
        if dataclasses.is_dataclass(v):
            out.update(flatten(key, v))
        elif isinstance(v, tuple) and all(isinstance(x, _SCALARS) for x in v):
            out[key] = list(v)
        elif isinstance(v, _SCALARS):
            out[key] = v
        else:
            raise ConfigError(f"cannot write {key!r}: {type(v).__name__} value {v!r}")
    return out


def from_flat(base, mapping: Mapping[str, Any], prefix: str):
    """A copy of the dataclass ``base`` with each field that ``mapping``
    names set: keys as ``flatten(prefix, ...)`` writes them, nested
    dataclasses included. Raises ``ConfigError`` for a key that names no
    field and for a value of the wrong type. An int may fill a float field,
    and a list or a single value a tuple field."""
    p = prefix + "."
    hints = typing.get_type_hints(type(base))
    updates, nested = {}, {}
    for key, value in mapping.items():
        name, dot, _ = key[len(p):].partition(".")
        if not key.startswith(p) or name not in hints \
                or bool(dot) != dataclasses.is_dataclass(getattr(base, name)):
            raise ConfigError(f"unknown config key {key!r}")
        if dot:
            nested.setdefault(name, {})[key] = value
        else:
            updates[name] = _read(key, hints[name], value)
    for name, sub in nested.items():
        updates[name] = from_flat(getattr(base, name), sub, p + name)
    return dataclasses.replace(base, **updates)


def _read(key: str, hint, value):
    """``value`` if a field annotated ``hint`` may hold it, a tuple field's
    as a tuple (a bare ``tuple`` holds numbers); else ``ConfigError``."""
    kind, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if kind in (typing.Union, types.UnionType):
        # a list fills only a tuple member, so `tuple | float` keeps a float
        for member in args:
            if ((typing.get_origin(member) or member) is tuple) == isinstance(value, (list, tuple)):
                with contextlib.suppress(ConfigError):
                    return _read(key, member, value)
    elif kind is tuple:
        items = tuple(value) if isinstance(value, (list, tuple)) else (value,)
        if not args or args[-1] is Ellipsis:
            args = (args[0] if args else float,) * len(items)
        if len(items) == len(args):
            return tuple(_read(key, a, v) for a, v in zip(args, items))
    elif isinstance(value, (int, float) if kind is float else kind) \
            and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{key!r} takes {getattr(hint, '__name__', hint)}, not {value!r}")
