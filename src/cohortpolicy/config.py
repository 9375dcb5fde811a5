"""One reader for every JSON config: a dataclass built from a mapping by its
fields' resolved types. Nothing is dropped or coerced silently: an unknown
key, a missing required key or a wrong type raises ConfigError naming the
key's path (e.g. `scenario.planted_effects[0].note`).
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping

from .errors import ConfigError


def from_mapping(cls, data, path: str = ""):
    """Build the dataclass `cls` from JSON-like `data`; an absent key takes
    the field's default. A field's key is its name, or the name given to
    `json_key`. Field types: int (not a bool or a float), float (an
    int is converted), str, `X | None`, `dict[str, T]`, `list[T]`,
    `tuple[T, ...]` and `tuple[T1, T2, ...]` of fixed length (each from a
    list or a tuple) and nested dataclasses."""
    _expect(isinstance(data, Mapping), "an object", data, path or cls.__name__)
    hints, known = _fields(cls)
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key {_join(path, key)!r}")
    for key, f in known.items():
        if key not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required key {_join(path, key)!r}")
    return cls(**{known[key].name: _convert(hints[known[key].name], value,
                                            _join(path, key))
                  for key, value in data.items()})


@functools.cache
def _fields(cls) -> tuple[dict, dict]:
    # The resolved field types, and the init fields by key. Resolving the
    # types evaluates each annotation's text: about 80 us per call, which
    # a typed JSONL file would pay on every line.
    known = {f.metadata.get("key", f.name): f
             for f in dataclasses.fields(cls) if f.init}
    return typing.get_type_hints(cls), known


def json_key(name: str, **kwargs) -> dataclasses.Field:
    """A dataclass field that `from_mapping` reads from the key `name`;
    `kwargs` go to `dataclasses.field`."""
    return dataclasses.field(metadata={"key": name}, **kwargs)


def reject_repeats(name: str, values) -> None:
    """Raise ConfigError naming the first entry that `values` repeats."""
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{name} lists {repeated!r} more than once")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _convert(tp, value, path: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 \
            and type(None) in args:
        [tp] = [a for a in args if a is not type(None)]
        return None if value is None else _convert(tp, value, path)
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        _expect(isinstance(value, (list, tuple)), "a list", value, path)
        return origin(_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is tuple:
        _expect(isinstance(value, (list, tuple)) and len(value) == len(args),
                f"a list of {len(args)}", value, path)
        return tuple(_convert(item, v, f"{path}[{i}]")
                     for i, (item, v) in enumerate(zip(args, value)))
    if origin is dict and args[0] is str:
        _expect(isinstance(value, Mapping) and all(isinstance(k, str) for k in value),
                "an object", value, path)
        return {k: _convert(args[1], v, _join(path, k)) for k, v in value.items()}
    if dataclasses.is_dataclass(tp):
        return from_mapping(tp, value, path)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        _expect(numeric and isinstance(value, int), "an int", value, path)
        return value
    if tp is float:
        _expect(numeric, "a number", value, path)
        return float(value)
    if tp is str:
        _expect(isinstance(value, str), "a string", value, path)
        return value
    raise ConfigError(f"{path}: no JSON conversion for field type {tp!r}")


def _expect(ok: bool, what: str, value, path: str) -> None:
    if not ok:
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
