"""One schema for configuration dataclasses.

Each field declares, once, in its `dataclasses.field` metadata, its value
type and checks (`setting`). A field's JSON key is its name, and a nested
JSON object is a nested config class (`SimConfig.grid`, `.adaptive`,
`.sites[i]`). One loop over `dataclasses.fields` then validates an object
built in code (`validate_fields`, called from `__post_init__`), builds one
from parsed JSON (`fields_from_dict`) and writes it back
(`fields_to_dict`), so the three can never disagree.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
import operator
from dataclasses import dataclass

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """Configuration schema violation; the message starts with the field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.detail = message


@dataclass(frozen=True)
class Setting:
    """A field's checks. `kind` is a value type, an enum or a config class
    (a nested object); `many` asks for a nonempty list of `kind`, and
    `distinct`, the name of one entry, for a list without repeats;
    `optional` admits None; ge/gt/le/lt bound numbers."""

    kind: type
    many: bool = False
    distinct: str | None = None
    optional: bool = False
    choices: tuple = ()
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None


def setting(default, kind: type, **checks):
    """A dataclass field (no default when `default` is MISSING) with its schema."""
    return shared(default, Setting(kind, **checks))


def shared(default, spec: Setting):
    """A dataclass field checked by `spec`, one Setting declared next to its
    owner and reused wherever the same value is configured."""
    return dataclasses.field(default=default, metadata={"setting": spec})


_BOUNDS = (
    ("ge", ">=", operator.ge),
    ("gt", ">", operator.gt),
    ("le", "<=", operator.le),
    ("lt", "<", operator.lt),
)


def _check_one(spec: Setting, value, path: str):
    kind = spec.kind
    if dataclasses.is_dataclass(kind):
        if isinstance(value, kind):
            return value
        if isinstance(value, dict):
            return fields_from_dict(kind, value, path + ".")
        raise ConfigError(path, f"expected an object, got {value!r}")
    if issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except ValueError:
            names = [member.value for member in kind]
            raise ConfigError(path, f"expected one of {names}, got {value!r}") from None
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        if spec.choices and value not in spec.choices:
            raise ConfigError(path, f"expected one of {list(spec.choices)}, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(path, f"expected an integer, got {value!r}")
    elif (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    value = kind(value)
    for name, word, holds in _BOUNDS:
        bound = getattr(spec, name)
        if bound is not None and not holds(value, bound):
            raise ConfigError(path, f"must be {word} {bound}, got {value!r}")
    return value


def _check(spec: Setting, value, path: str):
    if value is None and spec.optional:
        return None
    if not spec.many:
        return _check_one(spec, value, path)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(path, f"expected a nonempty list, got {value!r}")
    items = tuple(_check_one(spec, item, f"{path}[{i}]") for i, item in enumerate(value))
    for i, item in enumerate(items):
        if spec.distinct and item in items[:i]:
            raise ConfigError(f"{path}[{i}]", f"duplicate {spec.distinct} {_plain(item)!r}")
    return items


def validate_fields(obj) -> None:
    """Check every field of `obj` that declares a setting and store the
    normalised value (ints widened to float, lists to tuples, strings to
    enum members, dicts to nested config objects). Fields without a
    setting, such as sample arrays, are left as given."""
    for f in dataclasses.fields(obj):
        spec = f.metadata.get("setting")
        if spec is not None:
            object.__setattr__(obj, f.name, _check(spec, getattr(obj, f.name), f.name))


def fields_from_dict(cls, raw, prefix: str = ""):
    """Build `cls` from parsed JSON, naming the offending path on error.

    Unknown keys and missing required fields are rejected here; every
    value check, nested objects included, runs in the constructor.
    """
    if not isinstance(raw, dict):
        raise ConfigError(prefix.rstrip(".") or "config", f"expected an object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown configuration key")
    for name, f in fields.items():
        if f.default is dataclasses.MISSING and name not in raw:
            raise ConfigError(prefix + name, "required")
    try:
        return cls(**raw)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.path, exc.detail) from None


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return value.to_dict()
    return value


def fields_to_dict(obj) -> dict:
    """The JSON form of `obj`, keys in field declaration order."""
    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
