"""Config rules, declared next to each dataclass field, and the one
function that applies them.

A field built with ``rule(default, ge=..., gt=..., le=..., lt=...,
choices=...)`` carries its rule in the field metadata. ``check_fields``
checks every field of a dataclass instance against its rule and raises
``ConfigError`` naming the first bad one. Every float value must be
finite, ruled or not.
"""

import math
import operator
from dataclasses import field, fields

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


class ConfigError(ValueError):
    """Bad configuration; ``key`` names the offending field when known."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def rule(default, **checks):
    """A dataclass field with bounds (ge, gt, le, lt), choices, or both."""
    return field(default=default, metadata=checks)


def rule_of(cls, name):
    """A field with the default and rule of ``cls.name``, for a config key
    whose value is handed on to that field."""
    source = {f.name: f for f in fields(cls)}[name]
    return field(default=source.default, metadata=source.metadata)


def _violation(value, checks):
    if "choices" in checks and value not in checks["choices"]:
        return "must be one of " + ", ".join(map(str, checks["choices"]))
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    for name, bound in checks.items():
        if name == "choices":
            continue
        op, symbol = _BOUNDS[name]
        if not op(value, bound):
            return f"must be {symbol} {bound}"
    return None


def check_fields(obj):
    """Raise ConfigError for the first field of ``obj`` breaking its rule."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        why = _violation(value, f.metadata)
        if why:
            raise ConfigError(f"{f.name} = {value!r}: {why}", key=f.name)
