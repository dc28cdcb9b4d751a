"""How a model argument is declared, checked and worded.

Each single-valued argument of a model class (in `detector_model`,
`mc_engine`, `qkd_budget` and `signal_chain`) is declared once, with `arg`
on its dataclass field: its SI default, its bounds or allowed strings, and
the unit suffix of its configuration key. `check_args` enforces the
declarations in the class's `__post_init__`, which adds only the rules that
tie arguments together, and `config` builds each key's schema leaf from the
same field. A law function refuses its own arguments the same way:
`check_args(Cls, name=value)` against the class that declares the argument,
or `check_value` on a fragment where none does. One function, `satisfies`,
reads every fragment, for a model argument and a configuration leaf alike,
so both refuse a value in the same words (`describe`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import field, fields

import numpy as np

__all__ = [
    "ArgumentError",
    "fragment",
    "FINITE",
    "POSITIVE",
    "NON_NEGATIVE",
    "COUNT",
    "arg",
    "required",
    "arg_of",
    "satisfies",
    "check_value",
    "check_args",
    "describe",
    "float_or_array",
]


class ArgumentError(ValueError):
    """A model check refused argument `arg`; `reason` says what it must be."""

    def __init__(self, arg: str, reason: str):
        self.arg, self.reason = arg, reason
        super().__init__(f"{arg} {reason}")


# draft-07 keywords of the gt/ge/lt/le bounds, and how each compares
_BOUNDS = {"gt": "exclusiveMinimum", "ge": "minimum", "lt": "exclusiveMaximum", "le": "maximum"}
_COMPARE = {
    "exclusiveMinimum": operator.gt,
    "minimum": operator.ge,
    "exclusiveMaximum": operator.lt,
    "maximum": operator.le,
}


def fragment(kind: str, **bounds) -> dict:
    """The JSON Schema fragment of a `kind` value inside gt/ge/lt/le `bounds`."""
    return {"type": kind, **{_BOUNDS[k]: v for k, v in bounds.items()}}


# the fragments arguments share: any finite number, a rate, a width or a loss, a count
FINITE, POSITIVE = fragment("number"), fragment("number", gt=0)
NON_NEGATIVE, COUNT = fragment("number", ge=0), fragment("integer", ge=1)


def arg(default, *, unit: str | None = None, enum=None, axis: bool = False, **bounds):
    """A dataclass field declaring a model argument: its SI `default`, its
    gt/ge/lt/le `bounds` or its `enum` of allowed strings, and the unit
    suffix of its configuration key (`config._UNITS`). The default's type
    sets the kind: bool, int, or a number; a None default makes a number
    that may be None. A bound reads the same in every unit, so a
    unit-suffixed argument is bounded at 0 only. Only a sweep `axis` may
    also be a NumPy array, each element checked."""
    kind = "boolean" if isinstance(default, bool) else "integer" if isinstance(default, int) else "number"
    schema = {"enum": list(enum)} if enum else fragment(kind, **bounds)
    if default is None:
        schema = {"oneOf": [{"type": "null"}, schema]}
    return field(default=default, metadata={"schema": schema, "unit": unit, "axis": axis})


def required(kind: str | None = None, *, enum=None, **bounds):
    """A dataclass field declaring a model argument with no default: a
    "number" or an "integer" inside gt/ge/lt/le `bounds`, or one of the
    strings `enum`, and no configuration key of its own."""
    return field(metadata={"schema": {"enum": list(enum)} if enum else fragment(kind, **bounds)})


def arg_of(cls, name: str):
    """A field declaring the same argument as `cls`'s `arg` field `name`."""
    declared = next(f for f in fields(cls) if f.name == name)
    return field(default=declared.default, metadata=declared.metadata)


def _is_int(v) -> bool:
    """Whether `v` is a Python int other than a bool: what a whole count must be."""
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v) -> bool:
    """Whether `v` is a finite real number other than a bool: a Python or
    NumPy scalar, or a NumPy array of them (each element is checked)."""
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "iuf" and bool(np.isfinite(v).all())
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def satisfies(schema: dict, v) -> bool:
    """Whether `v` meets a non-object schema fragment, the one reading of
    every fragment: a configuration leaf's JSON value or a model argument.
    Numbers must be finite (`json.load` reads NaN) and integers Python ints
    (JSON Schema counts 2.0 as an integer); neither is a bool. A number may
    also be a NumPy scalar or array, checked elementwise; an array may also
    be a tuple."""
    if "oneOf" in schema:
        return sum(satisfies(branch, v) for branch in schema["oneOf"]) == 1
    if "enum" in schema:
        return isinstance(v, str) and v in schema["enum"]
    kind = schema["type"]
    if kind == "null":
        return v is None
    if kind == "boolean":
        return isinstance(v, (bool, np.bool_))
    if kind == "array":
        if not (isinstance(v, (list, tuple))
                and schema["minItems"] <= len(v) <= schema.get("maxItems", len(v))):
            return False
        items = schema["items"]  # a list of fragments checks a tuple
        pairs = zip(items, v) if isinstance(items, list) else ((items, x) for x in v)
        return all(satisfies(s, x) for s, x in pairs)
    if not (_real(v) and (kind == "number" or _is_int(v))):
        return False
    held = (cmp(v, schema[key]) for key, cmp in _COMPARE.items() if key in schema)
    return all(map(np.all, held)) if isinstance(v, np.ndarray) else all(held)


def check_value(name: str, schema: dict, v, axis: bool = False) -> None:
    """Refuse argument `name` when `v` breaks `schema` (`satisfies`), or is
    an array and `name` no sweep `axis`, in `describe`'s words."""
    if not satisfies(schema, v) or (isinstance(v, np.ndarray) and not axis):
        raise ArgumentError(name, f"must be {describe(schema)}")


def check_args(obj, **values) -> None:
    """Refuse (`check_value`) the first declared field of dataclass `obj`
    whose value breaks its declaration. `values`, when given, are checked in
    place of the fields' own, and only they: `obj` may then be the class."""
    for f in fields(obj):
        schema = f.metadata.get("schema")
        if schema is None or (values and f.name not in values):
            continue
        v = values[f.name] if values else getattr(obj, f.name)
        check_value(f.name, schema, v, f.metadata.get("axis", False))


def _fmt(bound) -> str:
    """A bound as message text; large powers of two read as `2**k`."""
    if isinstance(bound, int) and bound > 2**53 and not bound & (bound - 1):
        return f"2**{bound.bit_length() - 1}"
    return str(bound)


def describe(schema: dict) -> str:
    """What a non-object JSON Schema fragment demands, as the text after `must be`."""
    if "oneOf" in schema:
        return " or ".join(describe(branch) for branch in schema["oneOf"])
    if "enum" in schema:
        return f"one of {tuple(schema['enum'])}"
    kind = schema["type"]
    if kind in ("null", "array"):
        return schema.get("description", kind)
    if kind == "boolean":
        return "true or false"
    noun = "an integer" if kind == "integer" else "a number"
    lo = schema.get("minimum", schema.get("exclusiveMinimum"))
    hi = schema.get("maximum", schema.get("exclusiveMaximum"))
    if lo is None and hi is None:
        return "a finite number" if kind == "number" else noun
    if hi is None:
        return f"{noun} {'>=' if 'minimum' in schema else '>'} {_fmt(lo)}"
    if lo is None:
        return f"{noun} {'<=' if 'maximum' in schema else '<'} {_fmt(hi)}"
    open_ = "[" if "minimum" in schema else "("
    close = "]" if "maximum" in schema else ")"
    return f"{noun} in {open_}{_fmt(lo)}, {_fmt(hi)}{close}"


def float_or_array(value):
    """A law's result: a Python float for a scalar input, else the array."""
    return float(value) if np.ndim(value) == 0 else value
