"""Configuration documents for the command-line tools.

A configuration is a JSON object; every field has a default, so `{}` is a
complete document. User files are deep-merged over the defaults and then
validated in one pass that reports EVERY failing field, not just the first.
Each field is a leaf of the JSON Schema tree `_SCHEMA`, with its bounds and
its draft-07 `default`: validation walks the tree, `default_config()`
collects the defaults, `schema_text()` prints it, and one unit-suffix rule
(`_args`) scales every leaf to the SI value that the model objects read.
A leaf that builds a model argument is not written here: `_model` reads it
off the argument's `declare.arg` field, which holds its SI default,
bounds and unit; the dark table is `TemperatureDarkLaw.table`'s
declaration or null. Only `source.kind`, `qkd.mc_check_bits` and the sweep
grids are written in the tree. The cross-field rules are the model's own
checks: validation builds the model objects, reports each `ArgumentError`
at the leaf that names its argument, and `load_config` returns the objects
it built.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .declare import ArgumentError, arg_of, describe, fragment, satisfies
from .detector_model import (
    DEFAULT_DARK_TABLE,
    AfterpulseModel,
    BiasEfficiencyLaw,
    DetectorParams,
    GateConfig,
    JitterModel,
    TemperatureDarkLaw,
)
from .mc_engine import RunConfig, SourceConfig, TcspcConfig, check_tcspc_bin, gates_per_trigger
from .qkd_budget import QkdLinkConfig, StabilityConfig, check_timebin
from .signal_chain import ChainConfig, check_record, check_sampling

__all__ = [
    "ConfigError",
    "FullConfig",
    "default_config",
    "deep_merge",
    "validate_config",
    "load_config",
    "grid_values",
    "MAX_GRID_POINTS",
    "schema_text",
]


class ConfigError(ValueError):
    """Invalid configuration; `errors` lists every failed field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors)
        )


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; scalars and lists in `override` replace wholesale."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# The configuration shape: one tree that is itself a draft-07 JSON Schema.
# `schema_text()` prints it and `validate_config` walks it with `_check`,
# which reads the object keywords and hands every other fragment to
# `declare.satisfies`, the interpreter the model's own checks use.
# Every leaf carries its `default` (`_model` builds a model argument's
# leaf); every field is required of the merged document (`missing`
# otherwise) and optional in a user file.


def _obj(**properties) -> dict:
    return {"type": "object", "additionalProperties": False, "properties": properties}


def _num(default=None, kind: str = "number", **bounds) -> dict:
    """A number (or integer) fragment; bounds are gt/ge/lt/le keywords."""
    leaf = fragment(kind, **bounds)
    return leaf if default is None else {**leaf, "default": default}


def _enum(*options) -> dict:
    """One of `options`; the first is the default."""
    return {"enum": list(options), "default": options[0]}


def _nullable(inner: dict, default=None) -> dict:
    return {"oneOf": [{"type": "null"}, inner], "default": default}


# The most points a sweep grid may hold; the default grids hold 33 to 81.
MAX_GRID_POINTS = 2**20


def _grid(start: float, stop: float, step: float, **start_bounds) -> dict:
    return _obj(start=_num(start, **start_bounds), stop=_num(stop), step=_num(step, gt=0))


# The unit suffixes of leaf keys, each with its factor from SI (None: the key
# is in SI already); the only place a unit is applied.
_UNITS = {"hz": None, "v": None, "ps": 1e12, "ns": 1e9, "mv": 1e3}


def _model(cls, *skip: str) -> dict:
    """The leaves of the `arg` fields of dataclass `cls` but `skip`, in field
    order: each key is the argument plus its unit suffix, and each default
    the SI default in that unit."""
    leaves = {}
    for f in fields(cls):
        if "schema" in f.metadata and f.name not in skip:
            unit = f.metadata["unit"]
            default = f.default if _UNITS.get(unit) is None else f.default * _UNITS[unit]
            leaves[f"{f.name}_{unit}" if unit else f.name] = {**f.metadata["schema"], "default": default}
    return leaves


_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "sinegate configuration",
    "description": "All fields are optional; omitted fields take the documented "
    "defaults. Unit suffixes are part of the field names.",
    **_obj(
        run=_obj(**_model(RunConfig, "n_gates")),  # each subcommand sets its run's length
        detector=_obj(
            gate=_obj(**_model(GateConfig)),
            bias_law=_obj(**_model(BiasEfficiencyLaw)),
            dark_table_c_prob=_nullable(arg_of(TemperatureDarkLaw, "table").metadata["schema"],
                                        default=[list(row) for row in DEFAULT_DARK_TABLE]),
            jitter=_obj(**_model(JitterModel)),
            afterpulse=_obj(**_model(AfterpulseModel)),
            operating=_obj(**_model(DetectorParams)),
        ),
        source=_obj(kind=_enum("pulsed-trigger"), **_model(SourceConfig, "kind", "extinction_db")),
        qkd=_obj(**_model(QkdLinkConfig, "holdoff_gates", "holdoff_anchor"),  # `run` holds those
                 mc_check_bits=_num(1000000, "integer", ge=0)),
        chain=_obj(**_model(ChainConfig)),
        tcspc=_obj(**_model(TcspcConfig)),
        sweeps=_obj(
            bias_v=_grid(51.0, 54.5, 0.05),
            delay_ps=_grid(-400.0, 400.0, 10.0),
            fiber_loss_db=_grid(0.0, 16.0, 0.5, ge=0),
            temperatures_c=_nullable({"type": "array",
                                      "description": "a non-empty list of temperatures",
                                      "minItems": 1, "items": _num()}),
        ),
        stability=_obj(**_model(StabilityConfig)),
    ),
}
_SECTIONS = _SCHEMA["properties"]


def default_config() -> dict:
    """The complete defaults document (the headline operating point): a fresh
    copy of every leaf's `default`."""
    def walk(schema):
        if schema.get("type") != "object":
            return copy.deepcopy(schema["default"])
        return {key: walk(sub) for key, sub in schema["properties"].items()}
    return walk(_SCHEMA)


# ---------------------------------------------------------------------------
# One rule from the tree to the model objects. A leaf is the constructor
# argument named like it minus its unit suffix, coerced by the leaf's type
# and scaled to SI by `_UNITS`. Each sub-object of `detector` builds the law
# of its name, the dark table builds `TemperatureDarkLaw` (null switches the
# dark channel off), `operating` adds to `DetectorParams`, `run` adds its
# hold-off to `QkdLinkConfig`, and `chain`, `tcspc` and `stability` build the
# classes `_model` read them off. Leaves that no object built here takes
# (`run.master_seed`, `qkd.mc_check_bits`) are read where used.

_COERCE = {"number": float, "integer": int, "boolean": bool}


@functools.cache
def _arg(key: str) -> tuple[str, float | None]:
    """A leaf's constructor argument and the factor from SI to its unit."""
    name, _, unit = key.rpartition("_")
    return (name, _UNITS[unit]) if unit in _UNITS else (key, None)


def _value(schema: dict, v, scale: float | None):
    """A leaf's JSON value as its constructor argument."""
    branch = schema["oneOf"][-1] if "oneOf" in schema else schema  # null is first
    coerce = _COERCE.get(branch.get("type"))  # an enum or an array is taken as it is
    if v is None or coerce is None:
        return v
    v = coerce(v)
    return v if scale is None else v / scale


def _args(cls, schema: dict, doc: dict) -> dict:
    """Constructor arguments of dataclass `cls` (None: every leaf) from a
    validated section of leaves."""
    params = {f.name for f in fields(cls)} if cls else None
    args = {}
    for key, sub in schema["properties"].items():
        name, scale = _arg(key)
        if params is None or name in params:
            args[name] = _value(sub, doc[key], scale)
    return args


def _check(schema: dict, doc, path: str, errors: list[str]) -> None:
    """Append to `errors` every way `doc` breaks `schema`; objects recurse."""
    if schema.get("type") != "object":
        if not satisfies(schema, doc):
            errors.append(f"{path}: must be {describe(schema)}")
        return
    if not isinstance(doc, dict):
        errors.append(f"{path}: must be an object")
        return
    properties = schema["properties"]
    if schema.get("additionalProperties") is False:
        for key in doc:
            if key not in properties:
                prefix = f"{path}.{key}" if path else key
                errors.append(f"{prefix}: unknown key")
    for key, sub in properties.items():
        sub_path = f"{path}.{key}" if path else key
        if key not in doc:
            errors.append(f"{sub_path}: missing")
            continue
        _check(sub, doc[key], sub_path, errors)


# ---------------------------------------------------------------------------
# The cross-field rules are the model's own checks: validation builds each
# model object, and calls each `check_*`, on the SI values, so what passes
# builds. A call runs only when the leaves it reads passed the shape pass.
# Its `ArgumentError` is reported at the leaf of its section that names the
# argument through `_arg`, or at the section. Two rules have no model twin.

_REFUSED = object()  # a leaf or a result whose error is already reported


@functools.cache
def _schema_at(path: str) -> dict:
    return functools.reduce(lambda schema, key: schema["properties"][key], path.split("."), _SCHEMA)


def _check_in_table(law: TemperatureDarkLaw | None, temperature_c: float) -> None:
    """Refuse an operating temperature outside the dark table, if there is one."""
    if law is not None and not law.table[0][0] <= temperature_c <= law.table[-1][0]:
        raise ArgumentError("temperature_c", "must lie inside the dark table range "
                            f"[{law.table[0][0]}, {law.table[-1][0]}]")


def _check_max_lag(n_pulses: int, max_lag_gates: int, gates_per_pulse: int) -> None:
    """Refuse a lag as long as the run: each lag is a histogram bin."""
    if max_lag_gates >= n_pulses * gates_per_pulse:
        raise ArgumentError("max_lag_gates", "must be below the run length "
                            f"(n_pulses x gates per trigger = {n_pulses * gates_per_pulse})")


def _validate(doc) -> tuple[list[str], FullConfig | None]:
    """`validate_config`'s errors, and the configuration built on the way."""
    if not isinstance(doc, dict):
        return ["configuration root must be a JSON object"], None
    errors: list[str] = []
    _check(_SCHEMA, doc, "", errors)
    refused = [e.split(":", 1)[0] for e in errors]

    def read(path, cls=None):
        """The SI value of the leaf at dotted `path`, or the arguments of `cls`
        (None: every leaf) from the section there; `_REFUSED` if one is."""
        schema, keys = _schema_at(path), path.split(".")
        if "properties" in schema:  # every leaf is read, so each underflow is reported
            if any([read(f"{path}.{key}") is _REFUSED for key in schema["properties"]]):
                return _REFUSED
            return _args(cls, schema, functools.reduce(operator.getitem, keys, doc))
        if any(path == r or path.startswith(r + ".") for r in refused):
            return _REFUSED
        scale = _arg(keys[-1])[1]
        v = _value(schema, functools.reduce(operator.getitem, keys, doc), scale)
        # a value that passed in its file unit can break its bound in SI only
        # by underflowing: every bound of a unit-suffixed leaf is 0
        if scale is not None and not satisfies(schema, v):  # 1e-320 ps is 0 s
            errors.append(f"{path}: underflows to 0 in SI units")
            refused.append(path)
            return _REFUSED
        return v

    def run(path, call, *args):
        """`call(*args)`, or `_REFUSED`: unrun when an argument is, or when it
        raises `ArgumentError`, which is reported once a leaf."""
        if any(a is _REFUSED for a in args):
            return _REFUSED
        try:
            return call(*args)
        except ArgumentError as exc:
            keys = _schema_at(path).get("properties", {})
            leaf = next((f"{path}.{k}" for k in keys if _arg(k)[0] == exc.arg), path)
            if not any(e.startswith(f"{leaf}: ") for e in errors):
                errors.append(f"{leaf}: {exc.reason}")
            return _REFUSED

    def build(path, cls):
        return run(path, lambda args: cls(**args), read(path, cls))

    f_gate, trigger = read("detector.gate.gate_frequency_hz"), read("source.trigger_rate_hz")
    gate = build("detector.gate", GateConfig)
    bias_law = build("detector.bias_law", BiasEfficiencyLaw)
    dark = "detector.dark_table_c_prob"
    dark_law = run(dark, lambda table: None if table is None else TemperatureDarkLaw(table),
                   read(dark))
    jitter = build("detector.jitter", JitterModel)
    afterpulse = build("detector.afterpulse", AfterpulseModel)
    run("detector.afterpulse", lambda model, f: model.refuse_runaway(1.0 / f), afterpulse, f_gate)
    run("detector.operating", _check_in_table, dark_law, read("detector.operating.temperature_c"))
    detector = run("detector.operating", lambda operating, *laws: DetectorParams(*laws, **operating),
                   read("detector.operating", DetectorParams),
                   gate, bias_law, dark_law, jitter, afterpulse)
    run("qkd", lambda width, f: check_timebin(width, 1.0 / f), read("qkd.timebin_width_ps"), f_gate)
    qkd = run("qkd", lambda link, holdoff, det: QkdLinkConfig(**link, **holdoff, detector=det),
              read("qkd", QkdLinkConfig), read("run", QkdLinkConfig), detector)
    source = build("source", SourceConfig)
    per_pulse = run("source", gates_per_trigger, f_gate, trigger)
    run("tcspc", _check_max_lag, read("tcspc.n_pulses"), read("tcspc.max_lag_gates"), per_pulse)
    run("tcspc", check_tcspc_bin, trigger, read("tcspc.bin_width_ps"))
    for name in ("bias_v", "delay_ps", "fiber_loss_db"):
        run(f"sweeps.{name}", grid_values, read(f"sweeps.{name}"))
    dt = read("chain.dt_ps")
    run("chain", check_sampling, f_gate, dt)
    run("chain", check_record, f_gate, read("chain.duration_ns"), dt)
    if errors:
        return errors, None
    return errors, FullConfig(detector=detector, source=source, qkd=qkd,
                              chain=build("chain", ChainConfig), tcspc=build("tcspc", TcspcConfig),
                              stability=build("stability", StabilityConfig), merged=doc)


def validate_config(doc: dict) -> list[str]:
    """Shape and cross-field validation; returns ALL error messages."""
    return _validate(doc)[0]


@dataclass(frozen=True)
class FullConfig:
    """Validated configuration with the model objects already constructed,
    one a section (`qkd` also holds `run`'s hold-off). `run` and `sweeps` are
    read from `merged`, the validated document."""

    detector: DetectorParams
    source: SourceConfig
    qkd: QkdLinkConfig
    chain: ChainConfig
    tcspc: TcspcConfig
    stability: StabilityConfig
    merged: dict


def load_config(path=None) -> FullConfig:
    """Read, merge over defaults, validate (all errors at once), and build.

    `path=None` yields the pure defaults. File problems raise ConfigError
    naming the path; validation problems raise ConfigError listing every
    failed field.
    """
    override = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                override = json.load(fh)
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"]) from None
        except OSError as exc:
            raise ConfigError([f"config file unreadable: {path} ({exc})"]) from None
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file is not valid JSON: {path} ({exc})"]) from None
        if not isinstance(override, dict):
            raise ConfigError([f"config root must be a JSON object: {path}"])
    errors, cfg = _validate(deep_merge(default_config(), override))
    if errors:
        raise ConfigError(errors)
    return cfg


def grid_values(grid: dict) -> np.ndarray:
    """Inclusive arithmetic grid as a float64 array, `start + step * k`;
    endpoint kept when step divides the span."""
    start, stop, step = grid["start"], grid["stop"], grid["step"]
    if stop < start:
        raise ArgumentError("stop", "must be >= start")
    steps = (stop - start) / step + 1e-9  # whole steps in the span, before the floor
    if not steps < MAX_GRID_POINTS:  # an inf or NaN quotient fails too
        raise ArgumentError("step", f"must split the span into at most {MAX_GRID_POINTS} grid points")
    return start + step * np.arange(max(1, int(math.floor(steps)) + 1), dtype=float)


def schema_text() -> str:
    """The draft-07 JSON Schema of a configuration file, as JSON text."""
    return json.dumps(_SCHEMA, indent=2) + "\n"
