"""Configuration documents for the command-line tools.

A configuration is a JSON object; every field has a default, so `{}` is a
complete document. User files are deep-merged over the defaults and then
validated in one pass that reports EVERY failing field, not just the first.
Each field is declared once, as a leaf of the JSON Schema tree `_SCHEMA`
with its bounds and its draft-07 `default`: validation walks the tree,
`default_config()` collects the defaults, `schema_text()` prints it, and one
unit-suffix rule (`_args`) scales every leaf to the SI value that the model
objects, the subcommand handlers and the cross-field rules all read.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .detector_model import (
    DARK_TABLE_SPAN_C,
    DEFAULT_DARK_TABLE,
    FWHM_TO_SIGMA,
    AfterpulseModel,
    DetectorParams,
    TemperatureDarkLaw,
)
from .mc_engine import MAX_HISTOGRAM_BINS, SourceConfig, gates_per_trigger
from .qkd_budget import QkdLinkConfig
from .signal_chain import MAX_RECORD_SAMPLES

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
# which reads only the keywords used here. Every leaf carries its `default`;
# every field is required of the merged document (`missing` otherwise) and
# optional in a user file. Two rules JSON Schema cannot state live in
# `_valid`: numbers must be finite (`json.load` reads NaN) and integers must
# be Python ints (JSON Schema counts 2.0 as an integer).

_BOUNDS = {"gt": "exclusiveMinimum", "ge": "minimum", "lt": "exclusiveMaximum", "le": "maximum"}
_COMPARE = {
    "exclusiveMinimum": operator.gt,
    "minimum": operator.ge,
    "exclusiveMaximum": operator.lt,
    "maximum": operator.le,
}


def _obj(**properties) -> dict:
    return {"type": "object", "additionalProperties": False, "properties": properties}


def _num(default=None, kind: str = "number", **bounds) -> dict:
    """A number (or integer) fragment; bounds are gt/ge/lt/le keywords."""
    fragment = {"type": kind, **{_BOUNDS[k]: v for k, v in bounds.items()}}
    return fragment if default is None else {**fragment, "default": default}


def _int(default, **bounds) -> dict:
    return _num(default, "integer", **bounds)


def _enum(*options) -> dict:
    """One of `options`; the first is the default."""
    return {"enum": list(options), "default": options[0]}


def _nullable(inner: dict, default=None) -> dict:
    return {"oneOf": [{"type": "null"}, inner], "default": default}


def _list(items, min_items: int, description: str) -> dict:
    return {"type": "array", "description": description, "minItems": min_items, "items": items}


# The most points a sweep grid may hold; the default grids hold 33 to 81.
MAX_GRID_POINTS = 2**20


def _grid(start: float, stop: float, step: float, **start_bounds) -> dict:
    return _obj(start=_num(start, **start_bounds), stop=_num(stop), step=_num(step, gt=0))


_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "sinegate configuration",
    "description": "All fields are optional; omitted fields take the documented "
    "defaults. Unit suffixes are part of the field names.",
    **_obj(
        run=_obj(
            master_seed=_int(20260816, ge=0, lt=2**64),
            holdoff_gates=_int(10, ge=0),
            holdoff_anchor=_enum("accepted", "any"),
        ),
        detector=_obj(
            gate=_obj(
                gate_frequency_hz=_num(1.25e9, gt=0),
                gate_fwhm_ps=_num(130.0, gt=0),
            ),
            bias_law=_obj(
                anchor_bias_v=_num(53.5),
                anchor_efficiency=_num(0.1, ge=0, le=1),
                slope_per_v=_num(0.05, gt=0),
                breakdown_bias_v=_num(51.5),
            ),
            dark_table_c_prob=_nullable(_list(
                {"type": "array", "minItems": 2, "maxItems": 2,
                 "items": [_num(), _num(gt=0, lt=1)]},
                2,
                "a list of at least 2 [temperature_c, probability] pairs, "
                "probability in (0, 1)",
            ), default=[list(row) for row in DEFAULT_DARK_TABLE]),
            jitter=_obj(
                sigma_ps=_num(70.0 * FWHM_TO_SIGMA, ge=0),  # 70 ps FWHM
                tail_fraction=_num(0.024, ge=0, lt=1),
                tail_span_gates=_int(3, ge=1),
            ),
            afterpulse=_obj(
                trap_fill_per_detection=_num(0.1, ge=0),
                release_lifetime_ns=_num(1000.0, gt=0),
                trigger_prob_per_gate=_num(0.01, ge=0, le=1),
                enabled={"type": "boolean", "default": False},
            ),
            operating=_obj(bias_v=_num(53.5), temperature_c=_num(-43.0)),
        ),
        source=_obj(
            kind=_enum("pulsed-trigger"),
            trigger_rate_hz=_num(31.25e6, gt=0),
            mean_photons=_num(0.1, ge=0),
            laser_fwhm_ps=_num(30.0, ge=0),
            alignment_delay_ps=_num(0.0),
        ),
        qkd=_obj(
            mu_source=_num(0.3, ge=0),
            fiber_loss_db=_num(0.0, ge=0),
            timebin_width_ps=_num(400.0, gt=0),
            extinction_db=_num(25.0, gt=0),
            ec_efficiency=_num(1.2, ge=1),
            pa_fraction=_num(0.5, ge=0, le=1),
            qber_floor=_nullable(_num(ge=0, lt=0.5)),
            laser_fwhm_ps=_num(30.0, ge=0),
            mc_check_bits=_int(1000000, ge=0),
        ),
        chain=_obj(
            dt_ps=_num(25.0, gt=0),
            duration_ns=_num(64.0, gt=0),
            amplitude_pp_v=_num(8.0, ge=0),
            coupling_gain=_num(0.1, ge=0),
            stages=_int(2, ge=1),
            n_avalanches=_int(3, ge=0),
            threshold_mv=_num(-4.0),
            refractory_ns=_num(5.0, ge=0),
            delay_ps=_num(0.0),
        ),
        tcspc=_obj(
            n_pulses=_int(500000, ge=1),
            bin_width_ps=_num(4.0, gt=0),
            max_lag_gates=_int(400, ge=1),
        ),
        sweeps=_obj(
            bias_v=_grid(51.0, 54.5, 0.05),
            delay_ps=_grid(-400.0, 400.0, 10.0),
            fiber_loss_db=_grid(0.0, 16.0, 0.5, ge=0),
            temperatures_c=_nullable(_list(_num(), 1, "a non-empty list of temperatures")),
        ),
        stability=_obj(
            n_segments=_int(8, ge=1),
            bits_per_segment=_int(1000000, ge=1),
        ),
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
# and scaled to SI by `_UNITS`, the only place a unit is applied. A sub-object
# builds the argument of its name or, with no such argument (`operating`),
# adds to the enclosing one. Leaves that name no argument (`run.master_seed`,
# `qkd.mc_check_bits`) are read where used. The dark table builds
# `TemperatureDarkLaw`; null switches the dark channel off.

_UNITS = {"_hz": None, "_v": None, "_ps": 1e12, "_ns": 1e9, "_mv": 1e3}  # factor from SI
_COERCE = {"number": float, "integer": int, "boolean": bool}
_DARK_TABLE, _DARK_LAW = "dark_table_c_prob", "dark_law"


def _arg(key: str) -> tuple[str, float | None]:
    """A leaf's constructor argument and the factor from SI to its unit."""
    for suffix, scale in _UNITS.items():
        if key.endswith(suffix):
            return key[: -len(suffix)], scale
    return key, None


def _value(schema: dict, v, scale: float | None):
    """A leaf's JSON value as its constructor argument."""
    branch = schema["oneOf"][-1] if "oneOf" in schema else schema  # null is first
    if v is None or "enum" in branch or branch["type"] == "array":
        return v
    v = _COERCE[branch["type"]](v)
    return v if scale is None else v / scale


def _args(cls, schema: dict, doc: dict) -> dict:
    """Constructor arguments of dataclass `cls` (None: every leaf) from a
    validated section of the tree."""
    params = {f.name: f for f in fields(cls)} if cls else {}
    args = {}
    for key, sub in schema["properties"].items():
        name, scale = _arg(key)
        if key == _DARK_TABLE:
            args[_DARK_LAW] = None if doc[key] is None else TemperatureDarkLaw(doc[key])
        elif sub.get("type") != "object":
            if cls is None or name in params:
                args[name] = _value(sub, doc[key], scale)
        elif name in params:
            inner = params[name].default_factory
            args[name] = inner(**_args(inner, sub, doc[key]))
        else:
            args.update(_args(cls, sub, doc[key]))
    return args


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _valid(schema: dict, v) -> bool:
    """Whether `v` satisfies a non-object fragment of `_SCHEMA`."""
    if "oneOf" in schema:
        return sum(_valid(branch, v) for branch in schema["oneOf"]) == 1
    if "enum" in schema:
        return v in schema["enum"]
    kind = schema["type"]
    if kind == "null":
        return v is None
    if kind == "boolean":
        return isinstance(v, bool)
    if kind == "array":
        if not (isinstance(v, list) and schema["minItems"] <= len(v) <= schema.get("maxItems", len(v))):
            return False
        items = schema["items"]  # a list of fragments checks a tuple
        pairs = zip(items, v) if isinstance(items, list) else ((items, x) for x in v)
        return all(_valid(s, x) for s, x in pairs)
    number_types = int if kind == "integer" else (int, float)
    return (
        isinstance(v, number_types)
        and not isinstance(v, bool)
        and _finite(v)
        and all(cmp(v, schema[key]) for key, cmp in _COMPARE.items() if key in schema)
    )


def _fmt(bound) -> str:
    """A bound as message text; large powers of two read as `2**k`."""
    if isinstance(bound, int) and bound > 2**53 and not bound & (bound - 1):
        return f"2**{bound.bit_length() - 1}"
    return str(bound)


def _describe(schema: dict) -> str:
    """What a non-object fragment demands, as the text after `must be`."""
    if "oneOf" in schema:
        return " or ".join(_describe(branch) for branch in schema["oneOf"])
    if "enum" in schema:
        return f"one of {tuple(schema['enum'])}"
    kind = schema["type"]
    if kind in ("null", "array"):
        return schema.get("description", kind)
    if kind == "boolean":
        return "true or false"
    noun = "an integer" if kind == "integer" else "a number"
    # every bounded leaf of the tree has a lower bound
    lo = schema.get("minimum", schema.get("exclusiveMinimum"))
    hi = schema.get("maximum", schema.get("exclusiveMaximum"))
    if lo is None:
        return "a finite number" if kind == "number" else noun
    closed = "minimum" in schema
    if hi is None:
        return f"{noun} {'>=' if closed else '>'} {_fmt(lo)}"
    close = "]" if "maximum" in schema else ")"
    return f"{noun} in {'[' if closed else '('}{_fmt(lo)}, {_fmt(hi)}{close}"


def _check(schema: dict, doc, path: str, errors: list[str]) -> None:
    """Append to `errors` every way `doc` breaks `schema`; objects recurse."""
    if schema.get("type") != "object":
        if not _valid(schema, doc):
            errors.append(f"{path}: must be {_describe(schema)}")
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


def validate_config(doc: dict) -> list[str]:
    """Structural and cross-field validation; returns ALL error messages."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["configuration root must be a JSON object"]
    _check(_SCHEMA, doc, "", errors)
    # Cross-field rules, on the SI values and by the arithmetic of the model
    # checks they guard, so what passes here builds. Each runs only when the
    # fields it reads passed the shape check, so a bad leaf elsewhere does not
    # hide its error.
    flagged = [e.split(":", 1)[0] for e in errors]

    def value(path):
        """The value at dotted `path` as the model receives it, or None if flagged."""
        if any(path == f or path.startswith(f + ".") for f in flagged):
            return None
        keys = path.split(".")
        leaf = functools.reduce(lambda schema, k: schema["properties"][k], keys, _SCHEMA)
        v = _value(leaf, functools.reduce(operator.getitem, keys, doc), _arg(keys[-1])[1])
        if "exclusiveMinimum" in leaf and not v > 0:  # 1e-320 ps is 0 s
            errors.append(f"{path}: underflows to 0 in SI units")
            flagged.append(path)
            return None
        return v

    f_gate = value("detector.gate.gate_frequency_hz")
    fwhm = value("detector.gate.gate_fwhm_ps")
    if None not in (f_gate, fwhm) and not fwhm < 1.0 / f_gate:
        errors.append("detector.gate.gate_fwhm_ps: must be below one gate period")
    law = [value(f"detector.bias_law.{k}") for k in
           ("anchor_bias_v", "anchor_efficiency", "breakdown_bias_v")]
    if None not in law and law[2] >= law[0] and law[1] > 0:
        errors.append("detector.bias_law.breakdown_bias_v: must lie below anchor_bias_v "
                      "when anchor_efficiency > 0")
    table = value("detector.dark_table_c_prob")
    t_op = value("detector.operating.temperature_c")
    if table is not None:
        temps = [t for t, _ in table]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            errors.append("detector.dark_table_c_prob: temperatures must be strictly increasing")
        else:
            if temps[0] > DARK_TABLE_SPAN_C[0] or temps[-1] < DARK_TABLE_SPAN_C[1]:
                errors.append("detector.dark_table_c_prob: must cover [-45, +20] C")
            if t_op is not None and not (temps[0] <= t_op <= temps[-1]):
                errors.append(
                    "detector.operating.temperature_c: outside the dark table range "
                    f"[{temps[0]}, {temps[-1]}]"
                )
    section = _SECTIONS["detector"]["properties"]["afterpulse"]["properties"]
    ap = {_arg(key)[0]: value(f"detector.afterpulse.{key}") for key in section}
    if f_gate is not None and None not in ap.values():
        try:
            AfterpulseModel(**ap).refuse_runaway(1.0 / f_gate)
        except ValueError as exc:
            errors.append(f"detector.afterpulse: {exc}")
    timebin = value("qkd.timebin_width_ps")
    if None not in (f_gate, timebin) and timebin > 1.0 / f_gate:
        errors.append("qkd.timebin_width_ps: must be at most half the bit period")
    trigger = value("source.trigger_rate_hz")
    per_pulse = None
    if None not in (f_gate, trigger):
        try:
            per_pulse = gates_per_trigger(f_gate, trigger)
        except ValueError:
            errors.append("source.trigger_rate_hz: must divide the gate clock "
                          f"(gate/trigger = {f_gate / trigger})")
    n_pulses, max_lag = value("tcspc.n_pulses"), value("tcspc.max_lag_gates")
    if None not in (per_pulse, n_pulses, max_lag) and max_lag >= n_pulses * per_pulse:
        # no lag is longer than the run, and each lag is a histogram bin
        errors.append("tcspc.max_lag_gates: must be below the run length "
                      f"(n_pulses x gates per trigger = {n_pulses * per_pulse})")
    bin_width = value("tcspc.bin_width_ps")
    if None not in (trigger, bin_width) and not bin_width < 1.0 / trigger:
        errors.append("tcspc.bin_width_ps: must be below the trigger period")
    elif None not in (per_pulse, bin_width) and not 1.0 / trigger / bin_width <= MAX_HISTOGRAM_BINS:
        errors.append("tcspc.bin_width_ps: must split the trigger period into at most "
                      f"{MAX_HISTOGRAM_BINS} bins")
    for name in ("bias_v", "delay_ps", "fiber_loss_db"):
        start, stop, step = (value(f"sweeps.{name}.{k}") for k in ("start", "stop", "step"))
        if None not in (start, stop) and stop < start:
            errors.append(f"sweeps.{name}.stop: must be >= start")
        elif None not in (start, stop, step) and not _grid_steps(start, stop, step) < MAX_GRID_POINTS:
            errors.append(f"sweeps.{name}.step: must split the span into at most "
                          f"{MAX_GRID_POINTS} grid points")
    dt = value("chain.dt_ps")
    dt_ok = None not in (f_gate, dt) and not dt > 1.0 / (8.0 * f_gate)
    if None not in (f_gate, dt) and not dt_ok:
        errors.append("chain.dt_ps: must sample the gate frequency at least 8x")
    duration = value("chain.duration_ns")
    if None not in (f_gate, duration) and duration < 1.0 / f_gate:
        errors.append("chain.duration_ns: must cover at least one gate period")
    elif dt_ok and duration is not None and duration / dt > MAX_RECORD_SAMPLES:
        errors.append(f"chain.dt_ps: must split chain.duration_ns into at most "
                      f"{MAX_RECORD_SAMPLES} samples")
    elif dt_ok and duration is not None:
        # the FFT filter wraps the record, so a partial last period leaks feedthrough
        periods = round(duration / dt) * dt * f_gate  # the synthesizer's sample count
        if abs(periods - round(periods)) > 1e-6:
            errors.append("chain.duration_ns: must be a whole number of gate periods")
    return errors


@dataclass(frozen=True)
class FullConfig:
    """Validated configuration with the model objects already constructed;
    `chain` and `tcspc` are SI views, keyed by argument name as `_args` builds them.
    `run`, `sweeps` and `stability` are read from `merged`, the validated document."""

    detector: DetectorParams
    source: SourceConfig
    qkd: QkdLinkConfig
    chain: dict
    tcspc: dict
    merged: dict


def _build(doc: dict) -> FullConfig:
    def args(cls, section):
        return _args(cls, _SECTIONS[section], doc[section])

    detector = DetectorParams(**args(DetectorParams, "detector"))
    return FullConfig(
        detector=detector,
        source=SourceConfig(**args(SourceConfig, "source")),
        qkd=QkdLinkConfig(**args(QkdLinkConfig, "qkd"), **args(QkdLinkConfig, "run"),
                          detector=detector),
        chain=args(None, "chain"),
        tcspc=args(None, "tcspc"),
        merged=doc,
    )


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
    merged = deep_merge(default_config(), override)
    errors = validate_config(merged)
    if errors:
        raise ConfigError(errors)
    return _build(merged)


def _grid_steps(start: float, stop: float, step: float) -> float:
    """Whole steps in an inclusive grid's span, before the floor; inf when it overflows."""
    return (stop - start) / step + 1e-9


def grid_values(grid: dict) -> np.ndarray:
    """Inclusive arithmetic grid as a float64 array, `start + step * k`;
    endpoint kept when step divides the span."""
    start, stop, step = grid["start"], grid["stop"], grid["step"]
    steps = _grid_steps(start, stop, step)
    if not steps < MAX_GRID_POINTS:  # an inf or NaN quotient fails too
        raise ValueError(f"grid holds more than {MAX_GRID_POINTS} points")
    return start + step * np.arange(max(1, int(math.floor(steps)) + 1), dtype=float)


def schema_text() -> str:
    """The draft-07 JSON Schema of a configuration file, as JSON text."""
    return json.dumps(_SCHEMA, indent=2) + "\n"
