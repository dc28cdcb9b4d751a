"""Configuration loading: defaults, merging, validation, schema agreement."""

import json
import math
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinegate.config import (
    MAX_GRID_POINTS,
    _SCHEMA,
    _SECTIONS,
    ConfigError,
    _args,
    _check,
    deep_merge,
    default_config,
    grid_values,
    load_config,
    schema_text,
    validate_config,
)
from sinegate.declare import ArgumentError
from sinegate.detector_model import (
    AfterpulseModel,
    BiasEfficiencyLaw,
    DetectorParams,
    GateConfig,
    TemperatureDarkLaw,
)
from sinegate.mc_engine import (
    MAX_HISTOGRAM_BINS,
    RECORD_DTYPE,
    SourceConfig,
    gates_per_trigger,
    tcspc_histogram,
)
from sinegate.qkd_budget import QkdLinkConfig
from sinegate.signal_chain import MAX_RECORD_SAMPLES, synthesize_gate_train

SCHEMA_VALIDATOR = jsonschema.Draft7Validator(json.loads(schema_text()))


def write_json(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_defaults_headline_operating_point():
    cfg = load_config(None)
    assert cfg.detector.gate.gate_frequency == 1.25e9
    assert cfg.detector.gate.gate_fwhm == 130e-12
    assert cfg.detector.effective_efficiency(0.0) == 0.1
    assert cfg.detector.temperature_c == -43.0
    assert cfg.detector.bias == 53.5
    assert cfg.merged["run"]["holdoff_gates"] == 10
    assert cfg.merged["run"]["holdoff_anchor"] == "accepted"
    assert cfg.source.kind == "pulsed-trigger"
    assert cfg.source.trigger_rate == 31.25e6
    assert cfg.qkd.bit_rate == 625e6
    assert cfg.qkd.timebin_width == 400e-12
    assert cfg.chain.stages == 2
    assert cfg.chain.amplitude_pp == 8.0


def test_empty_file_equals_defaults(tmp_path):
    path = write_json(tmp_path, {})
    assert load_config(path).merged == load_config(None).merged


def test_deep_merge_overrides_leaves_only():
    base = default_config()
    merged = deep_merge(base, {"detector": {"operating": {"bias_v": 54.5}}})
    assert merged["detector"]["operating"]["bias_v"] == 54.5
    assert merged["detector"]["operating"]["temperature_c"] == -43.0
    assert merged["detector"]["gate"] == base["detector"]["gate"]
    # the original stays untouched
    assert base["detector"]["operating"]["bias_v"] == 53.5


def test_override_reaches_built_objects(tmp_path):
    path = write_json(tmp_path, {"qkd": {"fiber_loss_db": 6.0}, "run": {"master_seed": 7}})
    cfg = load_config(path)
    assert cfg.qkd.fiber_loss_db == 6.0
    assert cfg.merged["run"]["master_seed"] == 7


def test_tree_defaults_equal_the_dataclass_defaults():
    cfg = load_config(None)
    assert cfg.detector == DetectorParams()
    assert cfg.source == SourceConfig.pulsed()
    assert cfg.qkd == QkdLinkConfig()


# Every leaf that builds a model object, each at a valid value other than its
# default (`source.kind` has one value). Some float leaves are written as JSON
# integers, so the coercion to float shows.
EVERY_LEAF = {
    "run": {"holdoff_gates": 7, "holdoff_anchor": "any"},
    "detector": {
        "gate": {"gate_frequency_hz": 1000000000, "gate_fwhm_ps": 120.0},
        "bias_law": {"anchor_bias_v": 50, "anchor_efficiency": 0.15, "slope_per_v": 0.04,
                     "breakdown_bias_v": 48.0},
        "dark_table_c_prob": [[-50, 1e-7], [0.0, 1e-6], [25.0, 2e-5]],
        "jitter": {"sigma_ps": 25.0, "tail_fraction": 0.01, "tail_span_gates": 2},
        "afterpulse": {"trap_fill_per_detection": 0.05, "release_lifetime_ns": 2,
                       "trigger_prob_per_gate": 0.003, "enabled": True},
        "operating": {"bias_v": 51.0, "temperature_c": -20},
    },
    "source": {"kind": "pulsed-trigger", "trigger_rate_hz": 50e6, "mean_photons": 0.5,
               "laser_fwhm_ps": 20.0, "alignment_delay_ps": 15.0},
    "qkd": {"mu_source": 0.4, "fiber_loss_db": 3, "timebin_width_ps": 350.0,
            "extinction_db": 20.0, "ec_efficiency": 1.1, "pa_fraction": 0.4,
            "qber_floor": 0.02, "laser_fwhm_ps": 25.0, "mc_check_bits": 5},
    "chain": {"dt_ps": 20, "duration_ns": 32, "amplitude_pp_v": 6, "coupling_gain": 0.2,
              "stages": 3, "n_avalanches": 2, "threshold_mv": -3, "refractory_ns": 2.5,
              "delay_ps": 40},
    "tcspc": {"n_pulses": 1000, "bin_width_ps": 8, "max_lag_gates": 300},
    "stability": {"n_segments": 3, "bits_per_segment": 5000},
}

# The built attribute each leaf must reach, in SI units, written out by hand.
EVERY_LEAF_SI = {
    "detector.gate.gate_frequency": 1e9,
    "detector.gate.gate_fwhm": 120e-12,
    "detector.bias_law.anchor_bias": 50.0,
    "detector.bias_law.anchor_efficiency": 0.15,
    "detector.bias_law.slope_per": 0.04,
    "detector.bias_law.breakdown_bias": 48.0,
    "detector.dark_law.table": ((-50.0, 1e-7), (0.0, 1e-6), (25.0, 2e-5)),
    "detector.jitter.sigma": 25e-12,
    "detector.jitter.tail_fraction": 0.01,
    "detector.jitter.tail_span_gates": 2,
    "detector.afterpulse.trap_fill_per_detection": 0.05,
    "detector.afterpulse.release_lifetime": 2e-9,
    "detector.afterpulse.trigger_prob_per_gate": 0.003,
    "detector.afterpulse.enabled": True,
    "detector.bias": 51.0,
    "detector.temperature_c": -20.0,
    "source.kind": "pulsed-trigger",
    "source.trigger_rate": 50e6,
    "source.mean_photons": 0.5,
    "source.laser_fwhm": 20e-12,
    "source.alignment_delay": 15e-12,
    "qkd.mu_source": 0.4,
    "qkd.fiber_loss_db": 3.0,
    "qkd.timebin_width": 350e-12,
    "qkd.extinction_db": 20.0,
    "qkd.ec_efficiency": 1.1,
    "qkd.pa_fraction": 0.4,
    "qkd.qber_floor": 0.02,
    "qkd.laser_fwhm": 25e-12,
    "qkd.holdoff_gates": 7,
    "qkd.holdoff_anchor": "any",
    "chain.dt": 20e-12,
    "chain.duration": 32e-9,
    "chain.amplitude_pp": 6.0,
    "chain.coupling_gain": 0.2,
    "chain.stages": 3,
    "chain.n_avalanches": 2,
    "chain.threshold": -3e-3,
    "chain.refractory": 2.5e-9,
    "chain.delay": 40e-12,
    "tcspc.n_pulses": 1000,
    "tcspc.bin_width": 8e-12,
    "tcspc.max_lag_gates": 300,
    "stability.n_segments": 3,
    "stability.bits_per_segment": 5000,
}


def _leaf_paths(schema, prefix=()):
    if schema.get("type") != "object":
        yield prefix
        return
    for key, sub in schema["properties"].items():
        yield from _leaf_paths(sub, prefix + (key,))


def test_every_leaf_reaches_its_object_in_si_units(tmp_path):
    # the document sets every leaf of the built sections to a non-default value
    defaults = default_config()
    built = [("run", "holdoff_gates"), ("run", "holdoff_anchor")] + [
        (name,) + p for name in ("detector", "source", "qkd", "chain", "tcspc", "stability")
        for p in _leaf_paths(_SECTIONS[name])
    ]
    for path in built:
        value = reduce(getitem, path, EVERY_LEAF)
        assert path == ("source", "kind") or value != reduce(getitem, path, defaults), path
    assert len(built) == len(EVERY_LEAF_SI) + 1  # qkd.mc_check_bits builds nothing

    cfg = load_config(write_json(tmp_path, EVERY_LEAF))
    for path, want in EVERY_LEAF_SI.items():
        got = reduce(getattr, path.split("."), cfg)
        assert type(got) is type(want), path
        assert got == (pytest.approx(want, rel=1e-12) if isinstance(want, float) else want), path
    assert cfg.qkd.detector is cfg.detector
    assert cfg.merged["qkd"]["mc_check_bits"] == 5


def test_a_calibration_is_the_detector_section(tmp_path):
    # load_config is the one detector reader; a null dark table switches darks off
    assert load_config().detector == DetectorParams()
    cfg = load_config(write_json(tmp_path, {"detector": {"dark_table_c_prob": None}}))
    assert cfg.detector == DetectorParams(dark_law=None)


def test_unknown_key_rejected(tmp_path):
    path = write_json(tmp_path, {"detektor": {}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("detektor: unknown key" in e for e in exc.value.errors)


def test_all_violations_reported_at_once(tmp_path):
    doc = {
        "detector": {"gate": {"gate_fwhm_ps": -5.0}},
        "chain": {"stages": 0},
    }
    path = write_json(tmp_path, doc)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    msgs = exc.value.errors
    assert any(e.startswith("detector.gate.gate_fwhm_ps:") for e in msgs)
    assert any(e.startswith("chain.stages:") for e in msgs)
    assert len(msgs) >= 2


def test_missing_file_names_path():
    with pytest.raises(ConfigError) as exc:
        load_config("/no/such/config.json")
    assert "config file not found: /no/such/config.json" in exc.value.errors[0]


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert "not valid JSON" in exc.value.errors[0]


def test_non_object_root_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert "root must be a JSON object" in exc.value.errors[0]


def test_cross_field_timebin_width(tmp_path):
    path = write_json(tmp_path, {"qkd": {"timebin_width_ps": 900.0}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("timebin_width_ps" in e for e in exc.value.errors)


def test_cross_field_gate_bit_ratio(tmp_path):
    # two gates per bit by construction: the bit rate is no key, nor is the
    # cow-only source extinction
    path = write_json(tmp_path, {"qkd": {"bit_rate_hz": 625e6},
                                 "source": {"extinction_db": 25.0}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["source.extinction_db: unknown key",
                                "qkd.bit_rate_hz: unknown key"]


def test_source_kind_is_pulsed_trigger_only():
    doc = deep_merge(default_config(), {"source": {"kind": "cow-ppm"}})
    assert validate_config(doc) == ["source.kind: must be one of ('pulsed-trigger',)"]


def test_cross_field_trigger_divisibility(tmp_path):
    path = write_json(tmp_path, {"source": {"trigger_rate_hz": 30e6}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("trigger_rate_hz" in e for e in exc.value.errors)


def test_cross_field_trigger_rate_ratio_not_finite():
    # gate/trigger overflows to inf; the rule reports it instead of crashing
    doc = deep_merge(default_config(), {"source": {"trigger_rate_hz": 1e-300}})
    assert validate_config(doc) == [
        "source.trigger_rate_hz: must divide the gate clock (gate/trigger = inf)",
        "tcspc.bin_width_ps: must split the trigger period into at most "
        f"{MAX_HISTOGRAM_BINS} bins",
    ]


def test_cross_field_supercritical_afterpulsing():
    doc = deep_merge(default_config(), {"detector": {"afterpulse": {"enabled": True}}})
    assert validate_config(doc) == [
        "detector.afterpulse: must have a branching ratio below 1, not 1.25: "
        "afterpulse chains would run away"
    ]
    # disabled, the same model is fine; so is a subcritical one
    assert validate_config(default_config()) == []
    sub = {"detector": {"afterpulse": {"enabled": True, "trigger_prob_per_gate": 0.002}}}
    assert validate_config(deep_merge(default_config(), sub)) == []


def test_cross_field_chain_dt(tmp_path):
    path = write_json(tmp_path, {"chain": {"dt_ps": 200.0}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("dt_ps" in e for e in exc.value.errors)


def test_cross_field_sweep_grid_order(tmp_path):
    path = write_json(tmp_path, {"sweeps": {"bias_v": {"start": 54.0, "stop": 52.0}}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("sweeps.bias_v.stop" in e for e in exc.value.errors)


def test_negative_loss_grid_refused_at_its_start(tmp_path):
    grid = {"start": -1.0, "stop": 2.0, "step": 0.5}
    with pytest.raises(ConfigError) as exc:
        load_config(write_json(tmp_path, {"sweeps": {"fiber_loss_db": grid}}))
    assert exc.value.errors == ["sweeps.fiber_loss_db.start: must be a number >= 0"]


def test_cross_field_operating_temperature_in_table(tmp_path):
    path = write_json(tmp_path, {"detector": {"operating": {"temperature_c": -60.0}}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("operating.temperature_c" in e for e in exc.value.errors)


def test_dark_table_coverage_reported_with_other_errors(tmp_path):
    override = {
        "detector": {"dark_table_c_prob": [[-50.0, 1e-6], [10.0, 1e-4]],
                     "operating": {"temperature_c": 0.0}},
        "qkd": {"ec_efficiency": 0.5},
    }
    with pytest.raises(ConfigError) as exc:
        load_config(write_json(tmp_path, override))
    assert exc.value.errors == [
        "qkd.ec_efficiency: must be a number >= 1",
        "detector.dark_table_c_prob: must cover [-45, +20] C",
    ]


def test_gate_fwhm_must_fit_period(tmp_path):
    path = write_json(tmp_path, {"detector": {"gate": {"gate_fwhm_ps": 900.0}}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("below one gate period" in e for e in exc.value.errors)


def test_cross_field_breakdown_below_anchor_bias(tmp_path):
    override = {"detector": {"bias_law": {"breakdown_bias_v": 54.0}},
                "qkd": {"timebin_width_ps": 900.0}}
    with pytest.raises(ConfigError) as exc:
        load_config(write_json(tmp_path, override))
    # a field path, and the qkd rules still run
    assert exc.value.errors == [
        "detector.bias_law.breakdown_bias_v: must lie below the anchor bias "
        "when the anchor efficiency is above 0",
        "qkd.timebin_width_ps: must be at most half the bit period",
    ]
    zero = {"detector": {"bias_law": {"breakdown_bias_v": 54.0, "anchor_efficiency": 0.0}}}
    assert validate_config(deep_merge(default_config(), zero)) == []


def test_cross_field_chain_duration_covers_a_gate_period():
    short = deep_merge(default_config(), {"chain": {"duration_ns": 0.5}})
    assert validate_config(short) == ["chain.duration_ns: must cover at least one gate period"]
    one_period = deep_merge(default_config(), {"chain": {"duration_ns": 0.8}})
    assert validate_config(one_period) == []


def test_cross_field_chain_duration_is_whole_gate_periods():
    # the FFT filter wraps the record: 42.5 periods leak the feedthrough at the seam
    partial = deep_merge(default_config(), {"chain": {"duration_ns": 34.0}})
    assert validate_config(partial) == ["chain.duration_ns: must be a whole number of gate periods"]
    assert validate_config(deep_merge(default_config(), {"chain": {"duration_ns": 40.0}})) == []
    # the record is round(duration/dt) samples long: 30 ps samples make 40 ns 39.99 ns
    coarse = deep_merge(default_config(), {"chain": {"duration_ns": 40.0, "dt_ps": 30.0}})
    assert validate_config(coarse) == ["chain.duration_ns: must be a whole number of gate periods"]


def test_cross_field_tcspc_bin_below_trigger_period():
    wide = deep_merge(default_config(), {"tcspc": {"bin_width_ps": 40000.0}})
    assert validate_config(wide) == ["tcspc.bin_width_ps: must be below the trigger period"]
    at_period = deep_merge(default_config(), {"tcspc": {"bin_width_ps": 32000.0}})
    assert validate_config(at_period) == ["tcspc.bin_width_ps: must be below the trigger period"]


def test_cross_field_tcspc_bins_per_trigger_period_capped():
    # 1e-300 ps split the 32 ns period into inf bins (np.bincount overflowed);
    # 1e-3 ps into 32 M; 32 ns / 2**20 is exactly the most bins a period holds
    refusal = ("tcspc.bin_width_ps: must split the trigger period into at most "
               f"{MAX_HISTOGRAM_BINS} bins")
    for bin_ps in (1e-300, 1e-3, math.nextafter(32000.0 / 2**20, 0.0)):
        doc = deep_merge(default_config(), {"tcspc": {"bin_width_ps": bin_ps}})
        assert validate_config(doc) == [refusal], bin_ps
        with pytest.raises(ValueError, match=f"at most {MAX_HISTOGRAM_BINS} bins"):
            tcspc_histogram(np.zeros(0, dtype=RECORD_DTYPE), 31.25e6, bin_ps / 1e12)
    finest = deep_merge(default_config(), {"tcspc": {"bin_width_ps": 32000.0 / 2**20}})
    assert validate_config(finest) == []
    h = tcspc_histogram(np.zeros(0, dtype=RECORD_DTYPE), 31.25e6, 32e-9 / 2**20)
    assert h.n_bins == MAX_HISTOGRAM_BINS


def test_cross_field_max_lag_below_run_length():
    # 100 pulses of 40 gates: lags 1..3999 fit in the run
    fits = deep_merge(default_config(), {"tcspc": {"n_pulses": 100, "max_lag_gates": 3999}})
    assert validate_config(fits) == []
    for lag in (4000, 2**63):
        doc = deep_merge(default_config(), {"tcspc": {"n_pulses": 100, "max_lag_gates": lag}})
        assert validate_config(doc) == [
            "tcspc.max_lag_gates: must be below the run length "
            "(n_pulses x gates per trigger = 4000)"
        ]
    # the rule waits for the fields it reads
    bad_pulses = deep_merge(default_config(), {"tcspc": {"n_pulses": 0, "max_lag_gates": 2**63}})
    assert validate_config(bad_pulses) == ["tcspc.n_pulses: must be an integer >= 1"]


# 760 MHz gates and a 19 MHz trigger: 1e12 / f_gate is 1315.789... ps
SLOW_CLOCK = {"detector": {"gate": {"gate_frequency_hz": 7.6e8}},
              "source": {"trigger_rate_hz": 1.9e7}}


def test_boundary_values_refused_at_their_leaves():
    # each passes the rule in file units (ps <= 1e12 / f) but not in SI, where
    # the synthesizer and QkdLinkConfig compare it
    dt = {"chain": {"dt_ps": 164.47368421052633, "duration_ns": 26.31578947368421}}
    assert validate_config(deep_merge(default_config(), deep_merge(SLOW_CLOCK, dt))) == [
        "chain.dt_ps: must sample the gate frequency at least 8x"
    ]
    timebin = {"chain": {"duration_ns": 25.0}, "qkd": {"timebin_width_ps": 1315.7894736842106}}
    assert validate_config(deep_merge(default_config(), deep_merge(SLOW_CLOCK, timebin))) == [
        "qkd.timebin_width_ps: must be at most half the bit period"
    ]


def test_positive_leaves_that_underflow_in_si_are_refused():
    # 1e-320 is positive in ps or ns and 0 in seconds, which the model refuses
    tiny = 1e-320
    doc = deep_merge(default_config(), {
        "detector": {"gate": {"gate_fwhm_ps": tiny},
                     "afterpulse": {"release_lifetime_ns": tiny}},
        "qkd": {"timebin_width_ps": tiny},
        "tcspc": {"bin_width_ps": tiny},
        "chain": {"dt_ps": tiny, "duration_ns": tiny},
    })
    assert validate_config(doc) == [
        f"{path}: underflows to 0 in SI units" for path in (
            "detector.gate.gate_fwhm_ps", "detector.afterpulse.release_lifetime_ns",
            "qkd.timebin_width_ps", "tcspc.bin_width_ps", "chain.dt_ps", "chain.duration_ns",
        )
    ]


def test_records_too_large_to_allocate_are_refused_at_chain_dt():
    # 1e-310 ps is 1e-322 s, a subnormal: duration/dt is inf, which round()
    # cannot take; 1e-300 ps would ask the synthesizer for ~6e304 samples
    refusal = f"chain.dt_ps: must split the duration into at most {MAX_RECORD_SAMPLES} samples"
    for dt_ps in (1e-310, 1e-300):
        doc = deep_merge(default_config(), {"chain": {"dt_ps": dt_ps}})
        assert validate_config(doc) == [refusal]
        with pytest.raises(ValueError, match=f"at most {MAX_RECORD_SAMPLES}"):
            synthesize_gate_train(1.25e9, 8.0, 64e-9, dt=dt_ps / 1e12)


def _edges(*values):
    """Each value and its float neighbours on either side."""
    return [e for x in values for e in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


@st.composite
def gate_boundary_docs(draw):
    """A gate clock, with the fwhm, time bin, dt and duration at one gate
    period or one eighth of it, or one float either side; the tcspc bin the
    same against the trigger period and its `MAX_HISTOGRAM_BINS`-th part.
    One chain in four is instead a whole
    number of periods (two or more, so the duration stands) with dt at
    duration / `MAX_RECORD_SAMPLES`, or one float either side."""
    f = draw(st.integers(10, 2000).map(lambda k: k * 1e7) | st.floats(1e8, 2e10))
    trigger = f / draw(st.integers(1, 64))
    ps = st.sampled_from(_edges(1e12 / f, 1e12 / (8.0 * f)))
    if draw(st.integers(0, 3)) == 0:
        duration_ns = draw(st.integers(2, 64)) * 1e9 / f
        chain = {"dt_ps": draw(st.sampled_from(_edges(1e3 * duration_ns / MAX_RECORD_SAMPLES))),
                 "duration_ns": duration_ns}
    else:
        chain = {"dt_ps": draw(ps),
                 "duration_ns": draw(st.sampled_from(_edges(1e9 / f, 1e9 / (8.0 * f))))}
    return deep_merge(default_config(), {
        "detector": {"gate": {"gate_frequency_hz": f, "gate_fwhm_ps": draw(ps)}},
        "source": {"trigger_rate_hz": trigger},
        "qkd": {"timebin_width_ps": draw(ps)},
        "chain": chain,
        "tcspc": {"bin_width_ps": draw(st.sampled_from(
            _edges(1e12 / trigger, 1e12 / (8.0 * trigger), 1e12 / trigger / MAX_HISTOGRAM_BINS)))},
    })


def _refuses(check) -> bool:
    try:
        check()
    except ValueError:
        return True
    return False


def _model_refusals(doc) -> set:
    """The leaves whose values, as the unit rule hands them over, the model
    code refuses; each is checked alone, the others held at accepted values."""
    def si(cls, *path):
        schema = reduce(lambda s, k: s["properties"][k], path, _SCHEMA)
        return _args(cls, schema, reduce(getitem, path, doc))

    gate = si(GateConfig, "detector", "gate")
    f = gate["gate_frequency"]
    chain, trigger = si(None, "chain"), si(SourceConfig, "source")["trigger_rate"]
    checks = {
        "detector.gate.gate_fwhm_ps": lambda: GateConfig(**gate),
        "qkd.timebin_width_ps": lambda: QkdLinkConfig(**si(QkdLinkConfig, "qkd"), detector=(
            DetectorParams(gate=GateConfig(f, gate_fwhm=1.0 / (8.0 * f))))),
        "tcspc.bin_width_ps": lambda: tcspc_histogram(
            np.zeros(0, dtype=RECORD_DTYPE), trigger, si(None, "tcspc")["bin_width"]),
        # dt against the document's duration, or one period if that is refused
        "chain.dt_ps": lambda: synthesize_gate_train(
            f, 1.0, max(chain["duration"], 1.0 / f), dt=chain["dt"]),
        "chain.duration_ns": lambda: synthesize_gate_train(
            f, 1.0, chain["duration"], dt=1.0 / (8.0 * f)),
    }
    return {path for path, check in checks.items() if _refuses(check)}


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(gate_boundary_docs())
def test_validation_accepts_exactly_what_the_model_accepts(doc):
    errors = validate_config(doc)
    assert {e.split(":", 1)[0] for e in errors} == _model_refusals(doc), errors
    if not errors:  # and the document builds
        with tempfile.TemporaryDirectory() as tmp:
            load_config(write_json(Path(tmp), doc))


NO_RECORDS = np.zeros(0, dtype=RECORD_DTYPE)

# one case per cross-field rule: the document, the leaf it is reported at, and
# the model call that refuses the same values in SI units (1.25 GHz gates,
# 31.25 MHz trigger, 64 ns of 25 ps samples by default)
MODEL_RULES = {
    "gate-fwhm": ({"detector": {"gate": {"gate_fwhm_ps": 900.0}}}, "detector.gate.gate_fwhm_ps",
                  lambda: GateConfig(1.25e9, 900e-12)),
    "breakdown": ({"detector": {"bias_law": {"breakdown_bias_v": 54.0}}},
                  "detector.bias_law.breakdown_bias_v",
                  lambda: BiasEfficiencyLaw(breakdown_bias=54.0)),
    "dark-order": ({"detector": {"dark_table_c_prob": [[20.0, 1e-3], [-45.0, 1e-6]]}},
                   "detector.dark_table_c_prob",
                   lambda: TemperatureDarkLaw(((20.0, 1e-3), (-45.0, 1e-6)))),
    "dark-span": ({"detector": {"dark_table_c_prob": [[-43.0, 1e-6], [20.0, 1e-5]]}},
                  "detector.dark_table_c_prob",
                  lambda: TemperatureDarkLaw(((-43.0, 1e-6), (20.0, 1e-5)))),
    "runaway": ({"detector": {"afterpulse": {"enabled": True}}}, "detector.afterpulse",
                lambda: AfterpulseModel(enabled=True).refuse_runaway(0.8e-9)),
    "timebin": ({"qkd": {"timebin_width_ps": 900.0}}, "qkd.timebin_width_ps",
                lambda: QkdLinkConfig(timebin_width=900e-12)),
    "trigger": ({"source": {"trigger_rate_hz": 30e6}}, "source.trigger_rate_hz",
                lambda: gates_per_trigger(1.25e9, 30e6)),
    "tcspc-bin": ({"tcspc": {"bin_width_ps": 40000.0}}, "tcspc.bin_width_ps",
                  lambda: tcspc_histogram(NO_RECORDS, 31.25e6, 40e-9)),
    "tcspc-bins": ({"tcspc": {"bin_width_ps": 1e-3}}, "tcspc.bin_width_ps",
                   lambda: tcspc_histogram(NO_RECORDS, 31.25e6, 1e-15)),
    "grid-order": ({"sweeps": {"bias_v": {"start": 54.0, "stop": 52.0}}}, "sweeps.bias_v.stop",
                   lambda: grid_values({"start": 54.0, "stop": 52.0, "step": 0.05})),
    "grid-points": ({"sweeps": {"delay_ps": {"step": 1e-300}}}, "sweeps.delay_ps.step",
                    lambda: grid_values({"start": -400.0, "stop": 400.0, "step": 1e-300})),
    "chain-dt": ({"chain": {"dt_ps": 200.0}}, "chain.dt_ps",
                 lambda: synthesize_gate_train(1.25e9, 8.0, 64e-9, dt=200e-12)),
    "chain-samples": ({"chain": {"dt_ps": 1e-300}}, "chain.dt_ps",
                      lambda: synthesize_gate_train(1.25e9, 8.0, 64e-9, dt=1e-312)),
    "chain-short": ({"chain": {"duration_ns": 0.5}}, "chain.duration_ns",
                    lambda: synthesize_gate_train(1.25e9, 8.0, 0.5e-9, dt=25e-12)),
    "chain-periods": ({"chain": {"duration_ns": 34.0}}, "chain.duration_ns",
                      lambda: synthesize_gate_train(1.25e9, 8.0, 34e-9, dt=25e-12)),
}


@pytest.mark.parametrize("override, leaf, model_call", MODEL_RULES.values(), ids=MODEL_RULES)
def test_each_rule_has_one_wording_the_models(override, leaf, model_call):
    with pytest.raises(ArgumentError) as exc:
        model_call()
    assert exc.value.reason.startswith("must")
    assert validate_config(deep_merge(default_config(), override)) == [f"{leaf}: {exc.value.reason}"]


def test_dark_pairs_rule_is_the_models_or_null():
    # the leaf wraps `TemperatureDarkLaw.table`'s declaration, so it words the
    # model's rule with the one branch the model has not: null, no dark law
    with pytest.raises(ArgumentError) as exc:
        TemperatureDarkLaw(((-50, 0.5), (30, 1.5)))
    assert exc.value.arg == "table"
    assert exc.value.reason == ("must be a list of at least 2 [temperature_c, probability] "
                                "pairs, probability in (0, 1)")
    doc = deep_merge(default_config(), {"detector": {"dark_table_c_prob": [[-50, 0.5], [30, 1.5]]}})
    assert validate_config(doc) == [
        "detector.dark_table_c_prob: " + exc.value.reason.replace("must be ", "must be null or ", 1)]


def test_every_refused_model_object_is_reported_at_once():
    doc = deep_merge(default_config(), {
        "detector": {"gate": {"gate_fwhm_ps": 900.0},
                     "bias_law": {"breakdown_bias_v": 54.0},
                     "dark_table_c_prob": [[-43.0, 1e-6], [20.0, 1e-5]]},
        "qkd": {"timebin_width_ps": 900.0},
        "tcspc": {"bin_width_ps": 40000.0},
        "sweeps": {"bias_v": {"start": 54.0, "stop": 52.0}},
        "chain": {"dt_ps": 200.0},
    })
    assert [e.split(":", 1)[0] for e in validate_config(doc)] == [
        "detector.gate.gate_fwhm_ps",
        "detector.bias_law.breakdown_bias_v",
        "detector.dark_table_c_prob",
        "qkd.timebin_width_ps",
        "tcspc.bin_width_ps",
        "sweeps.bias_v.stop",
        "chain.dt_ps",
    ]


def test_qkd_holdoff_keys_removed(tmp_path):
    # the hold-off is run.holdoff_gates and run.holdoff_anchor for every subcommand
    path = write_json(tmp_path, {"qkd": {"holdoff_time_ns": 8.0,
                                         "dead_time_model": "paralyzable"}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["qkd.holdoff_time_ns: unknown key",
                                "qkd.dead_time_model: unknown key"]


def test_grid_values_inclusive():
    assert grid_values({"start": 52.0, "stop": 55.0, "step": 1.0}).tolist() == [
        52.0, 53.0, 54.0, 55.0,
    ]
    assert grid_values({"start": 0.0, "stop": 16.0, "step": 0.5})[-1] == 16.0
    assert grid_values({"start": 3.0, "stop": 3.0, "step": 1.0}).tolist() == [3.0]
    # a float64 array, bit for bit the points start + k*step, integer bounds too
    grid = {"start": 51.0, "stop": 54.5, "step": 0.05}
    values = grid_values(grid)
    assert values.dtype == np.float64
    assert values.tolist() == [51.0 + k * 0.05 for k in range(71)]
    ints = grid_values({"start": 0, "stop": 2, "step": 1})
    assert ints.dtype == np.float64 and ints.tolist() == [0.0, 1.0, 2.0]


def test_sweep_grids_too_large_to_build_are_refused_at_their_step():
    at_cap = {"start": 0.0, "stop": MAX_GRID_POINTS - 1.0, "step": 1.0}
    too_large = [
        {**at_cap, "stop": float(MAX_GRID_POINTS)},  # one point over the cap
        {"step": 1e-300},  # ~8e302 points over the default span
        {"step": 5e-324},  # subnormal: the span over it is inf
        {"start": -1e308, "stop": 1e308},  # the span itself is inf
    ]
    for name in ("bias_v", "delay_ps", "fiber_loss_db"):
        doc = deep_merge(default_config(), {"sweeps": {name: at_cap}})
        assert validate_config(doc) == []
        assert len(grid_values(doc["sweeps"][name])) == MAX_GRID_POINTS
        for grid in too_large:
            doc = deep_merge(default_config(), {"sweeps": {name: grid}})
            expected = [f"sweeps.{name}.step: must split the span into at most "
                        f"{MAX_GRID_POINTS} grid points"]
            if name == "fiber_loss_db" and grid.get("start", 0.0) < 0:
                # a loss grid starts at 0 dB or above, so its span is never inf
                expected = ["sweeps.fiber_loss_db.start: must be a number >= 0"]
            assert validate_config(doc) == expected, grid
            with pytest.raises(ValueError, match=f"at most {MAX_GRID_POINTS} grid points"):
                grid_values(doc["sweeps"][name])


def test_schema_accepts_defaults_and_flags_bad_docs():
    schema = json.loads(schema_text())
    doc = default_config()
    jsonschema.validate(doc, schema)

    bad = deep_merge(doc, {"detector": {"gate": {"gate_fwhm_ps": -5.0}}})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)
    assert validate_config(bad)  # the native validator agrees

    unknown = deep_merge(doc, {"extra_section": {}})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(unknown, schema)
    assert validate_config(unknown)


def test_validate_config_clean_on_defaults():
    assert validate_config(default_config()) == []


def test_schema_text_is_a_draft7_schema_of_the_one_tree():
    schema = json.loads(schema_text())
    jsonschema.Draft7Validator.check_schema(schema)
    assert schema == _SCHEMA
    assert "$ref" not in schema_text()


def test_leaf_messages_generated_from_the_tree(tmp_path):
    doc = {
        "run": {"master_seed": -1, "holdoff_anchor": "late"},
        "detector": {"bias_law": {"anchor_efficiency": 2.0},
                     "afterpulse": {"enabled": 1}},
        "chain": {"stages": 0, "threshold_mv": "low"},
        "sweeps": {"temperatures_c": []},
    }
    with pytest.raises(ConfigError) as exc:
        load_config(write_json(tmp_path, doc))
    assert exc.value.errors == [
        "run.master_seed: must be an integer in [0, 2**64)",
        "run.holdoff_anchor: must be one of ('accepted', 'any')",
        "detector.bias_law.anchor_efficiency: must be a number in [0, 1]",
        "detector.afterpulse.enabled: must be true or false",
        "chain.stages: must be an integer >= 1",
        "chain.threshold_mv: must be a finite number",
        "sweeps.temperatures_c: must be null or a non-empty list of temperatures",
    ]


def test_drifted_bounds_reported_at_once(tmp_path):
    override = {
        "qkd": {"ec_efficiency": 0.5, "qber_floor": 0.7},
        "detector": {"dark_table_c_prob": [[-43.0, 1e-6]]},
    }
    with pytest.raises(ConfigError) as exc:
        load_config(write_json(tmp_path, override))
    for field in ("qkd.ec_efficiency:", "qkd.qber_floor:", "detector.dark_table_c_prob:"):
        assert any(e.startswith(field) for e in exc.value.errors), field
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(deep_merge(default_config(), override), json.loads(schema_text()))


@pytest.mark.parametrize(
    "override",
    [
        {"run": {"master_seed": 2**64}},
        {"detector": {"dark_table_c_prob": [[-45.0, 2.0], [20.0, 1e-3]]}},
    ],
)
def test_model_bounds_rejected_by_validator_and_schema(override):
    doc = deep_merge(default_config(), override)
    assert validate_config(doc)
    assert not SCHEMA_VALIDATOR.is_valid(doc)


def test_code_only_rules_keep_their_messages():
    # JSON Schema accepts all three documents; the native validator does not.
    doc = deep_merge(default_config(), {"chain": {"stages": 2.0, "dt_ps": float("nan")}})
    assert SCHEMA_VALIDATOR.is_valid(doc)
    assert validate_config(doc) == [
        "chain.dt_ps: must be a number > 0",
        "chain.stages: must be an integer >= 1",
    ]
    table = [[20.0, 1e-3], [-45.0, 1e-6]]
    doc = deep_merge(default_config(), {"detector": {"dark_table_c_prob": table}})
    assert SCHEMA_VALIDATOR.is_valid(doc)
    assert validate_config(doc) == [
        "detector.dark_table_c_prob: must hold strictly increasing temperatures"
    ]


def test_delay_step_key_removed(tmp_path):
    path = write_json(tmp_path, {"detector": {"gate": {"delay_step_ps": 10.0}}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["detector.gate.delay_step_ps: unknown key"]


# ------------------------------------------------- native pass vs JSON Schema

def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _bounds(node):
    """Every numeric bound in a schema tree."""
    if isinstance(node, list):
        for v in node:
            yield from _bounds(v)
    elif isinstance(node, dict):
        for key, v in node.items():
            if key in ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"):
                yield v
            else:
                yield from _bounds(v)


DEFAULT_PATHS = list(_paths(default_config()))
CONTAINER_PATHS = [()] + [
    p for p in DEFAULT_PATHS
    if isinstance(reduce(getitem, p, default_config()), (dict, list))
]
EDGE_NUMBERS = sorted(
    {x for b in _bounds(json.loads(schema_text())) for x in (b, float(b), b - 1e-9, b + 1e-9)},
    key=repr,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(EDGE_NUMBERS + [10**400, "any", "cow-ppm", "paralyzable"])
)
JSON_VALUES = (
    SCALARS
    | st.lists(SCALARS | st.lists(SCALARS, max_size=3), max_size=4)
    | st.dictionaries(st.text(max_size=4), SCALARS, max_size=3)
)


@st.composite
def mutated_configs(draw):
    """default_config() with one value replaced, one key (or item) deleted or added."""
    doc = default_config()
    op = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
    if op == "add":
        target = reduce(getitem, draw(st.sampled_from(CONTAINER_PATHS)), doc)
        if isinstance(target, list):
            target.append(draw(JSON_VALUES))
        else:
            key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in target))
            target[key] = draw(JSON_VALUES)
        return doc
    path = draw(st.sampled_from(DEFAULT_PATHS))
    parent = reduce(getitem, path[:-1], doc)
    if op == "replace":
        parent[path[-1]] = draw(st.sampled_from(EDGE_NUMBERS) | JSON_VALUES)
    else:
        del parent[path[-1]]
    return doc


def _native_shape_errors(doc):
    """The structural pass of validate_config on the merged document."""
    errors = []
    _check(_SCHEMA, deep_merge(default_config(), doc), "", errors)
    return errors


def _has_non_finite_number(value):
    if isinstance(value, dict):
        return any(_has_non_finite_number(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_non_finite_number(v) for v in value)
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, int) and abs(value) > sys.float_info.max


def _integral_floats_to_ints(value):
    if isinstance(value, dict):
        return {k: _integral_floats_to_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integral_floats_to_ints(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(mutated_configs())
def test_native_shape_pass_agrees_with_jsonschema(doc):
    native_errors = _native_shape_errors(doc)
    schema_ok = SCHEMA_VALIDATOR.is_valid(doc)
    if schema_ok == (not native_errors):
        return
    # Only the code-only rules may tell the two apart, and only one way.
    assert schema_ok, native_errors
    if _has_non_finite_number(doc):
        return  # numbers must be finite
    # integer fields must hold Python ints: 2.0 is an integer to JSON Schema
    assert _native_shape_errors(_integral_floats_to_ints(doc)) == []
