"""Model arguments: each declared once on its field, refused by the model in
the configuration's words, and the configuration shape unchanged by it."""

import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from sinegate.config import deep_merge, default_config, schema_text, validate_config
from sinegate.declare import ArgumentError
from sinegate.detector_model import (
    AfterpulseModel,
    BiasEfficiencyLaw,
    DetectorParams,
    GateConfig,
    JitterModel,
)
from sinegate.mc_engine import (
    RECORD_DTYPE,
    Histogram,
    RunConfig,
    SourceConfig,
    TcspcConfig,
    apply_holdoff,
    check_tcspc_bin,
    deconvolve_jitter,
    inter_detection_correlation,
)
from sinegate.qkd_budget import (QkdLinkConfig, StabilityConfig, mc_link_run, rate_after_ec,
                                 stability_run)
from sinegate.signal_chain import (
    AvalanchePulseShape,
    ChainConfig,
    DiscriminatorConfig,
    FilterResponseSpec,
    SampledWaveform,
    apply_filter,
    check_record,
    check_sampling,
    synthesize_feedthrough,
    synthesize_gate_train,
)

NAN = math.nan
WAVEFORM = SampledWaveform(np.zeros(8), 25e-12)

# Every bounded leaf that builds a model argument: a value refused both in
# its file unit and in SI, and the model call that takes it in SI.
BOUNDED_LEAVES = {
    "detector.gate.gate_frequency_hz": (0.0, lambda v: GateConfig(gate_frequency=v)),
    "detector.gate.gate_fwhm_ps": (-1.0, lambda v: GateConfig(gate_fwhm=v)),
    "detector.bias_law.anchor_bias_v": (NAN, lambda v: BiasEfficiencyLaw(anchor_bias=v)),
    "detector.bias_law.anchor_efficiency": (1.5, lambda v: BiasEfficiencyLaw(anchor_efficiency=v)),
    "detector.bias_law.slope_per_v": (0.0, lambda v: BiasEfficiencyLaw(slope_per=v)),
    "detector.bias_law.breakdown_bias_v": (NAN, lambda v: BiasEfficiencyLaw(breakdown_bias=v)),
    "detector.jitter.sigma_ps": (-1.0, lambda v: JitterModel(sigma=v)),
    "detector.jitter.tail_fraction": (1.0, lambda v: JitterModel(tail_fraction=v)),
    "detector.jitter.tail_span_gates": (0, lambda v: JitterModel(tail_span_gates=v)),
    "detector.afterpulse.trap_fill_per_detection": (
        -0.1, lambda v: AfterpulseModel(trap_fill_per_detection=v)),
    "detector.afterpulse.release_lifetime_ns": (0.0, lambda v: AfterpulseModel(release_lifetime=v)),
    "detector.afterpulse.trigger_prob_per_gate": (
        1.5, lambda v: AfterpulseModel(trigger_prob_per_gate=v)),
    "detector.operating.bias_v": (NAN, lambda v: DetectorParams(bias=v)),
    "detector.operating.temperature_c": (NAN, lambda v: DetectorParams(temperature_c=v)),
    "source.trigger_rate_hz": (-1.0, lambda v: SourceConfig.pulsed(trigger_rate=v)),
    "source.mean_photons": (-1.0, lambda v: SourceConfig.pulsed(mean_photons=v)),
    "source.laser_fwhm_ps": (-1.0, lambda v: SourceConfig.pulsed(laser_fwhm=v)),
    "source.alignment_delay_ps": (NAN, lambda v: SourceConfig.pulsed(alignment_delay=v)),
    "qkd.mu_source": (-1.0, lambda v: QkdLinkConfig(mu_source=v)),
    "qkd.fiber_loss_db": (-1.0, lambda v: QkdLinkConfig(fiber_loss_db=v)),
    "qkd.timebin_width_ps": (0.0, lambda v: QkdLinkConfig(timebin_width=v)),
    "qkd.extinction_db": (0.0, lambda v: QkdLinkConfig(extinction_db=v)),
    "qkd.ec_efficiency": (0.5, lambda v: QkdLinkConfig(ec_efficiency=v)),
    "qkd.pa_fraction": (1.5, lambda v: QkdLinkConfig(pa_fraction=v)),
    "qkd.qber_floor": (0.5, lambda v: QkdLinkConfig(qber_floor=v)),
    "qkd.laser_fwhm_ps": (-1.0, lambda v: QkdLinkConfig(laser_fwhm=v)),
    "run.master_seed": (2**64, lambda v: RunConfig(n_gates=1, master_seed=v)),
    "run.holdoff_gates": (-1, lambda v: RunConfig(n_gates=1, holdoff_gates=v)),
    "tcspc.n_pulses": (0, lambda v: TcspcConfig(n_pulses=v)),
    "tcspc.bin_width_ps": (0.0, lambda v: check_tcspc_bin(40e6, v)),
    "tcspc.max_lag_gates": (0, lambda v: inter_detection_correlation(
        np.zeros(0, RECORD_DTYPE), v, 8e-10)),
    "chain.dt_ps": (0.0, lambda v: check_sampling(1.25e9, v)),
    "chain.duration_ns": (-1.0, lambda v: check_record(1.25e9, v, 25e-12)),
    "chain.amplitude_pp_v": (-1.0, lambda v: synthesize_gate_train(1.25e9, v, 64e-9)),
    "chain.coupling_gain": (-0.1, lambda v: synthesize_feedthrough(WAVEFORM, v)),
    "chain.stages": (0, lambda v: apply_filter(WAVEFORM, FilterResponseSpec(), stages=v)),
    "chain.n_avalanches": (-1, lambda v: ChainConfig(n_avalanches=v)),
    "chain.threshold_mv": (NAN, lambda v: DiscriminatorConfig(threshold=v)),
    "chain.refractory_ns": (-1.0, lambda v: ChainConfig(refractory=v)),
    "chain.delay_ps": (NAN, lambda v: synthesize_gate_train(1.25e9, 8.0, 64e-9, delay=v)),
    "stability.n_segments": (0, lambda v: stability_run(QkdLinkConfig(), v, 1000, 1)),
    "stability.bits_per_segment": (0, lambda v: stability_run(QkdLinkConfig(), 1, v, 1)),
}


def _override(leaf: str, value) -> dict:
    doc = value
    for key in reversed(leaf.split(".")):
        doc = {key: doc}
    return doc


@pytest.mark.parametrize("leaf", BOUNDED_LEAVES)
def test_each_bound_has_one_wording(leaf):
    value, model_call = BOUNDED_LEAVES[leaf]
    with pytest.raises(ArgumentError) as exc:
        model_call(value)
    assert leaf.rsplit(".", 1)[1].startswith(exc.value.arg)  # the key is the argument plus a unit
    assert validate_config(deep_merge(default_config(), _override(leaf, value))) == [
        f"{leaf}: {exc.value.reason}"]


# sha256 of the configuration shape and of the defaults document, as first
# pinned: building the leaves from the model fields must leave both unchanged
SCHEMA_SHA256 = "4c4cd31988ddfbbf435b69a737318ee9bc798e3592802d25eb0184f0b847a557"
DEFAULTS_SHA256 = "fe662377645b8ffb33b49d0b05ab2ca85a4c4b2e7664bcd6ebc07ca2acca1900"


def test_schema_text_and_defaults_are_pinned():
    assert hashlib.sha256(schema_text().encode()).hexdigest() == SCHEMA_SHA256
    defaults = json.dumps(default_config(), sort_keys=True)
    assert hashlib.sha256(defaults.encode()).hexdigest() == DEFAULTS_SHA256


@pytest.mark.parametrize("build", [
    lambda: JitterModel(tail_span_gates=True),
    lambda: apply_holdoff(np.zeros(0, RECORD_DTYPE), True),
    lambda: RunConfig(n_gates=True, master_seed=1),
    lambda: RunConfig(n_gates=10, master_seed=False),
], ids=["tail_span_gates", "holdoff_gates", "n_gates", "master_seed"])
def test_integers_refuse_bool(build):
    with pytest.raises(ValueError):
        build()


def test_array_arguments_are_checked_elementwise():
    DetectorParams(temperature_c=np.array([-43.0, 20.0]))
    QkdLinkConfig(fiber_loss_db=np.array([0.0, 3.0]))
    with pytest.raises(ArgumentError, match="temperature_c must be a finite number"):
        DetectorParams(temperature_c=np.array([-43.0, NAN]))
    with pytest.raises(ArgumentError, match="fiber_loss_db must be a number >= 0"):
        QkdLinkConfig(fiber_loss_db=np.array([0.0, -1.0]))


# Each class with declared arguments, and the arguments it needs besides them
DECLARING = {
    GateConfig: {}, BiasEfficiencyLaw: {}, JitterModel: {}, AfterpulseModel: {},
    DetectorParams: {}, SourceConfig: {"kind": "pulsed-trigger"}, RunConfig: {"n_gates": 1},
    QkdLinkConfig: {}, FilterResponseSpec: {}, AvalanchePulseShape: {},
    DiscriminatorConfig: {"threshold": -4e-3},
    Histogram: {"bin_width": 4e-12, "origin": 0.0, "counts": np.zeros(1)},
    ChainConfig: {}, TcspcConfig: {}, StabilityConfig: {},
}
SCALAR_ARGS = [(cls, f.name) for cls in DECLARING for f in fields(cls)
               if f.metadata.get("schema", {}).get("type") in ("number", "integer")
               and not f.metadata.get("axis")]


@pytest.mark.parametrize("cls, name", SCALAR_ARGS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in SCALAR_ARGS])
def test_only_sweep_axes_take_arrays(cls, name):
    # an array of valid values builds only on a sweep axis; elsewhere the
    # model would fail later, far from the argument
    valid = getattr(cls(**DECLARING[cls]), name)
    with pytest.raises(ArgumentError) as exc:
        cls(**{**DECLARING[cls], name: np.array([valid, valid])})
    assert exc.value.arg == name
    assert str(exc.value).startswith(f"{name} must be ")


def test_hand_written_rules_use_the_declared_wording():
    with pytest.raises(ArgumentError) as declared:
        SourceConfig.pulsed(trigger_rate=NAN)
    with pytest.raises(ArgumentError) as exc:
        check_tcspc_bin(NAN, 4e-12)
    assert str(exc.value) == str(declared.value) == "trigger_rate must be a number > 0"
    with pytest.raises(ArgumentError, match=r"^n_gates must be an integer >= 1$"):
        RunConfig(n_gates=0)
    with pytest.raises(ArgumentError, match=r"^bin_width must be a number > 0$"):
        Histogram(NAN, 0.0, np.zeros(1))
    with pytest.raises(ArgumentError, match=r"^max_lag_gates must be an integer >= 1$"):
        inter_detection_correlation(np.zeros(0, RECORD_DTYPE), 0.5, 8e-10)
    for measured, source, name in ((NAN, 30e-12, "measured_fwhm"), (76e-12, -1.0, "source_fwhm")):
        with pytest.raises(ArgumentError, match=rf"^{name} must be a number >= 0$"):
            deconvolve_jitter(measured, source)


# Each declared argument of the signal-chain specs, with a value its
# declaration refuses; DiscriminatorConfig also needs its threshold.
CHAIN_ARGS = [
    (FilterResponseSpec, "gate_frequency", 0.0),
    (FilterResponseSpec, "passband_edge", -1.0),
    (FilterResponseSpec, "passband_ripple_db", 0.0),
    (FilterResponseSpec, "rejection_at_gate_db", -54.0),
    (FilterResponseSpec, "rejection_band_floor_db", 0.0),
    (FilterResponseSpec, "rejection_band_halfwidth", 0.0),
    (FilterResponseSpec, "rejection_to_4ghz_db", -40.0),
    (AvalanchePulseShape, "peak_amplitude", 32e-3),
    (AvalanchePulseShape, "fall_time", 0.0),
    (AvalanchePulseShape, "amplitude_jitter", 1.0),
    (AvalanchePulseShape, "width_jitter", -0.1),
    (DiscriminatorConfig, "polarity", "sideways"),
    (DiscriminatorConfig, "refractory_time", -1e-9),
]


@pytest.mark.parametrize("value", ["nan", "out of bound"])
@pytest.mark.parametrize("cls, name, bad", CHAIN_ARGS, ids=[name for _, name, _ in CHAIN_ARGS])
def test_signal_chain_arguments_refuse_nan_and_out_of_bound(cls, name, bad, value):
    args = {"threshold": -4e-3} if cls is DiscriminatorConfig else {}
    with pytest.raises(ArgumentError) as exc:
        cls(**args, **{name: NAN if value == "nan" else bad})
    assert exc.value.arg == name
    assert str(exc.value).startswith(f"{name} must be ")


# Values each law used to take silently, to crash on, or to refuse in
# words of its own; each is now refused in its argument's declared words
PROBES = {
    "stages=1.5": (lambda: apply_filter(WAVEFORM, FilterResponseSpec(), stages=1.5),
                   "stages must be an integer >= 1"),
    "stages=True": (lambda: apply_filter(WAVEFORM, FilterResponseSpec(), stages=True),
                    "stages must be an integer >= 1"),
    "amplitude_pp=True": (lambda: synthesize_gate_train(1.25e9, True, 64e-9),
                          "amplitude_pp must be a number >= 0"),
    "n_segments=2.0": (lambda: stability_run(QkdLinkConfig(), 2.0, 1000, 1),
                       "n_segments must be an integer >= 1"),
    "n_bits=1000.0": (lambda: mc_link_run(QkdLinkConfig(), 1000.0, 1),
                      "n_bits must be an integer >= 1"),
    "ec_efficiency=0.5": (lambda: rate_after_ec(1.0, 0.1, 0.5),
                          "ec_efficiency must be a number >= 1"),
}


@pytest.mark.parametrize("probe", PROBES)
def test_laws_refuse_their_own_arguments_in_the_declared_words(probe):
    call, message = PROBES[probe]
    with pytest.raises(ArgumentError) as exc:
        call()
    assert exc.value.arg == probe.split("=")[0]
    assert str(exc.value) == message
