"""Simulation and analysis toolkit for a GHz sine-gated single-photon detector.

The package models the full receive chain of an InGaAs/InP avalanche
photodiode gated with a 1.25 GHz sine wave and read out through a low-pass
filter cascade:

``signal_chain``
    Analog layer. Gate synthesis, capacitive feedthrough, avalanche pulse
    shapes, the low-pass extraction filter (with a self-verifying response
    contract), spectra, and a level discriminator.
``detector_model``
    Calibrated device laws. Gaussian gate profile, a linear bias-efficiency
    law, a dark-count table interpolated log-linearly in temperature,
    timing jitter with a subsequent-gate tail, and a trapped-carrier
    afterpulse model.
``mc_engine``
    Gate-by-gate Monte Carlo producing detection records, with holdoff,
    TCSPC histogramming, jitter estimation, and lag-correlation statistics.
``qkd_budget``
    Analytic link budget for a coherent-one-way-style time-bin link plus a
    Monte Carlo cross-check of its rate and error predictions.
``config`` / ``cli``
    JSON configuration (one declared shape, validated and published as a
    JSON Schema by ``config.schema_text()``) and the
    ``sinegate`` command-line front end.

All randomness flows from one master seed through named ``SeedSequence``
spawns, so any run is reproducible bit for bit, whatever the number of
worker processes.
"""

from .signal_chain import (
    AvalanchePulseShape,
    DiscriminatorConfig,
    FilterContractReport,
    FilterResponseSpec,
    SampledWaveform,
    apply_filter,
    discriminate,
    lowpass_design,
    measured_filter_response,
    power_spectrum,
    synthesize_avalanche,
    synthesize_feedthrough,
    synthesize_gate_train,
    verify_filter_contract,
)
from .detector_model import (
    AfterpulseModel,
    BiasEfficiencyLaw,
    DetectorParams,
    GateConfig,
    JitterModel,
    ModelRangeError,
    TemperatureDarkLaw,
    dark_prob,
    efficiency_at_bias,
    gate_profile,
    sample_detection_times,
)
from .mc_engine import (
    Histogram,
    RunConfig,
    RunResult,
    SourceConfig,
    apply_holdoff,
    deconvolve_jitter,
    estimate_fwhm,
    geometric_lag_gof,
    inter_detection_correlation,
    run_simulation,
    short_lag_excess_pvalue,
    subsequent_gate_fraction,
    tcspc_histogram,
)
from .qkd_budget import (
    QkdLinkConfig,
    QkdReport,
    binary_entropy,
    evaluate,
    fiber_db_to_length,
    mc_link_run,
    mu_at_detector,
    qber,
    raw_detection_rate,
    rate_after_ec,
    secret_rate_estimate,
    stability_run,
    sweep,
)
from .config import ConfigError, FullConfig, default_config, load_config

__version__ = "0.1.0"

__all__ = [
    "AfterpulseModel",
    "AvalanchePulseShape",
    "BiasEfficiencyLaw",
    "ConfigError",
    "DetectorParams",
    "DiscriminatorConfig",
    "FilterContractReport",
    "FilterResponseSpec",
    "FullConfig",
    "GateConfig",
    "Histogram",
    "JitterModel",
    "ModelRangeError",
    "QkdLinkConfig",
    "QkdReport",
    "RunConfig",
    "RunResult",
    "SampledWaveform",
    "SourceConfig",
    "TemperatureDarkLaw",
    "apply_filter",
    "apply_holdoff",
    "binary_entropy",
    "dark_prob",
    "deconvolve_jitter",
    "default_config",
    "discriminate",
    "efficiency_at_bias",
    "estimate_fwhm",
    "evaluate",
    "fiber_db_to_length",
    "gate_profile",
    "geometric_lag_gof",
    "inter_detection_correlation",
    "load_config",
    "lowpass_design",
    "mc_link_run",
    "measured_filter_response",
    "mu_at_detector",
    "power_spectrum",
    "qber",
    "rate_after_ec",
    "raw_detection_rate",
    "run_simulation",
    "sample_detection_times",
    "secret_rate_estimate",
    "short_lag_excess_pvalue",
    "stability_run",
    "subsequent_gate_fraction",
    "sweep",
    "synthesize_avalanche",
    "synthesize_feedthrough",
    "synthesize_gate_train",
    "tcspc_histogram",
    "verify_filter_contract",
]
