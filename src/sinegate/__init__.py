"""Simulation and analysis toolkit for a GHz sine-gated single-photon detector.

The package models the full receive chain of an InGaAs/InP avalanche
photodiode gated with a 1.25 GHz sine wave and read out through a low-pass
filter cascade:

``signal_chain``
    Analog layer. Gate synthesis, capacitive feedthrough, avalanche pulse
    shapes, the low-pass extraction filter (with a self-verifying response
    contract), spectra, and a level discriminator.
``declare``
    How a model argument is declared (bounds, unit, allowed strings), checked,
    and worded when refused, for the model and the configuration alike.
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
    ``sinegate`` command-line front end. A detector calibration is a
    configuration's ``detector`` section, read by ``config.load_config``.
``table``
    The one CSV/JSON table writer behind every emitted artifact.

Import from the submodules (``from sinegate.mc_engine import run_simulation``);
each submodule's ``__all__`` is its public API, and the package itself
exports only ``__version__``.

All randomness flows from one master seed through named ``SeedSequence``
spawns, so any run is reproducible bit for bit, whatever the number of
worker processes.
"""

__version__ = "0.1.0"
