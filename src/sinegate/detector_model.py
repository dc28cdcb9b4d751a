"""Statistical model of a sine-gated InGaAs avalanche photodiode.

Calibrated laws, each usable on its own:

* `GateConfig` / `gate_profile`: Gaussian temporal sensitivity window with
  unit peak, periodic with the gate clock (default: 130 ps FWHM every
  800 ps).
* `BiasEfficiencyLaw`: linear peak-efficiency vs. bias anchored at
  0.10 @ 53.5 V, zero at/below breakdown; the only source of the peak
  detection efficiency.
* `TemperatureDarkLaw`: per-gate dark-avalanche probability vs. temperature,
  log-linear between table anchors.
* `JitterModel`: Gaussian timing core (sigma ~ 29.7 ps, i.e. 70 ps FWHM) plus
  a small probability that the discriminated time slips uniformly into one
  of the next few gates (the "tail").
* `AfterpulseModel`: expected-value carrier trapping; every avalanche fills
  `trap_fill_per_detection` traps which release exponentially and can
  retrigger later gates.

`DetectorParams` bundles the laws with the operating point (bias voltage,
temperature) and owns the one click law (`click_prob`). A calibration on
disk is a configuration's `detector` section, read and validated by
`config.load_config`. Each argument is declared on its field (`declare`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .declare import (FINITE, POSITIVE, ArgumentError, arg, check_args, check_value, float_or_array,
                      fragment)

__all__ = [
    "ModelRangeError",
    "GateConfig",
    "BiasEfficiencyLaw",
    "TemperatureDarkLaw",
    "JitterModel",
    "AfterpulseModel",
    "DetectorParams",
    "gate_profile",
    "efficiency_at_bias",
    "dark_prob",
    "clicks",
    "sample_detection_times",
    "FWHM_TO_SIGMA",
    "DEFAULT_DARK_TABLE",
]

# FWHM = 2*sqrt(2*ln 2) * sigma for a Gaussian.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


class ModelRangeError(ValueError):
    """An input lies outside the calibrated range of a model law."""


@dataclass(frozen=True)
class GateConfig:
    """Periodic Gaussian sensitivity window of the gated diode.

    Only the window's clock and width: the peak efficiency is the bias law's.
    """

    gate_frequency: float = arg(1.25e9, gt=0, unit="hz")
    gate_fwhm: float = arg(130e-12, gt=0, unit="ps")

    def __post_init__(self) -> None:
        check_args(self)
        if not self.gate_fwhm < self.gate_period:
            raise ArgumentError("gate_fwhm", "must be below one gate period")

    @property
    def gate_period(self) -> float:
        return 1.0 / self.gate_frequency


def gate_profile(cfg: GateConfig, delay) -> np.ndarray | float:
    """Relative sensitivity at a photon-vs-gate delay, periodic in the gate clock.

    Gaussian with the configured FWHM and unit peak at zero delay (and every
    whole gate period). Accepts scalars or arrays.
    """
    delay = np.asarray(delay, dtype=float)
    check_value("delay", FINITE, delay, axis=True)
    period = cfg.gate_period
    wrapped = delay - period * np.round(delay / period)
    return float_or_array(np.exp(-4.0 * math.log(2.0) * (wrapped / cfg.gate_fwhm) ** 2))


@dataclass(frozen=True)
class BiasEfficiencyLaw:
    """Linear peak-efficiency law above breakdown, clamped to [0, 1].

    `slope_per` is the efficiency gained per volt above the anchor bias.
    """

    anchor_bias: float = arg(53.5, unit="v")
    anchor_efficiency: float = arg(0.10, ge=0, le=1)
    slope_per: float = arg(0.05, gt=0, unit="v")
    breakdown_bias: float = arg(51.5, unit="v")

    def __post_init__(self) -> None:
        check_args(self)
        if self.breakdown_bias >= self.anchor_bias and self.anchor_efficiency > 0:
            raise ArgumentError("breakdown_bias", "must lie below the anchor bias "
                                "when the anchor efficiency is above 0")


def efficiency_at_bias(law: BiasEfficiencyLaw, bias) -> np.ndarray | float:
    """Peak efficiency at a bias voltage: 0 at/below breakdown, else linear, clamped.
    Accepts scalars or arrays, like `gate_profile`."""
    bias = np.asarray(bias, dtype=float)
    check_value("bias", FINITE, bias, axis=True)  # a grid, where `DetectorParams.bias` is not
    value = np.clip(law.anchor_efficiency + law.slope_per * (bias - law.anchor_bias), 0.0, 1.0)
    return float_or_array(np.where(bias <= law.breakdown_bias, 0.0, value))


# Anchors: quoted operating points at -43 C (6e-7), -35 C (7e-7) and +20 C
# (1.5e-5); held flat below -43 C. Intermediate points are implementer-digitized
# (non-normative) and only shape the interpolation between the quoted anchors.
DEFAULT_DARK_TABLE: tuple[tuple[float, float], ...] = (
    (-45.0, 6e-7),
    (-43.0, 6e-7),
    (-35.0, 7e-7),
    (-25.0, 1.2e-6),
    (-15.0, 2.1e-6),
    (-5.0, 3.8e-6),
    (5.0, 6.6e-6),
    (15.0, 1.1e-5),
    (20.0, 1.5e-5),
)

# Every dark table must reach at least this far (C): the span of the quoted anchors.
DARK_TABLE_SPAN_C = (-45.0, 20.0)


@dataclass(frozen=True)
class TemperatureDarkLaw:
    """Dark-avalanche probability per gate vs. temperature (log-linear between anchors)."""

    table: tuple[tuple[float, float], ...] = field(default=DEFAULT_DARK_TABLE, metadata={"schema": {
        "type": "array",
        "description": "a list of at least 2 [temperature_c, probability] pairs, probability in (0, 1)",
        "minItems": 2,
        "items": {"type": "array", "minItems": 2, "maxItems": 2,
                  "items": [FINITE, fragment("number", gt=0, lt=1)]},
    }})

    def __post_init__(self) -> None:
        check_args(self)
        table = tuple((float(t), float(p)) for t, p in self.table)
        temps = [t for t, _ in table]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ArgumentError("table", "must hold strictly increasing temperatures")
        if temps[0] > DARK_TABLE_SPAN_C[0] or temps[-1] < DARK_TABLE_SPAN_C[1]:
            raise ArgumentError("table", "must cover [-45, +20] C")
        object.__setattr__(self, "table", table)

    @property
    def temperatures(self) -> np.ndarray:
        return np.asarray([t for t, _ in self.table])

    @property
    def probabilities(self) -> np.ndarray:
        return np.asarray([p for _, p in self.table])


def dark_prob(law: TemperatureDarkLaw, temperature_c) -> np.ndarray | float:
    """Per-gate dark probability at temperatures inside the table range.

    Interpolation is linear in log(probability) vs. temperature, and table
    anchors reproduce exactly. Extrapolation is refused, naming the first
    temperature outside the table. Accepts scalars or arrays.
    """
    t = np.asarray(temperature_c, dtype=float)
    check_args(DetectorParams, temperature_c=t)
    temps, probs = law.temperatures, law.probabilities
    outside = (t < temps[0]) | (t > temps[-1])
    if outside.any():
        raise ModelRangeError(
            f"temperature {t[outside][0]} C outside calibrated range "
            f"[{temps[0]}, {temps[-1]}] C"
        )
    nearest = np.minimum(np.searchsorted(temps, t), temps.size - 1)
    # anchors reproduce bit-exactly, not through the log round trip
    interpolated = np.exp(np.interp(t, temps, np.log(probs)))
    return float_or_array(np.where(temps[nearest] == t, probs[nearest], interpolated))


@dataclass(frozen=True)
class JitterModel:
    """Discriminated-time statistics around the gate center.

    With probability 1-tail_fraction the time is gate center + N(0, sigma);
    with probability tail_fraction the detection slips into one of the next
    `tail_span_gates` gates (uniformly chosen), with the same Gaussian spread
    around that gate's center.
    """

    sigma: float = arg(70e-12 * FWHM_TO_SIGMA, ge=0, unit="ps")
    tail_fraction: float = arg(0.024, ge=0, lt=1)
    tail_span_gates: int = arg(3, ge=1)

    __post_init__ = check_args

    @property
    def fwhm(self) -> float:
        return self.sigma / FWHM_TO_SIGMA


def clicks(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted offsets in [0, n) that click, each independently with probability p.

    Exact for any p in [0, 1]: walks the geometric gaps between clicks. A
    gap is floor(E / -log1p(-p)) + 1 slots for a standard exponential E
    (Devroye 1986, ch. X.2), so the offsets are the running sums of the gaps
    from -1. Exponentials come in blocks of n*p + 4*sqrt(n*p) + 16, which
    almost always reach past n in one; another block is drawn while the last
    offset is below n. Nothing is drawn when n or p is 0. For a subnormal p
    a gap is inf, never NaN (E is divided, not scaled by inf).
    """
    if n <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    rate = -math.log1p(-p) if p < 1.0 else math.inf  # inf: every gap is one slot
    block = int(n * p + 4.0 * math.sqrt(n * p) + 16.0)
    # offsets as floats: whole numbers, exact below 2**53, and inf past any n
    walks, last = [], -1.0
    while last < n:
        offsets = rng.standard_exponential(block)
        with np.errstate(over="ignore"):  # a subnormal p's gaps reach past any n
            offsets /= rate
        np.floor(offsets, out=offsets)
        offsets += 1.0
        np.cumsum(offsets, out=offsets)
        offsets += last
        walks.append(offsets)
        last = offsets.item(-1)
    offsets = walks[0] if len(walks) == 1 else np.concatenate(walks)
    return offsets[:np.searchsorted(offsets, n)].astype(np.int64)


def sample_detection_times(
    j: JitterModel,
    gate_indices: np.ndarray,
    gate_period: float,
    rng: np.random.Generator,
    sigma=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Discriminated times of avalanches in `gate_indices`; returns (times, in_tail).

    Each time is one Gaussian around its (tail) gate center, of width `sigma`
    (default `j.sigma`), a scalar or one width per avalanche.
    Draw protocol is fixed so a given generator state maps to one output:
    the tail avalanches' positions (`clicks` at `j.tail_fraction`), one
    Gaussian offset per avalanche, then one tail gate choice per tail
    avalanche only (none when there is no tail).
    """
    gate_indices = np.asarray(gate_indices)
    check_value("gate_period", POSITIVE, gate_period)
    n = gate_indices.size
    tails = clicks(rng, n, j.tail_fraction)
    z = rng.standard_normal(n)
    times = gate_indices * gate_period
    if tails.size:
        k = rng.integers(1, j.tail_span_gates + 1, size=tails.size)
        k += gate_indices[tails]
        times[tails] = k * gate_period
    # in place: z becomes each avalanche's offset
    z *= j.sigma if sigma is None else sigma
    times += z
    in_tail = np.zeros(n, dtype=bool)
    in_tail[tails] = True
    return times, in_tail


@dataclass(frozen=True)
class AfterpulseModel:
    """Expected-value trap population model for afterpulsing.

    Not calibrated to any measured device: defaults exist to make the
    correlation-based diagnostics exercisable. With the default 0.8 ns gate
    period the default (fill, lifetime, trigger) combination has
    `branching_ratio` 1.25, so chains run away; `refuse_runaway` refuses any
    enabled model whose ratio is 1 or more, and `validate_config` and
    `run_simulation` both call it. Pick a shorter lifetime or a smaller
    trigger probability. Disabled unless `enabled` is set.
    """

    trap_fill_per_detection: float = arg(0.1, ge=0)
    release_lifetime: float = arg(1e-6, gt=0, unit="ns")
    trigger_prob_per_gate: float = arg(1e-2, ge=0, le=1)
    enabled: bool = arg(False)

    __post_init__ = check_args

    def branching_ratio(self, gate_period: float) -> float:
        """Mean afterpulses per avalanche, fill*trigger/(1 - exp(-T_gate/lifetime)).

        Sums the hazard from the filling gate on, so it errs high by
        exp(T_gate/lifetime). Chains are finite only below 1. The ratio is 0
        when fill*trigger is, and inf when T_gate/lifetime underflows to 0.
        """
        fill = self.trap_fill_per_detection * self.trigger_prob_per_gate
        release = -math.expm1(-gate_period / self.release_lifetime)
        if fill == 0:
            return 0.0
        return fill / release if release > 0 else math.inf

    def refuse_runaway(self, gate_period: float) -> None:
        """Raise `ArgumentError` when the model is enabled and its chains run away."""
        if self.enabled and (ratio := self.branching_ratio(gate_period)) >= 1.0:
            raise ArgumentError("afterpulse", f"must have a branching ratio below 1, not "
                                f"{ratio:.3g}: afterpulse chains would run away")


@dataclass(frozen=True)
class DetectorParams:
    """Calibrated device model plus operating point.

    `dark_law=None` switches the dark channel off entirely (useful for
    photon-only studies); otherwise the per-gate dark probability comes from
    the temperature law at `temperature_c`. `temperature_c` may be an array
    of temperatures, as `qkd_budget.sweep` builds it for a temperature axis.
    """

    gate: GateConfig = field(default_factory=GateConfig)
    bias_law: BiasEfficiencyLaw = field(default_factory=BiasEfficiencyLaw)
    dark_law: TemperatureDarkLaw | None = field(default_factory=TemperatureDarkLaw)
    jitter: JitterModel = field(default_factory=JitterModel)
    afterpulse: AfterpulseModel = field(default_factory=AfterpulseModel)
    bias: float = arg(53.5, unit="v")
    temperature_c: float = arg(-43.0, axis=True)

    __post_init__ = check_args

    def effective_efficiency(self, alignment_delay=0.0) -> np.ndarray | float:
        """Detection efficiency at the alignment delay: the bias law's peak
        efficiency at the operating bias, seen through the gate window.
        Accepts scalars or arrays, like `gate_profile`."""
        return efficiency_at_bias(self.bias_law, self.bias) * gate_profile(self.gate, alignment_delay)

    def click_prob(self, mean_photons, alignment_delay=0.0) -> np.ndarray | float:
        """Probability that a Poisson pulse of `mean_photons` makes an avalanche,
        1 - exp(-eta * mean_photons) at the efficiency of `alignment_delay`.
        Accepts scalars or arrays."""
        eta = self.effective_efficiency(alignment_delay)
        return float_or_array(1.0 - np.exp(-eta * mean_photons))

    def dark_prob_per_gate(self) -> float:
        if self.dark_law is None:
            return 0.0
        return dark_prob(self.dark_law, self.temperature_c)
