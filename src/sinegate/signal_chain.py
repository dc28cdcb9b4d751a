"""Analog front end of a sine-gated avalanche photodiode receiver.

The processing chain modeled here: a large sinusoidal gate drives the diode;
capacitive coupling leaks a differentiated copy of the gate (the feedthrough)
into the readout; avalanche pulses ride on top of that feedthrough; a cascade
of identical low-pass filters removes the gate tone and its harmonics; a
level discriminator on the filtered trace timestamps the surviving avalanche
pulses.

Everything works on uniformly sampled voltage traces (`SampledWaveform`).
Filtering is done with a zero-phase Butterworth-magnitude mask in the FFT
domain, so applying one k-stage filter equals applying k one-stage filters
exactly (up to FFT round-off) and linearity is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .declare import (COUNT, FINITE, POSITIVE, ArgumentError, arg, check_args, check_value,
                      required)
from .table import table_chunks, write_chunks

__all__ = [
    "ChainConfig",
    "SampledWaveform",
    "AvalanchePulseShape",
    "FilterResponseSpec",
    "FilterContractReport",
    "DiscriminatorConfig",
    "synthesize_gate_train",
    "synthesize_feedthrough",
    "synthesize_avalanche",
    "apply_filter",
    "lowpass_design",
    "measured_filter_response",
    "verify_filter_contract",
    "power_spectrum",
    "discriminate",
    "SPECTRUM_FLOOR_DB",
    "MAX_RECORD_SAMPLES",
]

# Default sampling grid for self tests: 25 ps = 40 GS/s, 16 samples per 2.5 GHz,
# enough to represent content up to the 4 GHz verification edge with margin.
DEFAULT_DT = 25e-12

# Bins with no power are clamped here instead of -inf.
SPECTRUM_FLOOR_DB = -200.0

# Most samples a synthesized record may hold (the default record has 2560).
MAX_RECORD_SAMPLES = 2**20


@dataclass(frozen=True)
class ChainConfig:
    """A chain-demo run: sampling and record, gate drive and feedthrough,
    filter stages, avalanches, discriminator, and gate delay. The waveform
    laws below refuse these arguments by their declarations here."""

    dt: float = arg(DEFAULT_DT, gt=0, unit="ps")
    duration: float = arg(64e-9, gt=0, unit="ns")
    amplitude_pp: float = arg(8.0, ge=0, unit="v")
    coupling_gain: float = arg(0.1, ge=0)
    stages: int = arg(2, ge=1)
    n_avalanches: int = arg(3, ge=0)
    threshold: float = arg(-4e-3, unit="mv")
    refractory: float = arg(5e-9, ge=0, unit="ns")
    delay: float = arg(0.0, unit="ps")

    __post_init__ = check_args


@dataclass(frozen=True, eq=False)
class SampledWaveform:
    """A uniformly sampled voltage trace, written as a ``time_ps,volts`` table.

    Parameters
    ----------
    samples : ndarray
        Voltage samples in volts. Must be 1-D, non-empty, finite.
    dt : float
        Sample spacing in seconds, > 0.
    t0 : float
        Absolute time of the first sample in seconds.
    """

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        check_value("samples", FINITE, samples, axis=True)
        check_args(ChainConfig, dt=self.dt)
        check_value("t0", FINITE, self.t0)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    @property
    def duration(self) -> float:
        return self.n * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def _check_same_grid(self, other: "SampledWaveform") -> None:
        if self.n != other.n or self.dt != other.dt or self.t0 != other.t0:
            raise ValueError("waveforms are on different sampling grids")

    def __add__(self, other: "SampledWaveform") -> "SampledWaveform":
        self._check_same_grid(other)
        return SampledWaveform(self.samples + other.samples, self.dt, self.t0)

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """Header and columns of the `time_ps,volts` table, one row per sample."""
        return ["time_ps", "volts"], [self.times * 1e12, self.samples]

    def to_csv(self, path) -> None:
        write_chunks(path, table_chunks(*self.table()))


@dataclass(frozen=True)
class AvalanchePulseShape:
    """Shape of a discriminator-bound avalanche pulse after the analog chain.

    The pulse is negative going: an instantaneous drop to `peak_amplitude`
    followed by a single-exponential recovery whose 10-90 % fall time is
    `fall_time` (time constant fall_time/ln 9). Amplitude varies from pulse
    to pulse with a truncated normal (never crossing zero); the recovery
    time constant varies with a log-normal factor of median 1.
    """

    peak_amplitude: float = arg(-32e-3, lt=0)
    fall_time: float = arg(1.8e-9, gt=0)
    amplitude_jitter: float = arg(0.2, ge=0, lt=1)
    width_jitter: float = arg(0.15, ge=0, lt=1)

    __post_init__ = check_args

    @property
    def fall_tau(self) -> float:
        """Exponential time constant giving the configured 10-90 % fall."""
        return self.fall_time / math.log(9.0)


@dataclass(frozen=True)
class FilterResponseSpec:
    """Response contract for one low-pass stage of the extraction cascade.

    All rejections are positive attenuation magnitudes in dB. The passband
    (DC to `passband_edge`) must stay within +-`passband_ripple_db` of unity;
    the gate tone must be suppressed by at least `rejection_at_gate_db`, by
    `rejection_band_floor_db` everywhere within `rejection_band_halfwidth`
    of the gate frequency, and by `rejection_to_4ghz_db` from the gate
    frequency up to 4 GHz.
    """

    gate_frequency: float = arg(1.25e9, gt=0)
    passband_edge: float = arg(600e6, gt=0)
    passband_ripple_db: float = arg(1.0, gt=0)
    rejection_at_gate_db: float = arg(54.0, gt=0)
    rejection_band_floor_db: float = arg(50.0, gt=0)
    rejection_band_halfwidth: float = arg(50e6, gt=0)
    rejection_to_4ghz_db: float = arg(40.0, gt=0)

    def __post_init__(self) -> None:
        check_args(self)
        if self.passband_edge >= self.gate_frequency:
            raise ArgumentError("passband_edge", "must lie below the gate frequency")
        if self.rejection_band_halfwidth >= self.gate_frequency - self.passband_edge:
            raise ArgumentError("rejection_band_halfwidth", "must keep the rejection band "
                                "clear of the passband")


def _stage_law(f, fc: float, order: int):
    """1 + (f/fc)**(2*order): the inverse power gain |H(f)|**-2 of one Butterworth stage."""
    return 1.0 + (f / fc) ** (2 * order)


@lru_cache(maxsize=32)
def lowpass_design(spec: FilterResponseSpec) -> tuple[int, float]:
    """(Butterworth order, cutoff Hz) of the smallest order meeting `spec`; see apply_filter.

    fc is placed so the magnitude is exactly -passband_ripple_db at the
    passband edge; the response is monotone, so only the lower edge of the
    rejection band and the gate frequency need checking.
    """
    band_lo = spec.gate_frequency - spec.rejection_band_halfwidth
    gate_floor_db = max(spec.rejection_at_gate_db, spec.rejection_to_4ghz_db)
    for order in range(2, 41):
        # |H(edge)| = -ripple  =>  (edge/fc)^(2n) = 10^(ripple/10) - 1
        fc = spec.passband_edge / (10 ** (spec.passband_ripple_db / 10.0) - 1.0) ** (
            1.0 / (2 * order)
        )
        if (
            10.0 * math.log10(_stage_law(band_lo, fc, order)) >= spec.rejection_band_floor_db
            and 10.0 * math.log10(_stage_law(spec.gate_frequency, fc, order)) >= gate_floor_db
        ):
            return order, fc
    raise ValueError(f"no Butterworth order up to 40 satisfies {spec}")


def check_sampling(freq: float, dt: float) -> None:
    """Refuse a sample step `dt` coarser than an eighth of the gate period,
    so the sine is comfortably oversampled."""
    check_value("freq", POSITIVE, freq)
    check_args(ChainConfig, dt=dt)
    if dt > 1.0 / (8.0 * freq):
        raise ArgumentError("dt", "must sample the gate frequency at least 8x")


def check_record(freq: float, duration: float, dt: float) -> None:
    """Refuse a record that is not a whole number of gate periods, at least
    one, in at most `MAX_RECORD_SAMPLES` samples of a `dt` that passes
    `check_sampling`; `freq` must be positive. The FFT filter treats the
    record as periodic, so a partial last period leaks feedthrough."""
    check_args(ChainConfig, duration=duration)
    if duration < 1.0 / freq:
        raise ArgumentError("duration", "must cover at least one gate period")
    check_sampling(freq, dt)
    if duration / dt > MAX_RECORD_SAMPLES:  # inf when dt is subnormal
        raise ArgumentError("dt", f"must split the duration into at most {MAX_RECORD_SAMPLES} samples")
    periods = round(duration / dt) * dt * freq  # the record is round(duration/dt) samples
    if abs(periods - round(periods)) > 1e-6:
        raise ArgumentError("duration", "must be a whole number of gate periods")


def synthesize_gate_train(
    freq: float,
    amplitude_pp: float,
    duration: float,
    dt: float = DEFAULT_DT,
    delay: float = 0.0,
) -> SampledWaveform:
    """Sinusoidal gate train: 0.5*amplitude_pp*sin(2*pi*freq*(t + delay)).

    `delay` advances the phase by 2*pi*freq*delay, so a delay of one full
    period reproduces the undelayed train. The record must pass `check_record`.
    """
    check_sampling(freq, dt)  # first: `check_record` divides by freq
    check_record(freq, duration, dt)
    check_args(ChainConfig, amplitude_pp=amplitude_pp, delay=delay)
    n = int(round(duration / dt))
    t = dt * np.arange(n)
    samples = 0.5 * amplitude_pp * np.sin(2.0 * np.pi * freq * (t + delay))
    return SampledWaveform(samples, dt)


def _dominant_frequency(w: SampledWaveform) -> float | None:
    """Frequency of the strongest non-DC FFT bin, or None for a silent trace."""
    spectrum = np.fft.rfft(w.samples)
    mag = np.abs(spectrum)
    if mag.size < 2:
        return None
    mag[0] = 0.0
    k = int(np.argmax(mag))
    if mag[k] == 0.0:
        return None
    return k / (w.n * w.dt)


def synthesize_feedthrough(
    gate: SampledWaveform, coupling_gain: float = 0.1
) -> SampledWaveform:
    """Capacitively coupled copy of the gate: d/dt, unity gain at the gate tone.

    The derivative is taken in the FFT domain and normalized by the dominant
    frequency of the input, so a pure sine maps to a same-amplitude cosine
    (+90 degrees) times `coupling_gain`. A silent input maps to a silent
    output. Default gain 0.1 makes the unfiltered feedthrough of an 8 Vpp
    gate (400 mV amplitude) exceed the nominal 32 mV avalanche peak by more
    than an order of magnitude.
    """
    check_args(ChainConfig, coupling_gain=coupling_gain)
    f0 = _dominant_frequency(gate)
    if f0 is None or coupling_gain == 0.0:
        return SampledWaveform(np.zeros(gate.n), gate.dt, gate.t0)
    freqs = np.fft.rfftfreq(gate.n, gate.dt)
    response = 1j * freqs / f0
    samples = np.fft.irfft(np.fft.rfft(gate.samples) * response, n=gate.n)
    return SampledWaveform(coupling_gain * samples, gate.dt, gate.t0)


def synthesize_avalanche(
    shape: AvalanchePulseShape,
    grid: SampledWaveform,
    t_event: float,
    rng: np.random.Generator,
) -> SampledWaveform:
    """One avalanche pulse on the time base of `grid` (samples of `grid` ignored).

    Draw order is fixed (amplitude, then width factor) so a given generator
    state always produces the same pulse. The amplitude is redrawn until
    negative, which truncates the normal at zero. t_event must lie within
    the grid span; a pulse at the very start is simply truncated.
    """
    if not (grid.t0 <= t_event <= grid.t0 + grid.duration):
        raise ValueError(
            f"t_event={t_event} outside waveform span "
            f"[{grid.t0}, {grid.t0 + grid.duration}]"
        )
    if shape.amplitude_jitter > 0:
        sigma = abs(shape.peak_amplitude) * shape.amplitude_jitter
        amplitude = rng.normal(shape.peak_amplitude, sigma)
        while amplitude >= 0.0:
            amplitude = rng.normal(shape.peak_amplitude, sigma)
    else:
        amplitude = shape.peak_amplitude
    width_factor = math.exp(rng.normal(0.0, shape.width_jitter)) if shape.width_jitter > 0 else 1.0
    tau = shape.fall_tau * width_factor
    dt_from_event = grid.times - t_event
    decay = np.exp(-np.maximum(dt_from_event, 0.0) / tau)
    samples = np.where(dt_from_event >= 0.0, amplitude * decay, 0.0)
    return SampledWaveform(samples, grid.dt, grid.t0)


def apply_filter(
    w: SampledWaveform, spec: FilterResponseSpec, stages: int = 1
) -> SampledWaveform:
    """Run `w` through `stages` identical low-pass stages meeting `spec`.

    Zero-phase FFT-domain mask; k stages raise the stage magnitude to the
    k-th power, so cascading is exact. The sample rate must be able to
    represent the gate frequency.
    """
    check_args(ChainConfig, stages=stages)
    if w.sample_rate < 2.0 * spec.gate_frequency:
        raise ValueError(
            f"sample rate {w.sample_rate:.3g} Hz cannot represent the "
            f"{spec.gate_frequency:.3g} Hz gate"
        )
    order, fc = lowpass_design(spec)
    magnitude = _stage_law(np.fft.rfftfreq(w.n, w.dt), fc, order) ** -0.5
    filtered = np.fft.irfft(np.fft.rfft(w.samples) * magnitude**stages, n=w.n)
    return SampledWaveform(filtered, w.dt, w.t0)


def _check_grid(dt: float, n_samples: int) -> None:
    """Refuse a measurement grid's sample spacing or length before either divides."""
    check_args(ChainConfig, dt=dt)
    check_value("n_samples", COUNT, n_samples)


def measured_filter_response(
    spec: FilterResponseSpec,
    freqs,
    dt: float = DEFAULT_DT,
    stages: int = 1,
    n_samples: int = 1 << 16,
) -> np.ndarray:
    """Multitone gain measurement through `apply_filter`: every tone in one pass.

    Each requested frequency is snapped to FFT bin k = max(1, round(f/df)),
    df = 1/(n_samples*dt), so no tone leaks into another's bin. One stimulus
    holds a unit-amplitude sine at every requested bin; it goes through
    `apply_filter` once, and each tone's gain is |rfft(out)[k]| /
    |rfft(stimulus)[k]| in dB. Returns an array of (frequency_hz, gain_db)
    rows, one per requested frequency. A non-finite frequency or a bin at or
    above Nyquist (2k >= n_samples) raises ValueError. This measures the
    behavior of the filtering path itself rather than evaluating the design
    formula.
    """
    _check_grid(dt, n_samples)
    df = 1.0 / (n_samples * dt)
    freqs = np.asarray(freqs, dtype=float)
    check_value("freqs", FINITE, freqs, axis=True)
    bins = np.maximum(1, np.round(freqs / df)).astype(np.int64)
    if np.any(2 * bins >= n_samples):
        raise ValueError(
            f"tone at {bins.max() * df:.6g} Hz is at or above Nyquist "
            f"({0.5 / dt:.6g} Hz) for dt={dt}"
        )
    spectrum = np.zeros(n_samples // 2 + 1, dtype=complex)
    spectrum[bins] = -0.5j * n_samples  # rfft of sin(2*pi*k*m/n_samples)
    stimulus = SampledWaveform(np.fft.irfft(spectrum, n=n_samples), dt)
    out = apply_filter(stimulus, spec, stages=stages)
    gain = np.abs(np.fft.rfft(out.samples)[bins]) / np.abs(np.fft.rfft(stimulus.samples)[bins])
    return np.column_stack([bins * df, 20.0 * np.log10(np.maximum(gain, 1e-30))])


@dataclass(frozen=True)
class FilterContractReport:
    """Outcome of the built-in multitone verification of one filter stage."""

    response: np.ndarray  # (frequency_hz, gain_db) rows
    passband_ok: bool
    gate_ok: bool
    band_ok: bool
    wideband_ok: bool
    worst_passband_gain_db: float
    gate_attenuation_db: float
    worst_band_attenuation_db: float
    worst_wideband_attenuation_db: float

    @property
    def ok(self) -> bool:
        return self.passband_ok and self.gate_ok and self.band_ok and self.wideband_ok


def verify_filter_contract(
    spec: FilterResponseSpec,
    dt: float = DEFAULT_DT,
    n_samples: int = 1 << 16,
) -> FilterContractReport:
    """Sweep one stage from 100 MHz below the passband up to 4 GHz and check `spec`.

    Grid: a dozen passband tones up to the edge (bins rounded down), 5 MHz
    steps across the rejection band (bins rounded up, but kept inside it),
    50 MHz steps from the gate frequency to 4 GHz and the gate itself (bins
    rounded up). All tones are measured in one `measured_filter_response`
    pass; each check takes the worst tone of its group. A grid reaching
    Nyquist raises ValueError.
    """
    _check_grid(dt, n_samples)
    if dt > 1.0 / 8e9:
        raise ValueError("need at least 8 GS/s to verify the response up to 4 GHz")
    df = 1.0 / (n_samples * dt)
    band_lo = spec.gate_frequency - spec.rejection_band_halfwidth
    band_hi = spec.gate_frequency + spec.rejection_band_halfwidth
    passband = np.maximum(1, np.floor(
        np.linspace(0.05 * spec.passband_edge, spec.passband_edge, 12) / df))
    band = np.minimum(np.ceil(np.arange(band_lo, band_hi + 2.5e6, 5e6) / df),
                      math.floor(band_hi / df))
    wideband = np.ceil(np.arange(spec.gate_frequency, 4e9 + 1.0, 50e6) / df)
    gate = math.ceil(spec.gate_frequency / df)

    # not np.unique: it imports numpy.ma, 1.6 MB of resident memory
    bins = np.array(sorted({int(k) for g in (passband, band, wideband, [gate]) for k in g}))
    response = measured_filter_response(spec, bins * df, dt=dt, stages=1, n_samples=n_samples)

    def gains(group):
        return response[np.searchsorted(bins, group), 1]

    gate_att = -gains(gate)
    worst_band = -gains(band).max()
    worst_wide = -gains(wideband).max()
    return FilterContractReport(
        response=response,
        passband_ok=bool(np.all(np.abs(gains(passband)) <= spec.passband_ripple_db)),
        gate_ok=gate_att >= spec.rejection_at_gate_db,
        band_ok=worst_band >= spec.rejection_band_floor_db,
        wideband_ok=worst_wide >= spec.rejection_to_4ghz_db,
        worst_passband_gain_db=gains(passband).min(),
        gate_attenuation_db=gate_att,
        worst_band_attenuation_db=worst_band,
        worst_wideband_attenuation_db=worst_wide,
    )


def power_spectrum(w: SampledWaveform) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectrum in dB, DC to Nyquist.

    Normalized so a unit DC level reports 0 dB and a unit-amplitude sine
    reports -3.01 dB; the linear bin powers sum to the mean square of the
    samples (Parseval). Empty bins are clamped at SPECTRUM_FLOOR_DB; a bin
    power past the float range is refused.
    """
    if w.n < 2:
        raise ValueError("power_spectrum needs at least 2 samples")
    spectrum = np.fft.rfft(w.samples) / w.n
    power = np.abs(spectrum) ** 2
    if not np.all(np.isfinite(power)):
        raise ValueError("bin power overflows")
    power[1:] *= 2.0
    if w.n % 2 == 0:
        power[-1] /= 2.0  # Nyquist bin is not duplicated
    freqs = np.fft.rfftfreq(w.n, w.dt)
    floor = 10.0 ** (SPECTRUM_FLOOR_DB / 10.0)
    power_db = 10.0 * np.log10(np.maximum(power, floor))
    return freqs, power_db


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Level discriminator: threshold volts, polarity, dead time after a hit."""

    threshold: float = required("number")
    polarity: str = arg("negative-going", enum=("negative-going", "positive-going"))
    refractory_time: float = arg(0.0, ge=0)

    __post_init__ = check_args


def discriminate(w: SampledWaveform, cfg: DiscriminatorConfig) -> np.ndarray:
    """Interpolated threshold-crossing times, refractory-filtered.

    A negative-going crossing is sample[i-1] > threshold >= sample[i]; the
    crossing instant is found by linear interpolation between the two
    samples. Crossings closer than `refractory_time` to the last reported
    one are swallowed. Times are absolute (t0-referenced), so shifting the
    waveform in time shifts the output by the same amount.
    """
    s = w.samples if cfg.polarity == "negative-going" else -w.samples
    thr = cfg.threshold if cfg.polarity == "negative-going" else -cfg.threshold
    above = s > thr
    idx = np.nonzero(above[:-1] & ~above[1:])[0] + 1
    if idx.size == 0:
        return np.empty(0)
    frac = (thr - s[idx - 1]) / (s[idx] - s[idx - 1])
    times = w.t0 + (idx - 1 + frac) * w.dt
    if cfg.refractory_time == 0.0:
        return times
    kept = [times[0]]
    for t in times[1:]:
        if t - kept[-1] > cfg.refractory_time:
            kept.append(t)
    return np.asarray(kept)
