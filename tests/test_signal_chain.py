"""Analog-layer tests: waveforms, synthesis, filtering, discrimination."""

import math

import numpy as np
import pytest

from sinegate.declare import ArgumentError
from sinegate.signal_chain import (
    SPECTRUM_FLOOR_DB,
    AvalanchePulseShape,
    DiscriminatorConfig,
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

GATE_FREQ = 1.25e9
DT = 25e-12


def test_waveform_basics():
    w = SampledWaveform(np.arange(4, dtype=float), 1e-9, t0=2e-9)
    assert w.n == 4
    assert w.sample_rate == pytest.approx(1e9)
    assert w.duration == pytest.approx(4e-9)
    assert np.allclose(w.times, 2e-9 + 1e-9 * np.arange(4))


def test_waveform_rejects_bad_samples():
    with pytest.raises(ValueError):
        SampledWaveform(np.array([]), 1e-9)
    with pytest.raises(ValueError):
        SampledWaveform(np.array([[1.0, 2.0]]), 1e-9)
    with pytest.raises(ValueError):
        SampledWaveform(np.array([np.nan]), 1e-9)
    with pytest.raises(ValueError):
        SampledWaveform(np.ones(4), 0.0)


def test_waveform_arithmetic_and_grid_check():
    a = SampledWaveform(np.ones(8), DT)
    b = SampledWaveform(2.0 * np.ones(8), DT)
    assert np.allclose((a + b).samples, 3.0)
    c = SampledWaveform(np.ones(9), DT)
    with pytest.raises(ValueError):
        a + c
    d = SampledWaveform(np.ones(8), DT, t0=1e-9)
    with pytest.raises(ValueError):
        a + d


def test_gate_train_amplitude_and_frequency():
    g = synthesize_gate_train(GATE_FREQ, 8.0, 64e-9, dt=DT)
    assert g.samples.max() == pytest.approx(4.0, rel=1e-6)
    assert g.samples.min() == pytest.approx(-4.0, rel=1e-6)
    spectrum = np.abs(np.fft.rfft(g.samples))
    k = int(np.argmax(spectrum[1:])) + 1
    assert k / (g.n * g.dt) == pytest.approx(GATE_FREQ, rel=1e-3)


def test_gate_train_delay_periodicity():
    period = 1.0 / GATE_FREQ
    g0 = synthesize_gate_train(GATE_FREQ, 8.0, 16e-9, dt=DT)
    g1 = synthesize_gate_train(GATE_FREQ, 8.0, 16e-9, dt=DT, delay=period)
    assert np.allclose(g0.samples, g1.samples, atol=1e-9)


def test_gate_train_zero_amplitude_is_silent():
    g = synthesize_gate_train(GATE_FREQ, 0.0, 16e-9, dt=DT)
    assert np.all(g.samples == 0.0)


def test_gate_train_rejects_bad_inputs():
    with pytest.raises(ValueError):
        synthesize_gate_train(GATE_FREQ, -1.0, 16e-9)
    with pytest.raises(ValueError):
        synthesize_gate_train(GATE_FREQ, 8.0, 16e-9, dt=1e-9)  # undersampled
    with pytest.raises(ValueError):
        synthesize_gate_train(GATE_FREQ, 8.0, 0.5 / GATE_FREQ)  # under one period


def test_feedthrough_is_quadrature_copy():
    g = synthesize_gate_train(GATE_FREQ, 8.0, 64e-9, dt=DT)
    ft = synthesize_feedthrough(g, coupling_gain=0.1)
    # unity gain at the gate tone: 8 Vpp * 0.1 -> 400 mV amplitude
    assert np.abs(ft.samples).max() == pytest.approx(0.4, rel=1e-6)
    # 90 degree phase shift: orthogonal to the input, same power
    dot = float(np.dot(g.samples, ft.samples)) / g.n
    assert abs(dot) < 1e-9
    rms_ratio = np.sqrt(np.mean(ft.samples**2) / np.mean(g.samples**2))
    assert rms_ratio == pytest.approx(0.1, rel=1e-6)


def test_feedthrough_silent_input_and_zero_gain():
    silent = SampledWaveform(np.zeros(256), DT)
    assert np.all(synthesize_feedthrough(silent, 0.1).samples == 0.0)
    g = synthesize_gate_train(GATE_FREQ, 8.0, 16e-9, dt=DT)
    assert np.all(synthesize_feedthrough(g, 0.0).samples == 0.0)


def test_avalanche_pulse_shape_defaults():
    s = AvalanchePulseShape()
    assert s.peak_amplitude == -32e-3
    assert s.fall_tau == pytest.approx(1.8e-9 / math.log(9.0))
    with pytest.raises(ValueError):
        AvalanchePulseShape(peak_amplitude=+32e-3)
    with pytest.raises(ValueError):
        AvalanchePulseShape(fall_time=0.0)


def test_avalanche_is_negative_and_localized():
    grid = synthesize_gate_train(GATE_FREQ, 8.0, 64e-9, dt=DT)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t_ev = float(rng.uniform(5e-9, 55e-9))
        pulse = synthesize_avalanche(AvalanchePulseShape(), grid, t_ev, rng)
        assert pulse.n == grid.n and pulse.dt == grid.dt
        assert np.all(pulse.samples <= 0.0)
        k_min = int(np.argmin(pulse.samples))
        assert abs(pulse.times[k_min] - t_ev) <= 2 * DT
        assert np.all(pulse.samples[: max(0, k_min - 1)] == 0.0)  # silent before onset


def test_avalanche_deterministic_under_fixed_stream():
    grid = synthesize_gate_train(GATE_FREQ, 8.0, 16e-9, dt=DT)
    a = synthesize_avalanche(AvalanchePulseShape(), grid, 8e-9, np.random.default_rng(3))
    b = synthesize_avalanche(AvalanchePulseShape(), grid, 8e-9, np.random.default_rng(3))
    assert np.array_equal(a.samples, b.samples)


def test_avalanche_rejects_out_of_span_event():
    grid = synthesize_gate_train(GATE_FREQ, 8.0, 16e-9, dt=DT)
    with pytest.raises(ValueError):
        synthesize_avalanche(AvalanchePulseShape(), grid, 99e-9, np.random.default_rng(0))


def test_lowpass_design_meets_spec_analytically():
    spec = FilterResponseSpec()
    order, fc = lowpass_design(spec)
    assert order >= 1 and fc > 0

    def att_db(f):
        return 10.0 * math.log10(1.0 + (f / fc) ** (2 * order))

    assert att_db(spec.passband_edge) <= spec.passband_ripple_db + 1e-9
    assert att_db(spec.gate_frequency) >= spec.rejection_at_gate_db
    assert att_db(spec.gate_frequency - spec.rejection_band_halfwidth) >= spec.rejection_band_floor_db
    assert att_db(spec.gate_frequency) >= spec.rejection_to_4ghz_db


def test_apply_filter_cascade_is_exact():
    rng = np.random.default_rng(11)
    w = SampledWaveform(rng.normal(size=4096), DT)
    spec = FilterResponseSpec()
    two = apply_filter(w, spec, stages=2)
    twice = apply_filter(apply_filter(w, spec, stages=1), spec, stages=1)
    assert np.allclose(two.samples, twice.samples, atol=1e-15)


def test_apply_filter_is_linear():
    rng = np.random.default_rng(12)
    a = SampledWaveform(rng.normal(size=1024), DT)
    b = SampledWaveform(rng.normal(size=1024), DT)
    spec = FilterResponseSpec()
    lhs = apply_filter(a + b, spec, stages=2)
    rhs = apply_filter(a, spec, stages=2) + apply_filter(b, spec, stages=2)
    assert np.allclose(lhs.samples, rhs.samples, atol=1e-12)


def test_apply_filter_needs_adequate_sample_rate():
    w = SampledWaveform(np.ones(64), 1e-9)  # 1 GS/s cannot carry 1.25 GHz
    with pytest.raises(ValueError):
        apply_filter(w, FilterResponseSpec())


def test_measured_response_matches_design_formula():
    spec = FilterResponseSpec()
    order, fc = lowpass_design(spec)
    rows = measured_filter_response(spec, [100e6, 600e6, 1.25e9], n_samples=1 << 14)
    for f, gain_db in rows:
        expect = -10.0 * math.log10(1.0 + (f / fc) ** (2 * order))
        assert gain_db == pytest.approx(expect, abs=0.05)


def _per_tone_response(spec, freqs, dt, stages, n_samples):
    """Reference: one tone per frequency through apply_filter, gain from the RMS ratio."""
    df = 1.0 / (n_samples * dt)
    rows = []
    for f in np.asarray(freqs, dtype=float):
        k = max(1, int(round(f / df)))
        f_snapped = k * df
        tone = SampledWaveform(np.sin(2.0 * np.pi * f_snapped * dt * np.arange(n_samples)), dt)
        out = apply_filter(tone, spec, stages=stages)
        gain = np.sqrt(np.mean(out.samples**2) / np.mean(tone.samples**2))
        rows.append((f_snapped, 20.0 * np.log10(max(gain, 1e-30))))
    return np.asarray(rows)


def _reference_groups(spec, dt, n_samples):
    """Reference grid: (passband, band, wideband, [gate]) tone frequencies, snapped one by one."""
    df = 1.0 / (n_samples * dt)

    def snap_down(f):
        return max(1, math.floor(f / df)) * df

    def snap_up(f):
        return math.ceil(f / df) * df

    band_lo = spec.gate_frequency - spec.rejection_band_halfwidth
    band_hi = spec.gate_frequency + spec.rejection_band_halfwidth
    return (
        [snap_down(f) for f in np.linspace(0.05 * spec.passband_edge, spec.passband_edge, 12)],
        [min(snap_up(f), math.floor(band_hi / df) * df)
         for f in np.arange(band_lo, band_hi + 2.5e6, 5e6)],
        [snap_up(f) for f in np.arange(spec.gate_frequency, 4e9 + 1.0, 50e6)],
        [snap_up(spec.gate_frequency)],
    )


def _reference_checks(spec, response, groups):
    """Reference contract checks: (four flags, four worst values), gains looked up by frequency."""
    gains = dict(zip(response[:, 0], response[:, 1]))
    passband, band, wideband, gate = groups
    worst = (min(gains[f] for f in passband), -gains[gate[0]],
             min(-gains[f] for f in band), min(-gains[f] for f in wideband))
    flags = (all(abs(gains[f]) <= spec.passband_ripple_db for f in passband),
             worst[1] >= spec.rejection_at_gate_db,
             worst[2] >= spec.rejection_band_floor_db,
             worst[3] >= spec.rejection_to_4ghz_db)
    return flags, worst


@pytest.mark.parametrize("n_samples", [1 << 16, 1 << 14])
@pytest.mark.parametrize("stages", [1, 2])
def test_multitone_response_matches_per_tone_reference(stages, n_samples):
    spec = FilterResponseSpec()
    groups = _reference_groups(spec, DT, n_samples)
    grid = sorted(set().union(*groups))
    ref = _per_tone_response(spec, grid, DT, stages, n_samples)
    got = measured_filter_response(spec, grid, dt=DT, stages=stages, n_samples=n_samples)
    assert np.array_equal(got[:, 0], ref[:, 0])
    # Below SPECTRUM_FLOOR_DB the reference reads the round-off of its own sine
    # synthesis (about -257 dB where two stages give -316 dB), not the filter;
    # there both must read below the floor and the pass must follow the design.
    above = ref[:, 1] > SPECTRUM_FLOOR_DB
    assert np.array_equal(got[:, 1] > SPECTRUM_FLOOR_DB, above)
    assert np.abs(got[above, 1] - ref[above, 1]).max() <= 1e-6
    order, fc = lowpass_design(spec)
    design_db = -10.0 * stages * np.log10(1.0 + (got[:, 0] / fc) ** (2 * order))
    assert np.abs(got[~above, 1] - design_db[~above]).max(initial=0.0) <= 1.0
    flags, worst = _reference_checks(spec, ref, groups)
    assert _reference_checks(spec, got, groups)[0] == flags
    if stages == 1:
        report = verify_filter_contract(spec, n_samples=n_samples)
        assert np.array_equal(report.response[:, 0], ref[:, 0])
        assert np.abs(report.response[:, 1] - ref[:, 1]).max() <= 1e-6
        assert (report.passband_ok, report.gate_ok, report.band_ok, report.wideband_ok) == flags
        got_worst = (report.worst_passband_gain_db, report.gate_attenuation_db,
                     report.worst_band_attenuation_db, report.worst_wideband_attenuation_db)
        assert np.abs(np.subtract(got_worst, worst)).max() <= 1e-6


def test_measured_response_refuses_bad_tones():
    spec = FilterResponseSpec()
    n = 1 << 10
    nyquist = 0.5 / DT
    assert measured_filter_response(spec, [nyquist * (1 - 2.0 / n)], n_samples=n).shape == (1, 2)
    for f in (nyquist, 1.5 * nyquist):
        with pytest.raises(ValueError, match="Nyquist"):
            measured_filter_response(spec, [100e6, f], n_samples=n)
    with pytest.raises(ValueError, match="Nyquist"):
        verify_filter_contract(spec, dt=1.0 / 8e9, n_samples=n)
    for f in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            measured_filter_response(spec, [f], n_samples=n)


@pytest.mark.parametrize("measure", ["response", "contract"])
@pytest.mark.parametrize("grid, message", [
    ({"dt": 0.0}, "dt must be a number > 0"),
    ({"dt": math.nan}, "dt must be a number > 0"),
    ({"n_samples": 0}, "n_samples must be an integer >= 1"),
    ({"n_samples": 1.5}, "n_samples must be an integer >= 1"),
])
def test_filter_measurements_refuse_their_grid_in_the_declared_words(measure, grid, message):
    # each used to divide by the bad value first: ZeroDivisionError, a NaN
    # bin count, or a tone "at or above Nyquist"
    spec = FilterResponseSpec()
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        if measure == "response":
            measured_filter_response(spec, [100e6], **grid)
        else:
            verify_filter_contract(spec, **grid)


def test_filter_contract_default_spec_passes():
    report = verify_filter_contract(FilterResponseSpec())
    assert report.ok
    assert report.gate_attenuation_db >= 54.0
    assert report.worst_band_attenuation_db >= 50.0
    assert report.worst_wideband_attenuation_db >= 40.0
    assert abs(report.worst_passband_gain_db) <= 1.0
    assert report.response.shape[1] == 2


def test_filter_contract_flags_impossible_spec():
    # demands 120 dB in a 100 MHz-wide notch next to a 1.2 GHz passband edge
    spec = FilterResponseSpec(
        passband_edge=1.15e9,
        rejection_at_gate_db=120.0,
        rejection_band_floor_db=120.0,
        rejection_band_halfwidth=50e6,
    )
    with pytest.raises(ValueError):
        lowpass_design(spec)


def test_power_spectrum_parseval_and_landmarks():
    rng = np.random.default_rng(13)
    w = SampledWaveform(rng.normal(size=2048), DT)
    freqs, power_db = power_spectrum(w)
    linear = 10.0 ** (power_db / 10.0)
    assert linear.sum() == pytest.approx(np.mean(w.samples**2), rel=1e-9)

    dc = SampledWaveform(np.ones(1024), DT)
    _, p = power_spectrum(dc)
    assert p[0] == pytest.approx(0.0, abs=1e-9)

    n = 4096
    sine = SampledWaveform(np.sin(2 * np.pi * 8 * np.arange(n) / n), DT)
    _, p = power_spectrum(sine)
    assert p.max() == pytest.approx(10 * math.log10(0.5), abs=1e-6)


def test_power_spectrum_refuses_a_bin_power_past_the_float_range():
    # finite 1e300 V samples square to inf, which the dB column would carry
    loud = SampledWaveform(1e300 * np.ones(1024), DT)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="bin power overflows"):
        power_spectrum(loud)


def test_discriminate_interpolates_crossing():
    # 1 V/ns falling ramp through -4 mV: crossing at t = 4 ps exactly
    samples = np.array([1e-3, -9e-3])
    w = SampledWaveform(samples, 10e-12)
    t = discriminate(w, DiscriminatorConfig(threshold=-4e-3))
    assert t.size == 1
    assert t[0] == pytest.approx(5e-12, abs=1e-15)


def test_discriminate_polarity_and_t0():
    w = SampledWaveform(np.array([0.0, 10e-3, 0.0]), 1e-9, t0=5e-9)
    up = discriminate(w, DiscriminatorConfig(threshold=5e-3, polarity="positive-going"))
    assert up.size == 1
    assert 5e-9 <= up[0] <= 6e-9
    shifted = discriminate(
        SampledWaveform(w.samples, w.dt, t0=0.0),
        DiscriminatorConfig(threshold=5e-3, polarity="positive-going"),
    )
    assert up[0] - shifted[0] == pytest.approx(5e-9)


def test_discriminate_refractory_swallows_retriggers():
    pattern = np.array([0.0, -10e-3, 0.0, -10e-3, 0.0, -10e-3])
    w = SampledWaveform(np.tile(pattern, 4), 1e-9)
    free = discriminate(w, DiscriminatorConfig(threshold=-4e-3))
    gated = discriminate(w, DiscriminatorConfig(threshold=-4e-3, refractory_time=5e-9))
    assert free.size == 12
    assert gated.size < free.size
    assert np.all(np.diff(gated) > 5e-9)


def test_feedthrough_alone_stays_below_discriminator():
    g = synthesize_gate_train(GATE_FREQ, 8.0, 64e-9, dt=DT)
    ft = synthesize_feedthrough(g, 0.1)
    out = apply_filter(ft, FilterResponseSpec(), stages=2)
    # two stages knock 400 mV down by >100 dB: microvolt residue
    assert np.abs(out.samples).max() < 1e-5
    crossings = discriminate(out, DiscriminatorConfig(threshold=-4e-3))
    assert crossings.size == 0
