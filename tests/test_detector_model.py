"""Device-law tests: gate profile, bias, dark counts, jitter, afterpulsing."""

import math

import numpy as np
import pytest
from scipy import stats

from sinegate.declare import ArgumentError
from sinegate.detector_model import (
    DEFAULT_DARK_TABLE,
    FWHM_TO_SIGMA,
    AfterpulseModel,
    BiasEfficiencyLaw,
    DetectorParams,
    GateConfig,
    JitterModel,
    ModelRangeError,
    TemperatureDarkLaw,
    clicks,
    dark_prob,
    efficiency_at_bias,
    gate_profile,
    sample_detection_times,
)


def test_gate_profile_peak_and_fwhm():
    g = GateConfig()
    assert gate_profile(g, 0.0) == 1.0
    assert gate_profile(g, g.gate_fwhm / 2) == pytest.approx(0.5)
    assert gate_profile(g, -g.gate_fwhm / 2) == pytest.approx(0.5)


def test_gate_profile_periodic_and_vectorized():
    g = GateConfig()
    period = g.gate_period
    assert period == pytest.approx(0.8e-9)
    delays = np.array([-0.3e-9, 0.0, 0.11e-9])
    a = gate_profile(g, delays)
    b = gate_profile(g, delays + 5 * period)
    assert np.allclose(a, b)
    assert isinstance(gate_profile(g, 0.0), float)


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(gate_fwhm=-5e-12)
    with pytest.raises(ValueError):
        GateConfig(gate_fwhm=0.8e-9)  # a window as wide as the gate period
    with pytest.raises(ValueError):
        GateConfig(gate_frequency=0.0)


def test_bias_law_endpoints():
    law = BiasEfficiencyLaw()
    assert efficiency_at_bias(law, law.breakdown_bias) == 0.0
    assert efficiency_at_bias(law, law.breakdown_bias - 1.0) == 0.0
    assert efficiency_at_bias(law, law.anchor_bias) == pytest.approx(0.10)
    assert efficiency_at_bias(law, 54.5) == pytest.approx(0.15)
    assert efficiency_at_bias(law, 1e3) == 1.0  # clamped
    # an array gives each element's scalar result, bit for bit
    biases = np.array([law.breakdown_bias - 1.0, law.breakdown_bias, 51.7, law.anchor_bias,
                       54.5, 1e3])
    swept = efficiency_at_bias(law, biases)
    assert np.array_equal(swept, [efficiency_at_bias(law, b) for b in biases.tolist()])
    assert isinstance(efficiency_at_bias(law, 54.5), float)
    with pytest.raises(ValueError):
        efficiency_at_bias(law, np.array([53.5, np.nan]))


def test_bias_law_validation():
    with pytest.raises(ValueError):
        BiasEfficiencyLaw(slope_per=0.0)
    with pytest.raises(ValueError):
        BiasEfficiencyLaw(breakdown_bias=60.0)  # above the anchor


def test_dark_law_anchors_are_exact():
    law = TemperatureDarkLaw()
    assert dark_prob(law, -43.0) == 6e-7
    assert dark_prob(law, -35.0) == 7e-7
    assert dark_prob(law, 20.0) == 1.5e-5
    # in an array too, anchors come back as the table's own numbers
    temps, probs = law.temperatures, law.probabilities
    assert np.array_equal(dark_prob(law, temps), probs)
    assert np.array_equal(dark_prob(law, temps[::-1]), probs[::-1])
    assert isinstance(dark_prob(law, -43.0), float)


def test_dark_law_monotone_above_minus_35():
    law = TemperatureDarkLaw()
    temps = np.linspace(-35.0, 20.0, 551)
    probs = np.array([dark_prob(law, t) for t in temps])
    assert np.all(np.diff(probs) >= 0.0)
    # the array call gives each element's scalar result, bit for bit
    assert np.array_equal(dark_prob(law, temps), probs)


def test_dark_law_log_linear_between_anchors():
    law = TemperatureDarkLaw()
    mid = dark_prob(law, -30.0)  # halfway between -35 (7e-7) and -25 (1.2e-6)
    assert mid == pytest.approx(math.sqrt(7e-7 * 1.2e-6), rel=1e-12)


def test_dark_law_range_errors():
    law = TemperatureDarkLaw()
    with pytest.raises(ModelRangeError):
        dark_prob(law, -45.1)
    with pytest.raises(ModelRangeError):
        dark_prob(law, 20.1)
    # any element out of range refuses the whole array, naming the first one
    with pytest.raises(ModelRangeError, match=r"temperature 20.1 C outside calibrated range"):
        dark_prob(law, np.array([-43.0, 20.1, -45.1]))
    with pytest.raises(ModelRangeError, match=r"temperature -45.1 C outside"):
        dark_prob(law, np.array([[-45.1, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        dark_prob(law, np.array([0.0, np.inf]))


def test_dark_law_table_validation():
    with pytest.raises(ValueError):
        TemperatureDarkLaw(table=((0.0, 1e-6),))  # single point is no law


@pytest.mark.parametrize("table", [
    ((math.nan, 1e-6), (-45.0, 6e-7), (20.0, 1.5e-5)),
    ((-45.0, 6e-7), (math.nan, 1e-6), (20.0, 1.5e-5)),
    ((-45.0, 6e-7), (20.0, 1.5e-5), (math.inf, 1e-5)),
    ((-math.inf, 1e-6), (-45.0, 6e-7), (20.0, 1.5e-5)),
])
def test_dark_law_refuses_non_finite_temperatures(table):
    # a NaN anchor compares false both ways, so it slipped past the order check
    # and moved the interpolation off the -45 C anchor
    with pytest.raises(ArgumentError, match=r"must be a list of at least 2 \[temperature_c, probability\] pairs") as exc:
        TemperatureDarkLaw(table)
    assert exc.value.arg == "table"
    with pytest.raises(ValueError):
        TemperatureDarkLaw(table=((0.0, 1e-6), (0.0, 2e-6)))  # not increasing
    with pytest.raises(ValueError):
        TemperatureDarkLaw(table=((0.0, 0.0), (10.0, 1e-6)))  # p=0 breaks log interp


def test_jitter_sampling_statistics():
    j = JitterModel()
    rng = np.random.default_rng(42)
    period = 0.8e-9
    gates = np.zeros(200_000, dtype=np.int64)
    times, in_tail = sample_detection_times(j, gates, period, rng)
    frac = in_tail.mean()
    assert frac == pytest.approx(0.024, abs=0.0015)
    core = times[~in_tail]
    assert core.mean() == pytest.approx(0.0, abs=1e-12 + 5 * j.sigma / math.sqrt(core.size))
    assert core.std() == pytest.approx(j.sigma, rel=0.02)
    # tail detections sit on the next 1..3 gate centers
    tail = times[in_tail]
    offsets = np.round(tail / period).astype(int)
    assert set(offsets.tolist()) <= {1, 2, 3}
    assert np.all(np.abs(tail - offsets * period) < 8 * j.sigma)


def test_tail_slips_are_uniform_and_drawn_only_for_tails():
    j = JitterModel(sigma=0.0, tail_fraction=0.3, tail_span_gates=5)
    gates = 10 * np.arange(100_000, dtype=np.int64)
    rng, replay = np.random.default_rng(8), np.random.default_rng(8)
    times, in_tail = sample_detection_times(j, gates, 1e-9, rng)
    slips = np.rint(times / 1e-9).astype(np.int64) - gates
    assert np.array_equal(slips > 0, in_tail)
    counts = np.bincount(slips[in_tail], minlength=j.tail_span_gates + 1)
    assert counts.size == j.tail_span_gates + 1 and counts[0] == 0
    assert stats.chisquare(counts[1:]).pvalue > 1e-3
    # the draws: the tails' walk, a Gaussian per avalanche, a slip per tail
    tails = clicks(replay, gates.size, j.tail_fraction)
    replay.standard_normal(gates.size)
    replay.integers(1, j.tail_span_gates + 1, size=tails.size)
    assert np.array_equal(np.flatnonzero(in_tail), tails)
    assert rng.bit_generator.state == replay.bit_generator.state
    # no tail, no slip drawn: only the Gaussians move the generator
    rng, replay = np.random.default_rng(9), np.random.default_rng(9)
    times, in_tail = sample_detection_times(JitterModel(tail_fraction=0.0), gates, 1e-9, rng)
    replay.standard_normal(gates.size)
    assert not in_tail.any()
    assert rng.bit_generator.state == replay.bit_generator.state


def test_jitter_degenerate_sigma():
    j = JitterModel(sigma=0.0, tail_fraction=0.0)
    rng = np.random.default_rng(0)
    times, in_tail = sample_detection_times(j, np.arange(5, dtype=np.int64), 0.8e-9, rng)
    assert np.allclose(times, 0.8e-9 * np.arange(5))
    assert not in_tail.any()


def test_jitter_validation():
    with pytest.raises(ValueError):
        JitterModel(sigma=-1e-12)
    with pytest.raises(ValueError):
        JitterModel(tail_fraction=1.0)
    with pytest.raises(ValueError):
        JitterModel(tail_span_gates=0)


def test_fwhm_sigma_conversion():
    assert 70e-12 * FWHM_TO_SIGMA == pytest.approx(70e-12 / 2.3548, rel=1e-4)
    assert JitterModel().fwhm == pytest.approx(70e-12)


def test_afterpulse_disabled_by_default():
    assert AfterpulseModel().enabled is False


def test_branching_ratio_sums_the_hazard_one_fill_adds():
    m = AfterpulseModel()
    # fill * trigger * sum_j r**j with r = exp(-0.8 ns / 1 us): the defaults run away
    r = math.exp(-0.8e-9 / 1e-6)
    assert m.branching_ratio(0.8e-9) == pytest.approx(1e-3 / (1 - r), rel=1e-12)
    assert 1.25 < m.branching_ratio(0.8e-9) < 1.26
    short = AfterpulseModel(release_lifetime=100e-9, trigger_prob_per_gate=2e-3)
    # gate j after a fill fires with min(1, trigger * fill * exp(-j T_gate / lifetime))
    hazards = [min(1.0, 2e-3 * short.trap_fill_per_detection * math.exp(-j * 0.8e-9 / 100e-9))
               for j in range(20_000)]
    assert short.branching_ratio(0.8e-9) == pytest.approx(math.fsum(hazards), rel=1e-9)


def test_branching_ratio_without_fill_or_release():
    # T_gate / lifetime = 1e-308 / 1e291 underflows, so 1 - exp(-T_gate / lifetime) is 0
    gate_period, lifetime = 1e-308, 1e291
    model = AfterpulseModel(release_lifetime=lifetime, enabled=True)
    assert model.branching_ratio(gate_period) == math.inf
    with pytest.raises(ArgumentError, match="branching ratio below 1, not inf"):
        model.refuse_runaway(gate_period)
    # nothing fills the traps: 0, also where the release term is 0
    for period in (gate_period, 0.8e-9):
        empty = AfterpulseModel(trap_fill_per_detection=0.0, release_lifetime=lifetime,
                                enabled=True)
        assert empty.branching_ratio(period) == 0.0
        empty.refuse_runaway(period)
    assert AfterpulseModel(trigger_prob_per_gate=0.0).branching_ratio(gate_period) == 0.0


def test_effective_efficiency_follows_bias_and_delay():
    d = DetectorParams()
    assert d.effective_efficiency(0.0) == pytest.approx(0.10)
    d_hi = DetectorParams(bias=54.5)
    assert d_hi.effective_efficiency(0.0) == pytest.approx(0.15)
    # off-peak delay scales the whole profile
    half = d.gate.gate_fwhm / 2
    assert d_hi.effective_efficiency(half) == pytest.approx(0.075)
    # the click law 1 - exp(-eta*mu) takes arrays of photon numbers element by element
    mu = np.array([0.0, 1e-3, 0.1, 1.0, 30.0])
    assert np.array_equal(d.click_prob(mu), [d.click_prob(m) for m in mu.tolist()])
    assert d.click_prob(1.0) == pytest.approx(1.0 - math.exp(-0.1), rel=1e-15)


def test_dark_prob_per_gate_and_none_law():
    assert DetectorParams().dark_prob_per_gate() == 6e-7
    assert DetectorParams(dark_law=None).dark_prob_per_gate() == 0.0
