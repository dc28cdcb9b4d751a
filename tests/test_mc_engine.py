"""Monte Carlo engine tests: determinism, hold-off, histograms, statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import quiet_detector
from sinegate import mc_engine
from sinegate.detector_model import (
    FWHM_TO_SIGMA,
    AfterpulseModel,
    DetectorParams,
    JitterModel,
    TemperatureDarkLaw,
    clicks,
)
from sinegate.mc_engine import (
    CHUNK_GATES,
    ORIGIN_AFTERPULSE,
    ORIGIN_DARK,
    ORIGIN_NAMES,
    ORIGIN_PHOTON,
    RECORD_DTYPE,
    Histogram,
    RunConfig,
    SourceConfig,
    apply_holdoff,
    deconvolve_jitter,
    estimate_fwhm,
    inter_detection_correlation,
    records_table,
    run_simulation,
    subsequent_gate_fraction,
    tcspc_histogram,
    _GAP_BLOCK,
    _RECORD_BLOCK,
    _afterpulse_pass,
    _exponentials,
    _holdoff_flags,
    _merge,
    _next_fire,
    _no_fire_bound,
)
from sinegate.lag_stats import geometric_lag_gof, short_lag_excess_pvalue
from sinegate.table import table_chunks, write_chunks

GATE_PERIOD = 0.8e-9


def pulsed_run(n_gates, seed, mean_photons=1.0, **cfg_overrides):
    cfg = RunConfig(
        n_gates=n_gates,
        master_seed=seed,
        detector=quiet_detector(),
        source=SourceConfig.pulsed(mean_photons=mean_photons),
        **cfg_overrides,
    )
    return run_simulation(cfg)


# ------------------------------------------------------------------ determinism

def test_same_seed_reproduces_records():
    a = pulsed_run(200_000, 77)
    b = pulsed_run(200_000, 77)
    assert np.array_equal(a.records, b.records)
    assert a.counters == b.counters


def test_different_seed_differs():
    a = pulsed_run(200_000, 77)
    b = pulsed_run(200_000, 78)
    assert not np.array_equal(a.records, b.records)


def test_chunk_records_independent_of_later_chunks():
    longer = pulsed_run(CHUNK_GATES + CHUNK_GATES // 3, 99)  # 2 chunks, ragged second
    first = pulsed_run(CHUNK_GATES, 99)
    prefix = longer.records[longer.records["gate_index"] < CHUNK_GATES]
    assert first.records.size > 0
    assert np.array_equal(prefix, first.records)


def test_dark_run_deterministic_with_afterpulsing():
    det = DetectorParams(
        temperature_c=20.0,
        afterpulse=AfterpulseModel(
            trap_fill_per_detection=0.1,
            release_lifetime=200e-9,
            trigger_prob_per_gate=5e-3,
            enabled=True,
        ),
    )
    cfg = RunConfig(n_gates=2_000_000, master_seed=5, detector=det)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert np.array_equal(a.records, b.records)
    assert a.counters["generated_afterpulse"] > 0


# ------------------------------------------------------------------- hold-off

def replay_holdoff(gates, holdoff, anchor, last_anchor=None):
    """Reference implementation: explicit event-by-event replay, the window
    running from gate `last_anchor` before the first record when given."""
    flags = []
    for g in gates:
        ok = last_anchor is None or g - last_anchor > holdoff
        flags.append(ok)
        if anchor == "any" or ok:
            last_anchor = g
    return np.asarray(flags, dtype=bool)


def record_array(rows):
    """A RECORD_DTYPE array from (gate_index, time, origin name) rows, none accepted."""
    recs = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for i, (gate, time, origin) in enumerate(rows):
        recs[i] = (gate, time, ORIGIN_NAMES.index(origin), False)
    return recs


def short_runs(gates, holdoff):
    """(start, stop) of each maximal run of records within `holdoff` of the record before."""
    short = np.concatenate([[False], np.diff(gates) <= holdoff, [False]]).astype(np.int8)
    edges = np.flatnonzero(np.diff(short)) + 1
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


@pytest.mark.parametrize("anchor", ["accepted", "any"])
def test_holdoff_matches_bruteforce_replay(anchor):
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 400))
        gates = np.sort(rng.integers(0, 2_000, size=n))
        cases.append((gates, int(rng.integers(0, 40))))
    cases.append((np.zeros(0, dtype=np.int64), 10))  # no records at all
    cases.append((np.arange(0, 2_000, 50), 10))  # every gap longer than the hold-off
    # dense cases: gaps of 1..H+2 gates mix lone short records with chains of them
    dense = []
    for _ in range(40):
        holdoff = int(rng.integers(1, 12))
        gaps = rng.integers(1, holdoff + 3, size=int(rng.integers(2, 300)))
        dense.append((np.cumsum(gaps), holdoff))
    runs = [(gates.size, short_runs(gates, holdoff)) for gates, holdoff in dense]
    assert any(stop - start == 1 for _, rs in runs for start, stop in rs)  # lone
    assert any(stop - start >= 3 for _, rs in runs for start, stop in rs)
    assert any(start == 1 and stop - start >= 2 for _, rs in runs for start, stop in rs)
    assert any(stop == n and stop - start >= 2 for n, rs in runs for start, stop in rs)
    cases.extend(dense)
    for trial, (gates, holdoff) in enumerate(cases):
        recs = np.zeros(gates.size, dtype=[("gate_index", np.int64), ("time", np.float64),
                                           ("origin", np.uint8), ("accepted", np.bool_)])
        recs["gate_index"] = gates
        out = apply_holdoff(recs, holdoff, anchor=anchor)
        expect = replay_holdoff(gates.tolist(), holdoff, anchor)
        assert np.array_equal(out["accepted"], expect), (trial, anchor)


@pytest.mark.parametrize("anchor", ["accepted", "any"])
@pytest.mark.parametrize("holdoff", [0, 1, 10])
def test_holdoff_flags_carry_the_window_anchor_from_the_chunk_before(anchor, holdoff):
    # random sorted gates cut into short pieces, each flagged with the anchor
    # carried from the pieces before, as the engine flags its chunks
    rng = np.random.default_rng(33)
    chain_at_start = none_accepted = 0
    for _ in range(20):
        gates = np.cumsum(rng.integers(1, 2 * holdoff + 3, size=400))
        whole = replay_holdoff(gates.tolist(), holdoff, anchor)
        cuts = np.cumsum(rng.integers(0, 8, size=gates.size))
        last, flags = None, []
        for piece in np.split(gates, cuts[cuts < gates.size]):
            got = _holdoff_flags(piece, holdoff, anchor, last)
            assert np.array_equal(got, replay_holdoff(piece.tolist(), holdoff, anchor, last))
            flags.append(got)
            if last is not None and piece.size >= 2:
                # a chain whose "before" gate is the carried anchor
                chain_at_start += piece[0] - last <= holdoff and piece[1] - piece[0] <= holdoff
            none_accepted += piece.size > 0 and not got.any()
            if piece.size and anchor == "any":
                last = piece.item(-1)
            elif got.any():
                last = piece[got].item(-1)  # else "accepted" carries the anchor over unchanged
        assert np.array_equal(np.concatenate(flags), whole)
    if holdoff:
        assert chain_at_start > 0 and none_accepted > 0
    with pytest.raises(ValueError, match="sorted"):
        _holdoff_flags(np.array([5, 9]), holdoff, anchor, last=6)


def test_holdoff_known_sequences():
    def accepted_gates(gates, holdoff, anchor="accepted"):
        recs = record_array([(g, g * GATE_PERIOD, "dark") for g in gates])
        out = apply_holdoff(recs, holdoff, anchor=anchor)
        return out["gate_index"][out["accepted"]].tolist()

    assert accepted_gates([100, 105, 112], 10) == [100, 112]
    assert accepted_gates(list(range(0, 31)), 10) == [0, 11, 22]
    # "any" anchoring restarts the window on rejected events too
    assert accepted_gates([100, 105, 112], 10, anchor="any") == [100]


def test_apply_holdoff_refuses_a_fractional_or_negative_holdoff():
    recs = record_array([(0, 0.0, "dark"), (3, 2.4e-9, "dark"), (5, 4e-9, "dark")])
    for holdoff in (2.5, -1):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            apply_holdoff(recs, holdoff)
    assert apply_holdoff(recs, 2)["accepted"].tolist() == [True, True, False]


def test_no_accepted_pair_within_holdoff_in_simulation():
    result = pulsed_run(800_000, 13, holdoff_gates=10)
    acc = result.accepted["gate_index"]
    assert acc.size > 1_500
    assert np.diff(acc).min() > 10


def test_holdoff_preserves_record_payloads():
    recs = record_array([(5, 4e-9, "photon"), (7, 5.6e-9, "dark")])
    out = apply_holdoff(recs, 10)
    assert [ORIGIN_NAMES[o] for o in out["origin"]] == ["photon", "dark"]
    assert out["accepted"].tolist() == [True, False]
    assert out[0]["time"] == 4e-9


def spans_of_chains(gates, holdoff, block_of):
    """Per chain of two or more records within `holdoff` of the record before,
    how many blocks it touches (`block_of` maps a record index to its block)."""
    return [len(set(block_of[start - 1:stop].tolist()))
            for start, stop in short_runs(gates, holdoff) if stop - start >= 2]


@pytest.mark.parametrize("anchor", ["accepted", "any"])
def test_chunked_run_flags_and_counters_match_the_whole_run(monkeypatch, anchor):
    # 64-gate chunks: chains of records within the hold-off span many chunks,
    # some chunks hold no record, and afterpulses (some on a chunk's first
    # gate) and tails are merged chunk by chunk
    monkeypatch.setattr(mc_engine, "CHUNK_GATES", 64)
    det = DetectorParams(temperature_c=20.0, jitter=JitterModel(tail_fraction=0.2),
                         dark_law=TemperatureDarkLaw(table=((-45.0, 1e-3), (20.0, 2e-3))),
                         afterpulse=AfterpulseModel(0.1, 20 * GATE_PERIOD, 0.2, enabled=True))
    for mean_photons in (1.0, 0.3):
        cfg = RunConfig(n_gates=60_001, master_seed=8, detector=det,
                        source=SourceConfig.pulsed(mean_photons=mean_photons, trigger_rate=1.25e9),
                        holdoff_gates=40, holdoff_anchor=anchor)
        result = run_simulation(cfg)
        recs, c = result.records, result.counters
        gates = recs["gate_index"]
        if mean_photons == 1.0:
            assert max(spans_of_chains(gates, 40, gates // 64)) >= 3
            assert np.any(gates[recs["origin"] == ORIGIN_AFTERPULSE] % 64 == 0)
        else:
            assert np.any(np.bincount(gates // 64, minlength=60_001 // 64) == 0)
        assert np.all(np.diff(gates) > 0)
        assert np.array_equal(recs["accepted"], _holdoff_flags(gates, 40, anchor))
        assert c["generated_total"] == recs.size
        assert c["accepted_total"] == np.count_nonzero(recs["accepted"])
        for code, name in enumerate(ORIGIN_NAMES):
            assert c[f"generated_{name}"] == np.count_nonzero(recs["origin"] == code) > 0
            assert c[f"accepted_{name}"] == np.count_nonzero(recs["accepted"]
                                                             & (recs["origin"] == code))


# ------------------------------------------------------------------ run content

def test_counters_are_consistent():
    result = pulsed_run(300_000, 21)
    c = result.counters
    recs = result.records
    assert c["generated_total"] == recs.size
    assert c["accepted_total"] == int(recs["accepted"].sum())
    assert sum(c[f"generated_{n}"] for n in ORIGIN_NAMES) == c["generated_total"]
    assert sum(c[f"accepted_{n}"] for n in ORIGIN_NAMES) == c["accepted_total"]
    assert c["n_gates"] == 300_000


def test_counters_match_a_mask_oracle():
    # every origin present: light, darks at +20 C, jitter tails, subcritical afterpulsing
    det = DetectorParams(
        temperature_c=20.0,
        afterpulse=AfterpulseModel(
            trap_fill_per_detection=0.1,
            release_lifetime=100e-9,
            trigger_prob_per_gate=2e-3,
            enabled=True,
        ),
    )
    cfg = RunConfig(n_gates=2_000_000, master_seed=41, detector=det,
                    source=SourceConfig.pulsed(mean_photons=1.0))
    result = run_simulation(cfg)
    recs, c = result.records, result.counters
    origin, accepted = recs["origin"], recs["accepted"]
    assert c["generated_total"] == recs.size
    assert c["accepted_total"] == np.count_nonzero(accepted)
    assert 0 < c["accepted_total"] < c["generated_total"]
    for code, name in enumerate(ORIGIN_NAMES):
        mask = origin == code
        assert np.count_nonzero(mask) > 0, name
        assert c[f"generated_{name}"] == np.count_nonzero(mask), name
        assert c[f"accepted_{name}"] == np.count_nonzero(mask & accepted), name
    assert all(type(c[k]) is int for k in c if k.startswith(("generated_", "accepted_")))


def test_records_sorted_and_typed():
    result = pulsed_run(100_000, 3)
    recs = result.records
    assert np.all(np.diff(recs["gate_index"]) >= 0)
    assert np.all(recs["origin"] < len(ORIGIN_NAMES))
    assert np.all(np.isfinite(recs["time"]))
    assert np.all(recs["gate_index"] >= 0)
    assert np.all(recs["gate_index"] < 100_000)


def test_photon_times_cluster_on_trigger_gates():
    result = pulsed_run(200_000, 8, mean_photons=30.0)  # click prob 0.95/pulse
    recs = result.records
    photon = recs[recs["origin"] == 0]
    assert photon.size > 3_000
    # pulses arrive every 40th gate (1.25 GHz / 31.25 MHz)
    assert np.all(photon["gate_index"] % 40 == 0)
    resid = photon["time"] - photon["gate_index"] * GATE_PERIOD
    sigma = math.hypot(70e-12, 30e-12) / 2.3548
    assert np.abs(resid).max() < 8 * sigma
    assert resid.std() == pytest.approx(sigma, rel=0.05)


def test_record_times_follow_the_timing_law_of_their_origin():
    # a photon sits at the alignment delay with the jitter and the laser width
    # in quadrature; a dark sits on its gate center with the jitter alone
    delay = 40e-12
    det = DetectorParams(temperature_c=20.0,
                         dark_law=TemperatureDarkLaw(table=((-45.0, 1e-4), (20.0, 1e-3))))
    recs = run_simulation(RunConfig(
        n_gates=1 << 22, master_seed=31, detector=det,
        source=SourceConfig.pulsed(mean_photons=1.0, laser_fwhm=30e-12, alignment_delay=delay),
    )).records
    resid = recs["time"] - recs["gate_index"] * GATE_PERIOD
    for origin, mean, sigma in ((ORIGIN_PHOTON, delay, math.hypot(70e-12, 30e-12) * FWHM_TO_SIGMA),
                                (ORIGIN_DARK, 0.0, det.jitter.sigma)):
        r = resid[recs["origin"] == origin]
        assert r.size > 3_000
        z_mean = (r.mean() - mean) / (sigma / math.sqrt(r.size))
        z_std = (r.std() - sigma) / (sigma / math.sqrt(2 * (r.size - 1)))
        assert abs(z_mean) < 4, (ORIGIN_NAMES[origin], z_mean)
        assert abs(z_std) < 4, (ORIGIN_NAMES[origin], z_std)


def test_dark_only_run_poisson_count():
    det = DetectorParams(temperature_c=20.0)  # 1.5e-5 per gate
    cfg = RunConfig(n_gates=10_000_000, master_seed=17, detector=det)
    result = run_simulation(cfg)
    n = result.counters["generated_dark"]
    expect = 10_000_000 * 1.5e-5
    assert abs(n - expect) < 4 * math.sqrt(expect)
    assert result.counters["generated_photon"] == 0


def test_detection_probability_tracks_mu():
    # click probability per pulse = 1 - exp(-eta * mu)
    result = pulsed_run(400_000, 55, mean_photons=2.0)
    n_pulses = 400_000 // 40
    p = 1.0 - math.exp(-0.1 * 2.0)
    got = result.counters["generated_total"] / n_pulses
    assert got == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n_pulses))


def test_cow_source_produces_bits_and_window_times():
    cfg = RunConfig(
        n_gates=100_000,
        master_seed=23,
        detector=quiet_detector(),
        source=SourceConfig.cow(mean_photons_per_bit=0.5),
    )
    result = run_simulation(cfg)
    assert result.bits is not None
    assert result.bits.size == 50_000
    assert set(np.unique(result.bits).tolist()) <= {0, 1}
    recs = result.records
    assert recs.size > 1_000
    # most detections fall in the pulse gate of their bit; extinction leaks a little
    gate = recs["gate_index"]
    bits = result.bits[gate // 2]
    in_pulse_bin = (gate % 2) == bits
    assert in_pulse_bin.mean() > 0.99


def test_cow_bits_are_drawn_per_chunk():
    def cow_run(n_gates):
        return run_simulation(RunConfig(n_gates=n_gates, master_seed=12, detector=DetectorParams(),
                                        source=SourceConfig.cow(mean_photons_per_bit=0.5)))

    def first_chunk(result):
        return result.records[result.records["gate_index"] < CHUNK_GATES]

    # a chunk's bits and records do not depend on how many gates follow it
    short, full = cow_run(CHUNK_GATES + 2), cow_run(2 * CHUNK_GATES)
    half = CHUNK_GATES // 2
    assert np.array_equal(short.bits[:half], full.bits[:half])
    assert first_chunk(short).size > 0
    assert np.array_equal(first_chunk(short), first_chunk(full))
    # a last chunk of 13 bits, not a whole number of bytes
    for n_gates in (CHUNK_GATES + 25, 25):
        bits = cow_run(n_gates).bits
        assert bits.size == (n_gates + 1) // 2
        assert bits.dtype == np.uint8
        assert set(np.unique(bits).tolist()) <= {0, 1}


def test_clicks_edge_cases():
    rng = np.random.default_rng(5)
    assert clicks(rng, 0, 0.5).size == 0
    assert clicks(rng, 1000, 0.0).size == 0
    assert clicks(rng, 1000, 1.0).tolist() == list(range(1000))


@pytest.mark.parametrize("p", [0.02, 0.5, 0.97])
def test_clicks_are_independent_bernoulli_trials(p):
    # each of n offsets clicks with probability p: per-offset frequency and mean count
    n, draws = 40, 20_000
    rng = np.random.default_rng(int(p * 100))
    hits = np.zeros(n, dtype=np.int64)
    total = 0
    for _ in range(draws):
        c = clicks(rng, n, p)
        assert c.dtype == np.int64
        assert c.size == 0 or (c[0] >= 0 and c[-1] < n and np.all(np.diff(c) > 0))
        hits[c] += 1
        total += c.size
    z_pos = (hits - draws * p) / math.sqrt(draws * p * (1 - p))
    assert np.abs(z_pos).max() < 4.5
    z_total = (total - draws * n * p) / math.sqrt(draws * n * p * (1 - p))
    assert abs(z_total) < 4


@pytest.mark.parametrize("n, p", [(0, 0.5), (1000, 0.0), (0, 0.0), (0, 1.0)])
def test_clicks_draw_nothing_when_nothing_can_click(n, p):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    c = clicks(rng, n, p)
    assert c.size == 0 and c.dtype == np.int64
    assert rng.bit_generator.state == state


def test_clicks_at_and_just_below_certainty():
    rng = np.random.default_rng(4)
    assert clicks(rng, 5000, 1.0).tolist() == list(range(5000))
    # a gap is longer than one slot with probability 2**-53
    assert clicks(rng, 5000, 1.0 - 2.0**-53).tolist() == list(range(5000))


@pytest.mark.parametrize("p", [5e-324, 1e-310, 1e-300])
def test_clicks_at_a_vanishing_probability(p):
    # a gap overflows to inf: no click, and no NaN or floating-point warning
    rng = np.random.default_rng(6)
    with np.errstate(all="raise"):
        for n in (1, 1 << 20, 2**62):
            c = clicks(rng, n, p)
            assert c.size == 0 and c.dtype == np.int64


class ShortExponentials:
    """A generator whose exponentials are a real one's, shrunk 20-fold: a walk
    then falls short of n in its first block. Keeps every exponential it drew."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), []

    def standard_exponential(self, size):
        self.drawn.append(self.rng.standard_exponential(size) / 20.0)
        return self.drawn[-1].copy()


@pytest.mark.parametrize("n, p", [(3000, 0.01), (200, 0.5), (5000, 1e-3)])
def test_clicks_walk_on_across_blocks(n, p):
    rng = ShortExponentials(7)
    c = clicks(rng, n, p)
    assert len(rng.drawn) > 1
    # the same walk over all drawn exponentials at once
    gaps = np.floor(np.concatenate(rng.drawn) / -math.log1p(-p)) + 1
    offsets = np.cumsum(gaps) - 1
    assert c.dtype == np.int64
    assert c.tolist() == offsets[offsets < n].astype(np.int64).tolist()
    assert offsets[sum(d.size for d in rng.drawn[:-1]) - 1] < n <= offsets[-1]


@pytest.mark.parametrize("p, n, runs", [(1e-4, 2_000_000, 10), (0.03, 1_000_000, 1),
                                        (0.95, 100_000, 1)])
def test_clicks_match_a_per_slot_oracle(p, n, runs):
    # the gap walk and one uniform per slot: each gap sample fits the geometric
    # law P(G = 1 + k) = p * (1-p)**k, and each click count fits n * p
    rng = np.random.default_rng(int(-math.log10(p) * 10))
    samples = {
        "walk": [clicks(rng, n, p) for _ in range(runs)],
        "oracle": [np.flatnonzero(rng.random(n) < p) for _ in range(runs)],
    }
    counts = {}
    for name, runs_clicks in samples.items():
        gaps = np.concatenate([np.diff(c, prepend=-1) for c in runs_clicks])
        _, _, p_value = geometric_lag_gof(gaps, 0, p, min_expected=20.0)
        assert p_value > 1e-3, (name, p_value)
        counts[name] = gaps.size
        z = (gaps.size - runs * n * p) / math.sqrt(runs * n * p * (1 - p))
        assert abs(z) < 4, (name, z)
    z_pair = (counts["walk"] - counts["oracle"]) / math.sqrt(2 * runs * n * p * (1 - p))
    assert abs(z_pair) < 4


def test_merge_drops_a_shared_offset_and_says_where_the_rest_went():
    gates, at = _merge(np.array([2, 5, 9]), np.array([0, 5, 10, 11]))
    assert gates.tolist() == [0, 2, 5, 9, 10, 11]
    assert at.tolist() == [0, 4, 5]
    gates, at = _merge(np.empty(0, dtype=np.int64), np.array([3, 4]))
    assert gates.tolist() == [3, 4] and at.tolist() == [0, 1]
    gates, at = _merge(np.array([1, 2]), np.empty(0, dtype=np.int64))
    assert gates.tolist() == [1, 2] and at.size == 0


def test_cow_clicks_follow_the_per_bin_law():
    # pulse-bin and empty-bin click counts against the exact per-gate law,
    # given the drawn bits; an odd gate count cuts the last bit to its first gate
    det = quiet_detector()
    eta = det.effective_efficiency(0.0)
    mu, eps = 0.5, 0.1  # 10 dB extinction
    p_pulse = 1.0 - math.exp(-eta * mu / (1.0 + eps))
    p_empty = 1.0 - math.exp(-eta * mu * eps / (1.0 + eps))
    z_scores, chi2, dof = [], 0.0, 0
    for n_gates in (3_000_000, 2_000_001):
        for seed in range(6):
            result = run_simulation(RunConfig(
                n_gates=n_gates, master_seed=seed, detector=det,
                source=SourceConfig.cow(mean_photons_per_bit=mu, extinction_db=10.0)))
            bits = result.bits
            assert bits.size == (n_gates + 1) // 2
            gate = result.records["gate_index"]
            assert gate.size == 0 or gate.max() < n_gates
            in_pulse_bin = (gate % 2) == bits[gate // 2]
            local = np.arange(n_gates)
            n_pulse_gates = int(np.count_nonzero((local % 2) == bits[local // 2]))
            for n_class, k, p in ((n_pulse_gates, np.count_nonzero(in_pulse_bin), p_pulse),
                                  (n_gates - n_pulse_gates, np.count_nonzero(~in_pulse_bin),
                                   p_empty)):
                z_scores.append((k - n_class * p) / math.sqrt(n_class * p * (1 - p)))
            ones = int(bits.sum())
            chi2 += (2 * ones - bits.size) ** 2 / bits.size
            dof += 1
    assert len(z_scores) == 24
    assert max(abs(z) for z in z_scores) < 4
    assert stats.chi2.sf(chi2, dof) > 1e-3
    # a bright source clicks nearly every pulse bin, none past an odd run's end
    bright = SourceConfig.cow(mean_photons_per_bit=50.0, extinction_db=10.0)
    for seed in range(20):
        gate = run_simulation(RunConfig(n_gates=5, master_seed=seed, detector=det,
                                        source=bright)).records["gate_index"]
        assert gate.size > 0 and gate.max() < 5


def test_run_rejects_incompatible_trigger():
    cfg = RunConfig(
        n_gates=1000,
        master_seed=1,
        detector=quiet_detector(),
        source=SourceConfig.pulsed(trigger_rate=30e6),  # 41.67 gates per pulse
    )
    with pytest.raises(ValueError):
        run_simulation(cfg)


def test_run_rejects_trigger_rate_overflowing_the_ratio():
    cfg = RunConfig(
        n_gates=1000,
        master_seed=1,
        detector=quiet_detector(),
        source=SourceConfig.pulsed(trigger_rate=1e-300),  # gate/trigger is inf
    )
    with pytest.raises(ValueError, match="must divide"):
        run_simulation(cfg)


def test_run_rejects_supercritical_afterpulsing():
    det = quiet_detector(afterpulse=AfterpulseModel(enabled=True))  # ratio 1.25
    with pytest.raises(ValueError, match="branching ratio below 1, not 1.25"):
        run_simulation(RunConfig(n_gates=1000, master_seed=1, detector=det))
    # the same model disabled, or made subcritical, runs
    run_simulation(RunConfig(n_gates=1000, master_seed=1, detector=quiet_detector(
        afterpulse=AfterpulseModel())))
    run_simulation(RunConfig(n_gates=1000, master_seed=1, detector=quiet_detector(
        afterpulse=AfterpulseModel(trigger_prob_per_gate=7.9e-3, enabled=True))))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_gates=0, master_seed=1)
    with pytest.raises(ValueError):
        RunConfig(n_gates=10, master_seed=-1)
    with pytest.raises(ValueError):
        RunConfig(n_gates=10, master_seed=1, holdoff_anchor="sometimes")


def test_records_csv_format(tmp_path):
    recs = np.zeros(2, dtype=[("gate_index", np.int64), ("time", np.float64),
                              ("origin", np.uint8), ("accepted", np.bool_)])
    recs["gate_index"] = [3, 9]
    recs["time"] = [2.4e-9, 7.2e-9]
    recs["origin"] = [0, 1]
    recs["accepted"] = [True, False]
    path = tmp_path / "r.csv"
    write_chunks(path, table_chunks(*records_table(recs)))
    lines = path.read_text().splitlines()
    assert lines[0] == "gate_index,time_ps,origin,accepted"
    assert lines[1] == "3,2400.0,photon,true"
    assert lines[2] == "9,7200.0,dark,false"


# ------------------------------------------------------------------ histograms

def test_histogram_from_times_binning():
    h = Histogram.from_times([0.05, 0.15, 0.151, 0.999, -0.1, 1.0], 0.1, 0.0, 10)
    assert h.counts[0] == 1
    assert h.counts[1] == 2
    assert h.counts[9] == 1
    assert h.total == 4  # out-of-range times dropped


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(0.0, 0.0, np.array([1]))
    with pytest.raises(ValueError):
        Histogram(0.1, 0.0, np.array([-1]))


def test_histogram_csv(tmp_path):
    h = Histogram(4e-12, 0.0, np.array([5, 7]))
    path = tmp_path / "h.csv"
    write_chunks(path, table_chunks(*h.table()))
    assert path.read_text() == "bin_start_ps,count\n0.0,5\n4.0,7\n"


def make_records(times):
    recs = np.zeros(len(times), dtype=[("gate_index", np.int64), ("time", np.float64),
                                       ("origin", np.uint8), ("accepted", np.bool_)])
    recs["time"] = times
    return recs


def test_tcspc_keeps_first_detection_per_cycle():
    period = 32e-9
    # two detections in cycle 0; only the earlier one lands in the histogram
    recs = make_records([5e-9, 20e-9, period + 6e-9])
    h = tcspc_histogram(recs, 1.0 / period, 1e-9)
    assert h.total == 2
    assert h.counts[5] == 1
    assert h.counts[6] == 1
    assert h.counts[20] == 0


def test_tcspc_phase_origin_recenters():
    period = 32e-9
    # events near the trigger instant, just off the exact bin edge
    recs = make_records([1e-10, period + 1e-10, 2 * period + 1e-10])
    centered = tcspc_histogram(recs, 1.0 / period, 1e-9, phase_origin=-period / 2)
    assert centered.counts[16] == 3
    assert centered.total == 3


def test_tcspc_merge_matches_whole_when_split_on_cycle_boundary():
    period = 32e-9
    rng = np.random.default_rng(67)
    times = np.sort(rng.uniform(0, 100 * period, size=400))
    recs = make_records(times)
    whole = tcspc_histogram(recs, 1.0 / period, 1e-9)
    cut = 50 * period
    first = tcspc_histogram(make_records(times[times < cut]), 1.0 / period, 1e-9)
    second = tcspc_histogram(make_records(times[times >= cut]), 1.0 / period, 1e-9)
    assert np.array_equal(first.counts + second.counts, whole.counts)


@pytest.mark.parametrize("bin_width", [7e-12, 13e-9])
def test_tcspc_counts_every_cycle_when_the_bin_does_not_divide_the_period(bin_width):
    # the last bin reaches past the period, so no first detection is dropped
    period = 32e-9
    times = np.sort(np.random.default_rng(68).uniform(0, 20_000 * period, size=30_000))
    h = tcspc_histogram(make_records(times), 1.0 / period, bin_width)
    assert h.n_bins == math.ceil(period / bin_width)
    assert h.total == np.unique(np.floor(times / period)).size


def test_tcspc_bin_count_tolerates_a_quotient_just_above_a_whole_number():
    # 1 / 31.25 MHz / 4 ps is 8000.000000000001 in floats
    h = tcspc_histogram(make_records([1e-9]), 31.25e6, 4e-12)
    assert h.n_bins == 8000 and h.total == 1


def test_estimate_fwhm_on_gaussian():
    sigma = 70e-12 / 2.3548
    x = np.arange(-400e-12, 400e-12, 4e-12)
    counts = np.round(1e6 * np.exp(-0.5 * (x / sigma) ** 2)).astype(np.int64)
    h = Histogram(4e-12, float(x[0]), counts)
    assert estimate_fwhm(h) == pytest.approx(70e-12, rel=0.01)


def test_estimate_fwhm_edge_cases():
    assert estimate_fwhm(Histogram(1.0, 0.0, np.array([0, 9, 0]))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        estimate_fwhm(Histogram(1.0, 0.0, np.array([0, 0])))
    with pytest.raises(ValueError):
        estimate_fwhm(Histogram(1.0, 0.0, np.array([4, 4, 4])))


def test_deconvolve_jitter_quadrature():
    assert deconvolve_jitter(76e-12, 30e-12) == pytest.approx(
        math.sqrt(76.0**2 - 30.0**2) * 1e-12
    )
    assert deconvolve_jitter(5.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        deconvolve_jitter(29e-12, 30e-12)


def test_subsequent_gate_fraction_synthetic():
    # 960 counts at the peak bin, 16 in each of the three following gates
    period = 0.8e-9
    n_bins = 1000
    counts = np.zeros(n_bins, dtype=np.int64)
    bin_width = 40e-12
    peak = 100
    counts[peak] = 960
    per_gate = int(period / bin_width)
    for k in (1, 2, 3):
        counts[peak + k * per_gate] = 16
    h = Histogram(bin_width, 0.0, counts)
    frac = subsequent_gate_fraction(h, period, 3)
    assert frac == pytest.approx(48 / 1008)


def test_correlation_histogram_counts_lags():
    recs = np.zeros(4, dtype=[("gate_index", np.int64), ("time", np.float64),
                              ("origin", np.uint8), ("accepted", np.bool_)])
    recs["gate_index"] = [0, 11, 22, 60]
    recs["accepted"] = True
    recs["time"] = recs["gate_index"] * GATE_PERIOD
    h = inter_detection_correlation(recs, 50, GATE_PERIOD)
    assert h.n_bins == 50
    assert h.counts[10] == 2  # lag 11 gates, twice
    assert h.counts[37] == 1  # lag 38 gates
    assert h.total == 3


def oracle_bin_counts(times, bin_width, origin, n_bins):
    """The out-of-place binning the histogram passes used to run."""
    times = np.asarray(times, dtype=float)
    idx = np.floor((times - origin) / bin_width).astype(np.int64)
    idx = idx[(idx >= 0) & (idx < n_bins)]
    return np.bincount(idx, minlength=n_bins)


def oracle_tcspc_counts(times, period, bin_width, phase_origin):
    shifted = np.sort(np.asarray(times, dtype=float), kind="stable") - phase_origin
    cycles = np.floor(shifted / period).astype(np.int64)
    first = np.ones(cycles.size, dtype=bool)
    first[1:] = cycles[1:] != cycles[:-1]
    phase = shifted[first] - cycles[first] * period
    return oracle_bin_counts(phase, bin_width, 0.0, max(1, int(round(period / bin_width))))


def test_in_place_passes_leave_their_inputs_and_match_the_out_of_place_counts(monkeypatch):
    period, width = 32e-9, 1e-9
    rng = np.random.default_rng(23)
    cycles = np.arange(-3, 4)[:, None]
    edges = (cycles * period + np.arange(0, 33)[None, :] * width).ravel()  # bin edges, both wraps
    times = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        rng.uniform(-5 * period, 5 * period, size=3000),  # negative phases included
        np.repeat(rng.uniform(0, period, size=50), 3),  # ties within a cycle
    ])
    rng.shuffle(times)
    recs = make_records(times)
    recs["gate_index"] = rng.integers(-5, 400, size=times.size)  # unsorted, repeats, jumps
    recs["accepted"] = rng.random(times.size) < 0.8
    before = recs.copy()
    # the record passes go in blocks of `block` records: with small blocks,
    # cycles and runs of accepted records straddle many block edges
    for block in (1, 5, 64, _RECORD_BLOCK):
        monkeypatch.setattr(mc_engine, "_RECORD_BLOCK", block)
        for phase_origin in (0.0, -period / 2, 0.3 * width, period):
            h = tcspc_histogram(recs, 1.0 / period, width, phase_origin=phase_origin)
            assert np.array_equal(h.counts,
                                  oracle_tcspc_counts(times, period, width, phase_origin))
        for max_lag in (1, 7, 50):
            gates = recs["gate_index"][recs["accepted"]]
            lags = np.diff(gates)
            lags = lags[(lags >= 1) & (lags <= max_lag)]
            corr = inter_detection_correlation(recs, max_lag, GATE_PERIOD)
            assert np.array_equal(corr.counts, np.bincount(lags - 1, minlength=max_lag))
    assert recs.tobytes() == before.tobytes()
    given = times.copy()
    for origin in (0.0, -period, 2.5 * width):
        h = Histogram.from_times(given, width, origin, 40)
        assert np.array_equal(h.counts, oracle_bin_counts(times, width, origin, 40))
    assert np.array_equal(given, times)
    ints = [3, -1, 0, 7, 39, 40]  # a non-float input is converted, not overwritten
    assert Histogram.from_times(ints, 1.0, 0.0, 40).total == 4
    assert ints == [3, -1, 0, 7, 39, 40]


@pytest.mark.parametrize("block", [3, 100, _RECORD_BLOCK])
def test_blocked_tcspc_histogram_matches_the_sorted_reference(monkeypatch, block):
    # darks, 20 % tails up to three gates late and a photon-only delay put
    # records out of time order; a 4-gate trigger period puts many cycles in a block
    monkeypatch.setattr(mc_engine, "_RECORD_BLOCK", block)
    det = DetectorParams(temperature_c=20.0, jitter=JitterModel(tail_fraction=0.2),
                         dark_law=TemperatureDarkLaw(table=((-45.0, 1e-3), (20.0, 2e-2))))
    trigger = 1.25e9 / 4
    recs = run_simulation(RunConfig(
        n_gates=200_000, master_seed=19, detector=det,
        source=SourceConfig.pulsed(mean_photons=2.0, trigger_rate=trigger,
                                   alignment_delay=150e-12),
    )).records
    assert np.any(np.diff(recs["time"]) < 0)
    assert np.all(np.bincount(recs["origin"], minlength=4)[[0, 1, 3]] > 100)
    period = 1.0 / trigger
    for phase_origin in (0.0, -period / 2, 0.37 * period):
        h = tcspc_histogram(recs, trigger, 8e-12, phase_origin=phase_origin)
        assert np.array_equal(h.counts, oracle_tcspc_counts(recs["time"], period, 8e-12,
                                                            phase_origin))
    # photons a thousand cycles late: their cycles wait while the darks pass them
    late = recs.copy()
    late["time"][late["origin"] == ORIGIN_PHOTON] += 1000 * period
    h = tcspc_histogram(late, trigger, 8e-12)
    assert np.array_equal(h.counts, oracle_tcspc_counts(late["time"], period, 8e-12, 0.0))


# ------------------------------------------------------------------ statistics

def test_geometric_lag_gof_accepts_geometric_sample():
    rng = np.random.default_rng(101)
    p = 0.01
    lags = 10 + 1 + rng.geometric(p, size=5_000) - 1  # support starts at holdoff+1
    chi2, dof, pvalue = geometric_lag_gof(lags, 10, p)
    assert dof >= 1
    assert pvalue > 0.01


def test_geometric_lag_gof_rejects_shifted_sample():
    rng = np.random.default_rng(102)
    p = 0.01
    lags = 10 + 1 + rng.geometric(p, size=5_000) - 1
    lags[:1_500] = 10 + 1 + rng.integers(0, 5, size=1_500)  # short-lag pile-up
    chi2, dof, pvalue = geometric_lag_gof(lags, 10, p)
    assert pvalue < 1e-6


def test_geometric_lag_gof_bins_expect_min_expected_counts():
    # n*p << 5: each bin must grow to 5 expected counts, not stop at 1, 2 and 4
    lags = np.concatenate([[11], 10 + np.random.default_rng(5).geometric(1e-3, 39)])
    chi2, dof, pvalue = geometric_lag_gof(lags, 10, 1e-3)
    assert pvalue > 1e-3


def test_geometric_lag_gof_input_validation():
    with pytest.raises(ValueError):
        geometric_lag_gof([12, 13], 10, 0.01)  # too few
    with pytest.raises(ValueError):
        geometric_lag_gof([5] * 20, 10, 0.01)  # inside hold-off
    with pytest.raises(ValueError):
        geometric_lag_gof([12] * 20, 10, 1.5)


def test_short_lag_excess_pvalue_directions():
    rng = np.random.default_rng(103)
    p = 0.01
    base = 10 + 1 + rng.geometric(p, size=8_000) - 1
    same = 10 + 1 + rng.geometric(p, size=8_000) - 1
    assert short_lag_excess_pvalue(same, base, 10, 16) > 0.01
    excess = np.concatenate([same, 10 + 1 + rng.integers(0, 16, size=2_000)])
    assert short_lag_excess_pvalue(excess, base, 10, 16) < 1e-6
    assert short_lag_excess_pvalue([], base, 10, 16) == 1.0
    # one-sided: a short-lag deficit is no afterpulse signature
    deficit = base[base > 26]
    assert short_lag_excess_pvalue(deficit, base, 10, 16) >= 0.5


def test_afterpulse_runs_show_short_lag_structure():
    # hot artificial dark law for statistics; subcritical afterpulse chain
    hot = TemperatureDarkLaw(table=((-45.0, 1e-3), (20.0, 2e-3)))
    base_det = DetectorParams(dark_law=hot, temperature_c=0.0)
    ap_det = DetectorParams(
        dark_law=hot,
        temperature_c=0.0,
        afterpulse=AfterpulseModel(
            trap_fill_per_detection=0.2,
            release_lifetime=100e-9,
            trigger_prob_per_gate=8e-3,
            enabled=True,
        ),
    )
    n = 2_000_000
    base = run_simulation(RunConfig(n_gates=n, master_seed=71, detector=base_det))
    ap = run_simulation(RunConfig(n_gates=n, master_seed=71, detector=ap_det))
    lags_base = np.diff(base.accepted["gate_index"])
    lags_ap = np.diff(ap.accepted["gate_index"])
    assert ap.counters["generated_afterpulse"] > 100
    assert short_lag_excess_pvalue(lags_ap, lags_base, 10, 500) < 0.01


# ------------------------------------------------------------- afterpulse pass

@pytest.mark.parametrize("c", [1e-15, 1e-6, 0.01, 0.5, 0.999])
@pytest.mark.parametrize("r", [0.5, 0.992, 0.99999])
def test_log_survival_matches_direct_sum(c, r):
    # the thinning walk's first fire against the survival summed gate by gate
    n_gates, n_draws = 10**6, 20_000
    pool = _exponentials(np.random.default_rng(17))
    fires = np.array([_next_fire(c, r, n_gates, pool) for _ in range(n_draws)])
    _assert_fires_follow_survival(fires, c, r, n_gates)


@pytest.mark.parametrize("c, r", [(0.5, 0.5), (0.01, 0.992), (1e-6, 0.99999)])
def test_log_survival_holds_with_a_first_exponential_given(c, r):
    # the pass draws the gaps' first exponentials in bulk; the walk takes the rest from the pool
    n_gates, n_draws = 10**6, 20_000
    rng = np.random.default_rng(19)
    pool = _exponentials(rng)
    fires = np.array([_next_fire(c, r, n_gates, pool, first)
                      for first in rng.standard_exponential(n_draws).tolist()])
    _assert_fires_follow_survival(fires, c, r, n_gates)


def _assert_fires_follow_survival(fires, c, r, n_gates):
    """First fires against the survival summed gate by gate, at a few depths."""
    assert fires.min() >= 0 and fires.max() <= n_gates
    log_survival = np.cumsum(np.log1p(-c * r ** np.arange(n_gates)))
    for k in (1, 2, 17, 1000, 65_537, 10**6):
        survived = int(np.count_nonzero(fires >= k))  # no fire in the first k gates
        p_value = stats.binomtest(survived, fires.size, math.exp(log_survival[k - 1])).pvalue
        assert p_value > 1e-4, (k, survived, fires.size * math.exp(log_survival[k - 1]))


def _steps(x: float, k: int) -> float:
    """`x` moved by `k` ulps (down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@settings(derandomize=True, max_examples=400, deadline=None)
@given(e=st.floats(0.0, 800.0), n=st.integers(1, 10**12), k=st.integers(-4, 4))
@example(e=0.0, n=1, k=0)  # the first candidate is gate 0: the bound clears nothing
@example(e=800.0, n=1, k=4)  # expm1 returns -1: the bound is 1 less the margin
@example(e=36.0, n=1, k=-4)  # 1 - exp(-36) lies two ulps below 1
@example(e=2.2250738585e-313, n=100, k=0)  # a subnormal e/n rounds coarsely
@example(e=1e-300, n=10**12, k=1)  # e/n underflows to 0
def test_no_fire_bound_clears_only_gaps_the_exact_test_clears(e, n, k):
    lo = float(_no_fire_bound(np.array([e]), np.array([n]))[0])
    assert lo < 1.0
    for c in (0.0, lo, _steps(lo, k), _steps(lo, -abs(k))):
        if not 0.0 <= c <= lo:
            continue  # the bound does not clear it: the walk decides
        assert c == 0.0 or e / -math.log1p(-c) >= n, (c, lo)
        # the walk's first step agrees, and draws nothing from its (empty) pool
        assert _next_fire(c, 0.5, n, iter(()), e) == n


def test_afterpulse_pass_draws_no_single_variate(monkeypatch):
    # every draw of the pass, the pool's and the detection times' included, is an array
    results = []
    make = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = make(seed)

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                results.append(getattr(self.rng, name)(*args, **kwargs))
                return results[-1]
            return draw

    monkeypatch.setattr(np.random, "default_rng", Recording)
    intrinsic = np.arange(0, 100_000, 97, dtype=np.int64)
    ap = _pass_on(_afterpulse_config(100_000, 5, 4.0, 0.25, 0.4424), intrinsic, ORIGIN_DARK)
    assert ap.size > 100
    assert results and all(isinstance(x, np.ndarray) for x in results)


def _afterpulse_config(n_gates, seed, lifetime_gates, fill, trigger):
    det = quiet_detector(afterpulse=AfterpulseModel(
        trap_fill_per_detection=fill,
        release_lifetime=lifetime_gates * GATE_PERIOD,
        trigger_prob_per_gate=trigger,
        enabled=True,
    ))
    return RunConfig(n_gates=n_gates, master_seed=seed, detector=det)


def _pass_on(cfg, intrinsic, origin=ORIGIN_PHOTON):
    """Afterpulse-labeled gates after `_afterpulse_pass` on `origin` candidates at `intrinsic`.

    Photon candidates are never relabeled, so for them these are the added gates.
    """
    phys = np.full(intrinsic.size, origin, dtype=np.uint8)
    added, _, _ = _afterpulse_pass(cfg, intrinsic, phys)
    return np.sort(np.concatenate([added, intrinsic[phys == ORIGIN_AFTERPULSE]]))


def test_certain_hazard_fires_the_first_gate():
    # trigger 1 and fill 1.5 at r = exp(-0.1): the hazard one gate after any
    # fill is >= 1.36, so every gate after the avalanche fires
    cfg = _afterpulse_config(50, 3, 10.0, 1.5, 1.0)
    ap = _pass_on(cfg, np.array([5], dtype=np.int64))
    assert ap.tolist() == list(range(6, 50))


@pytest.mark.parametrize("n_intrinsic", [4 * _GAP_BLOCK - 1, 4 * _GAP_BLOCK, 4 * _GAP_BLOCK + 1])
def test_certain_hazard_fills_every_gate_across_gap_blocks(n_intrinsic):
    # the gaps go in blocks; the last gap, to the end of the run, is walked
    # whether or not the intrinsic count fills its last block
    intrinsic = np.arange(0, 3 * n_intrinsic, 3, dtype=np.int64)
    n_gates = 3 * n_intrinsic + 5
    ap = _pass_on(_afterpulse_config(n_gates, 3, 10.0, 1.5, 1.0), intrinsic)
    assert np.array_equal(ap, np.setdiff1d(np.arange(1, n_gates), intrinsic))


def brute_force_afterpulses(intrinsic, n_gates, model, gate_period, seed, relabeled=None):
    """Per-gate Bernoulli oracle: every gate draws against trigger * N(gate).

    Returns the added afterpulse gates; intrinsic gates whose draw fires
    (relabels) are appended to `relabeled` when it is given.
    """
    u = np.random.default_rng(seed).random(n_gates).tolist()
    is_intrinsic = np.zeros(n_gates, dtype=bool)
    is_intrinsic[intrinsic] = True
    decay = math.exp(-gate_period / model.release_lifetime)
    traps, fired = 0.0, []
    for g, intrinsic_here in enumerate(is_intrinsic.tolist()):
        draw_fires = u[g] < model.trigger_prob_per_gate * traps
        if intrinsic_here and draw_fires and relabeled is not None:
            relabeled.append(g)
        if intrinsic_here or draw_fires:
            if not intrinsic_here:
                fired.append(g)
            traps += model.trap_fill_per_detection
        traps *= decay
    return np.asarray(fired, dtype=np.int64)


def _lags_to_previous_avalanche(intrinsic, ap):
    """Gate gap from each afterpulse back to the avalanche before it."""
    merged = np.sort(np.concatenate([intrinsic, ap]))
    return (ap - merged[np.searchsorted(merged, ap) - 1]).tolist()


def test_afterpulse_pass_matches_per_gate_oracle():
    n_gates, n_seeds = 100_000, 30
    # lifetime 4 gates, branching ratio 0.25*0.4424/(1 - exp(-1/4)) = 0.50
    cfg0 = _afterpulse_config(n_gates, 0, 4.0, 0.25, 0.4424)
    model = cfg0.detector.afterpulse
    assert 0.45 < model.branching_ratio(GATE_PERIOD) < 0.55
    counts = {"pass": [], "oracle": []}
    lags = {"pass": [], "oracle": []}
    for seed in range(n_seeds):
        rng = np.random.default_rng((seed, 7))
        intrinsic = np.flatnonzero(rng.random(n_gates) < 3e-3).astype(np.int64)
        runs = {
            "pass": _pass_on(_afterpulse_config(n_gates, seed, 4.0, 0.25, 0.4424), intrinsic),
            "oracle": brute_force_afterpulses(intrinsic, n_gates, model, GATE_PERIOD,
                                              (seed, 8)),
        }
        for name, ap in runs.items():
            counts[name].append(ap.size)
            lags[name] += _lags_to_previous_avalanche(intrinsic, ap)
    a, b = np.asarray(counts["pass"], float), np.asarray(counts["oracle"], float)
    z = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / n_seeds + b.var(ddof=1) / n_seeds)
    assert abs(z) < 4.0, (a.mean(), b.mean(), z)
    assert a.mean() > 100  # enough chains to carry the comparison
    # lag histograms: lags 1..11 one bin each, the rest in one tail bin
    table = np.asarray([np.bincount(np.minimum(lags[name], 12), minlength=13)[1:]
                        for name in ("pass", "oracle")])
    _, p_value, _, _ = stats.chi2_contingency(table, correction=False)
    assert p_value > 1e-3, table


def _count_z(a, b):
    """z of the difference between two per-seed count means."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)


def _pass_and_oracle_on_darks(n_gates, n_seeds, lifetime_gates, fill, trigger, density, tag):
    """Per-seed added and relabeled counts, and the added lags, of the pass and the oracle.

    Each seed puts dark candidates at `density` per gate, drawn from
    (seed, tag); the oracle draws from (seed, tag + 1). Asserts that both
    kinds of count agree at |z| < 4.
    """
    model = _afterpulse_config(n_gates, 0, lifetime_gates, fill, trigger).detector.afterpulse
    counts = {key: [] for key in ("pass_added", "pass_relabeled", "oracle_added",
                                  "oracle_relabeled")}
    lags = {"pass": [], "oracle": []}
    for seed in range(n_seeds):
        rng = np.random.default_rng((seed, tag))
        intrinsic = np.flatnonzero(rng.random(n_gates) < density).astype(np.int64)
        ap = _pass_on(_afterpulse_config(n_gates, seed, lifetime_gates, fill, trigger),
                      intrinsic, ORIGIN_DARK)
        on_intrinsic = np.isin(ap, intrinsic)
        counts["pass_relabeled"].append(np.count_nonzero(on_intrinsic))
        counts["pass_added"].append(np.count_nonzero(~on_intrinsic))
        lags["pass"] += _lags_to_previous_avalanche(intrinsic, ap[~on_intrinsic])
        relabeled = []
        added = brute_force_afterpulses(intrinsic, n_gates, model, GATE_PERIOD, (seed, tag + 1),
                                        relabeled)
        counts["oracle_relabeled"].append(len(relabeled))
        counts["oracle_added"].append(added.size)
        lags["oracle"] += _lags_to_previous_avalanche(intrinsic, added)
    for kind in ("relabeled", "added"):
        z = _count_z(counts[f"pass_{kind}"], counts[f"oracle_{kind}"])
        assert abs(z) < 4.0, (kind, np.mean(counts[f"pass_{kind}"]),
                              np.mean(counts[f"oracle_{kind}"]), z)
    return counts, lags


def test_relabels_and_added_afterpulses_match_per_gate_oracle():
    # dark candidates are dense enough that afterpulses often land on one
    counts, _ = _pass_and_oracle_on_darks(100_000, 30, 4.0, 0.25, 0.4424, 5e-2, 9)
    for kind in ("relabeled", "added"):
        assert np.mean(counts[f"pass_{kind}"]) > 100  # enough to carry the comparison


def test_pass_matches_per_gate_oracle_where_most_gaps_exit_early():
    # lifetime 125 gates and one avalanche per ~400 gates: the hazard is
    # small and long-lived, so most gaps leave by the first-exponential test
    lifetime, fill = 125.0, 0.1
    trigger = 0.3 * (1.0 - math.exp(-1.0 / lifetime)) / fill
    model = _afterpulse_config(1, 0, lifetime, fill, trigger).detector.afterpulse
    assert 0.29 < model.branching_ratio(GATE_PERIOD) < 0.31
    counts, lags = _pass_and_oracle_on_darks(300_000, 20, lifetime, fill, trigger, 1 / 400, 11)
    assert np.mean(counts["pass_added"]) > 100  # enough to carry the comparison
    # lag histograms in octaves up to 4 lifetimes, the rest in one tail bin
    edges = [2, 4, 8, 16, 32, 64, 128, 256, 512]
    table = np.asarray([np.bincount(np.searchsorted(edges, lags[name], side="right"),
                                    minlength=len(edges) + 1)
                        for name in ("pass", "oracle")])
    _, p_value, _, _ = stats.chi2_contingency(table, correction=False)
    assert p_value > 1e-3, table


def test_walk_edge_cases():
    intrinsic = np.arange(0, 10_000, 7, dtype=np.int64)
    # no trigger: the traps fill but never fire, and nothing is relabeled
    assert _pass_on(_afterpulse_config(10_000, 1, 4.0, 0.25, 0.0), intrinsic,
                    ORIGIN_DARK).size == 0
    # a lifetime of 1/1000 gate: the per-gate decay underflows to 0.0
    cfg = _afterpulse_config(10_000, 1, 1e-3, 0.25, 0.4424)
    assert math.exp(-GATE_PERIOD / cfg.detector.afterpulse.release_lifetime) == 0.0
    assert _pass_on(cfg, intrinsic, ORIGIN_DARK).size == 0
    # one avalanche in a huge run: the walk ends long before the last gate
    for seed in range(20):
        ap = _pass_on(_afterpulse_config(10**12, seed, 4.0, 0.25, 0.4424),
                      np.array([0], dtype=np.int64))
        assert np.all(ap < 10_000), ap
