"""Link-budget tests: analytic composition, sweeps, Monte Carlo consistency."""

import concurrent.futures
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from sinegate import mc_engine, qkd_budget
from sinegate.detector_model import DetectorParams, GateConfig, JitterModel, ModelRangeError
from sinegate.mc_engine import _RECORD_BLOCK, RunConfig, SourceConfig, packed_bit, run_simulation
from sinegate.qkd_budget import (
    FIBER_DB_PER_KM,
    QkdLinkConfig,
    QkdReport,
    binary_entropy,
    evaluate,
    fiber_db_to_length,
    mc_link_run,
    mu_at_detector,
    rate_after_ec,
    stability_run,
    sweep,
)


def test_binary_entropy_landmarks():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.25) == binary_entropy(0.75)
    # frozen oracle: h2(0.016) computed independently
    assert binary_entropy(0.016) == pytest.approx(0.11835001140827503, rel=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    # arrays: each element as its own scalar call, endpoints included
    q = np.array([0.0, 0.016, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(binary_entropy(q), [binary_entropy(v) for v in q.tolist()])
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.1, -0.01]))


def test_fiber_conversion_round_trip():
    for db in np.arange(0.0, 16.5, 0.5):
        assert fiber_db_to_length(db) * FIBER_DB_PER_KM == db
    assert fiber_db_to_length(1.0) == pytest.approx(5.0)
    assert fiber_db_to_length(10.0) == pytest.approx(50.0)


def test_mu_at_detector_follows_loss():
    cfg = QkdLinkConfig(mu_source=1.0)
    assert mu_at_detector(cfg) == 1.0
    assert mu_at_detector(QkdLinkConfig(mu_source=1.0, fiber_loss_db=10.0)) == pytest.approx(0.1)
    assert mu_at_detector(QkdLinkConfig(mu_source=1.0, fiber_loss_db=3.0)) == pytest.approx(
        10 ** -0.3
    )


def test_holdoff_gates_rounding():
    assert QkdLinkConfig().holdoff_gates == 10  # 8 ns * 1.25 GHz
    assert QkdLinkConfig(holdoff_gates=0).holdoff_gates == 0


def test_bit_rate_is_half_the_gate_clock():
    assert QkdLinkConfig().bit_rate == 625e6
    one_ghz = DetectorParams(gate=GateConfig(gate_frequency=1e9))
    assert QkdLinkConfig(detector=one_ghz).bit_rate == 5e8
    # a time bin may fill its gate period, not more
    assert QkdLinkConfig(detector=one_ghz, timebin_width=1e-9).timebin_width == 1e-9
    with pytest.raises(ValueError, match="timebin_width"):
        QkdLinkConfig(detector=one_ghz, timebin_width=1.001e-9)


def test_holdoff_gates_must_be_whole_gates():
    for bad in (2.5, -1):
        with pytest.raises(ValueError, match="holdoff_gates"):
            QkdLinkConfig(holdoff_gates=bad)


def test_config_validation():
    with pytest.raises(ValueError):
        QkdLinkConfig(mu_source=-0.1)
    with pytest.raises(ValueError):
        QkdLinkConfig(timebin_width=900e-12)  # over half the 1.6 ns bit period
    with pytest.raises(ValueError):
        QkdLinkConfig(holdoff_anchor="elastic")
    with pytest.raises(ValueError):
        QkdLinkConfig(qber_floor=0.5)
    with pytest.raises(ValueError):
        QkdLinkConfig(ec_efficiency=0.9)


def test_raw_rate_small_signal_limit():
    # with a tiny mu the dead-time correction is negligible: R ~ R0
    cfg = QkdLinkConfig(mu_source=1e-6, detector=DetectorParams(dark_law=None))
    r0 = 625e6 * (1.0 - math.exp(-0.1 * 1e-6))
    assert evaluate(cfg).raw_rate == pytest.approx(r0, rel=1e-4)


def test_raw_rate_nonparalyzable_formula():
    cfg = QkdLinkConfig(mu_source=1.0, detector=DetectorParams(dark_law=None))
    p = 1.0 - math.exp(-0.1)
    r0 = 625e6 * p
    assert evaluate(cfg).raw_rate == pytest.approx(r0 / (1.0 + r0 * 8e-9), rel=1e-12)


def test_raw_rate_paralyzable_formula():
    cfg = QkdLinkConfig(
        mu_source=1.0, detector=DetectorParams(dark_law=None), holdoff_anchor="any"
    )
    p = 1.0 - math.exp(-0.1)
    r0 = 625e6 * p
    assert evaluate(cfg).raw_rate == pytest.approx(r0 * math.exp(-r0 * 8e-9), rel=1e-12)


def test_qber_extinction_only_limit():
    # dark off, tail off: the only error source is the extinction leak
    det = DetectorParams(dark_law=None, jitter=JitterModel(tail_fraction=0.0))
    cfg = QkdLinkConfig(mu_source=0.1, detector=det)
    q = evaluate(cfg)
    eps = 10 ** -2.5
    assert q.qber_total == pytest.approx(eps / (1 + eps), rel=1e-12)
    assert q.qber_dark == 0.0
    assert q.qber_timing_tail == 0.0
    # and it does not depend on mu
    q2 = evaluate(QkdLinkConfig(mu_source=2.0, detector=det))
    assert q2.qber_extinction == pytest.approx(q.qber_extinction, rel=1e-12)


def test_qber_dark_dominated_limit():
    det = DetectorParams(temperature_c=20.0, jitter=JitterModel(tail_fraction=0.0))
    cfg = QkdLinkConfig(mu_source=1e-9, detector=det, extinction_db=200.0)
    q = evaluate(cfg)
    assert q.qber_total == pytest.approx(0.5, rel=1e-3)  # all-dark detections guess the bin


def test_qber_tail_weight():
    # tail weight is 1/2 + 1/(4*span): 7/12 for the default 3-gate span
    det = DetectorParams(dark_law=None)
    cfg = QkdLinkConfig(mu_source=0.1, detector=det, extinction_db=500.0)
    q = evaluate(cfg)
    assert q.qber_timing_tail == pytest.approx(0.024 * (7.0 / 12.0), rel=1e-9)


def test_qber_floor_rescales_components():
    cfg = QkdLinkConfig(mu_source=0.001, qber_floor=0.016)
    q = evaluate(cfg)
    p_sig_share = q.qber_extinction + q.qber_timing_tail
    # floor applies to the signal-detection share of the denominator
    assert q.qber_total == pytest.approx(q.qber_dark + p_sig_share, rel=1e-12)
    no_floor = evaluate(QkdLinkConfig(mu_source=0.001))
    ratio_floor = q.qber_extinction / q.qber_timing_tail
    ratio_model = no_floor.qber_extinction / no_floor.qber_timing_tail
    assert ratio_floor == pytest.approx(ratio_model, rel=1e-9)
    assert q.qber_dark == pytest.approx(no_floor.qber_dark, rel=1e-12)


def test_qber_zero_denominator():
    det = DetectorParams(dark_law=None)
    q = evaluate(QkdLinkConfig(mu_source=0.0, detector=det))
    assert (q.qber_total, q.qber_dark, q.qber_extinction, q.qber_timing_tail) == (0.0,) * 4


def test_rate_after_ec_endpoints():
    assert rate_after_ec(1e6, 0.0, 1.2) == 1e6
    assert rate_after_ec(1e6, 0.5, 1.2) == 0.0  # 1 - 1.2*h2(0.5) < 0, clamped
    assert rate_after_ec(1e6, 0.02, 1.2) == pytest.approx(
        1e6 * (1 - 1.2 * binary_entropy(0.02))
    )
    with pytest.raises(ValueError):
        rate_after_ec(1e6, 0.6, 1.2)
    with pytest.raises(ValueError):
        rate_after_ec(-1.0, 0.1, 1.2)
    # arrays: each element as its own scalar call, and every element is checked
    q = np.array([0.0, 0.02, 0.3, 0.5])
    assert np.array_equal(rate_after_ec(1e6, q, 1.2),
                          [rate_after_ec(1e6, v, 1.2) for v in q.tolist()])
    with pytest.raises(ValueError):
        rate_after_ec(1e6, np.array([0.1, 0.6]), 1.2)
    with pytest.raises(ValueError):
        rate_after_ec(np.array([1e6, -1.0]), 0.1, 1.2)


def test_secret_rate_scales_the_post_ec_rate():
    cfg = QkdLinkConfig()
    report = evaluate(cfg)
    assert report.secret_rate == report.rate_after_ec * (1.0 - cfg.pa_fraction)
    assert report.secret_rate == pytest.approx(report.rate_after_ec * 0.5)
    for pa in (0.0, 1.0):
        assert evaluate(replace(cfg, pa_fraction=pa)).secret_rate == pytest.approx(
            report.rate_after_ec * (1.0 - pa))
    # columns too: at 400 dB only darks click, QBER 0.5 leaves no post-EC rate
    by_loss = sweep(cfg, "fiber_loss_db", [400.0, 0.0])
    assert by_loss.rate_after_ec[0] == 0.0
    assert np.array_equal(by_loss.secret_rate, [0.0, report.secret_rate])
    with pytest.raises(ValueError, match="secret_rate must be >= 0"):
        replace(report, secret_rate=np.array([2e6, -1.0]))


def test_report_component_sum_enforced():
    with pytest.raises(ValueError):
        QkdReport(
            mu_detector=0.1, raw_rate=1e6, qber_total=0.05, qber_dark=0.01,
            qber_extinction=0.01, qber_timing_tail=0.01,  # sums to 0.03, not 0.05
            rate_after_ec=1e5, secret_rate=5e4,
        )
    # columns are checked element by element
    ok = dict(mu_detector=0.1, raw_rate=1e6, qber_total=0.03, qber_dark=0.01,
              qber_extinction=0.01, qber_timing_tail=0.01, rate_after_ec=1e5, secret_rate=5e4)
    QkdReport(**{**ok, "raw_rate": np.array([1e6, 2e6])})
    for name, bad in (("raw_rate", [1e6, -1.0]), ("secret_rate", [5e4, -1.0]),
                      ("qber_dark", [0.01, -0.01]), ("qber_total", [0.03, 0.05])):
        with pytest.raises(ValueError):
            QkdReport(**{**ok, name: np.array(bad)})


def test_evaluate_report_contents():
    report = evaluate(QkdLinkConfig())
    assert report.qber_total == pytest.approx(
        report.qber_dark + report.qber_extinction + report.qber_timing_tail
    )
    assert 0 < report.secret_rate < report.rate_after_ec < report.raw_rate
    assert report.notes["dead_time_model"] == "nonparalyzable"
    assert report.notes["extinction_qber_alternate"] == 0.002
    assert "not a security-proof bound" in report.notes["secret_rate_method"]
    assert all(type(getattr(report, name)) is float for name in (
        "mu_detector", "raw_rate", "qber_total", "qber_dark", "qber_extinction",
        "qber_timing_tail", "rate_after_ec", "secret_rate"))
    header, columns = sweep(QkdLinkConfig(), "fiber_loss_db", [0.0]).table([0.0])
    assert header == [
        "axis_value", "mu_detector", "raw_rate_hz", "qber", "qber_dark", "qber_ext",
        "qber_tail", "rate_after_ec_hz", "secret_rate_hz",
    ]
    assert [float(c[0]) for c in columns] == [
        0.0, report.mu_detector, report.raw_rate, report.qber_total, report.qber_dark,
        report.qber_extinction, report.qber_timing_tail, report.rate_after_ec,
        report.secret_rate,
    ]


def test_secret_rate_monotone_in_loss():
    grid = np.arange(0.0, 16.5, 0.5)
    report = sweep(QkdLinkConfig(), "fiber_loss_db", grid)
    secret = report.secret_rate.tolist()
    for a, b in zip(secret, secret[1:]):
        assert b < a or (a == 0.0 and b == 0.0)
    assert np.all(np.diff(report.qber_total) >= 0)


def test_sweep_axes_and_errors():
    cfg = QkdLinkConfig()
    by_temp = sweep(cfg, "temperature", [-43.0, 20.0])
    assert by_temp.qber_dark[1] > by_temp.qber_dark[0]
    assert by_temp.mu_detector.shape == (2,)  # constant along the axis, still a column
    # mu and bias are no axes, but the rate still rises with each
    by_mu = [evaluate(replace(cfg, mu_source=mu)) for mu in (0.1, 0.2)]
    assert by_mu[1].raw_rate > by_mu[0].raw_rate
    by_bias = [evaluate(replace(cfg, detector=replace(cfg.detector, bias=b)))
               for b in (53.5, 54.5)]
    assert by_bias[1].raw_rate > by_bias[0].raw_rate
    for axis in ("mu_source", "bias", "wavelength"):
        with pytest.raises(ValueError, match="axis must be one of"):
            sweep(cfg, axis, [0.1, 0.2])
    for grid in ([], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="non-empty sequence"):
            sweep(cfg, "fiber_loss_db", grid)
    with pytest.raises(ValueError, match="fiber_loss_db must be a number >= 0"):
        sweep(cfg, "fiber_loss_db", [0.0, -1.0])


# Independent oracle of `sweep`: every grid point built as its own
# QkdLinkConfig, the way a caller would, and evaluated on its own.
_NO_DARK = DetectorParams(dark_law=None)
_SWEEP_CASES = {
    "defaults": QkdLinkConfig(),
    "any-anchor": QkdLinkConfig(mu_source=1.0, holdoff_anchor="any"),
    "no-holdoff": QkdLinkConfig(holdoff_gates=0),
    "qber-floor": QkdLinkConfig(mu_source=0.001, qber_floor=0.016),
    "no-dark-law": QkdLinkConfig(detector=_NO_DARK),
    "no-dark-law-any": QkdLinkConfig(detector=_NO_DARK, holdoff_anchor="any"),
    "room-temperature": QkdLinkConfig(detector=DetectorParams(temperature_c=20.0)),
    "no-light": QkdLinkConfig(mu_source=0.0),
    "no-light-no-dark": QkdLinkConfig(mu_source=0.0, detector=_NO_DARK),  # zero denominator
}
_LOSS_GRID = np.arange(0.0, 40.25, 0.25)
# table anchors, points between them, and the ends of the table
_TEMPERATURE_GRID = np.array([-45.0, -44.0, -43.0, -39.5, -35.0, -30.0, -25.0, -24.9, -5.0,
                              0.0, 5.0, 12.3, 15.0, 19.99, 20.0])


def _points(cfg, axis, grid):
    if axis == "fiber_loss_db":
        return [replace(cfg, fiber_loss_db=v) for v in grid.tolist()]
    return [replace(cfg, detector=replace(cfg.detector, temperature_c=v))
            for v in grid.tolist()]


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
@pytest.mark.parametrize("axis, grid", [("fiber_loss_db", _LOSS_GRID),
                                        ("temperature", _TEMPERATURE_GRID)])
def test_sweep_matches_evaluate_point_by_point(case, axis, grid):
    cfg = _SWEEP_CASES[case]
    report = sweep(cfg, axis, grid)
    _, columns = report.table(grid)
    assert all(c.shape == grid.shape for c in columns)
    assert np.array_equal(columns[0], grid)
    for i, point in enumerate(_points(cfg, axis, grid)):
        expected = evaluate(point)
        for name in ("mu_detector", "raw_rate", "qber_total", "qber_dark", "qber_extinction",
                     "qber_timing_tail", "rate_after_ec", "secret_rate"):
            got = getattr(report, name)[i]
            assert got == pytest.approx(getattr(expected, name), rel=1e-12, abs=0.0), \
                (name, grid[i])
    assert report.notes == evaluate(cfg).notes


def test_sweep_refuses_a_temperature_outside_the_dark_table():
    with pytest.raises(ModelRangeError, match="temperature 20.5 C outside"):
        sweep(QkdLinkConfig(), "temperature", [-43.0, 20.5, 30.0])


def test_default_loss_sweep_rows_are_frozen():
    # rows of the default `qkd_vs_loss` table as the per-point model wrote them;
    # the array pass may move only their last bits
    frozen = {
        0.0: [0.3, 16093953.86969444, 0.017171913446155377, 2.030066961902708e-05,
              0.0031521811952856795, 0.01399943158125067, 13674981.275150126,
              6837490.637575063],
        4.0: [0.11943215116604916, 7004996.403571175, 0.017201108863921982,
              5.053320290216402e-05, 0.0031519905907010765, 0.013998585070318743,
              5950690.467173404, 2975345.233586702],
        14.0: [0.01194321511660492, 742320.7149107672, 0.01763725468703587,
               0.0005021723340494484, 0.0031491431783398057, 0.013985939174646618,
               628335.4163795394, 314167.7081897697],
    }
    grid = np.arange(0.0, 16.5, 0.5)
    _, columns = sweep(QkdLinkConfig(), "fiber_loss_db", grid).table(grid)
    for loss, row in frozen.items():
        i = int(np.flatnonzero(grid == loss)[0])
        assert [float(c[i]) for c in columns[1:]] == pytest.approx(row, rel=1e-12, abs=0.0)


def test_mc_link_run_matches_analytics_within_3_sigma():
    # mu at the detector ~0.1: the discrete-gate renewal bias (~0.2 %) is
    # well inside the statistical band at 1e7 bits
    cfg = QkdLinkConfig(mu_source=0.1)
    mc = mc_link_run(cfg, 10_000_000, master_seed=404)
    analytic = evaluate(cfg)
    n = mc["accepted_total"]
    p_hat = n / mc["n_bits"]
    p_ana = analytic.raw_rate / cfg.bit_rate
    sigma_p = math.sqrt(p_ana * (1 - p_ana) / mc["n_bits"])
    assert abs(p_hat - p_ana) < 3 * sigma_p

    q_hat = mc["qber"]
    q_ana = analytic.qber_total
    sigma_q = math.sqrt(q_ana * (1 - q_ana) / mc["accepted_in_windows"])
    assert abs(q_hat - q_ana) < 3 * sigma_q


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_link_run_matches_analytics_at_room_temperature_past_25_km(seed):
    # the abstract's claim, QKD beyond 25 km (5 dB) at +20 C, in Monte Carlo
    cfg = QkdLinkConfig(fiber_loss_db=5.0, detector=DetectorParams(temperature_c=20.0))
    mc = mc_link_run(cfg, 4_000_000, seed)
    analytic = evaluate(cfg)
    expected = analytic.raw_rate * mc["duration_s"]
    z_rate = (mc["accepted_total"] - expected) / math.sqrt(expected)
    n, q = mc["accepted_in_windows"], analytic.qber_total
    z_qber = (mc["wrong_bin"] - n * q) / math.sqrt(n * q * (1 - q))
    assert abs(z_rate) < 4.0, z_rate
    assert abs(z_qber) < 4.0, z_qber


def test_cow_bits_read_packed_across_a_chunk_boundary():
    # 600 001 bits: two chunks, the second 75 713 bits, not a whole number of bytes
    cfg = QkdLinkConfig(mu_source=0.3)
    assert mc_link_run(cfg, 600_001, master_seed=8) == {
        "n_bits": 600_001, "accepted_total": 15570, "accepted_in_windows": 15570,
        "discarded_outside_windows": 0, "wrong_bin": 274, "duration_s": 0.0009600016,
        "raw_rate_hz": 16218722.968795052, "qber": 0.017597944765574823,
    }
    result = run_simulation(RunConfig(n_gates=2 * 600_001, master_seed=8,
                                      source=SourceConfig.cow(mean_photons_per_bit=0.3)))
    bits = np.unpackbits(result.packed_bits, count=600_001)
    assert np.array_equal(result.bits, bits)
    read = packed_bit(result.packed_bits, np.arange(600_001))
    assert read.dtype == np.uint8
    assert np.array_equal(read, bits)


def whole_segment_window(result, cfg: QkdLinkConfig, n_bits: int):
    """The window pass over a whole segment's accepted records at once: nearest
    gate, offset from its center, the two-bin window and the bit train's end.
    Returns the counters, each accepted record's nearest gate and its window flag."""
    period = cfg.detector.gate.gate_period
    times = result.records["time"][result.records["accepted"]]
    nearest_gate = np.rint(times / period)
    in_window = np.abs(times - nearest_gate * period) <= cfg.timebin_width / 2.0
    in_window &= (nearest_gate >= 0) & (nearest_gate < 2 * n_bits)
    assigned = nearest_gate[in_window].astype(np.int64)
    sent = np.unpackbits(result.packed_bits)[assigned >> 1]
    counters = {"accepted_total": times.size, "accepted_in_windows": assigned.size,
                "wrong_bin": int(np.count_nonzero(sent != (assigned & 1)))}
    return counters, nearest_gate, in_window


# name: (link, bits, records per block); a short run gets small blocks to span several
WINDOW_CASES = {
    "default-window": (QkdLinkConfig(mu_source=0.3), 4_000_000, _RECORD_BLOCK),
    "narrow-window": (QkdLinkConfig(mu_source=0.3, timebin_width=75e-12), 4_000_000, _RECORD_BLOCK),
    "tail-past-the-train": (QkdLinkConfig(mu_source=5.0, holdoff_gates=0, detector=DetectorParams(
        jitter=JitterModel(tail_fraction=0.5, tail_span_gates=40))), 200, 16),
}


@pytest.mark.parametrize("case", list(WINDOW_CASES))
def test_block_wise_window_matches_the_whole_segment(monkeypatch, case):
    cfg, n_bits, block = WINDOW_CASES[case]
    monkeypatch.setattr(mc_engine, "_RECORD_BLOCK", block)
    runs = []
    monkeypatch.setattr(qkd_budget, "run_simulation",
                        lambda run_cfg: runs.append(run_simulation(run_cfg)) or runs[-1])
    mc = mc_link_run(cfg, n_bits, master_seed=5)
    (result,) = runs
    assert result.records.size > 3 * block  # at least four blocks
    expected, nearest_gate, in_window = whole_segment_window(result, cfg, n_bits)
    assert {name: mc[name] for name in expected} == expected
    assert mc["discarded_outside_windows"] == np.count_nonzero(~in_window)
    if case == "narrow-window":
        record_block = np.flatnonzero(result.records["accepted"]) // block
        assert np.unique(record_block[~in_window]).size >= 3
    if case == "tail-past-the-train":
        assert np.any(nearest_gate >= 2 * n_bits)


def test_benchmark_segment_counters_are_pinned():
    # the benchmark's link segment, mu 0.3 over 4 M bits: ~118 k records, four blocks
    assert mc_link_run(QkdLinkConfig(mu_source=0.3), 4_000_000, master_seed=2) == {
        "n_bits": 4_000_000, "accepted_total": 103726, "accepted_in_windows": 103726,
        "discarded_outside_windows": 0, "wrong_bin": 1788, "duration_s": 0.0064,
        "raw_rate_hz": 16207187.5, "qber": 0.017237722461099433,
    }


def test_mc_paralyzable_dead_time_matches_analytic_rate():
    # the simulated hold-off restarts on every detection, as the paralyzable law assumes
    cfg = QkdLinkConfig(mu_source=1.0, fiber_loss_db=0.0, holdoff_anchor="any")
    mc = mc_link_run(cfg, 4_000_000, master_seed=21)
    assert abs(mc["raw_rate_hz"] / evaluate(cfg).raw_rate - 1.0) < 0.02


def test_mc_link_run_deterministic_and_parallel_safe():
    cfg = QkdLinkConfig(mu_source=0.3)
    a = mc_link_run(cfg, 300_000, master_seed=11)
    assert mc_link_run(cfg, 300_000, master_seed=11) == a
    pooled = stability_run(cfg, 3, 100_000, master_seed=11, workers=2)
    assert pooled == stability_run(cfg, 3, 100_000, master_seed=11)


def test_stability_pool_capped_by_segments_and_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = QkdLinkConfig(mu_source=0.3)
    pooled = stability_run(cfg, 3, 50_000, master_seed=5, workers=10**6)
    assert sizes == [2]
    assert pooled == stability_run(cfg, 3, 50_000, master_seed=5)
    stability_run(cfg, 1, 50_000, master_seed=5, workers=10**6)
    assert sizes == [2]  # one segment needs no pool
    with pytest.raises(ValueError):
        stability_run(cfg, 3, 50_000, master_seed=5, workers=0)


def test_mc_link_run_counters_add_up():
    cfg = QkdLinkConfig(mu_source=0.3)
    mc = mc_link_run(cfg, 200_000, master_seed=3)
    # counters only: the analytic budget is `evaluate`'s
    assert list(mc) == ["n_bits", "accepted_total", "accepted_in_windows",
                        "discarded_outside_windows", "wrong_bin", "duration_s",
                        "raw_rate_hz", "qber"]
    assert mc["accepted_in_windows"] + mc["discarded_outside_windows"] == mc["accepted_total"]
    assert 0 <= mc["wrong_bin"] <= mc["accepted_in_windows"]
    assert mc["duration_s"] == pytest.approx(200_000 / 625e6)


def test_stability_run_segments():
    cfg = QkdLinkConfig(mu_source=0.3)
    segments = stability_run(cfg, 5, 100_000, master_seed=77)
    assert [s["segment_index"] for s in segments] == [0, 1, 2, 3, 4]
    counts = [s["accepted_total"] for s in segments]
    assert len(set(counts)) > 1  # segments are independent draws
    again = stability_run(cfg, 5, 100_000, master_seed=77)
    assert segments == again
    # Poisson-level scatter around the mean
    mean = np.mean(counts)
    assert np.abs(np.asarray(counts) - mean).max() < 6 * math.sqrt(mean)
