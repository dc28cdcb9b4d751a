"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE NN <name>: PASS/FAIL` line (visible with
`pytest -rA`) and asserts the same condition, so the suite both reports and
enforces the package-level guarantees.
"""

import json
import time

import numpy as np
import pytest

from sinegate import cli
from sinegate import signal_chain as sc
from sinegate.config import grid_values, load_config
from sinegate.detector_model import AfterpulseModel, DetectorParams
from sinegate.mc_engine import (
    RunConfig,
    SourceConfig,
    apply_holdoff,
    deconvolve_jitter,
    estimate_fwhm,
    run_simulation,
    subsequent_gate_fraction,
    tcspc_histogram,
)
from sinegate.lag_stats import geometric_lag_gof, short_lag_excess_pvalue
from sinegate.qkd_budget import (
    QkdLinkConfig,
    evaluate,
    mc_link_run,
    sweep,
)

GATE_PERIOD = 0.8e-9
TRIGGER_PERIOD = 32e-9


def _criterion(num, name, checks):
    """checks: list of (label, bool). Prints one line, then asserts."""
    ok = all(passed for _, passed in checks)
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if not ok:
        line += " [" + "; ".join(label for label, passed in checks if not passed) + "]"
    print(line)
    assert ok, line


# --------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def bright_run():
    """A pulsed run with >1e6 detections; shared by the jitter and tail checks.

    mu 30 gives a 95 % click probability per pulse so most trigger cycles
    produce a detection; the histogram shape does not depend on mu.
    """
    cfg = RunConfig(
        n_gates=44_000_000,  # 1.1e6 trigger cycles at 40 gates per cycle
        master_seed=20260816,
        detector=DetectorParams(dark_law=None),
        source=SourceConfig.pulsed(mean_photons=30.0),
    )
    result = run_simulation(cfg)
    hist = tcspc_histogram(
        result.records, 31.25e6, 4e-12, phase_origin=-TRIGGER_PERIOD / 2
    )
    return result, hist


@pytest.fixture(scope="module")
def correlation_runs():
    """Dark-only runs at +20 C: two without afterpulsing, one with."""
    base_det = DetectorParams(temperature_c=20.0)
    ap_det = DetectorParams(
        temperature_c=20.0,
        afterpulse=AfterpulseModel(
            trap_fill_per_detection=0.1,
            release_lifetime=200e-9,
            trigger_prob_per_gate=5e-3,
            enabled=True,
        ),
    )
    n = 100_000_000
    base_a = run_simulation(RunConfig(n_gates=n, master_seed=111, detector=base_det))
    base_b = run_simulation(RunConfig(n_gates=n, master_seed=112, detector=base_det))
    ap = run_simulation(RunConfig(n_gates=n, master_seed=113, detector=ap_det))
    return base_a, base_b, ap


def accepted_lags(result):
    return np.diff(result.accepted["gate_index"])


# ------------------------------------------------------------------ criteria

def test_01_filter_contract():
    t0 = time.perf_counter()
    report = sc.verify_filter_contract(sc.FilterResponseSpec())
    elapsed = time.perf_counter() - t0
    _criterion(1, "filter_contract", [
        (f"gate attenuation {report.gate_attenuation_db:.2f} dB >= 54",
         report.gate_attenuation_db >= 54.0),
        (f"band floor {report.worst_band_attenuation_db:.2f} dB >= 50",
         report.worst_band_attenuation_db >= 50.0),
        (f"wideband floor {report.worst_wideband_attenuation_db:.2f} dB >= 40",
         report.worst_wideband_attenuation_db >= 40.0),
        (f"passband deviation {abs(report.worst_passband_gain_db):.3f} dB <= 1",
         abs(report.worst_passband_gain_db) <= 1.0),
        ("contract flags all true", report.ok),
        (f"runtime {elapsed:.1f} s < 10", elapsed < 10.0),
    ])


def test_02_end_to_end_extraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    spec = sc.FilterResponseSpec()
    shape = sc.AvalanchePulseShape()
    disc = sc.DiscriminatorConfig(
        threshold=-4e-3, polarity="negative-going", refractory_time=5e-9
    )
    duration = 32e-9
    clean = 0
    single = 0
    trials = 100
    for _ in range(trials):
        delay = float(rng.uniform(0.0, GATE_PERIOD))
        gate = sc.synthesize_gate_train(1.25e9, 8.0, duration, delay=delay)
        feed = sc.synthesize_feedthrough(gate, 0.1)
        if len(sc.discriminate(sc.apply_filter(feed, spec, stages=2), disc)) == 0:
            clean += 1
        t_ev = float(rng.uniform(6e-9, duration - 6e-9))
        diode = feed + sc.synthesize_avalanche(shape, gate, t_ev, rng)
        crossings = sc.discriminate(sc.apply_filter(diode, spec, stages=2), disc)
        if len(crossings) == 1:
            single += 1
    elapsed = time.perf_counter() - t0
    _criterion(2, "end_to_end_extraction", [
        (f"feedthrough-only clean in {clean}/{trials} trials", clean == trials),
        (f"exactly one crossing in {single}/{trials} trials", single == trials),
        (f"runtime {elapsed:.1f} s < 30", elapsed < 30.0),
    ])


def test_03_tcspc_jitter(bright_run):
    result, hist = bright_run
    fwhm_ps = estimate_fwhm(hist) * 1e12
    nominal_ps = deconvolve_jitter(76.0, 30.0)
    detector_ps = deconvolve_jitter(fwhm_ps, 30.0)
    _criterion(3, "tcspc_jitter", [
        (f"{len(result.records)} detections >= 1e6", len(result.records) >= 1_000_000),
        (f"histogram FWHM {fwhm_ps:.2f} ps in 76 +/- 2", 74.0 <= fwhm_ps <= 78.0),
        (f"deconvolve(76, 30) = {nominal_ps:.2f} ps in 70 +/- 1",
         69.0 <= nominal_ps <= 71.0),
        (f"deconvolved detector width {detector_ps:.2f} ps in 70 +/- 1",
         69.0 <= detector_ps <= 71.0),
    ])


def test_04_subsequent_gate_tail(bright_run):
    _, hist = bright_run
    frac = subsequent_gate_fraction(hist, GATE_PERIOD, 3)
    _criterion(4, "subsequent_gate_tail", [
        (f"tail fraction {100 * frac:.2f} % in 2.4 +/- 0.2",
         0.022 <= frac <= 0.026),
    ])


def test_05_dark_count_reproduction():
    cases = [
        (-35.0, 7e-7, 30535),
        (-43.0, 6e-7, 30543),
        (20.0, 1.5e-5, 30520),
    ]
    n_gates = 1_000_000_000
    checks = []
    for temperature, p_expected, seed in cases:
        det = DetectorParams(temperature_c=temperature)
        t0 = time.perf_counter()
        result = run_simulation(RunConfig(n_gates=n_gates, master_seed=seed, detector=det))
        elapsed = time.perf_counter() - t0
        # every detection in a dark-only run is a dark count; the "tail"
        # origin only marks which gate the detection time landed in
        counted = result.counters["generated_total"]
        expected = n_gates * p_expected
        bound = 3.0 * np.sqrt(expected)
        checks.append((
            f"{temperature:+.0f} C: {counted} darks vs {expected:.0f} +/- {bound:.0f}",
            abs(counted - expected) <= bound,
        ))
        checks.append((f"{temperature:+.0f} C runtime {elapsed:.1f} s < 60", elapsed < 60.0))
    _criterion(5, "dark_count_reproduction", checks)


def test_06_holdoff_property_and_oracle(bright_run, correlation_runs):
    checks = []
    for label, result in (("pulsed", bright_run[0]), ("afterpulsing", correlation_runs[2])):
        lags = accepted_lags(result)
        checks.append((
            f"{label} run: min accepted lag {int(lags.min())} > 10 over {lags.size + 1} detections",
            lags.size > 0 and int(lags.min()) > 10,
        ))
    rng = np.random.default_rng(606)
    exact = True
    for anchor in ("accepted", "any"):
        for _ in range(3):
            gates = np.cumsum(rng.integers(1, 25, size=10_000))
            recs = np.zeros(gates.size, dtype=[("gate_index", np.int64), ("time", np.float64),
                                               ("origin", np.uint8), ("accepted", np.bool_)])
            recs["gate_index"] = gates
            out = apply_holdoff(recs, 10, anchor=anchor)
            flags = []
            last = None
            for g in gates:
                ok = last is None or g - last > 10
                flags.append(ok)
                if anchor == "any" or ok:
                    last = g
            exact = exact and np.array_equal(out["accepted"], np.asarray(flags))
    checks.append(("replay oracle matches apply_holdoff on 1e4-event sequences", exact))
    _criterion(6, "holdoff_property", checks)


def test_07_qkd_rate():
    cfg = QkdLinkConfig(mu_source=1.0)
    analytic = evaluate(cfg).raw_rate
    mc = mc_link_run(cfg, 10_000_000, master_seed=2024)
    rel = abs(mc["raw_rate_hz"] / analytic - 1.0)
    _criterion(7, "qkd_rate", [
        (f"analytic rate {analytic / 1e6:.1f} Mbps in [0.7, 1.4] x 33 Mbps",
         0.7 * 33e6 <= analytic <= 1.4 * 33e6),
        (f"MC rate {mc['raw_rate_hz'] / 1e6:.1f} Mbps within 2 % of analytic ({100 * rel:.2f} %)",
         rel <= 0.02),
    ])


def test_08_qber_endpoints():
    report = evaluate(QkdLinkConfig(mu_source=0.001, qber_floor=0.016))
    optical = report.qber_extinction + report.qber_timing_tail
    ratio_term = report.notes["extinction_qber_from_ratio"]
    _criterion(8, "qber_endpoints", [
        (f"total QBER {100 * report.qber_total:.2f} % in 2.0 +/- 0.5",
         0.015 <= report.qber_total <= 0.025),
        (f"extinction error per signal {100 * ratio_term:.3f} % matches 25 dB ratio",
         abs(ratio_term - 0.0031523) < 1e-5),
        ("alternate extinction figure 0.2 % noted",
         report.notes["extinction_qber_alternate"] == 0.002),
        (f"extinction + tail QBER {100 * optical:.2f} % >= 1.4", optical >= 0.014),
    ])


def test_09_key_rate_sweep():
    cfg = load_config(None)
    grid = grid_values(cfg.merged["sweeps"]["fiber_loss_db"])
    report = sweep(cfg.qkd, "fiber_loss_db", grid)
    above = grid[report.rate_after_ec >= 1e6]
    crossing = float(above.max()) if above.size else -1.0
    monotone = bool(np.all(np.diff(report.secret_rate) < 0))
    _criterion(9, "key_rate_sweep", [
        (f"1 Mbps after error correction holds to {crossing:.1f} dB >= 4", crossing >= 4.0),
        ("secret rate monotone decreasing in loss", monotone),
    ])


def test_10_room_temperature_qkd():
    report = sweep(QkdLinkConfig(mu_source=0.1), "temperature", [-43.0, 20.0])
    cold_rate, warm_rate = report.rate_after_ec
    warm_qber = report.qber_total[1]
    ratio = warm_rate / cold_rate
    _criterion(10, "room_temperature_qkd", [
        (f"+20 C QBER {100 * warm_qber:.2f} % < 3", warm_qber < 0.03),
        (f"+20 C post-EC rate ratio {ratio:.3f} within 25 % of -43 C",
         0.75 <= ratio <= 1.25),
    ])


def test_11_correlation_discrimination(correlation_runs):
    base_a, base_b, ap = correlation_runs
    lags_a = accepted_lags(base_a)
    lags_b = accepted_lags(base_b)
    lags_ap = accepted_lags(ap)
    window = 400  # afterpulse lifetime is 250 gates; cover it
    p_hat = base_a.counters["accepted_total"] / base_a.counters["n_gates"]
    _, _, gof_p = geometric_lag_gof(lags_a, 10, p_hat)
    p_null = short_lag_excess_pvalue(lags_b, lags_a, 10, window)
    p_ap = short_lag_excess_pvalue(lags_ap, lags_a, 10, window)
    _criterion(11, "correlation_discrimination", [
        (f"afterpulse-off lags fit the renewal law (p = {gof_p:.3f} > 0.01)",
         gof_p > 0.01),
        (f"afterpulse-off vs off shows no short-lag excess (p = {p_null:.3f} > 0.01)",
         p_null > 0.01),
        (f"afterpulse-on shows a short-lag excess (p = {p_ap:.2e} < 0.01)",
         p_ap < 0.01),
        (f"{ap.counters['generated_afterpulse']} afterpulses generated",
         ap.counters["generated_afterpulse"] > 100),
    ])


def test_12_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "tcspc": {"n_pulses": 20000, "max_lag_gates": 100},
        "qkd": {"mc_check_bits": 200000},
    }), encoding="utf-8")
    checks = []
    for sub in ("tcspc", "qkd"):
        out = tmp_path / f"out_{sub}"
        args = [sub, "--config", str(cfg_path), "--seed", "99", "--out", str(out)]
        assert cli.main(args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(args + ["--workers", "2"]) == 0
        third = {p.name: p.read_bytes() for p in out.iterdir()}
        checks.append((f"{sub}: rerun byte-identical", first == second))
        checks.append((f"{sub}: workers=2 byte-identical", first == third))
    _criterion(12, "determinism", checks)
