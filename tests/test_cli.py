"""Command-line interface: exit codes, file contracts, reproducibility."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sinegate
from sinegate import signal_chain as sc
from sinegate.cli import main
from sinegate.config import load_config
from sinegate.detector_model import DetectorParams
from sinegate.table import CHUNK_ROWS


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_dir(out_dir):
    """Map of file name to raw bytes for every file under out_dir."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def read_notes(blob: bytes) -> dict:
    """The `key,value` rows of a qkd_notes.csv (`secret_rate_method` holds a comma)."""
    return dict(csv.reader(io.StringIO(blob.decode("utf-8"))))


SMALL = {
    "tcspc": {"n_pulses": 2000, "max_lag_gates": 60},
    "qkd": {"mc_check_bits": 50000},
    "stability": {"n_segments": 3, "bits_per_segment": 20000},
    "sweeps": {
        "bias_v": {"start": 52.0, "stop": 54.5, "step": 0.5},
        "delay_ps": {"start": -200.0, "stop": 200.0, "step": 50.0},
        "fiber_loss_db": {"start": 0.0, "stop": 4.0, "step": 2.0},
    },
    # events must separate by more than the 5 ns refractory: (40-10)/2 segments
    # put successive onsets at least 7.5 ns apart
    "chain": {"duration_ns": 40.0, "n_avalanches": 2},
}


def run_ok(args):
    rc = main(args)
    assert rc == 0
    return rc


def test_chain_demo_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["chain-demo", "--config", cfg, "--out", str(out)])
    files = read_dir(out)
    for name in (
        "gate_waveform.csv", "diode_waveform.csv", "filtered_waveform.csv",
        "spectrum_diode.csv", "spectrum_filtered.csv", "filter_response.csv",
        "filter_contract.csv", "crossings.csv", "summary.csv", "manifest.json",
    ):
        assert name in files
    assert files["crossings.csv"].splitlines()[0] == b"index,time_ps"
    assert files["filter_response.csv"].splitlines()[0] == b"frequency_hz,gain_db"
    summary = dict(
        line.split(b",", 1) for line in files["summary.csv"].splitlines()[1:]
    )
    assert summary[b"filter_contract_ok"] == b"true"
    assert summary[b"n_crossings"] == summary[b"n_avalanches"]


def test_chain_demo_waveforms_are_tables(tmp_path):
    # 40 ns at the default 25 ps is 1600 samples, one table row each
    cfg = write_cfg(tmp_path, SMALL)
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        run_ok(["chain-demo", "--config", cfg, "--format", fmt, "--out", str(out)])
        for base in ("gate_waveform", "diode_waveform", "filtered_waveform"):
            blob = (out / f"{base}.{fmt}").read_bytes()
            if fmt == "json":
                doc = json.loads(blob)
                assert doc["header"] == ["time_ps", "volts"]
                rows = doc["rows"]
            else:
                lines = blob.decode().splitlines()
                assert lines[0] == "time_ps,volts"  # no `# dt=` line before it
                rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
            assert len(rows) == 1600
            assert [r[0] for r in rows[:2]] == [0.0, pytest.approx(25.0, rel=1e-12)]


def test_sweep_headers(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    cases = [
        (["sweep-bias"], "bias_efficiency.csv", b"bias_v,efficiency"),
        (["sweep-delay"], "delay_efficiency.csv", b"delay_ps,efficiency"),
        (["sweep-temp"], "dark_counts.csv", b"temperature_c,dark_prob_per_gate"),
    ]
    for args, name, header in cases:
        out = tmp_path / ("out_" + args[0])
        run_ok(args + ["--config", cfg, "--out", str(out)])
        data = (out / name).read_bytes()
        assert data.splitlines()[0] == header


def test_sweep_delay_tabulates_the_efficiency_the_engine_uses(tmp_path):
    # above the anchor bias the bias law raises the peak: 0.15 at 54.5 V
    cfg = write_cfg(tmp_path, {**SMALL, "detector": {"operating": {"bias_v": 54.5}}})
    rows = {}
    for sub, name in (("sweep-delay", "delay_efficiency.csv"),
                      ("sweep-bias", "bias_efficiency.csv")):
        out = tmp_path / sub
        run_ok([sub, "--config", cfg, "--out", str(out)])
        rows[sub] = dict(line.split(",") for line in (out / name).read_text().splitlines()[1:])
    eta = load_config(cfg).detector.effective_efficiency(0.0)
    assert float(rows["sweep-delay"]["0.0"]) == float(rows["sweep-bias"]["54.5"]) == eta
    assert rows["sweep-delay"]["0.0"] == "0.15000000000000002"


def test_sweep_delay_matches_the_efficiency_point_by_point(tmp_path):
    # one array call for the whole grid; 10 000 ps spans 12.5 gate periods
    cfg = write_cfg(tmp_path, {"sweeps": {"delay_ps": {"start": 0.0, "stop": 9999.0,
                                                       "step": 1.0}}})
    out = tmp_path / "out"
    run_ok(["sweep-delay", "--config", cfg, "--out", str(out)])
    rows = list(csv.reader(io.StringIO((out / "delay_efficiency.csv").read_text())))[1:]
    assert len(rows) == 10_000
    delay_ps, swept = (np.array(column, dtype=float) for column in zip(*rows))
    det = load_config(cfg).detector
    per_point = np.array([det.effective_efficiency(d / 1e12) for d in delay_ps.tolist()])
    # a scalar squares the window argument with pow, an array with x*x, so the
    # exponent may differ by an ulp; exp turns that absolute error into a
    # relative one. Allow 4 ulp of the value and 4 ulp of the exponent.
    exponent = np.log(per_point / det.effective_efficiency(0.0))
    tolerance = 4 * np.spacing(per_point) + 4 * per_point * np.spacing(np.abs(exponent))
    assert np.all(np.abs(swept - per_point) <= tolerance), \
        np.max(np.abs(swept - per_point) / tolerance)


def test_gate_peak_efficiency_is_an_unknown_key(tmp_path, capsys):
    # the bias law holds the peak efficiency; the gate holds only the window
    cfg = write_cfg(tmp_path, {"detector": {"gate": {"peak_efficiency": 0.2}}})
    rc = main(["sweep-delay", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "detector.gate.peak_efficiency: unknown key" in err
    assert "Traceback" not in err


def test_dark_sweep_prints_exact_anchor(tmp_path):
    out = tmp_path / "out"
    run_ok(["sweep-temp", "--out", str(out)])
    rows = (out / "dark_counts.csv").read_text().splitlines()
    assert "-35.0,7e-7" in rows


def test_qkd_outputs_and_header(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["qkd", "--config", cfg, "--out", str(out)])
    files = read_dir(out)
    header = files["qkd_vs_loss.csv"].splitlines()[0]
    assert header == (
        b"axis_value,mu_detector,raw_rate_hz,qber,qber_dark,qber_ext,"
        b"qber_tail,rate_after_ec_hz,secret_rate_hz"
    )
    assert "qkd_notes.json" not in files
    assert "qkd_mc_check.csv" in files
    assert b"dead_time_model,nonparalyzable" in files["qkd_notes.csv"].splitlines()
    notes = read_notes(files["qkd_notes.csv"])
    assert notes["key"] == "value"
    assert notes["dead_time_model"] == "nonparalyzable"
    assert notes["secret_rate_method"].startswith(
        "rate_after_ec scaled by (1 - pa_fraction); placeholder")


# the `qkd_mc_check` rows at seed 20260816 and 50000 bits: the Monte Carlo
# counters, then the analytic rate and QBER at the configured operating point
QKD_MC_CHECK_ROWS = [
    ["n_bits", 50000], ["accepted_total", 1327], ["accepted_in_windows", 1327],
    ["discarded_outside_windows", 0], ["wrong_bin", 22], ["duration_s", 8e-05],
    ["raw_rate_hz", 16587499.999999998], ["qber", 0.016578749058025623],
    ["analytic_raw_rate_hz", 16093953.86969444], ["analytic_qber", 0.017171913446155377],
]


def test_qkd_mc_check_table_is_pinned(tmp_path):
    cfg = write_cfg(tmp_path, {"qkd": {"mc_check_bits": 50000}})
    run_ok(["qkd", "--config", cfg, "--out", str(tmp_path / "csv")])
    assert (tmp_path / "csv" / "qkd_mc_check.csv").read_text() == (
        "metric,value\nn_bits,50000\naccepted_total,1327\naccepted_in_windows,1327\n"
        "discarded_outside_windows,0\nwrong_bin,22\nduration_s,8e-5\n"
        "raw_rate_hz,16587499.999999998\nqber,0.016578749058025623\n"
        "analytic_raw_rate_hz,16093953.86969444\nanalytic_qber,0.017171913446155377\n"
    )
    run_ok(["qkd", "--config", cfg, "--format", "json", "--out", str(tmp_path / "json")])
    doc = json.loads((tmp_path / "json" / "qkd_mc_check.json").read_text())
    assert doc == {"header": ["metric", "value"], "rows": QKD_MC_CHECK_ROWS}


def test_qkd_temp_and_stability(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    for sub, name in (
        ("qkd-temp", "qkd_vs_temperature.csv"),
        ("stability", "stability_summary.csv"),
    ):
        out = tmp_path / ("out_" + sub)
        run_ok([sub, "--config", cfg, "--out", str(out)])
        assert (out / name).exists()
    assert (tmp_path / "out_qkd-temp" / "qkd_notes.csv").exists()


def test_tcspc_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["tcspc", "--config", cfg, "--out", str(out)])
    files = read_dir(out)
    assert files["tcspc_histogram.csv"].splitlines()[0] == b"bin_start_ps,count"
    assert files["correlation.csv"].splitlines()[0] == b"bin_start_ps,count"
    assert files["records.csv"].splitlines()[0] == b"gate_index,time_ps,origin,accepted"
    summary = dict(
        line.split(b",", 1) for line in files["summary.csv"].splitlines()[1:]
    )
    assert int(summary[b"n_pulses"]) == 2000


def test_tcspc_histogram_without_a_peak(tmp_path):
    # a bin within float tolerance of the 32 ns period makes one bin: counts,
    # but no peak to measure
    cfg = write_cfg(tmp_path, {"tcspc": {"bin_width_ps": 31999.99999, "n_pulses": 2000}})
    out = tmp_path / "out"
    run_ok(["tcspc", "--config", cfg, "--out", str(out)])
    summary = dict(line.split(",", 1)
                   for line in (out / "summary.csv").read_text().splitlines()[1:])
    assert int(summary["histogram_total"]) > 0
    for key in ("fwhm_ps", "jitter_fwhm_ps", "subsequent_gate_fraction"):
        assert key not in summary


def test_missing_config_exit_1(tmp_path, capsys):
    rc = main(["qkd", "--config", "/no/such.json", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "/no/such.json" in capsys.readouterr().err


def test_unknown_subcommand_exit_1(capsys):
    rc = main(["defrobulate"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_schema_violations_all_listed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "detector": {"gate": {"gate_fwhm_ps": -5.0}},
        "chain": {"stages": 0},
    })
    rc = main(["qkd", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "gate_fwhm_ps" in err
    assert "chain.stages" in err


def test_model_range_error_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"sweeps": {"temperatures_c": [-60.0]}})
    rc = main(["sweep-temp", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "model range error" in capsys.readouterr().err


def test_supercritical_afterpulsing_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"detector": {"afterpulse": {"enabled": True}},
                               "tcspc": {"n_pulses": 100}})
    rc = main(["tcspc", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "detector.afterpulse: must have a branching ratio below 1, not 1.25" in (
        capsys.readouterr().err)


def test_qkd_runs_at_any_gate_clock(tmp_path):
    # the bit rate follows the gate clock: 1 GHz gates carry 500 Mbit/s
    cfg = write_cfg(tmp_path, {"detector": {"gate": {"gate_frequency_hz": 1e9}},
                               "qkd": {"mc_check_bits": 100000}})
    out = tmp_path / "o"
    run_ok(["qkd", "--config", cfg, "--out", str(out)])
    rows = dict(line.split(",") for line in (out / "qkd_mc_check.csv").read_text().splitlines())
    assert float(rows["duration_s"]) == 1e5 / 5e8


def test_tcspc_needs_pulsed_source(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "source": {"kind": "cow-ppm", "trigger_rate_hz": 625e6},
        "tcspc": {"n_pulses": 100},
    })
    rc = main(["tcspc", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "pulsed-trigger" in capsys.readouterr().err


@pytest.mark.parametrize("sub, override, field", [
    ("chain-demo", {"chain": {"duration_ns": 0.5}}, "chain.duration_ns"),
    ("tcspc", {"tcspc": {"bin_width_ps": 40000.0, "n_pulses": 100}}, "tcspc.bin_width_ps"),
    # a lag longer than the run: 2**63 used to overflow np.bincount
    ("tcspc", {"tcspc": {"n_pulses": 1000, "max_lag_gates": 2**63}}, "tcspc.max_lag_gates"),
    # no loss is negative: the whole grid used to reach the model and raise there
    ("qkd", {"sweeps": {"fiber_loss_db": {"start": -1.0, "stop": 2.0, "step": 0.5}}},
     "sweeps.fiber_loss_db.start"),
    # more than 2**20 bins per trigger period: 1e-300 ps used to overflow np.bincount
    ("tcspc", {"tcspc": {"bin_width_ps": 1e-300}}, "tcspc.bin_width_ps"),
    # 1 - exp(-T_gate / lifetime) underflows to 0: the branching ratio is inf, not 1/0
    ("qkd", {"detector": {"gate": {"gate_frequency_hz": 1e308},
                          "afterpulse": {"enabled": True, "release_lifetime_ns": 1e300}}},
     "detector.afterpulse"),
])
def test_unusable_config_exit_1_with_field_path(tmp_path, capsys, sub, override, field):
    rc = main([sub, "--config", write_cfg(tmp_path, override), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{field}: must" in capsys.readouterr().err


# 760 MHz gates with dt on 1/(8 f) in ps, above it in seconds; 700 MHz gates
# sit too close to the 600 MHz passband edge for any Butterworth order
@pytest.mark.parametrize("gate_hz, trigger_hz, chain, needle", [
    (7.6e8, 1.9e7, {"dt_ps": 164.47368421052633, "duration_ns": 26.31578947368421},
     "chain.dt_ps: must sample the gate frequency at least 8x"),
    (7e8, 3.5e7, {"duration_ns": 20.0}, "detector.gate.gate_frequency_hz"),
], ids=["dt-above-an-eighth-period", "gate-clock-the-filter-cannot-reject"])
def test_chain_demo_refuses_what_it_cannot_run(tmp_path, capsys, gate_hz, trigger_hz,
                                               chain, needle):
    cfg = write_cfg(tmp_path, {"detector": {"gate": {"gate_frequency_hz": gate_hz}},
                               "source": {"trigger_rate_hz": trigger_hz},
                               "chain": chain, "tcspc": {"n_pulses": 100}})
    rc = main(["chain-demo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert needle in capsys.readouterr().err
    if gate_hz == 7e8:  # no global rule: tcspc runs at that clock
        run_ok(["tcspc", "--config", cfg, "--out", str(tmp_path / "t")])


@pytest.mark.parametrize("chain", [{"amplitude_pp_v": 1e308}, {"coupling_gain": 1e308},
                                   {"amplitude_pp_v": 1e300}],
                         ids=["gate-amplitude", "coupling-gain", "spectrum-power"])
def test_chain_demo_overflow_exit_1(tmp_path, capsys, chain):
    cfg = write_cfg(tmp_path, {"chain": chain})
    assert main(["chain-demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "chain.amplitude_pp_v" in err and "chain.coupling_gain" in err


def test_chain_demo_reports_the_avalanches_it_injects(tmp_path):
    # 8 ns leaves no room between the 5 ns margins; 24 ns leaves room for one
    # avalanche that clears the 5 ns refractory time, not for the 3 asked for
    for duration_ns, expect in ((8.0, {"n_avalanches": "0", "avalanche_times_ps": ""}),
                                (24.0, {"n_avalanches": "1", "n_crossings": "1"})):
        out = tmp_path / f"out{duration_ns}"
        cfg = write_cfg(tmp_path, {"chain": {"duration_ns": duration_ns}})
        run_ok(["chain-demo", "--config", cfg, "--out", str(out)])
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        summary = dict(line.split(",", 1) for line in rows)
        for key, value in expect.items():
            assert summary[key] == value, (duration_ns, key)


def test_chain_demo_avalanche_cap_is_the_decimal_floor(tmp_path):
    # (12 - 10) ns / (2 x 0.2 ns) is exactly 5; float noise must not make it 4
    cfg = write_cfg(tmp_path, {"chain": {"duration_ns": 12.0, "refractory_ns": 0.2,
                                         "n_avalanches": 9}})
    run_ok(["chain-demo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert "n_avalanches,5" in (tmp_path / "o" / "summary.csv").read_text().splitlines()


def test_chain_demo_avalanche_cap_holds_without_a_refractory_time(tmp_path):
    # with no refractory time each avalanche still gets a segment of at least one
    # sample: (12 - 10) ns / 25 ps is 80, however many are asked for
    cfg = write_cfg(tmp_path, {"chain": {"duration_ns": 12.0, "refractory_ns": 0.0,
                                         "n_avalanches": 1000}})
    run_ok(["chain-demo", "--config", cfg, "--out", str(tmp_path / "o")])
    assert "n_avalanches,80" in (tmp_path / "o" / "summary.csv").read_text().splitlines()


def test_chain_demo_filter_contract_rows_are_the_reports_checks(tmp_path):
    out = tmp_path / "o"
    run_ok(["chain-demo", "--config", write_cfg(tmp_path, SMALL), "--format", "json",
            "--out", str(out)])
    doc = json.loads((out / "filter_contract.json").read_bytes())
    assert doc["header"] == ["check", "measured_db", "required_db", "ok"]
    checks = sc.verify_filter_contract(sc.FilterResponseSpec()).checks
    assert doc["rows"] == [[name, *check] for name, check in checks.items()]


def qkd_link(tmp_path, run, name):
    """Notes and raw_rate_hz per fiber-loss point of a `qkd` run at mu = 1."""
    doc = {"run": run, "qkd": {"mu_source": 1.0, "mc_check_bits": 0},
           "sweeps": {"fiber_loss_db": {"start": 0.0, "stop": 4.0, "step": 2.0}}}
    out = tmp_path / name
    run_ok(["qkd", "--config", write_cfg(tmp_path, doc, name + ".json"), "--out", str(out)])
    rows = [line.split(",") for line in (out / "qkd_vs_loss.csv").read_text().splitlines()]
    col = rows[0].index("raw_rate_hz")
    notes = read_notes((out / "qkd_notes.csv").read_bytes())
    return notes, [float(r[col]) for r in rows[1:]]


def test_holdoff_gates_zero_leaves_the_bare_qkd_rate(tmp_path):
    notes, rates = qkd_link(tmp_path, {"holdoff_gates": 0}, "bare")
    det = DetectorParams()
    p_dark_bit = 1.0 - (1.0 - det.dark_prob_per_gate()) ** 2
    eta = det.effective_efficiency(0.0)
    r0 = [625e6 * (1.0 - math.exp(-eta * 10 ** (-loss / 10)) + p_dark_bit)
          for loss in (0.0, 2.0, 4.0)]
    assert notes["dead_time_model"] == "nonparalyzable"
    assert rates == pytest.approx(r0, rel=1e-12)


def test_holdoff_anchor_any_makes_the_qkd_dead_time_paralyzable(tmp_path):
    _, r0 = qkd_link(tmp_path, {"holdoff_gates": 0}, "bare")
    notes, rates = qkd_link(tmp_path, {"holdoff_anchor": "any"}, "any")
    tau = 10 / 1.25e9  # the default run.holdoff_gates at the 1.25 GHz gate clock
    assert notes["dead_time_model"] == "paralyzable"
    assert rates == pytest.approx([r * math.exp(-r * tau) for r in r0], rel=1e-12)


def test_empty_config_equals_defaults(tmp_path):
    cfg = write_cfg(tmp_path, {})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_ok(["sweep-bias", "--out", str(out_a)])
    run_ok(["sweep-bias", "--config", cfg, "--out", str(out_b)])
    a, b = read_dir(out_a), read_dir(out_b)
    # manifests differ (they echo the config path); data files match
    assert a["bias_efficiency.csv"] == b["bias_efficiency.csv"]


def test_rerun_byte_identical_and_worker_independent(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["tcspc", "--config", cfg, "--seed", "99", "--out", str(out)])
    first = read_dir(out)
    run_ok(["tcspc", "--config", cfg, "--seed", "99", "--out", str(out)])
    assert read_dir(out) == first
    run_ok(["tcspc", "--config", cfg, "--seed", "99", "--out", str(out),
            "--workers", "2"])
    assert read_dir(out) == first

    # JSON tables streamed in several chunks: a bright source gives more
    # records than one chunk of the table writer holds
    bright = write_cfg(tmp_path, {
        "source": {"kind": "pulsed-trigger", "mean_photons": 30.0},
        "tcspc": {"n_pulses": 40000, "max_lag_gates": 60},
    }, name="bright.json")
    args = ["tcspc", "--config", bright, "--seed", "99", "--format", "json",
            "--out", str(out)]
    for p in out.iterdir():
        p.unlink()
    run_ok(args)
    first = read_dir(out)
    assert len(json.loads(first["records.json"])["rows"]) > CHUNK_ROWS
    run_ok(args)
    assert read_dir(out) == first
    run_ok(args + ["--workers", "2"])
    assert read_dir(out) == first


def test_afterpulse_rerun_byte_identical_and_worker_independent(tmp_path):
    # subcritical afterpulsing (branching ~0.025): the sequential pass runs
    cfg = write_cfg(tmp_path, {
        "source": {"mean_photons": 1.0},
        "detector": {"afterpulse": {"enabled": True, "trigger_prob_per_gate": 0.002,
                                    "release_lifetime_ns": 100.0}},
        "tcspc": {"n_pulses": 20000, "max_lag_gates": 60},
        "stability": {"n_segments": 3, "bits_per_segment": 20000},
    })
    for command in ("tcspc", "stability"):
        out = tmp_path / command
        args = [command, "--config", cfg, "--seed", "99", "--out", str(out)]
        run_ok(args)
        first = read_dir(out)
        run_ok(args)
        assert read_dir(out) == first
        run_ok(args + ["--workers", "2"])
        assert read_dir(out) == first
    summary = dict(csv.reader(io.StringIO((tmp_path / "tcspc" / "summary.csv").read_text())))
    assert int(summary["n_afterpulse"]) > 0


def test_stability_pool_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["stability", "--config", cfg, "--seed", "7", "--out", str(out)])
    first = read_dir(out)
    run_ok(["stability", "--config", cfg, "--seed", "7", "--out", str(out),
            "--workers", "2"])
    assert read_dir(out) == first


def test_seed_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["stability", "--config", cfg, "--seed", "1", "--out", str(out)])
    first = read_dir(out)["stability_segments.csv"]
    run_ok(["stability", "--config", cfg, "--seed", "2", "--out", str(out)])
    assert read_dir(out)["stability_segments.csv"] != first


def test_manifest_digests_and_fields(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["qkd", "--config", cfg, "--seed", "5", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "qkd"
    assert manifest["master_seed"] == 5
    assert "workers" not in manifest
    by_name = {e["name"]: e for e in manifest["emitted_files"]}
    assert "manifest.json" not in by_name
    for name, entry in by_name.items():
        blob = (out / name).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)


def test_json_format(tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    run_ok(["qkd", "--config", cfg, "--format", "json", "--out", str(out)])
    doc = json.loads((out / "qkd_vs_loss.json").read_text())
    assert doc["header"][0] == "axis_value"
    assert len(doc["rows"]) == 3  # loss grid 0, 2, 4 dB
    assert not (out / "qkd_vs_loss.csv").exists()


def test_bad_seed_and_workers_rejected(tmp_path, capsys):
    assert main(["qkd", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert main(["qkd", "--workers", "0", "--out", str(tmp_path / "o2")]) == 1


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_file_exit_1(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    assert main(["sweep-bias", "--out", str(taken / below)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"--out {taken / below}: ") and err.count("\n") == 1
    assert taken.read_text() == "a file\n"


def test_output_named_by_a_directory_exit_1(tmp_path, capsys):
    # open() fails on the directory; it is neither written nor removed
    out = tmp_path / "o"
    (out / "bias_efficiency.csv").mkdir(parents=True)
    assert main(["sweep-bias", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out / 'bias_efficiency.csv'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (out / "bias_efficiency.csv").is_dir()
    assert not (out / "manifest.json").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    src = Path(sinegate.__file__).resolve().parents[1]
    code = "import sys, sinegate.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_table_writer_leaves_numpy_ma_and_scipy_stats_unloaded(tmp_path):
    # every column kind and both formats go through the writer; numpy.ma alone
    # (np.unique imports it) held ~1.6 MB resident
    cfg = write_cfg(tmp_path, {"tcspc": {"n_pulses": 20000},
                               "stability": {"n_segments": 2, "bits_per_segment": 20000}})
    code = (
        "import sys\n"
        "from sinegate.cli import main\n"
        "for cmd in ('tcspc', 'chain-demo', 'stability'):\n"
        "    for fmt in ('csv', 'json'):\n"
        "        out = sys.argv[2] + '/' + cmd + '-' + fmt\n"
        "        assert main([cmd, '--config', sys.argv[1], '--format', fmt, '--out', out]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'scipy.stats') if m in sys.modules))\n"
    )
    src = Path(sinegate.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only `stability --workers` > 1 starts a pool, so only it imports one
    src = Path(sinegate.__file__).resolve().parents[1]
    code = "import sys, sinegate.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


# Small fixed-seed runs whose every output file is pinned by its SHA-256: the
# record stream (chunk candidates, afterpulse pass, time draws, hold-off) and
# the link counters must not move when the engine's passes are restructured.
# Each tcspc run spans three 2**20-gate chunks; the stability segments span
# two, the second holding an odd number of bits. `manifest.json` names the
# output directory, so its digest varies; its file list must match the pins.
GOLDEN_RUNS = {
    "tcspc-delay-tails": (["tcspc", "--seed", "11", "--format", "csv"], {
        "source": {"mean_photons": 30.0, "alignment_delay_ps": 40.0},
        "detector": {"operating": {"temperature_c": 0.0}, "jitter": {"tail_fraction": 0.1}},
        "tcspc": {"n_pulses": 60000},
    }),
    "tcspc-afterpulse": (["tcspc", "--seed", "12", "--format", "json"], {
        "source": {"mean_photons": 1.0},
        "detector": {"operating": {"temperature_c": 0.0},
                     "afterpulse": {"enabled": True, "trigger_prob_per_gate": 0.004,
                                    "release_lifetime_ns": 100.0}},
        "run": {"holdoff_gates": 3},
        "tcspc": {"n_pulses": 60000},
    }),
    "stability-afterpulse": (["stability", "--seed", "13"], {
        "detector": {"afterpulse": {"enabled": True, "trigger_prob_per_gate": 0.002,
                                    "release_lifetime_ns": 100.0}},
        "stability": {"n_segments": 2, "bits_per_segment": 600001},
    }),
}

GOLDEN_DIGESTS = {
    "stability-afterpulse": {
        "stability_segments.csv": "766432c15a413655ce76befd66acbed89eca8813c72fff8619b60f81e550f319",
        "stability_summary.csv": "f3e13274b17c587ae7ae1ca5b1ba1aa59ae3cfb4b1f32e456c3f410d321ec722",
    },
    "tcspc-afterpulse": {
        "correlation.json": "3e2e12295e901a9a70bcb34761911fcca9bc23f17817ec32a872fb74e35b2b07",
        "records.json": "1e7e9813f7d1343291e20e2811743cafd382bb36a38060e9220bd87c033687a2",
        "summary.json": "f71b8a5a11e88fb52874a4297acef48e1e93f157af236dbfcc422580dbfcebb6",
        "tcspc_histogram.json": "ffe84ac29b808208d3127dab61cd33f1fd9061b4f2f0bd7368d982fc67bb19f4",
    },
    "tcspc-delay-tails": {
        "correlation.csv": "6e3bf8afa8cd751a8bc58fc07134fe985b193182ad025b8fee1beae44e993466",
        "records.csv": "69dfac70416744a8c21cd510382311925d50adc1b7220628bfa9d2c5d18fcd2a",
        "summary.csv": "57730ad16c580b6d432807cfb4a3b9adb8387f0b3213ac64fb00d60d18b49015",
        "tcspc_histogram.csv": "717fab98bb7ccf7e4898d9675664c903a3bd6716ec859694b37ff90444e28a1e",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_fixed_seed_outputs_are_pinned(tmp_path, name):
    args, doc = GOLDEN_RUNS[name]
    out = tmp_path / "out"
    run_ok(args + ["--config", write_cfg(tmp_path, doc), "--out", str(out)])
    files = read_dir(out)
    manifest = json.loads(files.pop("manifest.json"))
    digests = {n: hashlib.sha256(blob).hexdigest() for n, blob in files.items()}
    assert digests == GOLDEN_DIGESTS[name]
    assert {f["name"]: f["sha256"] for f in manifest["emitted_files"]} == digests
