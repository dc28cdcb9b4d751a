"""Command-line front end: seeded runs emitting CSV/JSON tables plus a manifest.

Every subcommand reads one JSON configuration (defaults fill everything),
runs deterministically from a single master seed, writes its outputs into
`--out`, and finishes with a `manifest.json` listing SHA-256 digests of the
emitted files. Reruns with the same configuration and seed are
byte-identical, independent of `--workers`.

Exit codes: 0 success, 1 configuration/usage problem, 2 model range error
(e.g. a temperature outside the calibrated dark-count table).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import signal_chain as sc
from . import qkd_budget as qb
from .config import ConfigError, FullConfig, grid_values, load_config
from .declare import COUNT, ArgumentError, check_args, check_value
from .detector_model import ModelRangeError, dark_prob, efficiency_at_bias
from .mc_engine import (
    RunConfig,
    ORIGIN_NAMES,
    estimate_fwhm,
    deconvolve_jitter,
    gates_per_trigger,
    inter_detection_correlation,
    records_table,
    run_simulation,
    subsequent_gate_fraction,
    tcspc_histogram,
)
from .table import table_chunks, write_chunks

__all__ = ["main", "console_main"]


class _CliError(Exception):
    """Usage or configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep our own codes
        raise _CliError(f"{self.prog}: error: {message}\n{self.format_usage()}")


class Emitter:
    """Writes artifacts into the output directory and tracks their digests."""

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = Path(out_dir)
        self.fmt = fmt
        self.files: list[dict] = []

    def _write(self, name: str, chunks) -> None:
        try:
            digest, size = write_chunks(self.out_dir / name, chunks)
        except OSError as exc:
            raise _CliError(f"cannot write {self.out_dir / name}: {exc.strerror or exc}") from None
        self.files.append({"name": name, "sha256": digest, "bytes": size})

    def emit_table(self, base: str, header: list[str], columns: list) -> None:
        self._write(f"{base}.{self.fmt}", table_chunks(header, columns, self.fmt))

    def emit_histogram(self, base: str, hist) -> None:
        self.emit_table(base, *hist.table())

    def write_manifest(self, info: dict) -> None:
        doc = dict(info, emitted_files=list(self.files))  # the manifest lists the others
        self._write("manifest.json", [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


# ---------------------------------------------------------------------------
# Subcommand handlers. Each gets (cfg, emitter, args); args.seed is resolved.

def _emit_mapping(em: Emitter, base: str, mapping: dict, header=("key", "value")) -> None:
    """A two-column table with one row per item of `mapping`."""
    em.emit_table(base, list(header), [list(mapping), list(mapping.values())])


def _cmd_chain_demo(cfg: FullConfig, em: Emitter, args) -> None:
    ch = cfg.chain
    f_gate = cfg.detector.gate.gate_frequency
    try:
        spec = sc.FilterResponseSpec(gate_frequency=f_gate)
        order, cutoff = sc.lowpass_design(spec)
    except ValueError as exc:
        raise _CliError("chain-demo needs a gate clock the extraction filter can reject "
                        f"(detector.gate.gate_frequency_hz = {f_gate}): {exc}") from None
    duration = ch.duration
    rng = np.random.default_rng(args.seed)
    shape = sc.AvalanchePulseShape()
    margin = 5e-9
    span = duration - 2 * margin  # avalanches are spaced out over it so each one resolves
    # onsets half a segment apart must clear the refractory time, and a segment
    # holds at least one sample; rounded first: float noise must not floor a
    # whole ratio (12 ns at 0.2 ns is 5)
    n_av = min(ch.n_avalanches, int(round(span / max(2 * ch.refractory, ch.dt), 9)))
    seg = span / max(n_av, 1)  # no onsets when the margins fill the record
    try:  # every argument is validated: what the waveforms refuse is an overflow
        with np.errstate(over="ignore", invalid="ignore"):
            gate = sc.synthesize_gate_train(f_gate, ch.amplitude_pp, duration,
                                            dt=ch.dt, delay=ch.delay)
            feedthrough = sc.synthesize_feedthrough(gate, ch.coupling_gain)
            diode, onsets = sc.add_avalanches(feedthrough, shape, (
                margin + (i + float(rng.uniform(0.25, 0.75))) * seg for i in range(n_av)), rng)
            filtered = sc.apply_filter(diode, spec, stages=ch.stages)
            residual = sc.apply_filter(feedthrough, spec, stages=ch.stages)
            spectra = {base: sc.power_spectrum(wf) for base, wf in
                       (("spectrum_diode", diode), ("spectrum_filtered", filtered))}
    except ValueError as exc:
        raise _CliError("chain-demo waveforms overflow at chain.amplitude_pp_v = "
                        f"{ch.amplitude_pp} and chain.coupling_gain = "
                        f"{ch.coupling_gain}: {exc}") from None
    crossings = sc.discriminate(filtered, ch.threshold, ch.refractory)
    contract = sc.verify_filter_contract(spec)

    for base, wf in (("gate_waveform", gate), ("diode_waveform", diode),
                     ("filtered_waveform", filtered)):
        em.emit_table(base, *wf.table())
    for base, (freqs, power_db) in spectra.items():
        em.emit_table(base, ["frequency_hz", "power_db"], [freqs, power_db])
    em.emit_table("filter_response", ["frequency_hz", "gain_db"],
                  [contract.response[:, 0], contract.response[:, 1]])
    em.emit_table("filter_contract", ["check", "measured_db", "required_db", "ok"],
                  [list(contract.checks), *map(list, zip(*contract.checks.values()))])
    em.emit_table("crossings", ["index", "time_ps"],
                  [np.arange(crossings.size), crossings * 1e12])
    _emit_mapping(em, "summary", {
        "filter_order": order,
        "filter_cutoff_hz": float(cutoff),
        "filter_contract_ok": bool(contract.ok),
        "n_avalanches": len(onsets),
        "n_crossings": len(crossings),
        "avalanche_times_ps": ";".join(repr(t * 1e12) for t in onsets),
        "filtered_min_v": float(filtered.samples.min()),
        "feedthrough_residual_max_v": float(np.abs(residual.samples).max()),
    })


def _cmd_sweep_bias(cfg: FullConfig, em: Emitter, args) -> None:
    grid = grid_values(cfg.merged["sweeps"]["bias_v"])
    em.emit_table("bias_efficiency", ["bias_v", "efficiency"],
                  [grid, efficiency_at_bias(cfg.detector.bias_law, grid)])


def _cmd_sweep_delay(cfg: FullConfig, em: Emitter, args) -> None:
    delay_ps = grid_values(cfg.merged["sweeps"]["delay_ps"])
    em.emit_table("delay_efficiency", ["delay_ps", "efficiency"],
                  [delay_ps, cfg.detector.effective_efficiency(delay_ps / 1e12)])


def _sweep_temperatures(cfg: FullConfig) -> np.ndarray:
    explicit = cfg.merged["sweeps"]["temperatures_c"]
    if explicit is not None:
        return np.asarray(explicit, dtype=float)
    if cfg.detector.dark_law is None:
        raise _CliError("sweep needs sweeps.temperatures_c when the dark table is null")
    return cfg.detector.dark_law.temperatures


def _cmd_sweep_temp(cfg: FullConfig, em: Emitter, args) -> None:
    if cfg.detector.dark_law is None:
        raise _CliError("sweep-temp needs a dark table (detector.dark_table_c_prob)")
    temps = _sweep_temperatures(cfg)
    em.emit_table("dark_counts", ["temperature_c", "dark_prob_per_gate"],
                  [temps, dark_prob(cfg.detector.dark_law, temps)])


def _cmd_tcspc(cfg: FullConfig, em: Emitter, args) -> None:
    src = cfg.source
    gates_per_pulse = gates_per_trigger(cfg.detector.gate.gate_frequency, src.trigger_rate)
    n_gates = cfg.tcspc.n_pulses * gates_per_pulse
    run_cfg = RunConfig(
        n_gates=n_gates,
        master_seed=args.seed,
        detector=cfg.detector,
        source=src,
        holdoff_gates=cfg.merged["run"]["holdoff_gates"],
        holdoff_anchor=cfg.merged["run"]["holdoff_anchor"],
    )
    result = run_simulation(run_cfg)
    records = result.records
    trigger_period = 1.0 / src.trigger_rate
    # sync offset of half a cycle keeps the peak away from the phase wrap
    hist = tcspc_histogram(records, src.trigger_rate, cfg.tcspc.bin_width,
                           phase_origin=-trigger_period / 2.0)
    gate_period = cfg.detector.gate.gate_period
    corr = inter_detection_correlation(records, cfg.tcspc.max_lag_gates, gate_period)

    summary = {"n_pulses": cfg.tcspc.n_pulses,
               "n_records": int(records.size),
               "n_accepted": int(result.counters["accepted_total"])}
    for name in ORIGIN_NAMES:
        summary[f"n_{name}"] = result.counters[f"generated_{name}"]
    summary["histogram_total"] = hist.total
    if np.ptp(hist.counts) > 0:  # an empty or flat histogram has no peak
        fwhm = estimate_fwhm(hist)
        summary["fwhm_ps"] = float(fwhm * 1e12)
        if fwhm >= src.laser_fwhm:
            summary["jitter_fwhm_ps"] = float(deconvolve_jitter(fwhm, src.laser_fwhm) * 1e12)
        summary["subsequent_gate_fraction"] = float(
            subsequent_gate_fraction(hist, gate_period, cfg.detector.jitter.tail_span_gates)
        )

    em.emit_histogram("tcspc_histogram", hist)
    em.emit_histogram("correlation", corr)
    em.emit_table("records", *records_table(records))
    _emit_mapping(em, "summary", summary)


def _cmd_qkd(cfg: FullConfig, em: Emitter, args) -> None:
    grid = grid_values(cfg.merged["sweeps"]["fiber_loss_db"])
    report = qb.sweep(cfg.qkd, "fiber_loss_db", grid)
    em.emit_table("qkd_vs_loss", *report.table(grid))
    _emit_mapping(em, "qkd_notes", report.notes)
    n_bits = cfg.merged["qkd"]["mc_check_bits"]
    if n_bits > 0:
        mc = qb.mc_link_run(cfg.qkd, n_bits, args.seed)
        point = qb.evaluate(cfg.qkd)
        mc.update(analytic_raw_rate_hz=point.raw_rate, analytic_qber=point.qber_total)
        _emit_mapping(em, "qkd_mc_check", mc, header=("metric", "value"))


def _cmd_qkd_temp(cfg: FullConfig, em: Emitter, args) -> None:
    temps = _sweep_temperatures(cfg)
    report = qb.sweep(cfg.qkd, "temperature", temps)
    em.emit_table("qkd_vs_temperature", *report.table(temps))
    _emit_mapping(em, "qkd_notes", report.notes)


def _cmd_stability(cfg: FullConfig, em: Emitter, args) -> None:
    segments = qb.stability_run(cfg.qkd, cfg.stability.n_segments,
                                cfg.stability.bits_per_segment, args.seed, workers=args.workers)
    counted = ["segment_index", "n_bits", "accepted_total", "accepted_in_windows", "wrong_bin"]
    rates = ["raw_rate_hz", "qber"]
    em.emit_table(
        "stability_segments",
        counted + rates,
        [np.array([s[key] for s in segments], dtype=np.int64) for key in counted]
        + [np.array([s[key] for s in segments], dtype=float) for key in rates],
    )
    counts = np.array([s["accepted_total"] for s in segments], dtype=float)
    mean = float(counts.mean())
    std = float(counts.std(ddof=1)) if counts.size > 1 else 0.0
    max_z = float(np.abs(counts - mean).max() / np.sqrt(mean)) if mean > 0 else 0.0
    _emit_mapping(em, "stability_summary", {
        "n_segments": int(counts.size),
        "mean_accepted": mean,
        "std_accepted": std,
        "relative_std": std / mean if mean > 0 else 0.0,
        "max_abs_poisson_z": max_z,
    })


_HANDLERS = {
    "chain-demo": _cmd_chain_demo,
    "sweep-bias": _cmd_sweep_bias,
    "sweep-delay": _cmd_sweep_delay,
    "sweep-temp": _cmd_sweep_temp,
    "tcspc": _cmd_tcspc,
    "qkd": _cmd_qkd,
    "qkd-temp": _cmd_qkd_temp,
    "stability": _cmd_stability,
}

_DESCRIPTIONS = {
    "chain-demo": "gate, feedthrough, avalanche, filtering, spectra, discrimination",
    "sweep-bias": "detection efficiency versus dc bias",
    "sweep-delay": "detection efficiency versus laser delay, through the gate window",
    "sweep-temp": "dark count probability versus temperature",
    "tcspc": "pulsed-source timing histogram, jitter, and correlation analysis",
    "qkd": "link budget versus fiber loss, with a Monte Carlo cross-check",
    "qkd-temp": "link budget versus detector temperature",
    "stability": "segmented constant-parameter Monte Carlo rate stability",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sinegate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=_DESCRIPTIONS[name])
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides run.master_seed)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format (default: csv)")
        p.add_argument("--workers", type=int, default=1,
                       help="processes for the independent stability segments")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        try:
            if args.seed is not None:
                check_args(RunConfig, master_seed=args.seed)
            check_value("workers", COUNT, args.workers)
        except ArgumentError as exc:
            flag = "--seed" if exc.arg == "master_seed" else "--workers"
            raise ConfigError([f"{flag} {exc.reason}"]) from None
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    args.seed = cfg.merged["run"]["master_seed"] if args.seed is None else args.seed
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"--out {args.out}: cannot create the output directory ({exc})", file=sys.stderr)
        return 1
    emitter = Emitter(out_dir, args.format)
    try:
        args.handler(cfg, emitter, args)
        emitter.write_manifest(
            {
                "subcommand": args.command,
                "config_path": args.config,
                "master_seed": args.seed,
                "output_dir": str(args.out),
                "format": args.format,
            }
        )
    except (_CliError, ConfigError) as exc:
        print(exc, file=sys.stderr)
        return 1
    except ModelRangeError as exc:
        print(f"model range error: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
