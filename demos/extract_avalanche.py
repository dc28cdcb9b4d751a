#!/usr/bin/env python3
"""Walk through the analog extraction chain step by step.

Builds a 1.25 GHz gate train, derives the capacitive feedthrough the diode
superimposes on its output, buries a handful of avalanche pulses in it, and
shows how two cascaded low-pass stages pull the avalanches back out of a
background that is ten times larger than the signal.

Run from anywhere; writes waveform CSVs into ./demo_out/ for plotting.
"""

import pathlib

import numpy as np

from sinegate import signal_chain as sc
from sinegate.table import table_chunks, write_chunks

OUT = pathlib.Path(__file__).resolve().parent / "demo_out"


def main():
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(42)

    spec = sc.FilterResponseSpec()
    duration = 64e-9
    gate = sc.synthesize_gate_train(1.25e9, 8.0, duration)
    feed = sc.synthesize_feedthrough(gate, coupling_gain=0.1)
    print(f"gate train: {gate.n} samples at {gate.dt * 1e12:.0f} ps, "
          f"peak-to-peak {np.ptp(gate.samples):.1f} V")
    print(f"feedthrough: +/-{np.abs(feed.samples).max() * 1e3:.0f} mV at the diode output")

    shape = sc.AvalanchePulseShape()
    diode, events = sc.add_avalanches(feed, shape, [12e-9, 30e-9, 48e-9], rng)
    print(f"avalanche pulses ({shape.peak_amplitude * 1e3:.0f} mV nominal) "
          f"at {', '.join(f'{t * 1e9:.0f} ns' for t in events)}")

    order, cutoff = sc.lowpass_design(spec)
    print(f"\nextraction filter: order {order}, cutoff {cutoff / 1e6:.1f} MHz per stage")
    contract = sc.verify_filter_contract(spec)
    print("  multitone check (measured against required):")
    for name, (measured, required, ok) in contract.checks.items():
        print(f"    {name:18s} {measured:8.2f} dB vs {required:6.1f} dB  {'ok' if ok else 'FAIL'}")
    print(f"  -> contract {'met' if contract.ok else 'VIOLATED'}")

    filtered = sc.apply_filter(diode, spec, stages=2)
    residual = sc.apply_filter(feed, spec, stages=2)
    print(f"\nafter two stages: feedthrough residual "
          f"{np.abs(residual.samples).max() * 1e6:.2f} uV, "
          f"deepest avalanche {filtered.samples.min() * 1e3:.1f} mV")

    crossings = sc.discriminate(filtered, -4e-3, 5e-9)
    print("discriminator at -4 mV, 5 ns refractory: "
          f"{len(crossings)} crossings for {len(events)} avalanches")
    for t_set, t_found in zip(events, crossings):
        print(f"  set {t_set * 1e9:6.2f} ns  ->  crossed {t_found * 1e9:6.2f} ns")

    for name, wf in (("diode_raw", diode), ("diode_filtered", filtered)):
        path = OUT / f"{name}.csv"
        write_chunks(path, table_chunks(*wf.table()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
