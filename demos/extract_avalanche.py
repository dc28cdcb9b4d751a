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
    events = [12e-9, 30e-9, 48e-9]
    diode = feed
    for t in events:
        diode = diode + sc.synthesize_avalanche(shape, gate, t, rng)
    print(f"avalanche pulses ({shape.peak_amplitude * 1e3:.0f} mV nominal) "
          f"at {', '.join(f'{t * 1e9:.0f} ns' for t in events)}")

    order, cutoff = sc.lowpass_design(spec)
    print(f"\nextraction filter: order {order}, cutoff {cutoff / 1e6:.1f} MHz per stage")
    contract = sc.verify_filter_contract(spec)
    print(f"  multitone check: {contract.gate_attenuation_db:.1f} dB at the gate tone, "
          f"{contract.worst_band_attenuation_db:.1f} dB worst over +/-50 MHz,")
    print(f"  {contract.worst_wideband_attenuation_db:.1f} dB floor to 4 GHz, "
          f"passband within {abs(contract.worst_passband_gain_db):.2f} dB "
          f"-> contract {'met' if contract.ok else 'VIOLATED'}")

    filtered = sc.apply_filter(diode, spec, stages=2)
    residual = sc.apply_filter(feed, spec, stages=2)
    print(f"\nafter two stages: feedthrough residual "
          f"{np.abs(residual.samples).max() * 1e6:.2f} uV, "
          f"deepest avalanche {filtered.samples.min() * 1e3:.1f} mV")

    disc = sc.DiscriminatorConfig(threshold=-4e-3, polarity="negative-going",
                                  refractory_time=5e-9)
    crossings = sc.discriminate(filtered, disc)
    print(f"discriminator at {disc.threshold * 1e3:.0f} mV: "
          f"{len(crossings)} crossings for {len(events)} avalanches")
    for t_set, t_found in zip(events, crossings):
        print(f"  set {t_set * 1e9:6.2f} ns  ->  crossed {t_found * 1e9:6.2f} ns")

    for name, wf in (("diode_raw", diode), ("diode_filtered", filtered)):
        path = OUT / f"{name}.csv"
        wf.to_csv(path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
