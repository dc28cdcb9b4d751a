#!/usr/bin/env python3
"""Print the detector's calibration curves as terminal tables.

Three views of the device model: detection efficiency against excess bias,
the effective gate profile scanned with a delayed pulsed source, and the
dark-count law over the calibrated temperature range.
"""

from dataclasses import replace

import numpy as np

from sinegate.detector_model import DetectorParams, dark_prob, efficiency_at_bias


def main():
    det = DetectorParams()

    print("efficiency vs bias (breakdown at "
          f"{det.bias_law.breakdown_bias:.1f} V)")
    for bias in np.arange(51.0, 54.75, 0.5):
        eta = efficiency_at_bias(det.bias_law, bias)
        bar = "#" * int(round(eta * 200))
        print(f"  {bias:5.2f} V  {eta * 100:5.1f} %  {bar}")

    print("\ngate profile (delay scan across one 800 ps period, 130 ps FWHM)")
    for delay_ps in range(-300, 301, 50):
        eta = det.effective_efficiency(delay_ps / 1e12)
        bar = "#" * int(round(eta * 400))
        print(f"  {delay_ps:+5d} ps  {eta * 100:5.2f} %  {bar}")

    print("\ndark probability per gate vs temperature")
    # anchors are exact; intermediate points come from log-linear interpolation
    for t in (-45, -43, -40, -35, -30, -25, -15, -5, 5, 15, 20):
        p = dark_prob(det.dark_law, float(t))
        per_second = p * det.gate.gate_frequency
        print(f"  {t:+5.0f} C  {p:.3e} per gate  ({per_second / 1e3:7.1f} kcps)")

    warm = replace(det, temperature_c=20.0, bias=54.5)
    print(f"\nat +20 C and 54.5 V: efficiency "
          f"{warm.effective_efficiency(0.0) * 100:.1f} %, dark "
          f"{warm.dark_prob_per_gate():.1e} per gate")


if __name__ == "__main__":
    main()
