#!/usr/bin/env python3
"""Time-bin QKD link budget over fiber loss.

Sweeps the analytic model over 0..16 dB of channel loss, breaking the QBER
into its dark, extinction, and timing-tail parts, then cross-checks one
operating point against a bit-level Monte Carlo run and compares cooled
versus room-temperature operation.
"""

import numpy as np

from sinegate.qkd_budget import QkdLinkConfig, evaluate, fiber_db_to_length, mc_link_run, sweep


def main():
    cfg = QkdLinkConfig()  # 0.3 photons/bit at the source, 625 Mbps, 8 ns hold-off
    grid = np.arange(0.0, 16.5, 1.0)
    r = sweep(cfg, "fiber_loss_db", grid)  # one report, one column per field

    print("loss   km     raw rate     QBER   dark   ext    tail   after-EC   secret")
    for i, loss in enumerate(grid):
        print(f"{loss:4.0f} {fiber_db_to_length(loss):5.0f} "
              f"{r.raw_rate[i] / 1e6:9.2f} Mbps "
              f"{r.qber_total[i] * 100:6.2f} {r.qber_dark[i] * 100:6.3f} "
              f"{r.qber_extinction[i] * 100:6.3f} {r.qber_timing_tail[i] * 100:6.3f} "
              f"{r.rate_after_ec[i] / 1e6:7.2f} M {r.secret_rate[i] / 1e6:7.2f} M")

    crossing = grid[r.rate_after_ec >= 1e6].max()
    print(f"\nstays above 1 Mbps after error correction up to {crossing:.0f} dB "
          f"({fiber_db_to_length(crossing):.0f} km at 0.2 dB/km)")

    point = QkdLinkConfig(mu_source=0.1)
    mc = mc_link_run(point, 2_000_000, master_seed=1)
    analytic = evaluate(point)
    print(f"\nMonte Carlo cross-check at 0.1 photons/bit, 2e6 bits:")
    print(f"  raw rate {mc['raw_rate_hz'] / 1e6:.2f} Mbps "
          f"(analytic {analytic.raw_rate / 1e6:.2f}), "
          f"QBER {mc['qber'] * 100:.2f} % (analytic {analytic.qber_total * 100:.2f})")

    by_temp = sweep(point, "temperature", [-43.0, 20.0])
    (q_cold, q_warm), (ec_cold, ec_warm) = by_temp.qber_total, by_temp.rate_after_ec
    print(f"\ncooled (-43 C):  QBER {q_cold * 100:.2f} %, after-EC {ec_cold / 1e6:.2f} Mbps")
    print(f"room temp (+20 C): QBER {q_warm * 100:.2f} %, "
          f"after-EC {ec_warm / 1e6:.2f} Mbps ({ec_warm / ec_cold * 100:.1f} % of cooled)")


if __name__ == "__main__":
    main()
