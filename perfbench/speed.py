"""Machine-speed probe: a fixed pure-Python kernel timed inside the worker.

The benchmark runs on a few virtual CPUs of a shared host, whose speed changes
from second to second and by up to 2x over minutes, with other tenants' load.
Raw wall times inherit that: the `tcspc-bright` call took from 4.2 to 8.4 s
over one evening. A probe on another CPU, or one run before and after the
call, does not follow it; a probe interleaved with the call on the same CPU
does.

So while set-up and the `sinegate` call run, a SIGALRM interval timer runs
`kernel()` every `PERIOD_S` of wall time and records how long it took. The
kernel's mean time over the interval is the machine's speed during exactly
that interval, and `scaled()` turns a wall time into seconds at the speed at
which the kernel takes `NOMINAL_S`. The kernel is frozen benchmark code, so a
change to `sinegate` cannot change it; a program that does more work still
takes longer at any speed.

The handler runs between bytecodes of the main thread. It adds about 3 % to
the wall time of the call, the same on every commit. It creates no objects
that the garbage collector tracks and holds the collector off while it runs,
so the size of the program's heap does not change its timing.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.01
KERNEL_STEPS = 500
# Median kernel time on the machine the benchmark was built on (2 vCPUs of
# a KVM guest on an Intel Xeon, Sapphire Rapids, Python 3.11).
NOMINAL_S = 0.28e-3


def kernel() -> int:
    """Integer arithmetic and float formatting, as in the CLI's hot loops."""
    s = 0
    for i in range(KERNEL_STEPS):
        s += (i * i) % 7
        s += len("%.6g" % (i * 0.37))
    return s


class SpeedProbe:
    """Times `kernel()` every `PERIOD_S` between `start()` and `stop()`."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Mean kernel time since `start()`; `NOMINAL_S` if it never ran."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            return NOMINAL_S
        return sum(self.samples) / len(self.samples)


def scaled(wall_s: float, probe_s: float) -> float:
    """`wall_s` in seconds at the speed where the kernel takes `NOMINAL_S`."""
    return wall_s * NOMINAL_S / probe_s
