"""Link budget for a COW-style time-bin QKD receiver built on the gated detector.

Each bit spans two consecutive detector gates, so bits arrive at half the
gate clock (`QkdLinkConfig.bit_rate`); the pulse sits in one of the two
400 ps time bins and the other bin carries only the transmitter's
extinction leakage. `evaluate` is the one place the budget is put
together. It computes, once per call, the photons per bit at the detector,
the signal click probability `DetectorParams.click_prob(mu_detector)` and
the dark click probability over the bit's two gates, and derives from them:

* the detected-bit rate after a dead-time correction for the hold-off,
* a QBER split into dark, extinction, and timing-tail components, all on
  the same detected-bit denominator so the components sum to the total,
* the rates after error correction and after privacy amplification.

Every law runs on arrays: `evaluate` returns floats at one operating point,
and `sweep` evaluates a whole fiber-loss or temperature grid in one array
pass, returning one report whose fields are columns.

The timing-tail error weight comes from the tail geometry of the jitter
model: a detection that slips k gates (k uniform in 1..span) lands in the
wrong bin with probability 1/2 + 1/(4*span) once the carried bit values are
averaged out. Monte Carlo counterparts (`mc_link_run`, `stability_run`)
drive the event engine in cow-ppm mode and count errors the way the
receiver logic would: nearest-gate assignment, detections outside the two
time bins discarded. They return counters only; a comparison against the
analytic budget calls `evaluate` on the same config."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .declare import (COUNT, NON_NEGATIVE, ArgumentError, arg, arg_of, check_args, check_value,
                      float_or_array, fragment)
from .detector_model import DetectorParams
from .mc_engine import RunConfig, SourceConfig, chunk_records, packed_bit

__all__ = [
    "FIBER_DB_PER_KM",
    "QkdLinkConfig",
    "QkdReport",
    "StabilityConfig",
    "fiber_db_to_length",
    "binary_entropy",
    "mu_at_detector",
    "rate_after_ec",
    "evaluate",
    "sweep",
    "mc_link_run",
    "stability_run",
    "SWEEP_AXES",
]

FIBER_DB_PER_KM = 0.2

SWEEP_AXES = ("fiber_loss_db", "temperature")


def fiber_db_to_length(loss_db: float) -> float:
    check_value("loss_db", NON_NEGATIVE, loss_db)
    return loss_db / FIBER_DB_PER_KM


def binary_entropy(q) -> np.ndarray | float:
    """h2(q) in bits; 0 at q = 0 and q = 1. Accepts scalars or arrays."""
    q = np.asarray(q, dtype=float)
    check_value("q", fragment("number", ge=0, le=1), q, axis=True)
    inside = (q > 0.0) & (q < 1.0)
    r = np.where(inside, q, 0.5)  # keeps log2 off the endpoints
    return float_or_array(np.where(inside, -r * np.log2(r) - (1.0 - r) * np.log2(1.0 - r), 0.0))


def check_timebin(timebin_width: float, gate_period: float) -> None:
    """Refuse a time bin wider than one gate: a bit is two bins of its gates."""
    if not timebin_width <= gate_period:
        raise ArgumentError("timebin_width", "must be at most half the bit period")


@dataclass(frozen=True)
class QkdLinkConfig:
    """Transmitter, fiber, and receiver settings for one link evaluation.

    The bit rate is not a setting: each bit occupies two consecutive gates
    (time bins) of `detector`, so `bit_rate` is half its gate clock, and a
    time bin is at most one gate period wide.
    `qber_floor`, when set, replaces the modeled optical error fraction
    (extinction + timing tail, as a fraction of signal detections) with a
    measured floor; the reported extinction/tail components are rescaled
    proportionally so the decomposition still sums to the total.
    `pa_fraction` is the slice removed from the post-error-correction rate
    as a stand-in for privacy amplification; the secret rate is a labeled
    estimate, not a security-proof bound.
    `holdoff_gates` and `holdoff_anchor` are the counter's hold-off as in
    `RunConfig`; the analytic dead-time law and the Monte Carlo both read them.
    `fiber_loss_db` may be an array of losses, as `sweep` builds it.
    """

    mu_source: float = arg(0.3, ge=0)
    fiber_loss_db: float = arg(0.0, ge=0, axis=True)
    timebin_width: float = arg(400e-12, gt=0, unit="ps")
    extinction_db: float = arg_of(SourceConfig, "extinction_db")
    detector: DetectorParams = field(default_factory=DetectorParams)
    holdoff_gates: int = arg_of(RunConfig, "holdoff_gates")
    holdoff_anchor: str = arg_of(RunConfig, "holdoff_anchor")
    ec_efficiency: float = arg(1.2, ge=1)
    pa_fraction: float = arg(0.5, ge=0, le=1)
    qber_floor: float | None = arg(None, ge=0, lt=0.5)
    laser_fwhm: float = arg_of(SourceConfig, "laser_fwhm")

    def __post_init__(self) -> None:
        check_args(self)
        check_timebin(self.timebin_width, self.detector.gate.gate_period)

    @property
    def bit_rate(self) -> float:
        """Bits per second: half the gate clock, two time bins per bit."""
        return self.detector.gate.gate_frequency / 2

    @property
    def extinction_ratio(self) -> float:
        """Linear empty-bin/pulse-bin intensity ratio epsilon."""
        return 10.0 ** (-self.extinction_db / 10.0)


# table header -> QkdReport field
_TABLE_COLUMNS = {"mu_detector": "mu_detector", "raw_rate_hz": "raw_rate", "qber": "qber_total",
                  "qber_dark": "qber_dark", "qber_ext": "qber_extinction",
                  "qber_tail": "qber_timing_tail", "rate_after_ec_hz": "rate_after_ec",
                  "secret_rate_hz": "secret_rate"}


@dataclass(frozen=True)
class QkdReport:
    """A link-budget evaluation; components sum to qber_total by construction.
    The numeric fields are floats at one point, or columns of one length along
    a sweep, and every check holds elementwise."""

    mu_detector: float
    raw_rate: float
    qber_total: float
    qber_dark: float
    qber_extinction: float
    qber_timing_tail: float
    rate_after_ec: float
    secret_rate: float
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = list(_TABLE_COLUMNS.values())
        # a field constant along the sweep (mu_detector over temperature) becomes a column
        for name, value in zip(names, np.broadcast_arrays(*(getattr(self, n) for n in names))):
            object.__setattr__(self, name, float_or_array(value))
        for name in ("raw_rate", "rate_after_ec", "secret_rate"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be >= 0")
        parts = (self.qber_dark, self.qber_extinction, self.qber_timing_tail)
        if any(np.any(p < 0) for p in parts):
            raise ValueError("QBER components must be >= 0")
        if np.any(np.abs(sum(parts) - self.qber_total) > 1e-9 * np.maximum(1.0, self.qber_total)):
            raise ValueError("QBER components must sum to qber_total")

    def table(self, axis_values) -> tuple[list[str], list[np.ndarray]]:
        """Header and columns of a sweep: `axis_values`, then every numeric field."""
        return ["axis_value", *_TABLE_COLUMNS], [np.asarray(axis_values, dtype=float)] + [
            getattr(self, name) for name in _TABLE_COLUMNS.values()
        ]


def mu_at_detector(cfg: QkdLinkConfig) -> np.ndarray | float:
    """Photons per bit impinging the detector after the fiber."""
    return cfg.mu_source * 10.0 ** (-cfg.fiber_loss_db / 10.0)


def rate_after_ec(raw_rate, qber_value, ec_efficiency: float) -> np.ndarray | float:
    """Rate surviving error correction: max(0, r * (1 - f*h2(q))).
    Accepts scalars or arrays for the rate and the QBER."""
    qber_value, raw_rate = np.asarray(qber_value, dtype=float), np.asarray(raw_rate, dtype=float)
    check_value("qber_value", fragment("number", ge=0, le=0.5), qber_value, axis=True)
    check_args(QkdLinkConfig, ec_efficiency=ec_efficiency)
    check_value("raw_rate", NON_NEGATIVE, raw_rate, axis=True)
    h2 = binary_entropy(qber_value)
    return float_or_array(np.maximum(0.0, raw_rate * (1.0 - ec_efficiency * h2)))


def evaluate(cfg: QkdLinkConfig) -> QkdReport:
    """Full analytic link evaluation: floats at one operating point, columns
    when `cfg` holds a loss or temperature grid (see `sweep`).

    Rate: R0 = bit_rate * (p_signal + p_dark) and tau = holdoff_gates / gate
    clock give R0/(1 + R0*tau) for "accepted" anchoring (non-paralyzable) or
    R0*exp(-R0*tau) for "any" (paralyzable), named in the notes. QBER: half
    the dark detections land in the wrong bin; epsilon/(1+eps) of signal
    detections come from the empty bin; tail_fraction of them slip gates and
    land wrong with weight 1/2 + 1/(4*span). `qber_floor` replaces the last
    two and rescales them in proportion. Detections outside the two time
    bins leave numerator and denominator alike (the window loss is
    negligible at these jitter values); without clicks every part is 0.
    """
    mu = mu_at_detector(cfg)
    p_signal = cfg.detector.click_prob(mu)
    p_dark_bit = 1.0 - (1.0 - cfg.detector.dark_prob_per_gate()) ** 2
    r0 = cfg.bit_rate * (p_signal + p_dark_bit)
    tau = cfg.holdoff_gates / cfg.detector.gate.gate_frequency
    raw = r0 * np.exp(-r0 * tau) if cfg.holdoff_anchor == "any" else r0 / (1.0 + r0 * tau)

    eps = cfg.extinction_ratio
    ext_from_ratio = eps / (1.0 + eps)
    j = cfg.detector.jitter
    tail_fraction = j.tail_fraction * (0.5 + 1.0 / (4.0 * j.tail_span_gates))
    scale = 1.0
    if cfg.qber_floor is not None:
        optical = ext_from_ratio + tail_fraction
        scale = cfg.qber_floor / optical if optical > 0 else 0.0
    denom = p_signal + p_dark_bit
    denom = np.where(denom > 0.0, denom, 1.0)  # no clicks: both numerators are 0
    dark = 0.5 * p_dark_bit / denom
    ext = ext_from_ratio * scale * p_signal / denom
    tail = tail_fraction * scale * p_signal / denom
    total = dark + ext + tail
    after_ec = rate_after_ec(raw, np.minimum(0.5, total), cfg.ec_efficiency)

    notes = {
        "dead_time_model": "paralyzable" if cfg.holdoff_anchor == "any" else "nonparalyzable",
        "extinction_qber_from_ratio": ext_from_ratio,
        "extinction_qber_alternate": 0.002,
        "secret_rate_method": (
            "rate_after_ec scaled by (1 - pa_fraction); "
            "placeholder estimate, not a security-proof bound"
        ),
        "unmodeled": "decoy-sequence fraction and monitoring-line detections",
    }
    if cfg.qber_floor is not None:
        notes["qber_floor"] = cfg.qber_floor
    return QkdReport(
        mu_detector=mu,
        raw_rate=raw,
        qber_total=total,
        qber_dark=dark,
        qber_extinction=ext,
        qber_timing_tail=tail,
        rate_after_ec=after_ec,
        secret_rate=after_ec * (1.0 - cfg.pa_fraction),
        notes=notes,
    )


def sweep(cfg: QkdLinkConfig, axis: str, grid) -> QkdReport:
    """evaluate() over a whole grid along `axis` (see SWEEP_AXES) in one array
    pass; the report's fields are columns, one row per grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("sweep grid must be a non-empty sequence")
    check_value("axis", {"enum": list(SWEEP_AXES)}, axis)
    if axis == "fiber_loss_db":
        cfg = replace(cfg, fiber_loss_db=grid)
    else:
        cfg = replace(cfg, detector=replace(cfg.detector, temperature_c=grid))
    report = evaluate(cfg)
    # with no dark law a temperature leaves every field constant: still columns
    return replace(report, mu_detector=np.broadcast_to(report.mu_detector, grid.shape))


def mc_link_run(cfg: QkdLinkConfig, n_bits: int, master_seed: int) -> dict:
    """Monte Carlo counterpart of evaluate(): simulate, window, count errors.

    The engine gets `cfg.holdoff_gates` and `cfg.holdoff_anchor` unchanged,
    the same setting that picks the analytic dead-time law.
    Each accepted detection is assigned to its nearest gate; detections
    farther than timebin_width/2 from a gate center (or past the simulated
    bit train) are discarded. The error flag compares the assigned bin
    against the transmitted bit. `raw_rate_hz` counts all accepted
    detections (the rate counter sits before the windowing logic).
    Each engine chunk's accepted times are windowed as the engine makes the
    chunk, and the counters summed over the chunks: the run keeps no record
    array, and the pass holds one chunk's temporaries however long the segment.
    """
    check_value("n_bits", COUNT, n_bits)
    source = SourceConfig.cow(
        mean_photons_per_bit=mu_at_detector(cfg),
        extinction_db=cfg.extinction_db,
        laser_fwhm=cfg.laser_fwhm,
    )
    run_cfg = RunConfig(
        n_gates=2 * n_bits,
        master_seed=master_seed,
        detector=cfg.detector,
        source=source,
        holdoff_gates=cfg.holdoff_gates,
        holdoff_anchor=cfg.holdoff_anchor,
    )
    _, packed, chunks = chunk_records(run_cfg)
    period = cfg.detector.gate.gate_period
    n_accepted = n_windowed = wrong = 0
    for chunk in chunks:
        times = chunk[1][chunk[3]]  # the accepted records' times
        del chunk  # the engine makes the next chunk without this one's pieces
        nearest_gate = np.rint(times / period)  # whole gates, kept as floats
        in_window = np.abs(times - nearest_gate * period) <= cfg.timebin_width / 2.0
        in_window &= (nearest_gate >= 0) & (nearest_gate < 2 * n_bits)
        assigned = nearest_gate[in_window].astype(np.int64)
        sent = packed_bit(packed, assigned >> 1)
        sent ^= assigned.astype(np.uint8) & 1  # the low byte holds the bin
        n_accepted += times.size
        n_windowed += assigned.size
        wrong += np.count_nonzero(sent)
        del times, nearest_gate, in_window, assigned, sent  # dropped too before the next chunk
    duration = n_bits / cfg.bit_rate
    return {
        "n_bits": n_bits,
        "accepted_total": n_accepted,
        "accepted_in_windows": n_windowed,
        "discarded_outside_windows": n_accepted - n_windowed,
        "wrong_bin": int(wrong),
        "duration_s": duration,
        "raw_rate_hz": n_accepted / duration,
        "qber": wrong / n_windowed if n_windowed else 0.0,
    }


@dataclass(frozen=True)
class StabilityConfig:
    """A `stability_run`: its independently seeded segments and the bits of each."""

    n_segments: int = arg(8, ge=1)
    bits_per_segment: int = arg(1000000, ge=1)

    __post_init__ = check_args


def _segment_seed(master_seed: int, index: int) -> int:
    """Documented per-segment seed derivation (stable across platforms)."""
    ss = np.random.SeedSequence((master_seed, 3, index))
    return int(ss.generate_state(1, np.uint64)[0])


def stability_run(
    cfg: QkdLinkConfig,
    n_segments: int,
    bits_per_segment: int,
    master_seed: int,
    workers: int = 1,
) -> list[dict]:
    """N independently seeded Monte Carlo segments at a fixed operating point.

    Emulates a long acquisition split into segments; with a stationary model
    the per-segment rates scatter within Poisson-like bounds around the mean.
    Segments are independent, so they run in one process pool of
    min(workers, n_segments, os.cpu_count()) processes when that is above 1,
    and in a plain loop otherwise. Each segment returns only its counters,
    and the result is the same for any `workers`.
    """
    check_args(StabilityConfig, n_segments=n_segments, bits_per_segment=bits_per_segment)
    check_value("workers", COUNT, workers)
    seeds = [_segment_seed(master_seed, i) for i in range(n_segments)]
    # looked up at call time, so a wrapped module attribute is the one that runs
    run_segment = partial(mc_link_run, cfg, bits_per_segment)
    n_procs = min(workers, n_segments, os.cpu_count() or 1)
    if n_procs > 1:
        # deferred: only a pooled run needs the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            segments = list(pool.map(run_segment, seeds))
    else:
        segments = [run_segment(seed) for seed in seeds]
    for i, out in enumerate(segments):
        out["segment_index"] = i
    return segments
