"""Gate-clocked Monte Carlo engine for a sine-gated avalanche photodiode.

The simulation advances gate by gate (no waveforms): each gate can host at
most one avalanche, drawn from three independent per-gate processes:

* photon click with probability `DetectorParams.click_prob(mu_gate)`,
* afterpulse click per the expected-value trap state,
* dark click with the per-gate dark probability.

When several fire in one gate the record is labeled by priority
photon > afterpulse > dark (the discriminator cannot resolve two avalanches
within one gate). Discriminated times come from the jitter model; a
photon's is shifted by the alignment delay and its one Gaussian also holds
the laser spread in quadrature. A record whose time slipped into a
subsequent gate is labeled "tail". A hold-off of `holdoff_gates` is applied
afterwards: by default a record is accepted iff its gate index exceeds the
last accepted record's by more than the hold-off.

Determinism
-----------
Gates are processed in absolute chunks of 2**20. Chunk ``i`` draws all its
photon/dark candidates and their detection times from
``SeedSequence((master_seed, 1, i))``, so a chunk's candidates depend only
on the seed and its index, never on how many gates follow it. A chunk
draws its candidates first and keeps its generator; its time draws happen
when its records are written into the run's one record array, after the
afterpulse pass, from the same generator in the same order. Afterpulse
chains (which couple gates across chunk boundaries) and their detection
times are generated in a single sequential pass from
``SeedSequence((master_seed, 2))``. The gaps between intrinsic avalanches
(the last one runs to the end of the run) go in blocks of ``_GAP_BLOCK``:
a block first draws one exponential per gap, the first thinning
candidate's. Every other variate of the walk is an exponential from one
pool, which draws ``_GAP_BLOCK`` of them from the same generator whenever
it runs empty (first when the first gap walks). In gate order, each later
candidate takes one, and a candidate in range s >= 1 gates past its
bound's gate one more to keep it or not (nothing when a hazard is >= 1,
and nothing more to relabel a dark candidate). No variate is drawn alone.
After the last block come the detection times of all afterpulses.
Every click channel is a gap walk (`detector_model.clicks`): it draws
exponentials a block at a time and turns each into the geometric gap to
the next click, so its cost follows the clicks, not the gates. Per-chunk
draw order is fixed: (cow bits, one byte per 8 bits), the photon walk
(pulse bin then empty bin for cow), the dark walk, then the detection
times (`sample_detection_times`): the walk over the records that land in
a tail, one Gaussian offset per record, one tail gate choice per tail
record. Identical RunConfig therefore yields identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .declare import FINITE, NON_NEGATIVE, ArgumentError, arg, check_args, check_value, required
from .detector_model import FWHM_TO_SIGMA, DetectorParams, clicks, sample_detection_times
from .table import Labels, Scaled

__all__ = [
    "SourceConfig",
    "RunConfig",
    "RunResult",
    "TcspcConfig",
    "packed_bit",
    "Histogram",
    "MAX_HISTOGRAM_BINS",
    "RECORD_DTYPE",
    "ORIGIN_NAMES",
    "run_simulation",
    "apply_holdoff",
    "tcspc_histogram",
    "estimate_fwhm",
    "deconvolve_jitter",
    "inter_detection_correlation",
    "subsequent_gate_fraction",
    "records_table",
]

CHUNK_GATES = 1 << 20

# The most bins a TCSPC histogram may split one trigger period into.
MAX_HISTOGRAM_BINS = 2**20

ORIGIN_PHOTON, ORIGIN_DARK, ORIGIN_AFTERPULSE, ORIGIN_TAIL = 0, 1, 2, 3
ORIGIN_NAMES = ("photon", "dark", "afterpulse", "tail")

RECORD_DTYPE = np.dtype(
    [
        ("gate_index", np.int64),
        ("time", np.float64),
        ("origin", np.uint8),
        ("accepted", np.bool_),
    ]
)


@dataclass(frozen=True)
class SourceConfig:
    """What illuminates the detector.

    kind:
      * "pulsed-trigger": one optical pulse (mean `mean_photons`) every
        gate_frequency/trigger_rate gates, e.g. 31.25 MHz -> every 40th gate.
      * "cw-dark-only":   no light at all.
      * "cow-ppm":        one pulse per bit in one of two consecutive gates
        (time bins), so the bit rate is half the gate clock;
        `extinction_db` sets the residual intensity in the empty bin.
    `trigger_rate` is read by pulsed-trigger only. `mean_photons` is per
    pulse (pulsed) or per bit (cow), at the detector.
    """

    kind: str = required(enum=("pulsed-trigger", "cw-dark-only", "cow-ppm"))
    trigger_rate: float = arg(31.25e6, gt=0, unit="hz")
    mean_photons: float = arg(0.1, ge=0)
    laser_fwhm: float = arg(30e-12, ge=0, unit="ps")
    alignment_delay: float = arg(0.0, unit="ps")
    extinction_db: float = arg(25.0, gt=0)

    __post_init__ = check_args

    @classmethod
    def pulsed(cls, **args) -> "SourceConfig":
        """A pulsed-trigger source; `args` are the fields that differ from their defaults."""
        return cls("pulsed-trigger", **args)

    @classmethod
    def dark_only(cls) -> "SourceConfig":
        return cls("cw-dark-only", mean_photons=0.0)

    @classmethod
    def cow(cls, mean_photons_per_bit: float, **args) -> "SourceConfig":
        return cls("cow-ppm", mean_photons=mean_photons_per_bit, **args)


def gates_per_trigger(gate_frequency: float, trigger_rate: float) -> int:
    """Whole gates per trigger period; refuses a rate that does not divide the gate clock."""
    ratio = gate_frequency / trigger_rate
    m = int(round(ratio)) if math.isfinite(ratio) else 0
    if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
        raise ArgumentError("trigger_rate", f"must divide the gate clock (gate/trigger = {ratio})")
    return m


@dataclass(frozen=True)
class RunConfig:
    """One simulation run: how many gates, with what detector and source."""

    n_gates: int = required("integer", ge=1)
    master_seed: int = arg(20260816, ge=0, lt=2**64)
    detector: DetectorParams = field(default_factory=DetectorParams)
    source: SourceConfig = field(default_factory=SourceConfig.dark_only)
    # the counter's hold-off: its length in whole gates and the records that
    # restart it (`QkdLinkConfig` declares the same two arguments)
    holdoff_gates: int = arg(10, ge=0)
    holdoff_anchor: str = arg("accepted", enum=("accepted", "any"))

    def __post_init__(self) -> None:
        check_args(self)


@dataclass
class RunResult:
    """Records (sorted by gate index), summary counters, and cow bits packed
    eight to a byte (`packed_bit` reads one; the last byte pads), else None."""

    config: RunConfig
    records: np.ndarray
    counters: dict
    packed_bits: np.ndarray | None = None

    @property
    def accepted(self) -> np.ndarray:
        return self.records[self.records["accepted"]]

    @property
    def bits(self) -> np.ndarray | None:
        """One uint8 0/1 per cow bit, unpacked from `packed_bits`."""
        if self.packed_bits is None:
            return None
        return np.unpackbits(self.packed_bits, count=(self.config.n_gates + 1) // 2)


def packed_bit(packed: np.ndarray, index) -> np.ndarray:
    """Bits `index` of `packed` as uint8 0/1, in `np.unpackbits` order (first
    bit = a byte's high bit). Besides the result it holds the byte indices and
    one byte per index."""
    index = np.asarray(index)
    bits = packed[index >> 3]
    shift = index.astype(np.uint8)  # the low byte holds the bit's place
    shift &= 7
    shift ^= 7  # 7 - place
    bits >>= shift
    bits &= 1
    return bits


def _merge(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the sorted offsets `a` and `b`, and where `b`'s went
    in it. An offset of `b` that `a` holds is dropped. Costs a binary search per
    offset of `b` and one copy of `a`: `b` is the small stream."""
    at = np.searchsorted(a, b)
    new = np.searchsorted(a, b, side="right") == at
    at, b = at[new], b[new]
    return np.insert(a, at, b), at + np.arange(at.size)


def _simulate_chunk(cfg: RunConfig, chunk_index: int, m: int, p_photon: tuple,
                    p_dark: float):
    """Photon/dark candidates for gates [chunk*C, min((chunk+1)*C, n)).

    `m` is the number of gates per pulsed trigger; a cow bit is always two
    gates. `p_photon` holds the click probabilities (pulse, or pulse bin and
    empty bin). Returns (gates, phys_origin, packed_or_None, rng): the
    chunk's generator stays with it, since its detection times are drawn
    only when `run_simulation` writes its records.
    """
    g0 = chunk_index * CHUNK_GATES
    n_local = min(CHUNK_GATES, cfg.n_gates - g0)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, 1, chunk_index)))
    src = cfg.source

    packed = None
    if src.kind == "pulsed-trigger":
        start = ((g0 + m - 1) // m) * m
        n_lit = len(range(start, g0 + n_local, m))
        photon = clicks(rng, n_lit, p_photon[0])
        photon *= m
        photon += start - g0
    elif src.kind == "cow-ppm":
        n_bits = (n_local + 1) // 2  # chunk starts are even, so bits align
        # one uniform byte carries 8 fair bits; bits past n_bits are never read
        packed = rng.integers(0, 256, size=(n_bits + 7) // 8, dtype=np.uint8)
        b_pulse = clicks(rng, n_bits, p_photon[0])
        b_empty = clicks(rng, n_bits, p_photon[1])
        # a bit's pulse and empty bins are its two gates: the streams never meet
        photon, _ = _merge(2 * b_pulse + packed_bit(packed, b_pulse),
                           2 * b_empty + 1 - packed_bit(packed, b_empty))
        photon = photon[:np.searchsorted(photon, n_local)]  # an odd chunk cuts its last bit
    else:  # cw-dark-only
        photon = np.empty(0, dtype=np.int64)

    # a dark sharing a gate with a photon is dropped: the avalanche is single either way
    gates, at_dark = _merge(photon, clicks(rng, n_local, p_dark))
    gates += g0
    phys = np.full(gates.size, ORIGIN_PHOTON, dtype=np.uint8)
    phys[at_dark] = ORIGIN_DARK
    return gates, phys, packed, rng


def _next_fire(c: float, r: float, n: int, pool, first: float | None = None) -> int:
    """First of `n` gates to fire when gate j fires with probability c*r**j, or n for none.

    Thinning: from gate j the bound b = c*r**j covers every later gate. b >= 1
    fires gate j with no draw; otherwise one exponential skips s gates (s + 1
    is geometric in b) to a candidate, kept with probability r**s, the hazard
    over the bound: with no draw when s == 0, else when a second exponential
    exceeds s*(-ln r), the same law as a uniform below r**s. The
    exponentials come from the iterator `pool`; `first`, when given, is the
    first of them. Needs c >= 0 and 0 < r < 1.
    """
    neg_log_r = -math.log(r)
    j, b = 0, c
    while b < 1.0:
        if b == 0.0:
            return n
        e = next(pool) if first is None else first
        first = None
        x = e / -math.log1p(-b)
        if j + x >= n:  # in floats: the skip may be too large for an int
            return n
        s = int(x)
        if s == 0 or next(pool) > s * neg_log_r:
            return j + s
        j += s + 1
        b = c * r**j
    return j


def _exponentials(rng: np.random.Generator):
    """An endless pool of standard exponentials, drawn `_GAP_BLOCK` at a time."""
    while True:
        yield from rng.standard_exponential(_GAP_BLOCK).tolist()


def _no_fire_bound(e: np.ndarray, n: np.ndarray) -> np.ndarray:
    """A bound under which every hazard c passes `e / -log1p(-c) >= n`: 1 - exp(-e/n),
    less margins for the rounding of both sides (1e-9 relative, and 1e-300 for a
    subnormal e/n)."""
    return -np.expm1(-e / n) * (1.0 - 1e-9) - 1e-300


# Records per block of the passes that read a run's records (`tcspc_histogram`,
# `inter_detection_correlation` and the cow link's window pass,
# `qkd_budget.mc_link_run`): a block's copies and temporaries stay near 1 MB
# however many records there are.
_RECORD_BLOCK = 1 << 15

# Gaps per bulk draw of first exponentials, and exponentials per refill of
# the walk's pool: the pass's Python lists hold ~0.1 MB, so it adds no peak
# memory however many gaps the run has.
_GAP_BLOCK = 1 << 10


def _afterpulse_pass(cfg: RunConfig, gates, phys):
    """Sequential afterpulse generation over the run's candidate stream.

    Walks intrinsic avalanches in gate order, carrying the expected trap
    population N (decays exp(-dt/lifetime), +fill per avalanche). Gate j
    after the last fill fires an afterpulse with probability c*r**j, r the
    per-gate decay and c = min(1, trigger*N*r) the hazard one gate after the
    fill; a fire is itself an avalanche and refills the traps (chains
    allowed).
    The falling hazard is thinned (`_next_fire`), every variate an
    exponential. The walk runs up to and including each intrinsic gate,
    where a kept candidate only relabels a dark candidate (photon outranks
    afterpulse outranks dark) and the traps fill once. The first
    exponential e of every gap between intrinsic avalanches is drawn in
    blocks of `_GAP_BLOCK`; the walk's others come from one pool
    (`_exponentials`). The gap holds no fire when e skips past its n gates
    (e / -log1p(-c) >= n, c < 1). Per block, NumPy computes a bound below
    which every c passes that test (`_no_fire_bound`); a gap with c at or
    under it costs one comparison and the trap update, and only the other
    gaps walk, whose first step is the exact test.
    Relabels in `phys` in place. Returns the added afterpulses' gates,
    times and tail flags, sorted by gate and never on a candidate's gate.
    """
    ap_model = cfg.detector.afterpulse
    period = cfg.detector.gate.gate_period
    r = math.exp(-period / ap_model.release_lifetime)
    fill = ap_model.trap_fill_per_detection
    trigger_r = ap_model.trigger_prob_per_gate * r
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, 2)))
    pool = _exponentials(rng)

    ap_gates: list[int] = []
    relabel: list[int] = []
    n_state = 0.0
    g_end = -1  # the last gap's end, where the traps last filled
    for start in range(0, gates.size + 1, _GAP_BLOCK):
        ends = gates[start:start + _GAP_BLOCK]
        dark = phys[start:start + _GAP_BLOCK] == ORIGIN_DARK
        if ends.size < _GAP_BLOCK:
            # the last gap ends at an intrinsic gate one past the run: a fire
            # there is dropped, like any fire beyond the last gate
            ends = np.append(ends, cfg.n_gates)
            dark = np.append(dark, False)
        lengths = np.diff(ends, prepend=g_end)
        firsts = rng.standard_exponential(ends.size)
        bounds = _no_fire_bound(firsts, lengths).tolist()
        decays = np.power(r, lengths).tolist()
        g_end = ends.item(-1)
        for i, lo, decay in zip(range(ends.size), bounds, decays):
            c = trigger_r * n_state
            if c <= lo:  # no fire: the common case, in a few float ops
                n_state = n_state * decay + fill
                continue
            g, e = ends.item(i), firsts.item(i)
            g_fill = g - lengths.item(i)
            while True:
                g_ap = g_fill + 1 + _next_fire(c, r, g - g_fill, pool, e)
                e = None
                if g_ap >= g:
                    if g_ap == g and dark[i]:
                        relabel.append(start + i)
                    break
                ap_gates.append(g_ap)
                n_state = n_state * r ** (g_ap - g_fill) + fill
                g_fill = g_ap
                c = trigger_r * n_state
            n_state = n_state * r ** (g - g_fill) + fill

    phys[relabel] = ORIGIN_AFTERPULSE
    ap_gates_arr = np.asarray(ap_gates, dtype=np.int64)
    return (ap_gates_arr,) + sample_detection_times(cfg.detector.jitter, ap_gates_arr, period, rng)


def _holdoff_flags(gate_indices: np.ndarray, holdoff_gates: int, anchor: str) -> np.ndarray:
    gaps = np.diff(gate_indices)
    if np.any(gaps < 0):
        raise ValueError("records must be sorted by gate_index")
    accepted = np.ones(gate_indices.size, dtype=bool)
    accepted[1:] = gaps > holdoff_gates  # a long gap clears either anchor
    if anchor == "accepted":
        # A short-gap record right after an accepted one is refused, so a lone
        # short record needs no replay. Replay the chains of two or more; each
        # restarts at the accepted record before it.
        short = ~accepted
        pair = short[1:] & short[:-1]
        chained = np.zeros_like(short)
        chained[1:] = pair
        chained[:-1] |= pair
        chain = np.flatnonzero(chained)
        rescued, previous, last = [], -2, 0
        for i, g, g_before in zip(chain.tolist(), gate_indices[chain].tolist(),
                                  gate_indices[chain - 1].tolist()):
            if i != previous + 1:
                last = g_before
            if g - last > holdoff_gates:
                rescued.append(i)
                last = g
            previous = i
        accepted[rescued] = True
    return accepted


def apply_holdoff(records, holdoff_gates: int, anchor: str = "accepted"):
    """Mark records accepted per the FPGA-style hold-off.

    Default ("accepted" anchoring): a record is accepted iff its gate index
    exceeds the last ACCEPTED record's by more than `holdoff_gates`; records
    inside the window do not restart it. "any" anchoring restarts the window
    on every record. Takes a `RECORD_DTYPE` array sorted by gate index and
    returns a copy with fresh accepted flags.
    """
    check_args(RunConfig, holdoff_gates=holdoff_gates, holdoff_anchor=anchor)
    out = records.copy()
    out["accepted"] = _holdoff_flags(out["gate_index"], holdoff_gates, anchor)
    return out


def run_simulation(cfg: RunConfig) -> RunResult:
    """Simulate `cfg.n_gates` gates; see the module docstring for semantics."""
    det, src = cfg.detector, cfg.source
    p_dark = det.dark_prob_per_gate()  # refuses an out-of-range temperature first
    det.afterpulse.refuse_runaway(det.gate.gate_period)
    m = 1  # gates per trigger, read by pulsed-trigger only
    p_photon = ()
    if src.kind == "pulsed-trigger":
        m = gates_per_trigger(det.gate.gate_frequency, src.trigger_rate)
        p_photon = (det.click_prob(src.mean_photons, src.alignment_delay),)
    elif src.kind == "cow-ppm":
        eps = 10.0 ** (-src.extinction_db / 10.0)
        p_photon = (det.click_prob(src.mean_photons / (1.0 + eps), src.alignment_delay),
                    det.click_prob(src.mean_photons * eps / (1.0 + eps), src.alignment_delay))
    # the laser pulse's spread adds to the jitter's in quadrature: one Gaussian
    photon_sigma = math.hypot(det.jitter.sigma, src.laser_fwhm * FWHM_TO_SIGMA)
    n_chunks = (cfg.n_gates + CHUNK_GATES - 1) // CHUNK_GATES
    # one list per field, each holding one piece per chunk
    gates, phys, packed, rngs = map(list, zip(*[_simulate_chunk(cfg, i, m, p_photon, p_dark)
                                                 for i in range(n_chunks)]))
    # a full chunk's bits fill whole bytes: only the last chunk pads
    packed = np.concatenate(packed) if src.kind == "cow-ppm" else None
    ap_gates = ap_times = ap_tail = np.empty(0, dtype=np.intp)  # none by default
    if det.afterpulse.enabled:
        # the pass relabels in the run's origins; each chunk keeps a view of its part
        phys = np.concatenate(phys)
        ap_gates, ap_times, ap_tail = _afterpulse_pass(cfg, np.concatenate(gates), phys)
        phys = np.split(phys, np.cumsum([g.size for g in gates[:-1]]))
    # chunk i's afterpulses are ap_gates[ap_at[i]:ap_at[i + 1]]
    ap_at = np.searchsorted(ap_gates, CHUNK_GATES * np.arange(n_chunks + 1))

    records = np.empty(sum(g.size for g in gates) + ap_gates.size, dtype=RECORD_DTYPE)
    tallies = np.zeros(2 * len(ORIGIN_NAMES), dtype=np.int64)  # 2 * origin + accepted
    # the gate the hold-off window runs from at a chunk's start, once there is one: the
    # last accepted record's ("accepted") or the last record's ("any"); flags of later
    # records depend on nothing else, so the chunks' flags are those of the whole run
    written, window = 0, np.empty(0, dtype=np.int64)
    for i in range(n_chunks):
        g, origin, rng = gates[i], phys[i], rngs[i]
        gates[i] = phys[i] = rngs[i] = None  # the chunk's pieces go once written
        is_photon = origin == ORIGIN_PHOTON
        sigma = np.where(is_photon, photon_sigma, det.jitter.sigma)
        times, in_tail = sample_detection_times(det.jitter, g, det.gate.gate_period, rng, sigma)
        times += is_photon * src.alignment_delay
        del is_photon, sigma
        ap = slice(ap_at[i], ap_at[i + 1])
        if ap.stop > ap.start:
            # afterpulses come sorted and never share a gate with a candidate
            at = np.searchsorted(g, ap_gates[ap])
            g = np.insert(g, at, ap_gates[ap])
            origin = np.insert(origin, at, ORIGIN_AFTERPULSE)
            times = np.insert(times, at, ap_times[ap])
            in_tail = np.insert(in_tail, at, ap_tail[ap])
        origin[in_tail] = ORIGIN_TAIL
        accepted = _holdoff_flags(np.concatenate([window, g]), cfg.holdoff_gates,
                                  cfg.holdoff_anchor)[window.size:]
        window = np.concatenate([window, g if cfg.holdoff_anchor == "any" else g[accepted]])
        window = window[-1:].copy()
        tallies += np.bincount(origin * 2 + accepted, minlength=tallies.size)
        block = records[written:written + g.size]
        written += g.size
        block["gate_index"] = g
        block["time"] = times
        block["origin"] = origin
        block["accepted"] = accepted

    generated, kept = tallies.reshape(-1, 2).sum(axis=1).tolist(), tallies[1::2].tolist()
    counters = {
        "n_gates": cfg.n_gates,
        "duration_s": cfg.n_gates * cfg.detector.gate.gate_period,
        "generated_total": int(records.size),
        "accepted_total": sum(kept),
    }
    for name, n_generated, n_kept in zip(ORIGIN_NAMES, generated, kept):
        counters[f"generated_{name}"] = n_generated
        counters[f"accepted_{name}"] = n_kept
    return RunResult(config=cfg, records=records, counters=counters, packed_bits=packed)


def _bin_counts(x: np.ndarray, bin_width: float, origin: float, n_bins: int) -> np.ndarray:
    """Counts of `x` in bins [origin + k*w, origin + (k+1)*w), k < n_bins.

    Overwrites `x`: the caller hands over its own float copy.
    """
    x -= origin
    x /= bin_width
    np.floor(x, out=x)
    return np.bincount(x[(x >= 0) & (x < n_bins)].astype(np.int64), minlength=n_bins)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Uniform-bin count histogram; bin k covers [origin + k*w, origin + (k+1)*w)."""

    bin_width: float = required("number", gt=0)
    origin: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        check_args(self)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be 1-D")
        check_value("counts", NON_NEGATIVE, counts, axis=True)
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_starts(self) -> np.ndarray:
        return self.origin + self.bin_width * np.arange(self.n_bins)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.bin_starts + 0.5 * self.bin_width

    @classmethod
    def from_times(cls, times, bin_width: float, origin: float, n_bins: int) -> "Histogram":
        return cls(bin_width, origin,
                   _bin_counts(np.array(times, dtype=float), bin_width, origin, n_bins))

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """Header and columns of the `bin_start_ps,count` table."""
        return ["bin_start_ps", "count"], [self.bin_starts * 1e12, self.counts]


@dataclass(frozen=True)
class TcspcConfig:
    """A TCSPC run: its trigger pulses, its histogram bin, and the longest
    gate lag its `inter_detection_correlation` counts."""

    n_pulses: int = arg(500000, ge=1)
    bin_width: float = arg(4e-12, gt=0, unit="ps")
    max_lag_gates: int = arg(400, ge=1)

    __post_init__ = check_args


def check_tcspc_bin(trigger_rate: float, bin_width: float) -> None:
    """Refuse a bin that is not below the trigger period, or that splits it
    into more than `MAX_HISTOGRAM_BINS` bins."""
    check_args(SourceConfig, trigger_rate=trigger_rate)
    check_args(Histogram, bin_width=bin_width)
    if not bin_width < 1.0 / trigger_rate:
        raise ArgumentError("bin_width", "must be below the trigger period")
    if not 1.0 / trigger_rate / bin_width <= MAX_HISTOGRAM_BINS:  # inf when bin_width is subnormal
        raise ArgumentError("bin_width", "must split the trigger period into at most "
                            f"{MAX_HISTOGRAM_BINS} bins")


def tcspc_histogram(
    records: np.ndarray,
    trigger_rate: float,
    bin_width: float,
    phase_origin: float = 0.0,
) -> Histogram:
    """Histogram of detection times modulo the trigger period.

    Mirrors a TCSPC module: only the FIRST detection of each trigger cycle
    is registered. Pass whichever records the instrument would see (usually
    all generated records; hold-off belongs to the counting path, not here).
    `phase_origin` is the sync delay: phases are (time - phase_origin) mod
    period, so a peak sitting at phase 0 can be moved off the wrap-around
    (e.g. phase_origin = -period/2 centers it). Summing the counts of
    partitioned runs' histograms is exact when the partitions respect
    trigger-cycle boundaries. The bin must pass `check_tcspc_bin`.
    """
    check_tcspc_bin(trigger_rate, bin_width)
    check_value("phase_origin", FINITE, phase_origin)
    period = 1.0 / trigger_rate
    # the last bin may reach past the period; a float quotient just above a
    # whole number (32 ns / 4 ps) does not add a bin
    n_bins = max(1, math.ceil(period / bin_width * (1 - 1e-9)))
    times = np.asarray(records["time"], dtype=float)
    # Blocks go in record order, which times follow only roughly (jitter,
    # tails, a photon-only delay). A cycle's first detection is known once
    # the cycle lies below the earliest time of every later block; until
    # then the cycle's earliest shifted time so far waits in `pending`.
    starts = range(0, times.size, _RECORD_BLOCK)
    later = np.minimum.accumulate(
        [np.inf] + [times[a:a + _RECORD_BLOCK].min() for a in starts[:0:-1]])[::-1]
    counts = np.zeros(n_bins, dtype=np.int64)
    pending = np.empty(0)
    for a, t_later in zip(starts, later):
        shifted = np.concatenate([pending, times[a:a + _RECORD_BLOCK] - phase_origin])
        shifted.sort()
        cycles = np.floor(shifted / period)  # whole numbers, sorted as the times are
        first = np.diff(cycles, prepend=-np.inf) > 0
        shifted, cycles = shifted[first], cycles[first]
        done = np.searchsorted(cycles, np.floor((t_later - phase_origin) / period))
        pending = shifted[done:]
        counts += _bin_counts(shifted[:done] - cycles[:done] * period, bin_width, 0.0, n_bins)
    return Histogram(bin_width, 0.0, counts)


def estimate_fwhm(h: Histogram) -> float:
    """Full width at half maximum via linear interpolation around the peak.

    Walks outwards from the global maximum to the first bins below half
    maximum and interpolates the two crossings. A single-bin spike yields
    one bin width. Empty or flat histograms are refused.
    """
    counts = h.counts.astype(float)
    if h.n_bins == 0 or counts.max() <= 0:
        raise ValueError("histogram is empty")
    if np.all(counts == counts[0]):
        raise ValueError("histogram is flat; no peak to measure")
    centers = h.bin_centers
    p = int(np.argmax(counts))
    half = counts[p] / 2.0

    def crossing(direction: int) -> float:
        i = p
        while 0 <= i + direction < h.n_bins and counts[i + direction] >= half:
            i += direction
        j = i + direction
        if 0 <= j < h.n_bins:
            c_out, y_out = centers[j], counts[j]
        else:  # edge bin: interpolate against a virtual empty neighbor
            c_out, y_out = centers[i] + direction * h.bin_width, 0.0
        c_in, y_in = centers[i], counts[i]
        return c_in + (half - y_in) * (c_out - c_in) / (y_out - y_in)

    return float(crossing(+1) - crossing(-1))


def deconvolve_jitter(measured_fwhm: float, source_fwhm: float) -> float:
    """Remove a Gaussian source width from a measured width in quadrature."""
    check_value("measured_fwhm", NON_NEGATIVE, measured_fwhm)
    check_value("source_fwhm", NON_NEGATIVE, source_fwhm)
    if measured_fwhm < source_fwhm:
        raise ValueError(
            f"measured width {measured_fwhm} below source width {source_fwhm}: "
            "nothing physical to deconvolve"
        )
    return math.sqrt(measured_fwhm**2 - source_fwhm**2)


def inter_detection_correlation(
    records: np.ndarray, max_lag_gates: int, gate_period: float
) -> Histogram:
    """Histogram of gate-index gaps between consecutive ACCEPTED detections.

    Bin for lag k starts at k*gate_period; lags above `max_lag_gates` are
    dropped. Afterpulsing shows up as an excess at short lags; pure jitter
    tails do not shift gate indices and leave this flat.
    """
    check_args(TcspcConfig, max_lag_gates=max_lag_gates)
    counts = np.zeros(max_lag_gates + 2, dtype=np.int64)
    last = np.empty(0, dtype=np.int64)  # the last accepted gate so far, once there is one
    for a in range(0, len(records), _RECORD_BLOCK):
        block = records[a:a + _RECORD_BLOCK]
        gates = np.concatenate([last, block["gate_index"][block["accepted"]]])
        last = gates[-1:].copy()
        # lags outside [1, max_lag_gates] land in the two end bins, which are cut off
        block_counts = np.bincount(np.clip(np.diff(gates), 0, max_lag_gates + 1))
        counts[:block_counts.size] += block_counts
    return Histogram(gate_period, gate_period, counts[1:-1])


def subsequent_gate_fraction(h: Histogram, gate_period: float, span_gates: int) -> float:
    """Fraction of histogram counts in windows around the `span_gates` gates after the peak.

    Windows are one gate period wide, centered at peak + k*gate_period for
    k = 1..span_gates; the peak is the center of the maximal bin.
    """
    if h.total == 0:
        raise ValueError("histogram is empty")
    centers = h.bin_centers
    peak_time = float(centers[int(np.argmax(h.counts))])
    in_windows = np.zeros(h.n_bins, dtype=bool)
    for k in range(1, span_gates + 1):
        target = peak_time + k * gate_period
        in_windows |= np.abs(centers - target) <= gate_period / 2.0
    return float(h.counts[in_windows].sum() / h.total)


def records_table(records: np.ndarray) -> tuple[list[str], list]:
    """Header and columns of the `gate_index,time_ps,origin,accepted` table."""
    return (
        ["gate_index", "time_ps", "origin", "accepted"],
        [records["gate_index"], Scaled(records["time"], 1e12),
         Labels(ORIGIN_NAMES, records["origin"]), records["accepted"]],
    )
