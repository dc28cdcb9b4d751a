"""Memory bounds of the tcspc path, and of the cow link's window pass and packed bit reads.

Each stage holds one copy of its records plus one bounded block. The
simulation writes each chunk's records once into the one record array, and
holds besides it only the chunks' candidate gates and origins (9 of the 18
bytes of a record) and one chunk's temporaries. The histogram and
correlation passes read the records in blocks of a fixed number of records,
and the table writer formats a block of `CHUNK_ROWS` rows at a time,
whatever the table's length; the records table scales its time column one
block at a time too. The cow link windows its accepted records one block at
a time, so it holds no more than the simulation that made them. A packed bit
read holds its byte indices and one byte per bit besides its result. Peaks
are tracemalloc's, which also sees NumPy's buffers.
"""

import json
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  numpy imports it lazily; here, before any tracing
import pytest

from sinegate.config import load_config
from sinegate.mc_engine import (
    ORIGIN_NAMES,
    RunConfig,
    SourceConfig,
    gates_per_trigger,
    inter_detection_correlation,
    packed_bit,
    records_table,
    run_simulation,
    tcspc_histogram,
    _RECORD_BLOCK,
)
from sinegate.qkd_budget import QkdLinkConfig, mc_link_run, mu_at_detector
from sinegate.table import Labels, table_chunks, write_chunks

# The benchmark's bright tcspc run: 500 k pulses at 30 photons, darks and
# afterpulsing off, ~475 k records of 18 bytes.
BRIGHT = {
    "source": {"kind": "pulsed-trigger", "mean_photons": 30.0, "laser_fwhm_ps": 30.0},
    "detector": {"dark_table_c_prob": None, "jitter": {"sigma_ps": 29.726263010080668},
                 "afterpulse": {"enabled": False}},
    "tcspc": {"n_pulses": 500000},
}

MB = 1 << 20


def held(fn, *args, **kwargs):
    """(result, most bytes the call held at once): its own allocations, result included."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bright(tmp_path_factory):
    path = tmp_path_factory.mktemp("bright") / "bright.json"
    path.write_text(json.dumps(BRIGHT), encoding="utf-8")
    cfg = load_config(path)
    src = cfg.source
    n_gates = (cfg.tcspc.n_pulses
               * gates_per_trigger(cfg.detector.gate.gate_frequency, src.trigger_rate))
    run_cfg = RunConfig(n_gates=n_gates, master_seed=1, detector=cfg.detector, source=src)
    result, peak = held(run_simulation, run_cfg)
    return cfg, result.records, peak


def test_run_simulation_holds_its_records_and_half_a_copy_more(bright):
    _, records, peak = bright
    assert records.size > 400_000
    assert peak <= 1.7 * records.nbytes


def test_tcspc_histogram_holds_a_bounded_block_beside_the_records(bright):
    cfg, records, _ = bright
    period = 1.0 / cfg.source.trigger_rate
    hist, peak = held(tcspc_histogram, records, cfg.source.trigger_rate,
                      cfg.tcspc.bin_width, phase_origin=-period / 2)
    assert hist.total > 0
    assert records.nbytes + peak <= 1.5 * records.nbytes


def test_inter_detection_correlation_holds_a_bounded_block_beside_the_records(bright):
    cfg, records, _ = bright
    corr, peak = held(inter_detection_correlation, records, cfg.tcspc.max_lag_gates,
                      cfg.detector.gate.gate_period)
    assert corr.total > 0
    assert records.nbytes + peak <= 1.2 * records.nbytes


def records_like_columns(n: int) -> list:
    """gate_index, time_ps, origin, accepted: the records table's four column kinds."""
    rng = np.random.default_rng(5)
    gates = np.cumsum(rng.integers(1, 80, size=n))
    return [gates, gates * 800.0 + rng.normal(0.0, 30.0, size=n),
            Labels(ORIGIN_NAMES, rng.integers(0, 4, size=n).astype(np.uint8)),
            rng.random(n) < 0.9]


# A 2**12-row block of the four columns holds 1-1.5 MB of byte matrices and masks.
WRITER_BOUND = 4 * MB


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writer_memory_does_not_grow_with_the_table(tmp_path, fmt):
    header = ["gate_index", "time_ps", "origin", "accepted"]
    peaks = []
    for n in (2**16, 2**18):
        columns = records_like_columns(n)  # allocated before tracing: not counted
        (_, size), peak = held(write_chunks, tmp_path / f"t.{fmt}",
                               table_chunks(header, columns, fmt))
        assert size > 30 * n  # the table was written
        assert peak < WRITER_BOUND, (n, peak)
        peaks.append(peak)
    assert peaks[1] < peaks[0] + MB // 2  # four times the rows, the same block


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_records_table_emission_holds_one_writer_block_beside_the_records(bright, tmp_path, fmt):
    _, records, _ = bright
    (_, size), peak = held(lambda: write_chunks(tmp_path / f"records.{fmt}",
                                                table_chunks(*records_table(records), fmt)))
    assert size > 30 * records.size  # the table was written
    assert peak < WRITER_BOUND


def test_packed_bit_holds_its_byte_indices_and_two_bytes_per_bit():
    # the cow link reads ~100 k bits of a 4 M-bit segment
    rng = np.random.default_rng(3)
    packed = rng.integers(0, 256, size=4_000_000 // 8, dtype=np.uint8)
    index = np.sort(rng.choice(4_000_000, size=100_000, replace=False))
    bits, peak = held(packed_bit, packed, index)
    assert np.array_equal(bits, np.unpackbits(packed)[index])
    assert peak <= index.nbytes + 2 * index.size


def test_cow_link_window_pass_adds_nothing_to_the_simulation_peak():
    # the benchmark's link segment: 4 M bits at mu 0.3, ~118 k records in four blocks
    link = QkdLinkConfig(mu_source=0.3)
    source = SourceConfig.cow(mean_photons_per_bit=mu_at_detector(link),
                              extinction_db=link.extinction_db, laser_fwhm=link.laser_fwhm)
    result, simulated = held(run_simulation, RunConfig(n_gates=8_000_000, master_seed=1,
                                                       detector=link.detector, source=source))
    counters, peak = held(mc_link_run, link, 4_000_000, 1)
    assert counters["accepted_total"] == np.count_nonzero(result.records["accepted"])
    # A block's temporaries (~1.2 MB) fit under the simulation's chunk
    # temporaries; the bound leaves one float column of a block for noise.
    # Windowing the whole segment at once added ~1 MB.
    assert peak <= simulated + 8 * _RECORD_BLOCK
