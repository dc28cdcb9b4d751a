"""The columnar table writer against the per-row writer it replaced.

The oracle below is the row-at-a-time emission the CLI used before tables
became columnar: every cell through one `isinstance` chain, rows through
`csv.writer`, and JSON through one `json.dumps` of the whole document. The
fast writer must reproduce its bytes exactly.
"""

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinegate import cli
from sinegate import signal_chain as sc
from sinegate.mc_engine import Histogram, records_table
from sinegate.table import CHUNK_ROWS, Labels, Scaled, _shortest, table_chunks, write_chunks

# --------------------------------------------------------------------- oracle

_EXP_PAD = re.compile(r"e([+-])0(\d)$")


def oracle_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _EXP_PAD.sub(r"e\1\2", repr(float(v)))
    return str(v)


def oracle_jsonable(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def oracle_table(header, rows, fmt) -> bytes:
    if fmt == "json":
        doc = {"header": list(header),
               "rows": [[oracle_jsonable(c) for c in r] for r in rows]}
        return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([oracle_cell(c) for c in row])
    return buf.getvalue().encode()


def column_values(c) -> list:
    if isinstance(c, Labels):
        return [c.names[i] for i in c.codes]
    if isinstance(c, Scaled):
        return list(c.values * c.factor)  # the whole column scaled at once
    return list(c)


def rows_of(columns) -> list[list]:
    """Columns turned back into rows of scalars, as the per-row writer took them."""
    return [list(r) for r in zip(*map(column_values, columns))]


def fast_table(header, columns, fmt) -> bytes:
    return b"".join(table_chunks(header, columns, fmt))


def assert_matches_oracle(header, columns, fmt):
    assert fast_table(header, columns, fmt) == oracle_table(header, rows_of(columns), fmt)


# ------------------------------------------------------------ cli end to end

CLI_CFG = {
    # bright enough that the records table spans more than one chunk
    "source": {"kind": "pulsed-trigger", "mean_photons": 30.0},
    "tcspc": {"n_pulses": 40000, "max_lag_gates": 60},
    "qkd": {"mc_check_bits": 50000},
    "stability": {"n_segments": 3, "bits_per_segment": 20000},
    "sweeps": {
        "bias_v": {"start": 52.0, "stop": 54.5, "step": 0.5},
        "delay_ps": {"start": -200.0, "stop": 200.0, "step": 50.0},
        "fiber_loss_db": {"start": 0.0, "stop": 4.0, "step": 2.0},
    },
    "chain": {"duration_ns": 40.0, "n_avalanches": 2},
}


def oracle_emit_table(self, base, header, columns):
    self._write(f"{base}.{self.fmt}", [oracle_table(header, rows_of(columns), self.fmt)])


def run_cli(args, out):
    assert cli.main(args + ["--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for p in out.iterdir():
        p.unlink()
    return files


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_cli_output_matches_per_row_oracle(tmp_path, monkeypatch, command, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CLI_CFG), encoding="utf-8")
    args = [command, "--config", str(cfg), "--seed", "3", "--format", fmt]
    out = tmp_path / "out"
    fast = run_cli(args, out)
    monkeypatch.setattr(cli.Emitter, "emit_table", oracle_emit_table)
    assert run_cli(args, out) == fast  # manifest.json included
    if command == "tcspc":
        records = fast[f"records.{fmt}"]
        n_rows = len(json.loads(records)["rows"]) if fmt == "json" else records.count(b"\n") - 1
        assert n_rows > CHUNK_ROWS


# ------------------------------------------------- float digits, at scale

def float_cells(values, fmt) -> list[str]:
    """The cells of a one-column float table as `table_chunks` writes them."""
    text = fast_table(["x"], [values], fmt).decode()
    if fmt == "csv":
        return text.split("\n")[1:-1]
    return re.findall(r"^ {6}(.*)$", text, re.M)


def oracle_cells(values, fmt) -> list[str]:
    """The same cells by the oracle's rules: `oracle_cell`'s repr and exponent
    unpadding (one pass over all cells) for CSV, and the json module's own
    float text (its C encoder, one list) for JSON."""
    if fmt == "csv":
        return _EXP_PAD_LINES.sub(r"e\1\2", "\n".join(map(repr, values.tolist()))).split("\n")
    return json.dumps(values.tolist(), allow_nan=False)[1:-1].split(", ")


_EXP_PAD_LINES = re.compile(_EXP_PAD.pattern, re.M)


N_FAMILY = 10**6


def family(name: str) -> np.ndarray:
    """10**6 seeded float64 values of one kind."""
    rng = np.random.default_rng(sum(map(ord, name)))
    with np.errstate(over="ignore", invalid="ignore"):
        return _family(name, rng)


def _family(name: str, rng) -> np.ndarray:
    sign = rng.choice([-1.0, 1.0], size=N_FAMILY)
    if name == "bits":
        values = rng.integers(0, 2**64, size=N_FAMILY, dtype=np.uint64).view(np.float64)
        return values[np.isfinite(values)]
    if name == "decades":  # every decade from subnormals to 1.8e308
        exponents = rng.integers(-324, 309, size=N_FAMILY)
        values = rng.uniform(1.0, 10.0, size=N_FAMILY) * 10.0 ** exponents.astype(np.float64)
        small = exponents < -300  # 10.0**-324 underflows: reach subnormals in two steps
        values[small] = rng.uniform(1.0, 10.0, small.sum()) * 1e-300 * 10.0 ** (exponents[small] + 300.0)
        return sign * np.clip(values, 5e-324, 1.7976931348623157e308)
    if name == "short decimals":
        return sign * rng.integers(0, 10**9, size=N_FAMILY) / 10.0 ** rng.integers(0, 16, size=N_FAMILY)
    if name == "integers around 2**53":
        return sign * (2**53 + rng.integers(-2**40, 2**40, size=N_FAMILY)).astype(np.float64)
    if name == "powers of two":  # and one ulp either side
        powers = sign * 2.0 ** rng.integers(-1074, 1024, size=N_FAMILY).astype(np.float64)
        return np.nextafter(powers, powers * rng.choice([0.0, 1.0, np.inf], size=N_FAMILY))
    if name == "neighbours of powers of ten":  # up to 3 ulps either side
        values = sign * 10.0 ** rng.integers(-323, 309, size=N_FAMILY).astype(np.float64)
        for _ in range(3):
            step = rng.choice([-1, 0, 1], size=N_FAMILY)
            values = np.where(step == 0, values, np.nextafter(values, step * np.inf))
        return values
    raise ValueError(name)


FAMILIES = ["bits", "decades", "short decimals", "integers around 2**53", "powers of two",
            "neighbours of powers of ten"]


@pytest.mark.parametrize("name", FAMILIES)
def test_float_family_matches_the_oracle(name):
    values = family(name)
    assert values.size > 0.99 * N_FAMILY
    # every value the kernel decides; of those it leaves to repr (slow on
    # large exponents), a sample of 2**14
    undecided = _shortest(values)[3]
    left = values[undecided]
    checked = np.concatenate([values[~undecided], left[::max(1, left.size >> 14)]])
    assert float_cells(checked, "csv") == oracle_cells(checked, "csv")
    # the digits are the same kernel's in JSON: a sample checks its layout
    sample = checked[::16]
    assert float_cells(sample, "json") == oracle_cells(sample, "json")


def test_every_fallback_is_reached_and_the_rest_are_decided():
    values = np.concatenate([family(name) for name in FAMILIES]
                            + [[0.0, -0.0, np.nan, np.inf, -np.inf]])
    _, _, _, fallback = _shortest(values)
    undecided = values[fallback]
    mantissa, e2 = np.frexp(np.abs(undecided))
    q = 16 - np.floor((e2 - 1) * np.log10(2.0))
    reasons = {
        "zero": undecided == 0,
        "not finite": ~np.isfinite(undecided),
        "power-of-two mantissa": mantissa == 0.5,
        "outside the exact range": (q < 0) | (q > 22),  # below ~1e-6, from ~1e17 up
    }
    named = np.logical_or.reduce(list(reasons.values()))
    edge = undecided[~named]  # a rounding interval's edge within 1e-9 of an integer
    for reason, hit in reasons.items():
        assert hit.any(), reason
    assert edge.size > 0
    # from 2**52 an integral float's half ulp is a whole or half unit: on its edge
    assert (edge == np.round(edge)).all() and (np.abs(edge) >= 2.0**52).all()
    # every other value well inside the kernel's domain is decided
    mantissa, _ = np.frexp(np.abs(values))
    clear = ((np.abs(values) >= 1e-5) & (np.abs(values) < 1e16) & (mantissa != 0.5)
             & ((np.abs(values) < 2.0**52) | (values != np.round(values))))
    assert clear.sum() > N_FAMILY // 2 and not fallback[clear].any()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_match_the_oracle(values):
    header, columns = ["x", "y"], [np.array(values), np.array(values[::-1])]
    for fmt in ("csv", "json"):
        if fmt == "json" and not np.isfinite(values).all():
            with pytest.raises(ValueError):
                fast_table(header, columns, fmt)
        else:
            assert_matches_oracle(header, columns, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_narrow_float_columns(fmt, dtype):
    rng = np.random.default_rng(7)
    values = rng.normal(size=1 << 15) * 10.0 ** rng.integers(-8, 8, size=1 << 15)
    values = values[np.abs(values) < np.finfo(dtype).max].astype(dtype)
    assert_matches_oracle(["x"], [values], fmt)
    assert_matches_oracle(["t"], [Scaled(values, 1e-3)], fmt)
    assert_matches_oracle(["t"], [Scaled(values.astype(np.float64), 1e-9)], fmt)


# ----------------------------------------------------------------- edge cases

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_row_table(fmt):
    assert_matches_oracle(["a", "b"], [np.array([]), []], fmt)
    assert_matches_oracle(["a"], [np.array([], dtype=np.int64)], fmt)


def test_float_column_csv_rules():
    values = np.array([7e-07, -0.0, 0.0, float("nan"), float("inf"), -float("inf"),
                       1e16, 1.5e-300, 9.999999999999999e-05, 1e-4, 0.1, 2400.0,
                       -3.25e-12, 1.7976931348623157e308])
    assert_matches_oracle(["x"], [values], "csv")
    lines = fast_table(["x"], [values], "csv").decode().splitlines()
    assert lines[1:4] == ["7e-7", "-0.0", "0.0"]
    assert lines[4] == "nan"
    # every decimal exponent a double can carry, subnormals included, in a
    # float column and in a mixed one
    rng = np.random.default_rng(14)
    exponents = np.repeat(np.arange(-320, 309), 16)
    signs = rng.choice([-1.0, 1.0], size=exponents.size)
    sweep = signs * rng.uniform(1.0, 1.7, size=exponents.size) * 10.0 ** exponents
    assert np.isfinite(sweep).all() and (sweep != 0).all()
    assert_matches_oracle(["x"], [sweep], "csv")
    assert_matches_oracle(["k", "v"], [[str(e) for e in exponents], list(sweep)], "csv")


def test_float_column_json():
    values = np.array([7e-07, -0.0, 1e16, 0.1, 2400.0, 1e-300])
    assert_matches_oracle(["x"], [values], "json")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite(bad):
    with pytest.raises(ValueError):
        fast_table(["x"], [np.array([1.0, bad])], "json")
    with pytest.raises(ValueError):
        fast_table(["k", "v"], [["a", "b"], [1, bad]], "json")
    with pytest.raises(ValueError):
        oracle_table(["x"], [[bad]], "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_none_cells(fmt):
    assert_matches_oracle(["k", "v"], [["a", "b"], [None, 1.5]], fmt)
    assert_matches_oracle(["v"], [[None, "", "x"]], fmt)  # csv quotes a lone empty field
    if fmt == "csv":
        assert fast_table(["k", "v"], [["a"], [None]], fmt) == b"k,v\na,\n"
    else:
        assert json.loads(fast_table(["k", "v"], [["a"], [None]], fmt))["rows"] == [["a", None]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cells_that_need_quoting(fmt):
    text = ["a,b", 'say "hi"', "line\nbreak", "cr\rx", "plain", " lead"]
    assert_matches_oracle(["text", "n"], [text, np.arange(len(text))], fmt)
    assert_matches_oracle(["with,comma", 'q"uote'], [["x"], [1]], fmt)
    assert_matches_oracle(["origin"], [Labels(("a,b", "plain"), np.array([0, 1, 0]))], fmt)


def test_non_ascii_strings():
    columns = [["µs", "é", "日本"], np.array([1.0, 2.0, 3.0])]
    assert_matches_oracle(["unit", "v"], columns, "json")
    assert_matches_oracle(["unit", "v"], columns, "csv")
    assert b"\\u00b5s" in fast_table(["unit", "v"], columns, "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numpy_scalars_in_mixed_columns(fmt):
    values = [np.int64(3), np.float64(2.5e-5), np.bool_(True), np.float32(0.1),
              np.uint8(7), True, 4, 0.5, "text"]
    assert_matches_oracle(["k", "v"], [[f"k{i}" for i in range(len(values))], values], fmt)


def test_nested_json_cells():
    columns = [["a", "b", "c"], [{"z": 1, "a": [1, 2.5]}, [], [None, {"k": "v"}]]]
    assert_matches_oracle(["k", "v"], columns, "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_longer_than_one_chunk(fmt):
    n = 2 * CHUNK_ROWS + 7
    rng = np.random.default_rng(11)
    columns = [
        np.arange(n, dtype=np.int64) * 3 - 5,
        rng.normal(size=n) * 10.0 ** rng.integers(-12, 18, size=n),
        Labels(("photon", "dark", "afterpulse", "tail"),
               rng.integers(0, 4, size=n).astype(np.uint8)),
        rng.random(n) < 0.5,
        Scaled(rng.normal(size=n) * 1e-9, 1e12),
    ]
    header = ["i", "x", "origin", "ok", "t_ps"]
    assert_matches_oracle(header, columns, fmt)
    chunks = list(table_chunks(header, columns, fmt))
    assert len(chunks) >= 3


# the first two block boundaries, and the boundary at 1 << 15 rows (a multiple of CHUNK_ROWS)
BOUNDARY_ROWS = sorted({m + d for m in (CHUNK_ROWS, 2 * CHUNK_ROWS, 1 << 15) for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", BOUNDARY_ROWS)
def test_chunk_boundaries(n):
    assert (1 << 15) % CHUNK_ROWS == 0
    columns = [np.arange(n), np.linspace(0.0, 1.0, n)]
    # one-column tables: csv quotes a row's lone empty cell, a json row holds one cell;
    # with n one past a boundary an empty and a filled cell straddle it
    lone = ["" if i % 2 else f"r{i}" for i in range(n)]
    for fmt in ("csv", "json"):
        assert_matches_oracle(["i", "x"], columns, fmt)
        assert_matches_oracle(["s"], [lone], fmt)
        assert_matches_oracle([""], [columns[0]], fmt)


def test_mismatched_columns_rejected():
    with pytest.raises(ValueError):
        fast_table(["a", "b"], [np.arange(3), np.arange(4)], "csv")
    with pytest.raises(ValueError):
        fast_table(["a"], [np.arange(3), np.arange(3)], "csv")
    with pytest.raises(ValueError):
        fast_table(["a"], [np.arange(3)], "xml")


def test_failed_json_table_leaves_no_file(tmp_path):
    path = tmp_path / "t.json"
    columns = [np.concatenate([np.zeros(CHUNK_ROWS), [float("nan")]])]
    with pytest.raises(ValueError):
        write_chunks(path, table_chunks(["x"], columns, "json"))
    assert not path.exists()


# ------------------------------------------------- library writers, same path

def test_records_to_csv_is_the_table_writer(tmp_path):
    rng = np.random.default_rng(2)
    recs = np.zeros(CHUNK_ROWS + 3, dtype=[("gate_index", np.int64), ("time", np.float64),
                                           ("origin", np.uint8), ("accepted", np.bool_)])
    recs["gate_index"] = np.sort(rng.integers(0, 10**9, size=recs.size))
    recs["time"] = recs["gate_index"] * 8e-10 + rng.normal(0, 1e-10, size=recs.size)
    recs["origin"] = rng.integers(0, 4, size=recs.size)
    recs["accepted"] = rng.random(recs.size) < 0.9
    path = tmp_path / "r.csv"
    write_chunks(path, table_chunks(*records_table(recs)))
    header, columns = records_table(recs)
    assert path.read_bytes() == oracle_table(header, rows_of(columns), "csv")


def test_histogram_to_csv_is_the_table_writer(tmp_path):
    h = Histogram(4e-12, -1.6e-8, np.arange(50) % 7)
    path = tmp_path / "h.csv"
    write_chunks(path, table_chunks(*h.table()))
    header, columns = h.table()
    assert path.read_bytes() == oracle_table(header, rows_of(columns), "csv")


def test_waveform_csv_single_builder(tmp_path):
    rng = np.random.default_rng(4)
    wf = sc.SampledWaveform(rng.normal(size=CHUNK_ROWS + 9) * 1e-5, 2.5e-12, t0=3.5e-10)
    path = tmp_path / "w.csv"
    write_chunks(path, table_chunks(*wf.table()))
    header, columns = wf.table()
    assert header == ["time_ps", "volts"]
    assert np.array_equal(columns[0], wf.times * 1e12)
    assert path.read_bytes() == oracle_table(header, rows_of(columns), "csv")
