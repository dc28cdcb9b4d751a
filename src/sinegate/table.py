"""The one table format of the package, written column by column in chunks.

Every file a subcommand writes, but its manifest, is such a table: the
waveforms (``time_ps,volts``), histograms, records, sweeps and ``key,value``
summaries alike. A table is a header plus one column per field. Columns are
NumPy arrays, `Labels`, or plain sequences, all of one length:

- bool arrays print as ``true``/``false``, integer arrays as ``str``, and
  float arrays as the shortest ``repr``;
- `Labels` (string codes) print their names;
- `Scaled` columns print as float arrays of their values times a factor,
  scaled one block at a time;
- any other sequence, e.g. the mixed ``value`` column of a ``key,value``
  summary, is formatted cell by cell: ``None`` is an empty cell (``null`` in
  JSON) and NumPy scalars print like their Python counterparts.

CSV drops the exponent zero padding of floats (``7e-07`` -> ``7e-7``) and
quotes cells the way `csv.writer` does. JSON is ``{"header", "rows"}`` at
indent 2, with sorted keys, ASCII escapes, and a `ValueError` on NaN or
infinity: the bytes of `json.dumps(..., indent=2, sort_keys=True,
allow_nan=False)` plus a newline.

How a block is built. `table_chunks` yields the encoded table `CHUNK_ROWS`
rows at a time; `write_chunks` streams such chunks into a file and returns
their digest. Each column's slice of a block becomes a *field*: a ``uint8``
matrix with one fixed-width row of bytes per cell, and a keep mask of the
same shape that marks the bytes the cell uses. An integer field is the
digits of the block's largest magnitude, right-aligned (a ``-`` slot first
if one is negative); bools and `Labels` gather rows of a small matrix of
their encoded words; floats are laid out as below; a mixed column is its
``_cell`` texts, encoded and padded. The fields and the constant text
around them (CSV commas and newlines, JSON indentation) are set side by
side in one matrix per block, and one boolean index by the joined keep
masks yields the block's bytes, row after row.

Floats. A float of magnitude ``a`` gets its shortest digits exactly, with no
per-value Python call:

1. ``q = 16 - floor((e2 - 1) * log10 2)``, from the binary exponent ``e2``,
   makes ``V = a * 10**q`` lie in [1e16, 2e17). For ``0 <= q <= 22``,
   ``10**q`` is a float, and Dekker's two-product (Numer. Math. 18 (1971)
   224) gives ``V = hi + lo`` with no rounding at all, so ``V = D + r`` with
   the integer ``D = hi + rint(lo)`` and ``|r| <= 1/2``, both exact.
2. The floats that round to ``a`` are those within half an ulp of it:
   ``|V' - V| < W`` with ``W = 2**(e2 - 54) * 10**q``, also exact. The
   integers ``A..B`` strictly inside that interval follow from ``r +- W``,
   the only rounded sums, which err by far less than 1e-9.
3. The shortest decimal is a multiple of the largest power ``10**m`` that
   has one in ``A..B``: since ``B - A < 250``, ``m`` is read off ``B``'s three
   low digits and its trailing zeros above them. Its digits are the
   multiple of ``10**m`` nearest ``V`` (a tie goes to the even one, as
   ``repr`` breaks it), as in Ryu (U. Adams, PLDI 2018). They are laid out
   by ``repr``'s rules: positional for 1e-4 <= a < 1e16, else with an
   exponent. A float field holds 18 digit-and-point slots, and only where
   its block needs them a ``-`` slot, the five of ``0.000`` and the exponent.

Only a value this cannot decide with certainty takes ``float.__repr__``,
alone: zero, NaN and infinity, a power-of-two mantissa (its interval is not
symmetric), ``q`` outside 0..22 (below ~1e-6 or from ~1e17 up), and an
interval edge within 1e-9 of an integer (whether ``repr`` takes the edge
depends on the mantissa's parity; integral floats from 2**52 up sit there).

Memory. A block's transient bytes, not the columns, set the writer's
memory, and `CHUNK_ROWS` bounds them. Per row: two bytes per slot of each
field (its bytes and its mask), the same again for the block matrix with
its separators, and the compacted bytes twice (the index result and its
`bytes`); the float kernel holds ~200 bytes per value while it runs. For
the four-column records table at the `tcspc-bright` benchmark config
(475 k records) the writer's tracemalloc peak is 1.0 MB in CSV and 1.4 MB
in JSON, the same for any table length; `tests/test_memory.py` bounds it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Labels", "Scaled", "table_chunks", "write_chunks", "CHUNK_ROWS"]

CHUNK_ROWS = 1 << 12

_CSV_SPECIAL = re.compile(r'[,"\r\n]')
# a cell of a JSON row sits three levels deep: {"rows": [[cell]]}
_JSON_CELL_INDENT = " " * 6
# the text of a row before its first cell, between its cells and after its last
_ROW_TEXT = {
    "csv": ("", ",", "\n"),
    # the table's first row drops the leading comma
    "json": (",\n    [\n" + _JSON_CELL_INDENT, ",\n" + _JSON_CELL_INDENT, "\n    ]"),
}
_BOOL_WORDS = ("false", "true")

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_POW10 = 10.0 ** np.arange(23)  # every power of ten a float holds exactly
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_EDGE = 1e-9  # an interval edge nearer an integer than this is left to repr
# the decimal exponents of the kernel's domain, q = 22 .. 0
_E_MIN, _E_MAX = -6, 17
_SLOTS = np.arange(18)  # the digit-and-point slots of a float field
_ZEROS = np.frombuffer(b"0.000", np.uint8)  # before the digits of 1e-4 <= |x| < 1
# row n: the first n slots
_PREFIXES = _SLOTS < np.arange(_SLOTS.size + 1)[:, None]
# row p: the digit rows of slots 0..17 with the point (row 18) in slot p
_POINT_ORDER = np.array([(list(range(1, p + 1)) + [18] + list(range(p + 1, 18)))[:18]
                         for p in range(_SLOTS.size + 1)])


@dataclass(frozen=True)
class Labels:
    """A string column stored as integer `codes` into `names`."""

    names: Sequence[str]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class Scaled:
    """A float column stored as `values`, printed as `values * factor`.

    Each block is scaled as it is written, so no scaled copy of the whole
    column is held.
    """

    values: np.ndarray
    factor: float

    def __len__(self) -> int:
        return len(self.values)


def _unpad_exponent(text: str) -> str:
    # a float repr pads only one-digit negative exponents: never e+0 nor e-010
    return text.replace("e-0", "e-")


def _csv_quote(text: str) -> str:
    if _CSV_SPECIAL.search(text) is None:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _jsonable(v):
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _cell(v, fmt: str) -> str:
    """One cell of a mixed column."""
    if fmt == "json":
        text = json.dumps(_jsonable(v), indent=2, sort_keys=True, allow_nan=False)
        return text.replace("\n", "\n" + _JSON_CELL_INDENT)
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        # repr round-trips exactly
        return _unpad_exponent(repr(float(v)))
    return _csv_quote(str(v))


def _text_field(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Cells given as text: their UTF-8 bytes left-aligned, and the keep mask."""
    encoded = [t.encode() for t in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = max(int(lengths.max(initial=0)), 1)
    chars = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return chars, np.arange(width) < lengths[:, None]


def _exponents(fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """The text after a float's digits per decimal exponent of the kernel's
    domain, as a field: an exponent below 1e-4 and from 1e16 up, else none."""
    texts = [f"e{e:+03d}" if e < -4 or e >= 16 else "" for e in range(_E_MIN, _E_MAX + 1)]
    return _text_field(texts if fmt == "json" else map(_unpad_exponent, texts))


_EXPONENTS = {fmt: _exponents(fmt) for fmt in _ROW_TEXT}


def _int_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integers as right-aligned decimal digits, behind a ``-`` slot if the
    block has a negative one."""
    if values.dtype.kind == "u":
        mag, neg = values.astype(np.uint64), None
    else:
        signed = values.astype(np.int64)
        neg = signed < 0
        mag = signed.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)  # wraps to the magnitude, 2**63 included
    sign = int(neg is not None and neg.any())
    width = sign + len(str(mag.max()))
    if width - sign < 10:  # uint32 divides faster
        mag = mag.astype(np.uint32)
    chars = np.empty((mag.size, width), np.uint8)
    keep = np.empty(chars.shape, bool)
    if sign:
        chars[:, 0] = ord("-")
        keep[:, 0] = neg
    for j in range(width - 1, sign - 1, -1):
        quotient = mag // 10
        chars[:, j] = mag - quotient * 10
        keep[:, j] = mag > 0  # no leading zeros
        mag = quotient
    chars[:, sign:] += ord("0")
    keep[:, -1] = True
    return chars, keep


def _rows_of(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` of a 2-D table, each row gathered as one item."""
    items = np.ascontiguousarray(table).view(f"V{table.shape[1]}").ravel()
    return items[index].view(table.dtype).reshape(len(index), table.shape[1])


def _exact_scaled(x: np.ndarray):
    """``|x| * 10**q`` as ``big + r`` exactly, with ``big`` an integer in
    [1e16, 2e17] and ``|r| <= 1/2``; the half ulp of ``|x|`` in the same
    units; ``q``; and where the value is in the kernel's domain."""
    a = np.abs(x)
    mantissa, e2 = np.frexp(a)
    q = 16 - ((e2 - 1) * 78913 >> 18)  # 78913 / 2**18: log10 2, exact for |e2| < 1650
    ok = (mantissa > 0.5) & (mantissa < 1.0) & (q.view(np.uint32) <= 22)
    if not ok.all():  # undecided values compute 1.5's digits in their place
        a = np.where(ok, a, 1.5)
        e2 = np.where(ok, e2, 1)
        q = np.where(ok, q, 16)
    scale = _POW10[q]
    hi = a * scale
    split = a * _SPLIT
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI[q], _POW10_LO[q]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    lo_int = np.rint(lo)
    big = hi.astype(np.int64) + lo_int.astype(np.int64)
    # 2**(e2 - 54), built from its exponent bits
    half_ulp = ((e2 + (1023 - 54)).astype(np.int64) << 52).view(np.float64) * scale
    return big, lo - lo_int, half_ulp, q, ok


def _shortest(x: np.ndarray):
    """The shortest round-trip digits of each float, as ``repr`` picks them.

    Returns ``(digits, k, e, fallback)``: ``digits`` holds ASCII in rows
    1..17, one column per value (row 0 is a spare zero, row 18 free), the
    first ``k`` of them significant, for the magnitude ``d.ddd * 10**e``.
    Values flagged in ``fallback`` are undecided and hold junk. See the
    module docstring for why the rest are exact.
    """
    big, r, half_ulp, q, ok = _exact_scaled(x)
    below, above = r - half_ulp, r + half_ulp
    below_int, above_int = np.rint(below), np.rint(above)
    ok &= (np.abs(below - below_int) > _EDGE) & (np.abs(above - above_int) > _EDGE)
    # first..last: the integers strictly inside the rounding interval
    last = big + (above_int - (above_int > above)).astype(np.int64)
    count = last - big - (below_int + (below_int < below)).astype(np.int64) + 1
    # m: the largest power of ten with a multiple in first..last
    last_k = last // 1000
    last_low = last - last_k * 1000
    m = (last_low % 10 < count).astype(np.int64) + (last_low % 100 < count)
    thousands = last_low < count
    if thousands.any():
        z = last_k[thousands]
        m_hi = np.full(z.size, 3, np.int64)
        for s in (8, 4, 2, 1):  # trailing zeros of z < 2e14
            zq = z // _POW10_INT[s]
            hit = zq * _POW10_INT[s] == z
            z = np.where(hit, zq, z)
            m_hi += hit * s
        m[thousands] = m_hi
    step = _POW10_INT[m]
    quot = big // step
    gap = step * 0.5 - (big - quot * step)
    quot += (r > gap) | ((r == gap) & (quot & 1 == 1))  # half to even
    nearest = quot * step
    shift = nearest >= 10**17  # one digit more than 17: the last is a zero
    nearest = np.where(shift, nearest // 10, nearest)
    # the 17 digits, one row each, from two uint32 halves of 8 and 9 digits
    halves = np.empty((2, nearest.size), np.uint32)
    halves[0] = nearest // 10**9
    halves[1] = nearest - halves[0].astype(np.int64) * 10**9
    digits = np.empty((19, nearest.size), np.uint8)
    pair = digits[:18].reshape(2, 9, nearest.size)
    for j in range(8, -1, -1):
        quotient = halves // 10
        pair[:, j] = halves - quotient * 10
        halves = quotient
    digits[:18] += ord("0")
    return digits, 17 + shift - m, 16 + shift - q, ~ok


def _float_field(values: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Floats as ``repr`` writes them (exponent unpadded in CSV).

    A field holds, left to right, the slots its block needs of: a ``-``, the
    ``0.000`` before the digits below 1, the 18 digit-and-point slots, and the
    exponent.
    """
    x = np.asarray(values, np.float64)
    digits, k, e, fallback = _shortest(x)
    positional = (e >= -4) & (e < 16)
    below_one = positional & (e < 0)
    neg = np.signbit(x)
    texts = []
    if fallback.any():
        undecided = np.flatnonzero(fallback)
        if fmt == "json" and not np.isfinite(x[undecided]).all():
            raise ValueError("Out of range float values are not JSON compliant")
        texts = list(map(float.__repr__, x[undecided].tolist()))
        text, text_keep = _text_field(texts if fmt == "json" else map(_unpad_exponent, texts))
    after, after_keep = _EXPONENTS[fmt]
    sign = int(neg.any())
    body = sign + _ZEROS.size * bool(below_one.any())
    end = body + _SLOTS.size
    width = end + after.shape[1] * (not positional.all())
    chars = np.empty((x.size, max(width, text.shape[1] if texts else 0)), np.uint8)
    keep = np.empty(chars.shape, bool)
    keep[:, width:] = False
    if sign:
        chars[:, 0] = ord("-")
        keep[:, 0] = neg
    if body > sign:
        chars[:, sign:body] = _ZEROS
        keep[:, sign:body] = _rows_of(_PREFIXES[:_ZEROS.size + 1, :_ZEROS.size],
                                      np.where(below_one, 1 - e, 0))
    if width > end:
        chars[:, end:width] = _rows_of(after, e - _E_MIN)
        keep[:, end:width] = _rows_of(after_keep, e - _E_MIN)
    point = np.where(positional, np.where(e >= 0, e + 1, _SLOTS.size), 1)
    # digits shown; positional form shows one after the point at least: 2400.0
    shown = np.where(positional & (e >= 0), np.maximum(k, e + 2), k)
    digits[18] = ord(".")
    counts = np.bincount(point, minlength=_SLOTS.size + 1)
    for p in np.flatnonzero(counts):  # the blocks of a column mostly share one
        rows = slice(None) if counts[p] == x.size else np.flatnonzero(point == p)
        chars[rows, body:end] = digits[_POINT_ORDER[p]][:, rows].T
    # slots up to the last digit shown, and the point if a digit follows it
    keep[:, body:end] = _rows_of(_PREFIXES, shown + (point < shown))
    if texts:
        chars[undecided, :text.shape[1]] = text
        keep[undecided] = False
        keep[undecided, :text.shape[1]] = text_keep
    return chars, keep


def _words(words: Sequence[str], codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells that are one of a few `words`, given by their `codes`."""
    chars, keep = _text_field(words)
    return _rows_of(chars, codes), _rows_of(keep, codes)


def _field(col, a: int, b: int, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows [a, b) of a column other than a float one as a field."""
    if isinstance(col, Labels):
        return _words([_cell(str(n), fmt) for n in col.names], col.codes[a:b])
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind == "b":
        return _words(_BOOL_WORDS, col[a:b].astype(np.uint8))
    if kind in "iu":
        return _int_field(col[a:b])
    return _text_field([_cell(v, fmt) for v in col[a:b]])


def _float_values(col, a: int, b: int) -> np.ndarray | None:
    """Rows [a, b) of a float or `Scaled` column, else None."""
    if isinstance(col, Scaled):
        return col.values[a:b] * col.factor
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return col[a:b]
    return None


def _float_fields(blocks: list, fmt: str) -> list:
    """The fields of equal-length float blocks. Blocks short enough share one
    kernel run of at most `CHUNK_ROWS` values, so a small table pays the
    kernel's fixed cost once, not once per column."""
    fields = []
    per_run = max(1, CHUNK_ROWS // len(blocks[0])) if blocks else 1
    for i in range(0, len(blocks), per_run):
        group = blocks[i:i + per_run]
        chars, keep = _float_field(np.concatenate(group), fmt)
        fields += zip(np.split(chars, len(group)), np.split(keep, len(group)))
    return fields


def _quote_empty(chars: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """csv.writer quotes a row's lone empty field: ``""``."""
    empty = ~keep.any(axis=1)
    if not empty.any():
        return chars, keep
    if chars.shape[1] < 2:
        chars = np.pad(chars, ((0, 0), (0, 1)))
        keep = np.pad(keep, ((0, 0), (0, 1)))
    chars[empty, :2] = ord('"')
    keep[empty, :2] = True
    return chars, keep


def _block(columns: Sequence, a: int, b: int, fmt: str) -> bytes:
    """Rows [a, b) of the table as bytes."""
    values = [_float_values(c, a, b) for c in columns]
    floats = iter(_float_fields([v for v in values if v is not None], fmt))
    fields = [_field(c, a, b, fmt) if v is None else next(floats) for c, v in zip(columns, values)]
    if fmt == "csv" and len(fields) == 1:  # csv.writer quotes a lone empty field
        fields[0] = _quote_empty(*fields[0])
    before, between, after = (np.frombuffer(s.encode(), np.uint8) for s in _ROW_TEXT[fmt])
    seps = [before] + [between] * (len(fields) - 1)
    width = sum(map(len, seps)) + len(after) + sum(chars.shape[1] for chars, _ in fields)
    block = np.empty((b - a, width), np.uint8)
    keep = np.empty(block.shape, bool)
    at = 0
    for sep, (chars, field_keep) in zip(seps, fields):
        block[:, at:at + sep.size] = sep
        keep[:, at:at + sep.size] = True
        at += sep.size
        block[:, at:at + chars.shape[1]] = chars
        keep[:, at:at + chars.shape[1]] = field_keep
        at += chars.shape[1]
    block[:, at:] = after
    keep[:, at:] = True
    if fmt == "json" and a == 0:
        keep[0, 0] = False  # the table's first row has no comma before it
    # each copy goes once the next is made: the block's peak is two copies
    del values, floats, fields, chars, field_keep
    text = block[keep]
    del block, keep
    return text.tobytes()


def table_chunks(header: Sequence[str], columns: Sequence, fmt: str = "csv") -> Iterator[bytes]:
    """The table as UTF-8 chunks of at most `CHUNK_ROWS` rows each."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    if len(header) != len(columns):
        raise ValueError("a table needs one header entry per column")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("table columns differ in length")
    if fmt == "csv":
        head = [_cell(str(h), "csv") for h in header]
        if len(columns) == 1:  # csv.writer quotes a lone empty field
            head = [head[0] or '""']
        yield (",".join(head) + "\n").encode()
    else:
        head = json.dumps(list(header), indent=2).replace("\n", "\n  ")
        yield f'{{\n  "header": {head},\n  "rows": ['.encode()
    for a in range(0, n_rows, CHUNK_ROWS):
        yield _block(columns, a, min(a + CHUNK_ROWS, n_rows), fmt)
    if fmt == "json":
        yield ("\n  ]" if n_rows else "]").encode() + b"\n}\n"


def write_chunks(path, chunks: Iterable[bytes]) -> tuple[str, int]:
    """Stream `chunks` into `path`; returns (SHA-256 hex digest, byte count).

    If producing or writing a chunk fails, the partly written file is
    removed; if `path` cannot be opened, nothing is touched.
    """
    path = Path(path)
    digest = hashlib.sha256()
    size = 0
    fh = open(path, "wb")
    try:
        with fh:
            for data in chunks:
                digest.update(data)
                fh.write(data)
                size += len(data)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return digest.hexdigest(), size
