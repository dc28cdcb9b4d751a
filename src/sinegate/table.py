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

`table_chunks` yields the encoded table `CHUNK_ROWS` rows at a time, so no
whole-table string is ever held; `write_chunks` streams such chunks into a
file and returns their digest. A block is 2**13 rows because its transient
strings, not the columns, set the writer's memory: one Python string per
formatted cell (~60 bytes each), the flat list of cells and separators, and
the joined text and its bytes. For a four-column records table that is
~2 MB however long the table is, and four times that at 2**15 rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Labels", "Scaled", "table_chunks", "write_chunks", "CHUNK_ROWS"]

CHUNK_ROWS = 1 << 13

_CSV_SPECIAL = re.compile(r'[,"\r\n]')
# a cell of a JSON row sits three levels deep: {"rows": [[cell]]}
_JSON_CELL_INDENT = " " * 6
_BOOL_WORDS = np.array(["false", "true"], dtype=object)


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


def _float_cells(values: np.ndarray, fmt: str) -> list[str]:
    if fmt == "json" and not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    cells = list(map(float.__repr__, values.tolist()))
    if fmt == "csv":
        # repr pads an exponent only below 1e-4; one pass unpads the whole column
        mag = np.abs(values)
        if ((mag < 1e-3) & (mag != 0)).any():
            cells = _unpad_exponent("\n".join(cells)).split("\n")
    return cells


def _column_cells(col, fmt: str) -> Callable[[int, int], list[str]]:
    """Formatter of rows [a, b) of one column."""
    if isinstance(col, Labels):
        names = np.array([_cell(str(n), fmt) for n in col.names], dtype=object)
        return lambda a, b: names[col.codes[a:b]].tolist()
    if isinstance(col, Scaled):
        return lambda a, b: _float_cells(col.values[a:b] * col.factor, fmt)
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind == "b":
        return lambda a, b: _BOOL_WORDS[col[a:b].astype(np.intp)].tolist()
    if kind in "iu":
        return lambda a, b: list(map(str, col[a:b].tolist()))
    if kind == "f":
        return lambda a, b: _float_cells(col[a:b], fmt)
    return lambda a, b: [_cell(v, fmt) for v in col[a:b]]


def _rows_text(formatters, a: int, b: int, cell_sep: str, row_sep: str, end: str) -> str:
    """Rows [a, b) as text: each cell followed by `cell_sep`, or by `row_sep` at
    the end of its row, and by `end` at the end of the last row.

    Cells and separators go into one flat list, one column at a time by slice
    assignment, and are joined once: no string is built per row.
    """
    step = 2 * len(formatters)
    flat = [cell_sep] * (step * (b - a))
    flat[step - 1::step] = [row_sep] * (b - a)
    for j, cells in enumerate(formatters):
        flat[2 * j::step] = cells(a, b)
    flat[-1] = end
    return "".join(flat)


def _csv_table(header: Sequence[str], formatters: list, spans: list) -> Iterator[str]:
    head = [_cell(str(h), "csv") for h in header]
    if len(formatters) == 1:  # csv.writer quotes a row's lone empty field
        head = [head[0] or '""']
        only = formatters[0]
        formatters = [lambda a, b: [c or '""' for c in only(a, b)]]
    yield ",".join(head) + "\n"
    for a, b in spans:
        yield _rows_text(formatters, a, b, ",", "\n", "\n")


def _json_table(header: Sequence[str], formatters: list, spans: list) -> Iterator[str]:
    head = json.dumps(list(header), indent=2).replace("\n", "\n  ")
    yield f'{{\n  "header": {head},\n  "rows": ['
    open_row = "    [\n" + _JSON_CELL_INDENT
    between_rows = "\n    ],\n" + open_row
    between_cells = ",\n" + _JSON_CELL_INDENT
    sep = "\n"
    for a, b in spans:
        yield sep + open_row  # the block's opening, apart from its body
        yield _rows_text(formatters, a, b, between_cells, between_rows, "\n    ]")
        sep = ",\n"
    yield ("]" if sep == "\n" else "\n  ]") + "\n}\n"


def table_chunks(header: Sequence[str], columns: Sequence, fmt: str = "csv") -> Iterator[bytes]:
    """The table as UTF-8 chunks of at most `CHUNK_ROWS` rows each."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    if len(header) != len(columns):
        raise ValueError("a table needs one header entry per column")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("table columns differ in length")
    formatters = [_column_cells(c, fmt) for c in columns]
    spans = [(a, min(a + CHUNK_ROWS, n_rows)) for a in range(0, n_rows, CHUNK_ROWS)]
    layout = _csv_table if fmt == "csv" else _json_table
    # map keeps no reference to a block's text once it is encoded
    yield from map(str.encode, layout(header, formatters, spans))


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
