"""The one table format of the package, written column by column in chunks.

Every file a subcommand writes, but its manifest, is such a table: the
waveforms (``time_ps,volts``), histograms, records, sweeps and ``key,value``
summaries alike. A table is a header plus one column per field. Columns are
NumPy arrays, `Labels`, or plain sequences, all of one length:

- bool arrays print as ``true``/``false``, integer arrays as ``str``, and
  float arrays as the shortest ``repr``;
- `Labels` (string codes) print their names;
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
file and returns their digest.
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

__all__ = ["Labels", "table_chunks", "write_chunks", "CHUNK_ROWS"]

CHUNK_ROWS = 1 << 15

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
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind == "b":
        return lambda a, b: _BOOL_WORDS[col[a:b].astype(np.intp)].tolist()
    if kind in "iu":
        return lambda a, b: list(map(str, col[a:b].tolist()))
    if kind == "f":
        return lambda a, b: _float_cells(col[a:b], fmt)
    return lambda a, b: [_cell(v, fmt) for v in col[a:b]]


def _csv_lines(cells: list[list[str]]) -> str:
    if len(cells) == 1:  # csv.writer quotes a row's lone empty field
        return "".join((c or '""') + "\n" for c in cells[0])
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _csv_table(header: Sequence[str], blocks: Iterable[list[list[str]]]) -> Iterator[str]:
    yield _csv_lines([[_cell(str(h), "csv")] for h in header])
    for cells in blocks:
        yield _csv_lines(cells)


def _json_table(header: Sequence[str], blocks: Iterable[list[list[str]]]) -> Iterator[str]:
    head = json.dumps(list(header), indent=2).replace("\n", "\n  ")
    yield f'{{\n  "header": {head},\n  "rows": ['
    open_row = "    [\n" + _JSON_CELL_INDENT
    between_rows = "\n    ],\n" + open_row
    between_cells = ",\n" + _JSON_CELL_INDENT
    sep = "\n"
    for cells in blocks:
        yield sep + open_row + between_rows.join(map(between_cells.join, zip(*cells))) + "\n    ]"
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
    blocks = ([f(a, min(a + CHUNK_ROWS, n_rows)) for f in formatters]
              for a in range(0, n_rows, CHUNK_ROWS))
    layout = _csv_table if fmt == "csv" else _json_table
    for text in layout(header, blocks):
        yield text.encode("utf-8")


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
