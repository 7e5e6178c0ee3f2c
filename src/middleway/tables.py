"""The one CSV table writer (not the run log's), header check and row
reader. No cell the package reads back is quoted, so readers split on commas."""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import IO, Any, Iterable, Sequence


def write_table(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV through csv.writer: CRLF line
    ends, and a cell holding a comma, quote or line break quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def clip(value: Any) -> str:
    """value quoted for an error message, cut to 40 characters: a string's
    first 40, quoted, or the first 40 of any other value's repr."""
    if isinstance(value, str):
        return repr(value[:40]) + ("..." if len(value) > 40 else "")
    text = repr(value)
    return text[:40] + ("..." if len(text) > 40 else "")


def read_header(fh: IO[str], columns: Sequence[str], name: str) -> None:
    """Read fh's first line; any but the columns raises ValueError."""
    header = fh.readline().rstrip("\r\n")
    if header.split(",") != list(columns):
        raise ValueError(f"{name} line 1: unexpected header {clip(header)}")


def read_rows(fh: IO[str], columns: Sequence[str], name: str, optional: str = ""):
    """Check fh's header, then yield each later line's cells as floats, an
    empty cell of column optional as NaN. A line of another width, or with any
    other cell not a finite number, raises ValueError naming it; the header is line 1."""
    read_header(fh, columns, name)
    for no, line in enumerate(fh, 2):
        cells = line.rstrip("\r\n").split(",")
        if len(cells) != len(columns):
            raise ValueError(f"{name} line {no}: {len(cells)} cells, not {len(columns)}")
        for col, cell in zip(columns, cells):
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = col == optional and not cell
            if not finite:
                raise ValueError(f"{name} line {no}: {col} {clip(cell)} is not a finite number")
        yield tuple(float(cell) if cell else math.nan for cell in cells)
