"""The one CSV table writer (not the run log's) and header check. No cell
the package reads back is quoted, so its readers split lines on commas."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Iterable, Sequence


def write_table(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV through csv.writer: CRLF line
    ends, and a cell holding a comma, quote or line break quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_header(fh: IO[str], columns: Sequence[str], name: str) -> None:
    """Read fh's first line; any but the columns raises ValueError."""
    header = fh.readline().rstrip("\r\n").split(",")
    if header != list(columns):
        raise ValueError(f"unexpected {name} header: {header}")
