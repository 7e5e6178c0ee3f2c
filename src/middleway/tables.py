"""The one CSV table writer (not the run log's), the run log reader's header
check, and clip, which quotes a value briefly in an error message."""

from __future__ import annotations

import csv
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
    """Read fh's first line; any but the columns raises ValueError. No cell
    the package reads back is quoted, so the header splits on commas."""
    header = fh.readline().rstrip("\r\n")
    if header.split(",") != list(columns):
        raise ValueError(f"{name} line 1: unexpected header {clip(header)}")
