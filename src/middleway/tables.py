"""The one CSV table writer behind every command's tables (not the run log)."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def write_table(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV through csv.writer: CRLF line
    ends, and a cell holding a comma, quote or line break quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
