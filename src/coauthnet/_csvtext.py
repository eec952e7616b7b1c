"""Shared output formatting for every CSV the package writes."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def format_number(x: float | int) -> str:
    """17 significant digits, which round-trips IEEE doubles exactly."""
    return format(x, ".17g")


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with a header row and ``\\n`` line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
