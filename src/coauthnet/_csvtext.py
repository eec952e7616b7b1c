"""The one place that decides how every CSV the package writes looks.

Renderers pass their records' values unchanged. Every ``float`` cell is
printed at 17 significant digits, which round-trips IEEE doubles exactly;
every other cell (ints, strings) is written by the csv module as is.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with a header row and ``\\n`` line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [format(x, ".17g") if isinstance(x, float) else x for x in row] for row in rows
    )
    return buf.getvalue()
