"""Cumulative time-slice networks and growth series.

Slices accumulate from a fixed start year ("start through boundary"), so
later slices are supersets of earlier ones; the growth series counts papers
and first-time authors per calendar year.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import astuple, dataclass
from importlib import resources
from typing import IO, Iterable, Sequence

from ._csvtext import csv_text
from .errors import ConfigError, DataError, ParseError
from .graph import CoauthGraph, _largest_with_distance, build_graph
from .ingest import BiblioRecord, _lines

__all__ = ["SliceReport", "TimeSlice", "cumulative_slices", "growth_series",
           "lis_growth_series", "slice_report"]

logger = logging.getLogger(__name__)

GROWTH_SERIES_FILENAME = "lis_growth_1988_2007.csv"


@dataclass(frozen=True)
class TimeSlice:
    """All records with year in [start_year, end_year] and their graph."""

    start_year: int
    end_year: int
    graph: CoauthGraph


@dataclass(frozen=True)
class SliceReport:
    """Per-slice network statistics row."""

    start_year: int
    end_year: int
    authors: int
    papers: int
    mean_collaborators: float
    largest_size: int
    largest_ratio: float
    largest_avg_distance: float


def check_boundaries(boundaries: Sequence[int], start_year: int | None = None,
                     name: str = "boundaries") -> None:
    """Raise ConfigError, naming the argument ``name``, unless the boundaries are
    given, strictly increasing and none before start_year (when given)."""
    if not boundaries:
        raise ConfigError(f"{name} is required for evolve")
    if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ConfigError(f"{name} must be strictly increasing, got "
                          + ",".join(map(str, boundaries)))
    if start_year is not None and boundaries[0] < start_year:
        raise ConfigError(f"{name} boundary {boundaries[0]} is before the start year {start_year}")


def cumulative_slices(
    records: Iterable[BiblioRecord],
    start_year: int,
    boundaries: Sequence[int],
) -> list[TimeSlice]:
    """One nested slice per boundary, each from start_year through it.

    Records outside [start_year, last boundary] are excluded with a logged
    warning count. Boundaries that ``check_boundaries`` refuses raise
    ConfigError.
    """
    bounds = list(boundaries)
    check_boundaries(bounds, start_year)
    records = list(records)
    in_range = [r for r in records if start_year <= r.year <= bounds[-1]]
    excluded = len(records) - len(in_range)
    if excluded:
        logger.warning(
            "excluded %d record(s) outside [%d, %d] from slicing",
            excluded,
            start_year,
            bounds[-1],
        )
    return [TimeSlice(start_year=start_year, end_year=boundary,
                      graph=build_graph([r for r in in_range if r.year <= boundary]))
            for boundary in bounds]


def slice_report(ts: TimeSlice) -> SliceReport:
    """Network statistics for one slice.

    largest_avg_distance is the mean geodesic distance inside the largest
    component; a single-vertex largest component (no collaboration at all)
    reports 0.0 since it has no vertex pair.
    """
    g = ts.graph
    n = len(g)
    if n == 0:
        raise DataError(f"slice_report: slice {ts.start_year}-{ts.end_year} is empty")
    largest, ratio, avg_distance = _largest_with_distance(g)
    return SliceReport(
        start_year=ts.start_year,
        end_year=ts.end_year,
        authors=n,
        papers=g.paper_count,
        mean_collaborators=2 * g.edge_count() / n,
        largest_size=len(largest),
        largest_ratio=ratio,
        largest_avg_distance=avg_distance,
    )


def growth_series(
    records: Iterable[BiblioRecord], start_year: int, end_year: int
) -> list[tuple[int, int, int]]:
    """Cumulative (year, papers, authors) rows for each year in range.

    A paper counts toward every year >= its publication year; an author
    counts from the year of their first authored paper. Both columns are
    monotone non-decreasing.
    """
    if start_year > end_year:
        raise DataError(f"growth_series: start_year {start_year} is after end_year {end_year}")
    papers_by_year: Counter[int] = Counter()
    first_seen: dict[str, int] = {}
    for rec in records:
        papers_by_year[rec.year] += 1
        for author in rec.authors:
            prev = first_seen.get(author)
            if prev is None or rec.year < prev:
                first_seen[author] = rec.year
    debut_by_year: Counter[int] = Counter(first_seen.values())
    cum_papers = sum(c for y, c in papers_by_year.items() if y < start_year)
    cum_authors = sum(c for y, c in debut_by_year.items() if y < start_year)
    rows = []
    for year in range(start_year, end_year + 1):
        cum_papers += papers_by_year.get(year, 0)
        cum_authors += debut_by_year.get(year, 0)
        rows.append((year, cum_papers, cum_authors))
    return rows


def render_growth_csv(rows: Iterable[tuple[int, int, int]]) -> str:
    """CSV ``year,papers,authors``."""
    return csv_text(["year", "papers", "authors"], rows)


def parse_growth_csv(stream: str | IO[str] | Iterable[str]) -> list[tuple[int, int, int]]:
    """Read a ``year,papers,authors`` CSV back into rows, one per
    consecutive year (a fit reads row i as time i)."""
    reader = csv.reader(_lines(stream))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["year", "papers", "authors"]:
        raise ParseError("growth series header must be year,papers,authors")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ParseError(f"growth series line {line_no}: expected 3 columns")
        try:
            year, papers, authors = map(int, row)
        except ValueError:
            raise ParseError(f"growth series line {line_no}: non-integer value") from None
        if rows and year != rows[-1][0] + 1:
            raise ParseError(f"growth series line {line_no}: year {year} does not follow "
                             f"{rows[-1][0]}; the series needs one row per consecutive year")
        rows.append((year, papers, authors))
    return rows


def lis_growth_series() -> list[tuple[int, int, int]]:
    """Cumulative (year, papers, authors) rows for the bundled twenty-year
    library-and-information-science journal corpus (1988 through 2007)."""
    resource = resources.files("coauthnet") / "data" / GROWTH_SERIES_FILENAME
    return parse_growth_csv(resource.read_text(encoding="utf-8"))


def render_slice_csv(reports: Iterable[SliceReport]) -> str:
    """CSV with one row per slice report."""
    header = [
        "start",
        "end",
        "authors",
        "papers",
        "mean_collaborators",
        "largest_size",
        "largest_ratio",
        "largest_avg_distance",
    ]
    return csv_text(header, (astuple(rep) for rep in reports))
