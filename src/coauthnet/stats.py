"""Statistical analyses: power-curve fits, degree distributions, Spearman
rank correlation, histograms, and ranking profiles.

The power fit is ordinary least squares of ln(y) on ln(x), which mirrors
spreadsheet "power trendline" behavior; its R-squared is therefore reported
in log space.

Spearman's p-value is 2 * scipy.special.stdtr(n - 2, -|t|), the t tail that
scipy.stats.t.sf evaluates, imported on first call. The 0.01 flags of
``correlation_matrix`` need no exact p-value: a closed-form upper bound on
the two-sided tail, held below log(0.01) by a 1e-6 margin, settles every
clearly significant pair with the flag the exact tail would give, and scipy
loads only for a pair the bound cannot settle.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Iterable, Mapping, Sequence

from ._csvtext import csv_text
from .centrality import CentralityVector, ordinal_ranks
from .errors import DataError
from .graph import CoauthGraph, connected_components

__all__ = ["CorrelationReport", "Histogram", "PowerFit", "RankingProfile", "correlation_matrix",
           "degree_distribution", "histogram", "power_fit", "ranking_profile", "spearman"]

logger = logging.getLogger(__name__)

_SIGNIFICANCE = 0.01
# A pair whose log p-bound lies below this is significant without the exact
# tail. The bound is >= p for every nu >= 1; the 1e-6 margin covers the
# lgamma cancellation in the bound (measured under 2e-8 in log space up to
# nu = 1e7) and the ~1e-15 relative error of scipy's stdtr, so a settled
# flag always equals the flag the exact tail would give.
_SETTLED_BELOW = math.log(_SIGNIFICANCE) - 1e-6


@dataclass(frozen=True)
class PowerFit:
    """Least-squares fit of y = coefficient * x**exponent on log-log axes."""

    coefficient: float
    exponent: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise Spearman rho matrix with 0.01-level significance flags."""

    labels: tuple[str, ...]
    rho: tuple[tuple[float, ...], ...]
    significant_01: tuple[tuple[bool, ...], ...]
    n: int


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram; the last bin includes its right edge."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class RankingProfile:
    """Per-vertex ordinal ranks under several measures, ordered by the
    baseline measure's rank (column 0)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[int, ...]], ...]


def power_fit(points: Sequence[tuple[float, float]]) -> PowerFit:
    """Fit y = a * x**b by OLS of ln(y) on ln(x).

    Requires at least 3 strictly positive points. Raises DataError for
    non-positive coordinates or degenerate (all-equal) x values.
    """
    if len(points) < 3:
        raise DataError(f"power_fit needs >= 3 points, got {len(points)}")
    for x, y in points:
        if x <= 0 or y <= 0:
            raise DataError(f"power_fit needs positive coordinates, got ({x}, {y})")
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    n = len(points)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((a - mean_x) ** 2 for a in lx)
    if sxx == 0.0:
        raise DataError("power_fit: all x values equal, slope undefined")
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((b - (intercept + slope * a)) ** 2 for a, b in zip(lx, ly))
    ss_tot = sum((b - mean_y) ** 2 for b in ly)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return PowerFit(
        coefficient=math.exp(intercept),
        exponent=slope,
        r_squared=r_squared,
        n_points=n,
    )


def degree_distribution(g: CoauthGraph) -> list[tuple[int, float]]:
    """(degree, probability) rows for degrees >= 1, sorted by degree.

    Probabilities divide by the total vertex count, so isolated vertices
    deflate the listed probabilities without emitting a row of their own.
    """
    return _degree_rows(map(len, g._adj))


def _largest_degrees(g: CoauthGraph) -> list[int]:
    """The degrees in ``largest_component(g)[0]``, read without the copy.

    A component holds every neighbour of its members, so their rows in g
    have their induced degrees.
    """
    return [len(g._adj[v]) for v in connected_components(g)[0]]


def _degree_rows(degrees: Iterable[int]) -> list[tuple[int, float]]:
    """``degree_distribution``'s rows for one degree per vertex of a graph."""
    counts = Counter(degrees)
    n = counts.total()
    if n == 0:
        raise DataError("degree_distribution: empty graph")
    if set(counts) == {0}:
        raise DataError("degree_distribution: every vertex is isolated")
    return [(k, counts[k] / n) for k in sorted(counts) if k >= 1]


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with tied values sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j + 2) / 2
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxy = sxx = syy = 0.0
    for a, b in zip(xs, ys):
        dx = a - mean_x
        dy = b - mean_y
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        raise DataError("correlation undefined: a series has zero rank variance")
    return sxy / math.sqrt(sxx * syy)


def _rho_t(rx: Sequence[float], ry: Sequence[float]) -> tuple[float, float | None]:
    """Spearman rho of two series from their average ranks, and its t
    statistic t = rho * sqrt((n-2) / (1-rho^2)); t is None for a perfect
    rho of +-1."""
    n = len(rx)
    if len(ry) != n:
        raise DataError(f"spearman: length mismatch ({n} vs {len(ry)})")
    if n < 3:
        raise DataError(f"spearman needs n >= 3, got {n}")
    rho = _pearson(rx, ry)
    if rho >= 1.0:
        return 1.0, None
    if rho <= -1.0:
        return -1.0, None
    return rho, rho * math.sqrt((n - 2) / (1.0 - rho * rho))


def _t_tail(nu: int, t_stat: float) -> float:
    """Two-sided p-value of t under Student's t with nu degrees of freedom."""
    from scipy.special import stdtr
    return 2.0 * float(stdtr(nu, -abs(t_stat)))


def _log_p_bound(nu: int, t_stat: float) -> float:
    """Natural log of an upper bound on the two-sided p-value of t.

    p = I_x(a, 1/2) with a = nu/2 and x = nu / (nu + t^2) (Abramowitz &
    Stegun 26.7.1). Bounding (1-u)^(-1/2) by (1-x)^(-1/2) under the
    integral gives p <= x^a / (a * B(a, 1/2) * sqrt(1 - x)). Returns inf
    for t = 0.
    """
    t2 = t_stat * t_stat
    if t2 == 0.0:
        return math.inf
    a = nu / 2
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return -a * math.log1p(t2 / nu) - math.log(a) - log_beta + 0.5 * math.log1p(nu / t2)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation with average-rank tie handling.

    Returns (rho, two-sided p-value). The p-value uses the t approximation
    t = rho * sqrt((n-2) / (1-rho^2)) with n-2 degrees of freedom and is
    always the exact tail 2 * scipy.special.stdtr(n-2, -|t|); a perfect
    rho of +-1 yields p = 0 without loading scipy.
    """
    rho, t_stat = _rho_t(_average_ranks(xs), _average_ranks(ys))
    if t_stat is None:
        return rho, 0.0
    return rho, _t_tail(len(xs) - 2, t_stat)


def correlation_matrix(series: Mapping[str, Sequence[float]]) -> CorrelationReport:
    """Pairwise Spearman correlations over aligned, same-length series.

    The diagonal is exactly 1.0 and flagged significant (p = 0 under the
    perfect-correlation rule). A pair is flagged when its two-sided p-value
    is below 0.01, exactly as ``spearman``'s p would flag it. A pair whose
    closed-form bound (``_log_p_bound``) already lies below 0.01 by a 1e-6
    margin in log space is flagged without the exact tail, so scipy loads
    only if some pair is not clearly significant; one INFO log line counts
    the pairs that took the exact tail. Each series is ranked once. Errors
    from an undefined pair are re-raised naming the pair.
    """
    labels = tuple(series)
    if len(labels) < 2:
        raise DataError("correlation_matrix needs >= 2 series")
    lengths = {len(series[label]) for label in labels}
    if len(lengths) != 1:
        raise DataError("correlation_matrix: series lengths differ")
    n = lengths.pop()
    k = len(labels)
    ranks = [_average_ranks(series[label]) for label in labels]
    rho = [[1.0] * k for _ in range(k)]
    sig = [[True] * k for _ in range(k)]
    exact = 0
    for i in range(k):
        for j in range(i + 1, k):
            try:
                r, t_stat = _rho_t(ranks[i], ranks[j])
            except DataError as exc:
                raise DataError(f"pair ({labels[i]}, {labels[j]}): {exc}") from exc
            rho[i][j] = rho[j][i] = r
            if t_stat is not None and _log_p_bound(n - 2, t_stat) >= _SETTLED_BELOW:
                exact += 1
                sig[i][j] = sig[j][i] = _t_tail(n - 2, t_stat) < _SIGNIFICANCE
    logger.info(
        "significance: %d of %d pair(s) took the exact t tail", exact, k * (k - 1) // 2
    )
    return CorrelationReport(
        labels=labels,
        rho=tuple(tuple(row) for row in rho),
        significant_01=tuple(tuple(row) for row in sig),
        n=n,
    )


#: Most bins one histogram may have. Every bin costs an edge, a count and a
#: CSV row, so the bound keeps time, memory and output small whatever the input.
MAX_HISTOGRAM_BINS = 10_000


def histogram(values: Sequence[float], bins: int) -> Histogram:
    """Equal-width histogram over [min, max].

    Interior bins are right-open; the last bin includes its right edge. A
    constant input collapses to a single zero-width bin holding everything.
    Raises DataError for empty input or bins outside [1, MAX_HISTOGRAM_BINS].
    """
    if not values:
        raise DataError("histogram: empty input")
    if bins < 1:
        raise DataError(f"histogram: bins must be >= 1, got {bins}")
    if bins > MAX_HISTOGRAM_BINS:
        raise DataError(f"histogram: bins must be <= {MAX_HISTOGRAM_BINS}, got {bins}")
    lo = float(min(values))
    hi = float(max(values))
    if lo == hi:
        return Histogram(bin_edges=(lo, hi), counts=(len(values),))
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    edges[0] = lo
    edges[-1] = hi
    counts = [0] * bins
    for v in values:
        idx = bisect_right(edges, v) - 1
        if idx == bins:
            idx -= 1
        counts[idx] += 1
    return Histogram(bin_edges=tuple(edges), counts=tuple(counts))


def ranking_profile(
    baseline: CentralityVector,
    others: Iterable[CentralityVector],
    citations: Mapping[str, float],
) -> RankingProfile:
    """Ordinal ranks of every vertex under the baseline measure, the other
    measures, and citation counts, ordered by baseline rank.

    All inputs must cover exactly the same vertex set.
    """
    others = list(others)
    vertex_set = set(baseline.scores)
    for cv in others:
        if set(cv.scores) != vertex_set:
            raise DataError(f"ranking_profile: vertex set of {cv.measure!r} differs")
    if set(citations) != vertex_set:
        raise DataError("ranking_profile: citations cover a different vertex set")
    columns = (baseline.measure, *(cv.measure for cv in others), "citations")
    scores = (baseline.scores, *(cv.scores for cv in others), citations)
    rank_maps = [ordinal_ranks(s) for s in scores]
    rows = tuple((v, tuple(ranks[v] for ranks in rank_maps)) for v in rank_maps[0])
    return RankingProfile(columns=columns, rows=rows)


def render_fit_csv(fits: Iterable[tuple[str, PowerFit]]) -> str:
    """CSV ``series,coefficient,exponent,r_squared,n``."""
    rows = ((name, *astuple(fit)) for name, fit in fits)
    return csv_text(["series", "coefficient", "exponent", "r_squared", "n"], rows)


def render_correlation_csv(report: CorrelationReport) -> str:
    """Square rho matrix with row/column labels."""
    rows = ((label, *row) for label, row in zip(report.labels, report.rho))
    return csv_text(["series", *report.labels], rows)


def render_significance_csv(report: CorrelationReport) -> str:
    """Square 0/1 matrix flagging p < 0.01, labels matching the rho matrix."""
    rows = (
        [label, *(int(flag) for flag in row)]
        for label, row in zip(report.labels, report.significant_01)
    )
    return csv_text(["series", *report.labels], rows)


def render_histogram_csv(hist: Histogram) -> str:
    """CSV ``bin_lo,bin_hi,count``."""
    edges = hist.bin_edges
    return csv_text(["bin_lo", "bin_hi", "count"], zip(edges, edges[1:], hist.counts))


def render_profile_csv(profile: RankingProfile) -> str:
    """CSV ``author,<measure>_rank,...`` ordered by the baseline column."""
    rows = ([author, *ranks] for author, ranks in profile.rows)
    return csv_text(["author", *(f"{name}_rank" for name in profile.columns)], rows)
