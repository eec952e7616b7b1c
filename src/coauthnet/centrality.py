"""Centrality measures on coauthorship graphs.

Four measures: degree (neighbor count), closeness (sum of reciprocal
geodesic distances, which handles disconnected graphs gracefully),
betweenness (unnormalized geodesic-fraction sums over unordered pairs, via
Brandes' dependency accumulation), and PageRank over the bidirectional
arc interpretation of the undirected graph.

Closeness, betweenness and PageRank run in the private ``_numeric`` module,
imported on their first call, which alone loads numpy. Closeness and
betweenness read its bit-parallel sweep, 64 sources per machine word, and
betweenness rebuilds each search's visiting order from the distances; every
sum adds in the order of per-vertex Python loops, so the scores are their
bits. A search that would repeat another exactly is not run: a closed twin
(same closed neighbourhood, degree >= 2) or a member of a pendant group (an
anchor of degree >= 2 and its degree-1 neighbours) takes its distance and
dependency rows from its group's first member in index order, by the
rules in ``_numeric``'s docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ._csvtext import csv_text
from .errors import ConfigError, DataError
from .graph import CoauthGraph

__all__ = ["CentralityVector", "RankTable", "betweenness_centrality", "closeness_centrality",
           "degree_centrality", "ordinal_ranks", "pagerank", "rank_table"]

DEFAULT_DAMPING = 0.85
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class CentralityVector:
    """Scores of one measure for every vertex of the graph it ran on."""

    measure: str
    scores: dict[str, float]


@dataclass(frozen=True)
class RankTable:
    """Top-N ranking rows (rank, author, score), score descending.

    Ties are broken by ascending author key; ranks are ordinal (1, 2, 3...).
    """

    rows: tuple[tuple[int, str, float], ...]


def degree_centrality(g: CoauthGraph) -> CentralityVector:
    """Number of distinct neighbors of each vertex."""
    return CentralityVector("degree", dict(zip(g._names, map(len, g._adj))))


def closeness_centrality(g: CoauthGraph) -> CentralityVector:
    """Sum over reachable others of 1/distance; unreachable pairs add 0."""
    from . import _numeric
    sums = _numeric.closeness_sums(g)
    return CentralityVector("closeness", dict(zip(g._names, sums)))


def betweenness_centrality(g: CoauthGraph) -> CentralityVector:
    """Unnormalized shortest-path betweenness over unordered vertex pairs.

    Brandes' accumulation, vectorized over blocks of sources: each source's
    dependencies are added to the running totals in source order, so the
    scores equal ``_numeric._source_dependencies``'s per-source loop bit for
    bit. A closed twin's or pendant group member's row is derived from its
    group's first member, whose row is held until the group's last member;
    the held rows are capped at ``_numeric.HELD_BYTES`` (16 MiB), so memory
    stays linear in the graph size.
    """
    from . import _numeric
    totals = _numeric.betweenness_sums(g)
    return CentralityVector("betweenness", dict(zip(g._names, totals)))


def pagerank(
    g: CoauthGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CentralityVector:
    """Fixed point of PR(v) = (1-d)/N + d * sum(PR(u)/deg(u) for u ~ v).

    Each undirected edge acts as two directed arcs; isolated (degree-0)
    vertices spread their mass uniformly over all vertices. Iteration starts
    from the uniform vector and stops once the L1 change drops below tol.

    Raises ConvergenceError when max_iter passes without reaching tol.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigError(f"damping must lie in (0, 1), got {damping}")
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if math.isinf(tol):
        raise ConfigError(f"tol must be finite, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if not len(g):
        raise DataError("pagerank: graph has no vertices")
    from . import _numeric
    rank = _numeric.pagerank_power(g, damping, tol, max_iter)
    return CentralityVector("pagerank", dict(zip(g._names, rank)))


def rank_table(cv: CentralityVector, top_n: int) -> RankTable:
    """Top-N rows sorted by score descending, author ascending on ties; every row
    once top_n reaches the vertex count, however large it is."""
    if top_n < 1:
        raise DataError(f"top_n must be >= 1, got {top_n}")
    ranks = list(ordinal_ranks(cv.scores).items())[:top_n]
    return RankTable(rows=tuple((rank, author, cv.scores[author]) for author, rank in ranks))


def ordinal_ranks(scores: Mapping[str, float]) -> dict[str, int]:
    """Ordinal rank (1 = best) of every key: score descending, key ascending on ties.

    The dict comes back in rank order. This is the one place that order is
    decided; rank_table and ranking_profile read it.
    """
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return {key: rank for rank, (key, _) in enumerate(ordered, start=1)}


def render_vector_csv(cv: CentralityVector) -> str:
    """CSV ``author,measure,score`` with scores at 17 significant digits."""
    rows = ([a, cv.measure, cv.scores[a]] for a in sorted(cv.scores))
    return csv_text(["author", "measure", "score"], rows)


def render_rank_csv(table: RankTable) -> str:
    """CSV ``rank,author,score`` in table order."""
    return csv_text(["rank", "author", "score"], table.rows)
