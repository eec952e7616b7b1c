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
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Mapping

from ._csvtext import csv_text
from .errors import ConfigError, DataError
from .graph import CoauthGraph, _bfs

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
    sums = _numeric.closeness_sums(_numeric.csr_view(g))
    return CentralityVector("closeness", dict(zip(g._names, sums)))


def _source_dependencies(adj: list[dict[int, int]], s: int) -> list[float]:
    """Brandes' dependency of every vertex on source s (0.0 for s itself).

    Geodesic counts sigma are exact Python integers, summed forward in BFS
    order; dependencies delta are pushed back to the predecessors in reverse
    BFS order, neighbours in index order. The block kernel of
    betweenness_centrality performs the same additions in the same order
    and falls back to this loop when a path count reaches 2**53.
    """
    order, dist = _bfs(adj, s)
    n = len(adj)
    sigma = [0] * n
    sigma[s] = 1
    for w in order[1:]:
        up = dist[w] - 1
        sigma[w] = sum(sigma[v] for v in adj[w] if dist[v] == up)
    delta = [0.0] * n
    for w in reversed(order):
        up, share = dist[w] - 1, 1.0 + delta[w]
        for v in adj[w]:
            if dist[v] == up:
                delta[v] += sigma[v] / sigma[w] * share
    delta[s] = 0.0
    return delta


def betweenness_centrality(g: CoauthGraph) -> CentralityVector:
    """Unnormalized shortest-path betweenness over unordered vertex pairs.

    Brandes' accumulation, vectorized over blocks of sources: each source's
    dependencies are added to the running totals in source order, so memory
    stays linear in the graph size and the scores equal the per-source
    Python loop's (_source_dependencies) bit for bit.
    """
    from . import _numeric
    totals = _numeric.betweenness_sums(g, _numeric.csr_view(g), _source_dependencies)
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
    rank = _numeric.pagerank_power(_numeric.csr_view(g), damping, tol, max_iter)
    return CentralityVector("pagerank", dict(zip(g._names, rank)))


def rank_table(cv: CentralityVector, top_n: int) -> RankTable:
    """Top-N rows sorted by score descending, author ascending on ties."""
    if top_n < 1:
        raise DataError(f"top_n must be >= 1, got {top_n}")
    ranks = islice(ordinal_ranks(cv.scores).items(), top_n)
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
