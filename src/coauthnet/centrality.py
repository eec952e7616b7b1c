"""Centrality measures on coauthorship graphs.

Four measures: degree (neighbor count), closeness (sum of reciprocal
geodesic distances, which handles disconnected graphs gracefully),
betweenness (unnormalized geodesic-fraction sums over unordered pairs, via
Brandes' dependency accumulation), and PageRank over the bidirectional
arc interpretation of the undirected graph.

Determinism contract: closeness and betweenness run one serial BFS per
source over the graph's integer view, whose index order is lexicographic
order. Neighbours are visited and per-source results are reduced in that
order, so every run produces bit-identical scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ._csvtext import csv_text, format_number
from .errors import ConfigError, ConvergenceError, DataError
from .graph import CoauthGraph, _bfs, _int_view

MEASURES = ("degree", "closeness", "betweenness", "pagerank")

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
    tie_rule: str = "score desc, author asc"


def degree_centrality(g: CoauthGraph) -> CentralityVector:
    """Number of distinct neighbors of each vertex."""
    return CentralityVector("degree", {v: g.degree(v) for v in g.vertices()})


def closeness_centrality(g: CoauthGraph) -> CentralityVector:
    """Sum over reachable others of 1/distance; unreachable pairs add 0."""
    names, adj = _int_view(g)
    values = [sum(1.0 / d for d in _bfs(adj, s)[1] if d > 0) for s in range(len(names))]
    return CentralityVector("closeness", dict(zip(names, values)))


def betweenness_centrality(g: CoauthGraph) -> CentralityVector:
    """Unnormalized shortest-path betweenness over unordered vertex pairs.

    Brandes' one-pass-per-source accumulation: geodesic counts sigma are
    exact (Python integers) and summed forward in BFS order; dependencies
    delta are pushed back to the predecessors in reverse BFS order. Each
    source's dependencies are added to the running totals in source order,
    so memory stays linear in the graph size.
    """
    names, adj = _int_view(g)
    n = len(names)
    totals = [0.0] * n
    for s in range(n):
        order, dist = _bfs(adj, s)
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
        for v in order[1:]:
            totals[v] += delta[v]
    # each unordered pair was seen from both endpoints
    return CentralityVector("betweenness", {v: t / 2.0 for v, t in zip(names, totals)})


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
    if tol <= 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    vertices = g.vertices()
    n = len(vertices)
    if n == 0:
        raise DataError("pagerank: graph has no vertices")
    degree = {v: g.degree(v) for v in vertices}
    dangling = [v for v in vertices if degree[v] == 0]
    base = (1.0 - damping) / n
    rank = {v: 1.0 / n for v in vertices}
    residual = 0.0
    for _ in range(max_iter):
        dangling_share = sum(rank[v] for v in dangling) / n
        nxt = {}
        for v in vertices:
            acc = 0.0
            for u in g.neighbors(v):
                acc += rank[u] / degree[u]
            nxt[v] = base + damping * (acc + dangling_share)
        residual = sum(abs(nxt[v] - rank[v]) for v in vertices)
        rank = nxt
        if residual < tol:
            return CentralityVector("pagerank", rank)
    raise ConvergenceError(
        f"pagerank did not converge to tol={tol:g} within {max_iter} iterations "
        f"(L1 residual {residual:.3e})",
        residual=residual,
    )


def rank_table(cv: CentralityVector, top_n: int) -> RankTable:
    """Top-N rows sorted by score descending, author ascending on ties."""
    if top_n < 1:
        raise DataError(f"top_n must be >= 1, got {top_n}")
    ordered = sorted(cv.scores.items(), key=lambda item: (-item[1], item[0]))
    rows = tuple(
        (rank, author, score)
        for rank, (author, score) in enumerate(ordered[:top_n], start=1)
    )
    return RankTable(rows=rows)


def ordinal_ranks(scores: Mapping[str, float]) -> dict[str, int]:
    """Ordinal rank (1 = best) of every key under rank_table ordering."""
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return {key: rank for rank, (key, _) in enumerate(ordered, start=1)}


def render_vector_csv(cv: CentralityVector) -> str:
    """CSV ``author,measure,score`` with scores at 17 significant digits."""
    rows = ([a, cv.measure, format_number(cv.scores[a])] for a in sorted(cv.scores))
    return csv_text(["author", "measure", "score"], rows)


def render_rank_csv(table: RankTable) -> str:
    """CSV ``rank,author,score`` in table order."""
    rows = ([rank, author, format_number(score)] for rank, author, score in table.rows)
    return csv_text(["rank", "author", "score"], rows)
