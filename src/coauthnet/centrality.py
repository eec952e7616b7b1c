"""Centrality measures on coauthorship graphs.

Four measures: degree (neighbor count), closeness (sum of reciprocal
geodesic distances, which handles disconnected graphs gracefully),
betweenness (unnormalized geodesic-fraction sums over unordered pairs, via
Brandes' dependency accumulation), and PageRank over the bidirectional
arc interpretation of the undirected graph.

Determinism contract: closeness and betweenness run the block-vectorized
BFS sweep of ``graph._sweep`` over the graph's CSR view, whose index order is
lexicographic order, and perform every floating-point addition in the order
of a per-source Python loop: closeness sums each row with ``np.cumsum``
(left to right), betweenness pushes dependencies back with ``np.add.at``
(repeated indices applied in the order given) and adds each source's row to
the totals in source order, and a source whose path counts reach 2**53 is
recomputed by that loop on exact integers. PageRank's CSR product sums each
row in index order. So every run produces the same bits as the loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.sparse import csr_matrix

from ._csvtext import csv_text, format_number
from .errors import ConfigError, ConvergenceError, DataError
from .graph import CoauthGraph, _bfs, _csr_view, _int_view, _sweep

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
    names, a = _csr_view(g)
    values: list[float] = []
    for _, dist, _ in _sweep(a):
        inv = np.divide(1.0, dist, out=np.zeros(dist.shape), where=dist > 0)
        # cumsum adds each row left to right, the order of a Python sum
        values.extend(np.cumsum(inv, axis=1)[:, -1].tolist())
    return CentralityVector("closeness", dict(zip(names, values)))


# Below 2**53 float64 holds every path count exactly, so float sums and
# quotients of path counts equal the Python-integer ones.
_EXACT_SIGMA = 2.0**53


def _source_dependencies(adj: list[list[int]], s: int) -> list[float]:
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


def _block_dependencies(
    a: csr_matrix, sources: np.ndarray, dist: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dependencies of every vertex on each source of one sweep block, and
    for each source whether a path count reached 2**53.

    The shortest-path DAG arcs (w, v), dist[v] == dist[w] - 1, are sorted
    by level of w descending, then source, then w's BFS position
    descending. Sums run one level at a time through np.add.at, which
    applies repeated indices in the order given, so every delta receives
    the additions of _source_dependencies in its order. The arcs of one w
    reach distinct v, so their relative order changes no delta, and sigma
    sums are exact in any order.
    """
    k, n = dist.shape
    arc_w = np.repeat(np.arange(n), np.diff(a.indptr))
    dw = dist[:, arc_w]
    b, arc = np.nonzero((dw > 0) & (dist[:, a.indices] == dw - 1))
    level = dw[b, arc]
    del dw
    w = arc_w[arc]
    key = ((level.max(initial=0) - level) * k + b) * n + (n - 1) - pos[b, w]
    rank = np.argsort(key)
    # flat indices b * n + vertex into the block's k x n arrays
    fw, fv, level = (b * n + w)[rank], (b * n + a.indices[arc])[rank], level[rank]
    cuts = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist(), len(level)]
    levels = list(zip(cuts, cuts[1:]))  # deepest level first
    sigma = np.zeros(k * n)
    sigma[np.arange(k) * n + sources] = 1.0
    for lo, hi in reversed(levels):
        np.add.at(sigma, fw[lo:hi], sigma[fv[lo:hi]])
    delta = np.zeros(k * n)
    for lo, hi in levels:
        v, w = fv[lo:hi], fw[lo:hi]
        np.add.at(delta, v, sigma[v] / sigma[w] * (1.0 + delta[w]))
    delta = delta.reshape(k, n)
    delta[np.arange(k), sources] = 0.0
    return delta, sigma.reshape(k, n).max(axis=1) >= _EXACT_SIGMA


def betweenness_centrality(g: CoauthGraph) -> CentralityVector:
    """Unnormalized shortest-path betweenness over unordered vertex pairs.

    Brandes' accumulation, vectorized over blocks of sources: each source's
    dependencies are added to the running totals in source order, so memory
    stays linear in the graph size and the scores equal the per-source
    Python loop's (_source_dependencies) bit for bit.
    """
    names, a = _csr_view(g)
    totals = np.zeros(len(names))
    adj = None
    for sources, dist, pos in _sweep(a):
        delta, inexact = _block_dependencies(a, sources, dist, pos)
        for s, row, redo in zip(sources.tolist(), delta, inexact.tolist()):
            if redo:
                if adj is None:
                    adj = _int_view(g)[1]
                row = _source_dependencies(adj, s)
            totals += row
    # each unordered pair was seen from both endpoints
    return CentralityVector("betweenness", dict(zip(names, (totals / 2.0).tolist())))


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
    names, a = _csr_view(g)
    n = len(names)
    if n == 0:
        raise DataError("pagerank: graph has no vertices")
    degree = np.diff(a.indptr)
    dangling = degree == 0
    spread = np.maximum(degree, 1)  # a dangling vertex's share is never read
    base = (1.0 - damping) / n
    rank = np.full(n, 1.0 / n)
    residual = 0.0
    for _ in range(max_iter):
        # Python sums over lists keep the vertex-order summation sequence;
        # the CSR product sums each row's neighbours in index order.
        dangling_share = sum(rank[dangling].tolist()) / n
        nxt = base + damping * (a @ (rank / spread) + dangling_share)
        residual = sum(np.abs(nxt - rank).tolist())
        rank = nxt
        if residual < tol:
            return CentralityVector("pagerank", dict(zip(names, rank.tolist())))
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
