"""numpy/scipy kernels of graph and centrality, which import this module on
first call; no other module imports numpy or scipy. Index order is
lexicographic order, and every sum adds in the order of the per-source
Python loop it replaces, so the results are that loop's bits."""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConvergenceError
from .graph import CoauthGraph


def csr_view(g: CoauthGraph) -> tuple[list[str], csr_matrix]:
    """The graph's vertex names and its 0/1 adjacency matrix in CSR form.
    Rows and columns follow the graph's index order, which is lexicographic
    order, and every row's column indices are sorted."""
    names, adj = g._names, g._adj
    n = len(names)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum([len(nbrs) for nbrs in adj], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.int32, count=int(indptr[-1]))
    return names, csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def connected(a: csr_matrix) -> bool:
    """Whether one search from vertex 0 reaches every vertex."""
    return len(breadth_first_order(a, 0, return_predecessors=False)) == a.shape[0]


# Sources per sweep block. Each block holds a few BLOCK x (n + 2m) arrays, so
# a larger block trades peak memory for fewer numpy calls.
BLOCK = 16


def sweep(a: csr_matrix) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first search from every vertex of a CSR view, one block of
    BLOCK sources at a time, in source order.

    Yields (sources, dist, pos) per block. dist[b, v] is the hop distance
    from sources[b] to v, -1 when unreachable; pos[b, v] is v's place in
    that search's visiting order, -1 when unreachable. With sorted CSR rows
    scipy visits the vertices in exactly graph._bfs's order.
    """
    n = a.shape[0]
    for start in range(0, n, BLOCK):
        sources = np.arange(start, min(start + BLOCK, n))
        pred = np.empty((len(sources), n), dtype=np.int32)
        pos = np.full((len(sources), n), -1, dtype=np.int32)
        for b, s in enumerate(sources):
            order, pred[b] = breadth_first_order(a, s, directed=True)
            pos[b, order] = np.arange(len(order), dtype=np.int32)
        # Depths by pointer jumping: dist[v] counts the hops from v up to
        # anc[v] (-1 once the jumps reach the source), and each round
        # doubles the hops a pointer spans.
        reached = pred >= 0
        row_base = np.arange(len(sources))[:, None] * n
        anc = np.where(reached, pred + row_base, -1).ravel()
        dist = reached.astype(np.int32).ravel()
        live = np.flatnonzero(anc >= 0)
        while live.size:
            up = anc[live]
            dist[live] += dist[up]
            anc[live] = anc[up]
            live = live[anc[live] >= 0]
        dist = dist.reshape(pos.shape)
        dist[pos < 0] = -1
        yield sources, dist, pos


def distance_sum(a: csr_matrix) -> int:
    """Hop distances summed over ordered pairs of a connected view, in int64."""
    return sum(int(dist.sum(dtype=np.int64)) for _, dist, _ in sweep(a))


def closeness_sums(a: csr_matrix) -> list[float]:
    """Sum over reachable others of 1/distance, for every vertex."""
    values: list[float] = []
    for _, dist, _ in sweep(a):
        inv = np.divide(1.0, dist, out=np.zeros(dist.shape), where=dist > 0)
        # cumsum adds each row left to right, the order of a Python sum
        values.extend(np.cumsum(inv, axis=1)[:, -1].tolist())
    return values


def block_dependencies(
    a: csr_matrix, sources: np.ndarray, dist: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dependencies of every vertex on each source of one sweep block, and
    for each source whether a path count reached 2**53.

    The shortest-path DAG arcs (w, v), dist[v] == dist[w] - 1, are sorted
    by level of w descending, then source, then w's BFS position
    descending. Sums run one level at a time through np.add.at, which
    applies repeated indices in the order given, so every delta receives
    the additions of centrality._source_dependencies in its order. The arcs
    of one w reach distinct v, so their relative order changes no delta, and
    sigma sums are exact in any order.
    """
    k, n = dist.shape
    arc_w = np.repeat(np.arange(n, dtype=np.int32), np.diff(a.indptr))
    dw = dist[:, arc_w]
    b, arc = (i.astype(np.int32) for i in np.nonzero((dw > 0) & (dist[:, a.indices] == dw - 1)))
    level = dw[b, arc]
    del dw
    w = arc_w[arc]
    depth = level.max(initial=0) - level.astype(np.int64)  # int64 for the sort key
    rank = np.argsort((depth * k + b) * n + (n - 1) - pos[b, w])
    # flat indices b * n + vertex into the block's k x n arrays
    fw, fv, level = (b * n + w)[rank], (b * n + a.indices[arc])[rank], level[rank]
    del b, arc, w, rank, depth
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
    # below 2**53 float64 holds path counts, their sums and quotients exactly
    return delta, sigma.reshape(k, n).max(axis=1) >= 2.0**53


def betweenness_sums(g: CoauthGraph, a: csr_matrix, exact: Callable) -> list[float]:
    """Dependencies summed in source order and halved; a source whose path
    counts reach 2**53 takes them from exact(g._adj, source)."""
    totals = np.zeros(a.shape[0])
    for sources, dist, pos in sweep(a):
        delta, inexact = block_dependencies(a, sources, dist, pos)
        for s, row, redo in zip(sources.tolist(), delta, inexact.tolist()):
            if redo:
                row = exact(g._adj, s)
            totals += row
    # each unordered pair was seen from both endpoints
    return (totals / 2.0).tolist()


def pagerank_power(a: csr_matrix, damping: float, tol: float, max_iter: int) -> list[float]:
    """Power iteration from the uniform vector until the L1 change drops
    below tol; ConvergenceError once max_iter passes first."""
    n = a.shape[0]
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
            return rank.tolist()
    raise ConvergenceError(
        f"pagerank did not converge to tol={tol:g} within {max_iter} iterations "
        f"(L1 residual {residual:.3e})",
        residual=residual,
    )
