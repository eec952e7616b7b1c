"""numpy kernels of graph and centrality, which import this module on
first call; no other module imports numpy, and none of them needs scipy.

A graph is read as plain CSR arrays that csr_view builds on each call,
its row pointers, column indices and arc tails. One bit-parallel sweep,
64 sources per machine word, gives the hop distances behind mean distance,
closeness and betweenness; betweenness rebuilds each search's visiting
order from the distances alone. Index order is lexicographic order, and
every sum adds in the order of the per-source Python loop it replaces, so
the results are that loop's bits."""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .errors import ConvergenceError
from .graph import CoauthGraph

# A CSR view: row pointers, ascending column indices per row, each arc's row.
Csr = tuple[np.ndarray, np.ndarray, np.ndarray]


def csr_view(g: CoauthGraph) -> Csr:
    """The graph's adjacency in CSR form, (indptr, indices, tails). Rows
    follow the graph's index order, which is lexicographic order, every
    row's column indices are sorted, and tails[i] is the row of arc i."""
    adj = g._adj
    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in adj], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(indptr[-1]))
    tails = np.repeat(np.arange(len(adj)), np.diff(indptr))
    return indptr, indices, tails


# Sources per sweep block: one bit of a uint64 word each.
WORD = 64
_BIT = np.left_shift(np.uint64(1), np.arange(WORD, dtype=np.uint64))


def _unpack(words: np.ndarray, k: int) -> np.ndarray:
    """n x k 0/1 array whose column b is bit b of every word. The words are
    read little-endian, so bit b is the same bit on any host."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1, count=k, bitorder="little")


def sweep(a: Csr) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Breadth-first search from every vertex of a CSR view, WORD sources
    per block, in source order.

    Yields (sources, dist) per block; dist[b, v] is the hop distance from
    sources[b] to v, -1 when unreachable. The searches of one block run
    together (Then et al., "The More the Merrier", PVLDB 2014): bit b of a
    vertex's seen word says source b has reached it, and one level ORs the
    words of the frontier vertices, only theirs, into their neighbours.
    Bit j of each new vertex's level is ORed into bit plane j, and the
    distances are read back from the planes.
    """
    indptr, indices, _ = a
    n = len(indptr) - 1
    degree = np.diff(indptr)
    nxt = np.zeros(n, dtype=np.uint64)  # OR target, all zero between levels
    stamp = np.empty(n, dtype=np.int64)
    for start in range(0, n, WORD):
        sources = np.arange(start, min(start + WORD, n))
        k = len(sources)
        seen = np.zeros(n, dtype=np.uint64)
        seen[sources] = _BIT[:k]
        planes: list[np.ndarray] = []
        front, words, level = sources, _BIT[:k], 0
        while front.size:
            level += 1
            deg = degree[front]
            ends = np.cumsum(deg)
            arcs = np.repeat(indptr[front] - (ends - deg), deg) + np.arange(ends[-1])
            targets = indices[arcs]
            np.bitwise_or.at(nxt, targets, np.repeat(words, deg))
            # each target once: the one arc whose stamp survives
            arange = np.arange(len(targets))
            stamp[targets] = arange
            reached = targets[stamp[targets] == arange]
            words = nxt[reached] & ~seen[reached]
            nxt[reached] = 0
            new = words != 0
            front, words = reached[new], words[new]
            seen[front] |= words
            if level.bit_length() > len(planes):
                planes.append(np.zeros(n, dtype=np.uint64))
            for j, plane in enumerate(planes):
                if level >> j & 1:
                    plane[front] |= words
        # the narrowest signed type that holds every level and -1
        dist = np.zeros((n, k), dtype=np.min_scalar_type(-(1 << len(planes))))
        for j, plane in enumerate(planes):
            dist |= _unpack(plane, k).astype(dist.dtype) << j
        dist[_unpack(seen, k) == 0] = -1
        yield sources, np.ascontiguousarray(dist.T)


def distance_sum(a: Csr) -> int:
    """Hop distances summed over ordered pairs of a connected view, in int64."""
    return sum(int(dist.sum(dtype=np.int64)) for _, dist in sweep(a))


def closeness_sums(a: Csr) -> list[float]:
    """Sum over reachable others of 1/distance, for every vertex."""
    values: list[float] = []
    for _, dist in sweep(a):
        inv = np.divide(1.0, dist, out=np.zeros(dist.shape), where=dist > 0)
        # cumsum adds each row left to right, the order of a Python sum
        values.extend(np.cumsum(inv, axis=1)[:, -1].tolist())
    return values


# Sources per dependency block. Each block holds a few DEPENDENCY_ROWS x
# (n + 2m) arrays, so a larger block trades peak memory for fewer numpy calls.
DEPENDENCY_ROWS = 16


def block_dependencies(a: Csr, sources: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dependencies of every vertex on each source of one block of sweep
    rows, and for each source whether a path count reached 2**53.

    The shortest-path DAG arcs (w, v), dist[v] == dist[w] - 1, are grouped
    by level of w, in (source, w) order within a level. With sorted rows a
    search visits one level in the order of (position of w's first parent,
    w), its first parent being its parent visited first, so each level's
    ranks follow from the previous level's. The delta loop takes the
    levels deepest first, each in w's visiting order descending, through
    np.add.at, which applies repeated indices in the order given: every
    delta receives the additions of centrality._source_dependencies in its
    order. The arcs of one w reach distinct v, so their relative order
    changes no delta, and sigma sums are exact in any order.
    """
    _, indices, arc_w = a
    k, n = dist.shape
    dw = dist[:, arc_w]
    dag = np.flatnonzero((dw > 0) & (dist[:, indices] == dw - 1))
    level = dw.ravel()[dag]
    del dw
    # a stable sort keeps (source, w) order within a level; on dist's small
    # ints numpy's stable sort is a radix sort
    by_level = np.argsort(level, kind="stable")
    b, arc = np.divmod(dag[by_level], len(indices))
    # flat indices b * n + vertex into the block's k x n arrays
    fw, fv = b * n + arc_w[arc], b * n + indices[arc]
    # levels run from 1 up without a gap
    cuts = [0, *np.cumsum(np.bincount(level)[1:]).tolist()]
    del dag, level, by_level, b, arc
    levels = list(zip(cuts, cuts[1:]))  # shallowest level first
    # runs of arcs with one w; a new level starts a new run
    first = np.flatnonzero(np.diff(fw, prepend=-1))
    run_w, run_cuts = fw[first], np.searchsorted(first, cuts).tolist()
    # rank[x]: x's place in its level, counted over the whole block; rows
    # come in source order, so each search's visiting order is kept
    rank = np.empty(k * n, dtype=np.int64)
    rank[np.arange(k) * n + sources] = np.arange(k)
    for (lo, hi), (rlo, rhi) in zip(levels, zip(run_cuts, run_cuts[1:])):
        w, v, starts = fw[lo:hi], fv[lo:hi], first[rlo:rhi] - lo
        parent = np.minimum.reduceat(rank[v], starts)
        order = np.argsort(parent * (k * n) + run_w[rlo:rhi])
        rank[run_w[rlo:rhi][order]] = np.arange(rhi - rlo)
        # the level's runs in visiting order descending
        runs = order[::-1]
        size = np.diff(starts, append=hi - lo)[runs]
        ends = np.cumsum(size)
        take = np.repeat(starts[runs] - (ends - size), size) + np.arange(hi - lo)
        fw[lo:hi], fv[lo:hi] = w[take], v[take]
    del rank
    sigma = np.zeros(k * n)
    sigma[np.arange(k) * n + sources] = 1.0
    for lo, hi in levels:
        np.add.at(sigma, fw[lo:hi], sigma[fv[lo:hi]])
    delta = np.zeros(k * n)
    for lo, hi in reversed(levels):
        v, w = fv[lo:hi], fw[lo:hi]
        np.add.at(delta, v, sigma[v] / sigma[w] * (1.0 + delta[w]))
    delta = delta.reshape(k, n)
    delta[np.arange(k), sources] = 0.0
    # below 2**53 float64 holds path counts, their sums and quotients exactly
    return delta, sigma.reshape(k, n).max(axis=1) >= 2.0**53


def betweenness_sums(g: CoauthGraph, a: Csr, exact: Callable) -> list[float]:
    """Dependencies summed in source order and halved; a source whose path
    counts reach 2**53 takes them from exact(g._adj, source)."""
    totals = np.zeros(len(g))
    for sources, dist in sweep(a):
        for lo in range(0, len(sources), DEPENDENCY_ROWS):
            rows = slice(lo, lo + DEPENDENCY_ROWS)
            delta, inexact = block_dependencies(a, sources[rows], dist[rows])
            for s, row, redo in zip(sources[rows].tolist(), delta, inexact.tolist()):
                if redo:
                    row = exact(g._adj, s)
                totals += row
    # each unordered pair was seen from both endpoints
    return (totals / 2.0).tolist()


def pagerank_power(a: Csr, damping: float, tol: float, max_iter: int) -> list[float]:
    """Power iteration from the uniform vector until the L1 change drops
    below tol; ConvergenceError once max_iter passes first."""
    indptr, indices, row_of_arc = a
    n = len(indptr) - 1
    degree = np.diff(indptr)
    dangling = degree == 0
    spread = np.maximum(degree, 1)  # a dangling vertex's share is never read
    base = (1.0 - damping) / n
    rank = np.full(n, 1.0 / n)
    residual = 0.0
    for _ in range(max_iter):
        # Python sums over lists keep the vertex-order summation sequence;
        # bincount adds each row's neighbours in index order, from 0.0.
        dangling_share = sum(rank[dangling].tolist()) / n
        spread_in = np.bincount(row_of_arc, weights=(rank / spread)[indices], minlength=n)
        nxt = base + damping * (spread_in + dangling_share)
        residual = sum(np.abs(nxt - rank).tolist())
        rank = nxt
        if residual < tol:
            return rank.tolist()
    raise ConvergenceError(
        f"pagerank did not converge to tol={tol:g} within {max_iter} iterations "
        f"(L1 residual {residual:.3e})",
        residual=residual,
    )
