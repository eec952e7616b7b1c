"""Independent oracle implementations used to check the library.

Each oracle takes a deliberately different computational route from the
implementation it verifies: Floyd-Warshall instead of per-source BFS,
explicit geodesic enumeration instead of dependency accumulation, a dense
linear solve instead of power iteration, and numpy/scipy routines instead
of hand-rolled arithmetic.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from dataclasses import replace
from itertools import combinations
from random import Random

import numpy as np
from hypothesis import strategies as st
from scipy.stats import rankdata

from typing import Iterable

from coauthnet import AuthorMergeMap, BiblioRecord, CoauthGraph, DataError, normalize_author

INF = float("inf")


# ---------------------------------------------------------------------------
# Generators and readers
# ---------------------------------------------------------------------------


def from_edges(
    edges: Iterable[tuple[str, str] | tuple[str, str, int]],
    vertices: Iterable[str] = (),
) -> CoauthGraph:
    """Build a graph from (a, b) or (a, b, weight) tuples plus optional
    isolated vertices. Repeated pairs accumulate weight."""
    adj: dict[str, dict[str, int]] = {v: {} for v in vertices}
    for a, b, *w in edges:
        for x, y in ((a, b), (b, a)):
            row = adj.setdefault(x, {})
            row[y] = row.get(y, 0) + (w[0] if w else 1)
    return CoauthGraph(adj)


def adjacency(g: CoauthGraph) -> dict[str, dict[str, int]]:
    """Each vertex's {neighbour: weight} row, read through the public
    ``vertices()`` and ``edges()`` alone. Vertices and every row come out in
    key order: ``edges()`` yields (a, b) with a < b sorted by a, then b, so
    a vertex's smaller neighbours arrive before its larger ones, each in
    order. ``CoauthGraph(adjacency(g))`` rebuilds g."""
    adj: dict[str, dict[str, int]] = {v: {} for v in g.vertices()}
    for a, b, w in g.edges():
        adj[a][b] = adj[b][a] = w
    return adj


def serialize_records(records: Iterable[BiblioRecord]) -> str:
    """Render records in the tab-delimited input format that parse_records reads."""
    out = ["UT\tAU\tPY\tDT\tTC\tSO"]
    for rec in records:
        out.append("\t".join((rec.record_id, "; ".join(rec.authors), str(rec.year),
                              rec.doc_type, str(rec.times_cited), rec.source)))
    return "\n".join(out) + "\n"


def random_graph(rng: Random, min_n: int = 2, max_n: int = 12) -> CoauthGraph:
    """Random simple graph, mixed densities, connected or not."""
    n = rng.randint(min_n, max_n)
    verts = [f"N{i:02d}" for i in range(n)]
    p = rng.choice([0.1, 0.2, 0.35, 0.5, 0.8])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((verts[i], verts[j]))
    return from_edges(edges, vertices=verts)


def random_coauthor_graph(rng: Random, sizes: tuple[int, ...]) -> CoauthGraph:
    """Sparse coauthorship-like graph with one connected component per size.

    Each newcomer writes a paper with a degree-weighted pick of earlier
    authors of its component (sometimes several), and every team becomes a
    clique. Names are shuffled across components, so the components
    interleave in key order.
    """
    names = [f"A{i:04d}" for i in range(sum(sizes))]
    rng.shuffle(names)
    edges = []
    start = 0
    for size in sizes:
        group = names[start : start + size]
        start += size
        pool = [group[0]]  # one entry per authorship: preferential attachment
        for newcomer in group[1:]:
            team = {newcomer, rng.choice(pool)}
            while rng.random() < 0.4:
                team.add(rng.choice(pool))
            team = sorted(team)  # set order varies with the string hash seed
            edges.extend(combinations(team, 2))
            pool.extend(team)
    return from_edges(edges, vertices=names)


def random_records(
    rng: Random,
    n_records: int = 30,
    n_authors: int = 12,
    years: tuple[int, int] = (1988, 2007),
    doc_types: tuple[str, ...] = ("Article",),
) -> list[BiblioRecord]:
    pool = [f"AUTH{i:02d}, X" for i in range(n_authors)]
    records = []
    for i in range(n_records):
        team = rng.sample(pool, rng.randint(1, min(4, n_authors)))
        records.append(
            BiblioRecord(
                record_id=f"R{i:04d}",
                authors=tuple(team),
                year=rng.randint(*years),
                doc_type=rng.choice(doc_types),
                times_cited=rng.randint(0, 500),
                source="J TEST",
            )
        )
    return records


def planted(k: int, edges: Iterable[tuple[int, int]], plants: Iterable[tuple[str, int]],
            keys: list[int]) -> CoauthGraph:
    """A graph grown from a base of k vertices and index-pair edges (a loop
    is dropped). Each plant (kind, v) adds one vertex, attached to vertex
    v modulo the vertices so far: a "twin" takes v's closed neighbourhood,
    a "pendant" only v. Vertex i is named by keys[i], so planted vertices
    land anywhere in index order, before or after the vertex they copy."""
    adj: list[set[int]] = [set() for _ in range(k)]
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    for kind, v in plants:
        v %= len(adj)
        new = len(adj)
        adj.append(set())
        for x in {v} | adj[v] if kind == "twin" else {v}:
            adj[new].add(x)
            adj[x].add(new)
    names = [f"V{key:03d}" for key in keys]
    return from_edges([(names[i], names[j]) for i, row in enumerate(adj) for j in row if i < j],
                      vertices=names)


@st.composite
def planted_graphs(draw) -> CoauthGraph:
    """Random graphs of 1-10 base vertices with up to 8 planted closed twins
    and pendants: a twin of a twin makes a class of 3 or more, and pendants
    planted on one vertex make a pendant group."""
    k = draw(st.integers(1, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3 * k))
    plants = draw(st.lists(st.tuples(st.sampled_from(["twin", "pendant"]), st.integers(0, 99)),
                           max_size=8))
    size = k + len(plants)
    keys = draw(st.lists(st.integers(0, 999), min_size=size, max_size=size, unique=True))
    return planted(k, edges, plants, keys)


# ---------------------------------------------------------------------------
# Ingest / graph-building oracles
# ---------------------------------------------------------------------------


def reference_normalize_author(raw: str) -> str:
    """normalize_author with whitespace runs collapsed up front by a regex,
    before the name is split into surname and initials."""
    if raw is None or not raw.strip():
        raise DataError("author name is empty")
    text = re.sub(r"\s+", " ", raw.upper().replace(".", "")).strip()
    if "," in text:
        surname, _, rest = text.partition(",")
        initials = rest.replace(",", " ")
    else:
        tokens = text.split()
        surname = " ".join(tokens[:-1]) if len(tokens) > 1 else "".join(tokens)
        initials = tokens[-1] if len(tokens) > 1 else ""
    surname, initials = " ".join(surname.split()), " ".join(initials.split())
    if not surname and not initials:
        raise DataError(f"author name {raw!r} has no usable content")
    return f"{surname}, {initials}".rstrip()


def reference_normalize(records) -> list[BiblioRecord]:
    """normalize_records with every record rebuilt through
    dataclasses.replace."""
    return [replace(r, authors=tuple(dict.fromkeys(normalize_author(a) for a in r.authors)))
            for r in records]


def reference_merge(records, merge_map: AuthorMergeMap) -> list[BiblioRecord]:
    """apply_merge_map that rewrites every record, variant or not."""
    return [replace(r, authors=tuple(dict.fromkeys(merge_map.resolve(a) for a in r.authors)))
            for r in records]


def pair_cooccurrence(records) -> dict[tuple[str, str], int]:
    """Brute-force count of unordered author co-occurrences."""
    counts: Counter[tuple[str, str]] = Counter()
    for rec in records:
        unique = sorted(set(rec.authors))
        for a, b in combinations(unique, 2):
            counts[(a, b)] += 1
    return dict(counts)


def stored_form(g: CoauthGraph) -> tuple:
    """A graph's stored form, order included: the names (which fix every
    index), each adjacency row's items and the two record counters."""
    return (list(g._names), [list(row.items()) for row in g._adj],
            g.paper_count, g.authorship_count)


def positions(g: CoauthGraph, names: Iterable[str]) -> list[int]:
    """Ascending indices of ``names`` in a graph, found by bisecting its
    sorted ``_names``."""
    found = []
    for v in names:
        i = bisect_left(g._names, v)
        assert g._names[i:i + 1] == [v], f"{v!r} is not a vertex"
        found.append(i)
    return sorted(found)


def closed_twin_classes(g: CoauthGraph) -> set[frozenset[str]]:
    """The vertices of degree >= 2 grouped by closed neighbourhood N[v],
    each pair compared as name sets read through ``adjacency``."""
    closed = {v: {v, *row} for v, row in adjacency(g).items() if len(row) >= 2}
    return {frozenset(u for u in closed if closed[u] == closed[v]) for v in closed}


def citation_scan(records) -> dict[str, int]:
    """Exhaustive per-author scan over the full record list."""
    totals: dict[str, int] = {}
    for rec in records:
        for author in dict.fromkeys(rec.authors):
            totals[author] = totals.get(author, 0) + rec.times_cited
    return totals


def label_propagation_components(g: CoauthGraph) -> dict[str, str]:
    """Iterate min-label diffusion to a fixpoint; the label identifies the
    component by its smallest member key."""
    adj = adjacency(g)
    label = {v: v for v in adj}
    changed = True
    while changed:
        changed = False
        for v, row in adj.items():
            best = min([label[v]] + [label[u] for u in row])
            if best < label[v]:
                label[v] = best
                changed = True
    return label


# ---------------------------------------------------------------------------
# Distance-based oracles
# ---------------------------------------------------------------------------


def floyd_warshall(g: CoauthGraph) -> dict[str, dict[str, float]]:
    verts = g.vertices()
    dist = {a: {b: (0.0 if a == b else INF) for b in verts} for a in verts}
    for a, b, _ in g.edges():
        dist[a][b] = dist[b][a] = 1.0
    for k in verts:
        dk = dist[k]
        for i in verts:
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in verts:
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def closeness_oracle(g: CoauthGraph) -> dict[str, float]:
    dist = floyd_warshall(g)
    return {
        v: math.fsum(1.0 / d for u, d in sorted(dist[v].items()) if u != v and d < INF)
        for v in g.vertices()
    }


def mean_distance_oracle(g: CoauthGraph) -> float:
    """Mean of the Floyd-Warshall upper triangle inside the largest component."""
    label = label_propagation_components(g)
    sizes = Counter(label.values())
    top_size = max(sizes.values())
    top_label = min(l for l, s in sizes.items() if s == top_size)
    members = sorted(v for v, l in label.items() if l == top_label)
    dist = floyd_warshall(g)
    pair_dists = [dist[a][b] for a, b in combinations(members, 2)]
    return math.fsum(pair_dists) / len(pair_dists)


def clustering_oracle(g: CoauthGraph) -> float:
    """Per-vertex triangle counting through the cube of the adjacency matrix."""
    verts = g.vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    a = np.zeros((n, n))
    for u, w, _ in g.edges():
        a[index[u], index[w]] = a[index[w], index[u]] = 1.0
    a3 = a @ a @ a
    locals_ = []
    for v, row in adjacency(g).items():
        k = len(row)
        if k < 2:
            continue
        closed = a3[index[v], index[v]] / 2.0
        locals_.append(closed / (k * (k - 1) / 2.0))
    return sum(locals_) / len(locals_) if locals_ else 0.0


# ---------------------------------------------------------------------------
# Centrality oracles
# ---------------------------------------------------------------------------


def all_geodesics(adj: dict[str, dict[str, int]], src: str, dst: str) -> list[list[str]]:
    """Every shortest path from src to dst, over an ``adjacency`` mapping,
    as an explicit vertex list."""
    dist = {src: 0}
    preds: dict[str, list[str]] = defaultdict(list)
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
            if dist[u] == dist[v] + 1:
                preds[u].append(v)
    if dst not in dist:
        return []
    paths: list[list[str]] = []

    def backtrack(v: str, suffix: list[str]) -> None:
        if v == src:
            paths.append([src] + suffix)
            return
        for p in preds[v]:
            backtrack(p, [v] + suffix)

    backtrack(dst, [])
    return paths


def betweenness_enumeration_oracle(g: CoauthGraph) -> dict[str, float]:
    """Sum g_jik / g_jk over unordered pairs by enumerating every geodesic."""
    adj = adjacency(g)
    score = {v: 0.0 for v in adj}
    for j, k in combinations(adj, 2):
        paths = all_geodesics(adj, j, k)
        if not paths:
            continue
        through: Counter[str] = Counter()
        for path in paths:
            for v in path[1:-1]:
                through[v] += 1
        for v in sorted(through):
            score[v] += through[v] / len(paths)
    return score


def pagerank_linear_oracle(g: CoauthGraph, damping: float = 0.85) -> dict[str, float]:
    """Solve (I - d*P) x = (1-d)/n * 1 directly; dangling vertices spread
    their mass uniformly over all vertices."""
    verts = g.vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    p = np.zeros((n, n))
    for v, row in adjacency(g).items():
        deg = len(row)
        if deg == 0:
            p[:, index[v]] = 1.0 / n
        else:
            for u in row:
                p[index[u], index[v]] = 1.0 / deg
    x = np.linalg.solve(np.eye(n) - damping * p, np.full(n, (1.0 - damping) / n))
    return {v: float(x[index[v]]) for v in verts}


# ---------------------------------------------------------------------------
# Statistics oracles
# ---------------------------------------------------------------------------


def spearman_rho_oracle(xs, ys) -> float:
    """Average-rank transform (scipy) then Pearson (numpy)."""
    rx = rankdata(xs)
    ry = rankdata(ys)
    return float(np.corrcoef(rx, ry)[0, 1])


def power_fit_oracle(points) -> tuple[float, float, float]:
    """Least squares on the log-log design matrix via numpy.linalg.lstsq."""
    lx = np.log([p[0] for p in points])
    ly = np.log([p[1] for p in points])
    design = np.column_stack([np.ones(len(lx)), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(np.exp(coef[0])), float(coef[1]), r2
