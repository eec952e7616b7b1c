"""Expected outputs computed from a corpus's ground truth with networkx,
numpy and scipy, independently of coauthnet.

Each function takes the kept records of ``truth.json`` as
``(year, canonical authors, times cited)`` triples and returns a
JSON-serializable dict that ``check.py`` compares the CLI outputs against.
"""

from __future__ import annotations

import math
from collections import Counter

import networkx as nx
import numpy as np
from scipy import stats


def _graph(records) -> nx.Graph:
    g = nx.Graph()
    for _, team, _ in records:
        g.add_nodes_from(team)
        for i, a in enumerate(team):
            for b in team[i + 1:]:
                g.add_edge(a, b)
    return g


def _largest(g: nx.Graph) -> nx.Graph:
    """Largest component; size ties go to the one holding the smallest key."""
    best = min(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
    return g.subgraph(best).copy()


def _ordinal_ranks(scores: dict) -> dict:
    ordered = sorted(scores, key=lambda v: (-scores[v], v))
    return {v: rank for rank, v in enumerate(ordered, start=1)}


def _loglog_fit(points) -> dict:
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return {
        "coefficient": math.exp(intercept),
        "exponent": float(slope),
        "r_squared": min(1.0, max(0.0, r2)),
        "n": len(points),
    }


def _growth(records, start: int, end: int) -> list[list[int]]:
    papers = Counter(year for year, _, _ in records)
    first: dict[str, int] = {}
    for year, team, _ in records:
        for a in team:
            first[a] = min(year, first.get(a, year))
    debuts = Counter(first.values())
    rows = []
    cum_p = sum(c for y, c in papers.items() if y < start)
    cum_a = sum(c for y, c in debuts.items() if y < start)
    for year in range(start, end + 1):
        cum_p += papers.get(year, 0)
        cum_a += debuts.get(year, 0)
        rows.append([year, cum_p, cum_a])
    return rows


def centralities(g: nx.Graph) -> dict[str, dict[str, float]]:
    """The four measures as coauthnet defines them, by networkx."""
    return {
        "degree": {v: float(d) for v, d in g.degree()},
        "closeness": nx.harmonic_centrality(g),
        "betweenness": nx.betweenness_centrality(g, normalized=False),
        "pagerank": nx.pagerank(g, alpha=0.85, weight=None, tol=1e-15, max_iter=100000),
    }


def expect_centrality(records) -> dict:
    """Per-vertex scores on the largest component (the ``centrality`` command)."""
    return {"scores": centralities(_largest(_graph(records)))}


def expect_correlate(records) -> dict:
    lcc = _largest(_graph(records))
    vertices = sorted(lcc)
    cv = centralities(lcc)
    cited: Counter[str] = Counter()
    for _, team, tc in records:
        for a in team:
            cited[a] += tc
    citations = {v: float(cited[v]) for v in vertices}
    series = {
        "citations": citations,
        "closeness": cv["closeness"],
        "betweenness": cv["betweenness"],
        "degree": cv["degree"],
        "pagerank": cv["pagerank"],
    }
    labels = list(series)
    rho = [[1.0] * len(labels) for _ in labels]
    p = [[0.0] * len(labels) for _ in labels]
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            b = labels[j]
            r, pv = stats.spearmanr([series[a][v] for v in vertices],
                                    [series[b][v] for v in vertices])
            rho[i][j] = rho[j][i] = float(r)
            p[i][j] = p[j][i] = float(pv)
    return {
        "labels": labels,
        "rho": rho,
        "p": p,
        "n": len(vertices),
        "ranks": {
            "degree": _ordinal_ranks(cv["degree"]),
            "citations": _ordinal_ranks(citations),
        },
        "scores": {m: cv[m] for m in ("pagerank", "closeness", "betweenness")},
    }


def expect_evolve(records, start: int, boundaries: list[int]) -> dict:
    end = max(year for year, _, _ in records)
    slices = []
    for bound in boundaries:
        chunk = [r for r in records if start <= r[0] <= bound]
        g = _graph(chunk)
        lcc = _largest(g)
        size = lcc.number_of_nodes()
        slices.append({
            "start": start,
            "end": bound,
            "authors": g.number_of_nodes(),
            "papers": len(chunk),
            "mean_collaborators": 2 * g.number_of_edges() / g.number_of_nodes(),
            "largest_size": size,
            "largest_ratio": size / g.number_of_nodes(),
            "largest_avg_distance": nx.average_shortest_path_length(lcc) if size >= 2 else 0.0,
        })
    return {"growth": _growth(records, start, end), "slices": slices}


def expect_fit(records) -> dict:
    years = [year for year, _, _ in records]
    rows = _growth(records, min(years), max(years))
    t_axis = range(1, len(rows) + 1)
    lcc = _largest(_graph(records))
    n = lcc.number_of_nodes()
    degrees = Counter(d for _, d in lcc.degree() if d >= 1)
    return {
        "fits": {
            "papers": _loglog_fit([(t, row[1]) for t, row in zip(t_axis, rows)]),
            "authors": _loglog_fit([(t, row[2]) for t, row in zip(t_axis, rows)]),
            "degree_distribution": _loglog_fit([(k, degrees[k] / n) for k in sorted(degrees)]),
        }
    }


def expect(command: str, records, args: list[str]) -> dict:
    """Expected results of one CLI command with the given extra flags."""
    if command == "correlate":
        return expect_correlate(records)
    if command == "centrality":
        return expect_centrality(records)
    if command == "fit":
        return expect_fit(records)
    if command == "evolve":
        start = int(args[args.index("--start-year") + 1])
        bounds = [int(b) for b in args[args.index("--slices") + 1].split(",")]
        return expect_evolve(records, start, bounds)
    raise ValueError(f"no oracle for command {command!r}")
