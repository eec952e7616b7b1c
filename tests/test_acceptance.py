"""Acceptance suite: one test per release criterion, each printing a
PASS line with its criterion number once its assertions hold (run with
``pytest tests/test_acceptance.py -v -s``)."""

from __future__ import annotations

import math
import time
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from coauthnet import (
    CoauthGraph,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    clustering_coefficient,
    cumulative_slices,
    growth_series,
    lis_growth_series,
    mean_distance,
    pagerank,
    power_fit,
    spearman,
)
from coauthnet.cli import main
from oracles import (
    adjacency,
    betweenness_enumeration_oracle,
    closeness_oracle,
    clustering_oracle,
    from_edges,
    mean_distance_oracle,
    pagerank_linear_oracle,
    random_graph,
    random_records,
    spearman_rho_oracle,
)

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture_corpus.tsv")
MERGE_MAP = str(DATA / "merge_map.csv")
GOLDEN = DATA / "golden"


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


@lru_cache(maxsize=1)
def _shared_graphs() -> tuple[CoauthGraph, ...]:
    """200 random graphs with n <= 12, mixed connected and disconnected."""
    return tuple(random_graph(Random(10_000 + seed), min_n=2, max_n=12) for seed in range(200))


def test_criterion_1_growth_fit_reproduction():
    started = time.perf_counter()
    rows = lis_growth_series()
    papers_fit = power_fit([(t, row[1]) for t, row in enumerate(rows, start=1)])
    assert papers_fit.coefficient == pytest.approx(363.95, rel=0.05)
    assert papers_fit.exponent == pytest.approx(1.08, abs=0.02)
    assert papers_fit.r_squared >= 0.995
    authors_fit = power_fit([(t, row[2]) for t, row in enumerate(rows, start=1)])
    assert authors_fit.coefficient == pytest.approx(492.00, rel=0.05)
    assert authors_fit.exponent == pytest.approx(0.98, abs=0.02)
    assert authors_fit.r_squared >= 0.99
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"growth fits reproduced ({papers_fit.coefficient:.2f}*t^"
               f"{papers_fit.exponent:.3f}, R2={papers_fit.r_squared:.4f}; "
               f"{authors_fit.coefficient:.2f}*t^{authors_fit.exponent:.3f}, "
               f"R2={authors_fit.r_squared:.4f}) in {elapsed:.3f}s")


def test_criterion_2_synthetic_end_to_end_goldens(tmp_path):
    # corpus-scale published tables are out of reach without the proprietary
    # corpus; the committed synthetic fixture stands in with frozen,
    # oracle-verified golden outputs for every command
    commands = {
        "stats": ("stats", "--input", FIXTURE, "--merge-map", MERGE_MAP),
        "centrality": ("centrality", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                       "--top-n", "10"),
        "evolve": ("evolve", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--start-year", "1988", "--slices", "1992,1997,2002,2007"),
        "correlate": ("correlate", "--input", FIXTURE, "--merge-map", MERGE_MAP),
        "fit": ("fit", "--input", FIXTURE, "--merge-map", MERGE_MAP),
    }
    checked = 0
    for name, args in commands.items():
        out = tmp_path / name
        assert main([*args, "--output-dir", str(out)]) == 0
        for gfile in sorted((GOLDEN / name).iterdir()):
            assert (out / gfile.name).read_bytes() == gfile.read_bytes(), (
                f"{name}/{gfile.name} deviates from the committed golden output"
            )
            checked += 1
    _report(2, f"synthetic end-to-end fixture matches {checked} golden files")


def test_criterion_3_betweenness_oracle_equivalence():
    started = time.perf_counter()
    per_vertex = 0
    for g in _shared_graphs():
        scores = betweenness_centrality(g).scores
        expected = betweenness_enumeration_oracle(g)
        for v in g.vertices():
            assert abs(scores[v] - expected[v]) <= 1e-9
            per_vertex += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, f"betweenness matches geodesic enumeration on 200 graphs "
               f"({per_vertex} vertices) within 1e-9 in {elapsed:.1f}s")


def test_criterion_4_closeness_oracle_equivalence():
    for g in _shared_graphs():
        scores = closeness_centrality(g).scores
        expected = closeness_oracle(g)
        for v in g.vertices():
            assert abs(scores[v] - expected[v]) <= 1e-12
    _report(4, "closeness matches the all-pairs reciprocal-sum oracle on the "
               "same 200 graphs within 1e-12")


def test_criterion_5_pagerank_correctness():
    for seed in range(100):
        g = random_graph(Random(20_000 + seed), min_n=1, max_n=20)
        scores = pagerank(g).scores
        assert abs(sum(scores.values()) - 1.0) <= 1e-9
        expected = pagerank_linear_oracle(g)
        for v in g.vertices():
            assert abs(scores[v] - expected[v]) <= 1e-8
    for n in (3, 5, 8, 12):
        cycle = from_edges(
            [(f"C{i}", f"C{(i + 1) % n}") for i in range(n)]
        )
        complete = from_edges(
            combinations([f"K{i}" for i in range(n)], 2)
        )
        for g in (cycle, complete):
            for score in pagerank(g).scores.values():
                assert abs(score - 1.0 / n) <= 1e-9
    _report(5, "pagerank matches the dense linear solve on 100 graphs within "
               "1e-8; sums to 1 and is uniform on vertex-transitive graphs")


def test_criterion_6_spearman_correctness():
    rng = Random(31_337)
    checked = 0
    while checked < 500:
        n = rng.randint(3, 60)
        make = lambda: [
            float(rng.randint(0, 8)) if rng.random() < 0.5 else rng.random()
            for _ in range(n)
        ]
        xs, ys = make(), make()
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        rho, _ = spearman(xs, ys)
        assert abs(rho - spearman_rho_oracle(xs, ys)) <= 1e-12
        checked += 1
    invariance_checked = 0
    while invariance_checked < 100:
        n = rng.randint(3, 40)
        xs = [rng.randint(-30, 30) for _ in range(n)]
        ys = [rng.random() for _ in range(n)]
        if len(set(xs)) < 2:
            continue
        base = spearman(xs, ys)
        for transform in (lambda v: v**3, lambda v: 2.5 * v + 7.0, math.exp):
            assert spearman([transform(x) for x in xs], ys) == base
        invariance_checked += 1
    _report(6, "spearman matches the rank-then-Pearson oracle on 500 series "
               "pairs within 1e-12; monotone-transform invariance exact on 100")


def test_criterion_7_structural_statistics():
    checked = 0
    for seed in range(100):
        g = random_graph(Random(40_000 + seed), min_n=3, max_n=15)
        assert abs(clustering_coefficient(g) - clustering_oracle(g)) <= 1e-12
        if g.edge_count() > 0:
            assert abs(mean_distance(g) - mean_distance_oracle(g)) <= 1e-12
        checked += 1
    for n in (3, 5, 9):
        complete = from_edges(combinations([f"K{i}" for i in range(n)], 2))
        assert mean_distance(complete) == 1.0
        path = from_edges(
            [(f"P{i:02d}", f"P{i + 1:02d}") for i in range(n - 1)]
        )
        assert mean_distance(path) == pytest.approx((n + 1) / 3, abs=1e-12)
    triangle = from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    assert clustering_coefficient(triangle) == 1.0
    _report(7, f"mean distance and clustering match all-pairs/triangle oracles "
               f"on {checked} graphs within 1e-12; closed forms hold")


def test_criterion_8_evolution_invariants():
    for seed in range(25):
        rng = Random(50_000 + seed)
        records = random_records(rng, n_records=rng.randint(10, 60),
                                 n_authors=rng.randint(4, 15), years=(1988, 2007))
        boundaries = [1993, 1999, 2003, 2007]
        slices = cumulative_slices(records, 1988, boundaries)
        for earlier, later in zip(slices, slices[1:]):
            assert set(earlier.graph.vertices()) <= set(later.graph.vertices())
            later_adj = adjacency(later.graph)
            for a, b, w in earlier.graph.edges():
                assert later_adj[a].get(b, 0) >= w
        whole = build_graph(records)
        final = slices[-1].graph
        assert final.vertices() == whole.vertices()
        assert list(final.edges()) == list(whole.edges())
        rows = growth_series(records, 1988, 2007)
        for (y1, p1, a1), (y2, p2, a2) in zip(rows, rows[1:]):
            assert y2 == y1 + 1 and p2 >= p1 and a2 >= a1
        assert rows[-1] == (
            2007,
            len(records),
            len({a for r in records for a in r.authors}),
        )
    _report(8, "cumulative slices nest, the final slice equals the whole-corpus "
               "graph, and growth series are monotone with exact final totals")


def test_criterion_9_cli_determinism(tmp_path):
    commands = {
        "stats": ("stats",),
        "centrality": ("centrality", "--top-n", "10"),
        "evolve": ("evolve", "--start-year", "1988", "--slices", "1992,1997,2002,2007"),
        "correlate": ("correlate",),
        "fit": ("fit",),
    }
    for name, extra in commands.items():
        out = tmp_path / name
        args = (*extra, "--input", FIXTURE, "--merge-map", MERGE_MAP,
                "--output-dir", str(out))
        assert main(list(args)) == 0
        snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(list(args)) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == snapshot
    _report(9, "all five commands byte-identical across reruns")
