from __future__ import annotations

import sys
import time
import tracemalloc
from functools import partial
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings

from coauthnet import (
    BiblioRecord,
    CoauthGraph,
    ConfigError,
    ConvergenceError,
    DataError,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    connected_components,
    degree_centrality,
    largest_component,
    mean_distance,
    ordinal_ranks,
    pagerank,
    rank_table,
)
from coauthnet import _numeric
from coauthnet.centrality import CentralityVector, render_rank_csv, render_vector_csv
from coauthnet.graph import _bfs
from oracles import (
    adjacency,
    betweenness_enumeration_oracle,
    closed_twin_classes,
    closeness_oracle,
    from_edges,
    pagerank_linear_oracle,
    planted,
    planted_graphs,
    random_coauthor_graph,
    random_graph,
)

STAR = from_edges([("c", "l1"), ("c", "l2"), ("c", "l3")])
PATH3 = from_edges([("a", "b"), ("b", "c")])
TRIANGLE = from_edges([("a", "b"), ("b", "c"), ("a", "c")])


def cycle_graph(n: int) -> CoauthGraph:
    verts = [f"C{i:02d}" for i in range(n)]
    return from_edges(zip(verts, verts[1:] + verts[:1]))


def complete_graph(n: int) -> CoauthGraph:
    verts = [f"K{i:02d}" for i in range(n)]
    return from_edges(combinations(verts, 2))


class TestDegree:
    def test_triangle(self):
        assert degree_centrality(TRIANGLE).scores == {"a": 2, "b": 2, "c": 2}

    def test_star(self):
        scores = degree_centrality(STAR).scores
        assert scores == {"c": 3, "l1": 1, "l2": 1, "l3": 1}

    def test_matches_neighbor_counts(self):
        g = random_graph(Random(41), max_n=10)
        scores = degree_centrality(g).scores
        assert scores == {v: len(row) for v, row in adjacency(g).items()}


class TestCloseness:
    def test_path(self):
        scores = closeness_centrality(PATH3).scores
        assert scores["b"] == 2.0
        assert scores["a"] == 1.5

    def test_star(self):
        scores = closeness_centrality(STAR).scores
        assert scores["c"] == 3.0
        assert scores["l1"] == pytest.approx(2.0)

    def test_isolated_vertex_scores_zero(self):
        g = from_edges([("a", "b")], vertices=["z"])
        assert closeness_centrality(g).scores["z"] == 0.0

    def test_matches_all_pairs_oracle(self):
        for seed in range(20):
            g = random_graph(Random(500 + seed), max_n=12)
            scores = closeness_centrality(g).scores
            expected = closeness_oracle(g)
            for v in g.vertices():
                assert scores[v] == pytest.approx(expected[v], abs=1e-12)

    def test_other_components_do_not_interfere(self):
        g1 = from_edges([("a", "b"), ("b", "c")])
        g2 = from_edges([("a", "b"), ("b", "c"), ("x", "y")])
        s1, s2 = closeness_centrality(g1).scores, closeness_centrality(g2).scores
        assert all(s1[v] == s2[v] for v in "abc")
        b1, b2 = betweenness_centrality(g1).scores, betweenness_centrality(g2).scores
        assert all(b1[v] == b2[v] for v in "abc")


class TestBetweenness:
    def test_path_midpoint(self):
        scores = betweenness_centrality(PATH3).scores
        assert scores == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_star_center(self):
        scores = betweenness_centrality(STAR).scores
        assert scores["c"] == 3.0
        assert scores["l1"] == 0.0

    def test_four_cycle_all_half(self):
        scores = betweenness_centrality(cycle_graph(4)).scores
        assert all(s == pytest.approx(0.5) for s in scores.values())

    def test_complete_graph_all_zero(self):
        scores = betweenness_centrality(complete_graph(5)).scores
        assert all(s == 0.0 for s in scores.values())

    def test_tree_total_is_sum_of_interior_lengths(self):
        g = from_edges([("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "e")])
        total = sum(betweenness_centrality(g).scores.values())
        expected = 0
        for s in range(len(g)):
            dist = _bfs(g._adj, s)[1]
            expected += sum(d - 1 for d in dist[s + 1 :])
        assert total == pytest.approx(expected)

    def test_matches_enumeration_oracle(self):
        for seed in range(20):
            g = random_graph(Random(700 + seed), max_n=12)
            scores = betweenness_centrality(g).scores
            expected = betweenness_enumeration_oracle(g)
            for v in g.vertices():
                assert scores[v] == pytest.approx(expected[v], abs=1e-9)


class TestPageRank:
    def test_single_edge_symmetric(self):
        scores = pagerank(from_edges([("a", "b")])).scores
        assert scores == {"a": 0.5, "b": 0.5}

    def test_triangle_uniform_any_damping(self):
        for d in (0.2, 0.5, 0.85, 0.99):
            scores = pagerank(TRIANGLE, damping=d).scores
            for s in scores.values():
                assert s == pytest.approx(1 / 3, abs=1e-9)

    def test_star_derived_values(self):
        # closed form: pr_c = 0.0375 + 2.55 pr_l, pr_l = 0.0375 + (0.85/3) pr_c
        scores = pagerank(STAR, damping=0.85).scores
        assert scores["c"] == pytest.approx(0.133125 / 0.2775, abs=1e-6)
        assert scores["l1"] == pytest.approx(0.0375 + (0.85 / 3) * (0.133125 / 0.2775), abs=1e-6)

    def test_scores_sum_to_one(self):
        for seed in range(20):
            g = random_graph(Random(900 + seed), max_n=15)
            scores = pagerank(g).scores
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_vertex_transitive_graphs_uniform(self):
        for g in (cycle_graph(6), complete_graph(5)):
            scores = pagerank(g).scores
            for s in scores.values():
                assert s == pytest.approx(1 / len(g), abs=1e-9)

    def test_matches_linear_solve(self):
        for seed in range(15):
            g = random_graph(Random(1100 + seed), max_n=20)
            scores = pagerank(g).scores
            expected = pagerank_linear_oracle(g)
            for v in g.vertices():
                assert scores[v] == pytest.approx(expected[v], abs=1e-8)

    def test_dangling_mass_redistributed(self):
        g = from_edges([("a", "b")], vertices=["z"])
        scores = pagerank(g).scores
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        expected = pagerank_linear_oracle(g)
        for v in g.vertices():
            assert scores[v] == pytest.approx(expected[v], abs=1e-10)

    def test_convergence_error_reports_residual(self):
        with pytest.raises(ConvergenceError) as excinfo:
            pagerank(STAR, damping=0.85, tol=1e-15, max_iter=2)
        assert excinfo.value.residual > 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            pagerank(STAR, damping=1.5)
        with pytest.raises(ConfigError):
            pagerank(STAR, tol=0.0)
        with pytest.raises(ConfigError):
            pagerank(STAR, max_iter=0)
        with pytest.raises(DataError):
            pagerank(CoauthGraph({}))

    def test_nan_tol_rejected(self):
        with pytest.raises(ConfigError, match="tol must be positive, got nan"):
            pagerank(STAR, tol=float("nan"))

    def test_inf_tol_rejected(self):
        with pytest.raises(ConfigError, match="tol must be finite, got inf"):
            pagerank(STAR, tol=float("inf"))

    def test_single_vertex(self):
        assert pagerank(CoauthGraph({"a": {}})).scores == {"a": 1.0}


class TestRankTable:
    def test_tie_broken_lexicographically(self):
        cv = CentralityVector("degree", {"A": 3, "B": 5, "C": 5})
        table = rank_table(cv, 3)
        assert table.rows == ((1, "B", 5), (2, "C", 5), (3, "A", 3))

    def test_top_one(self):
        cv = CentralityVector("degree", {"A": 3, "B": 5, "C": 5})
        assert rank_table(cv, 1).rows == ((1, "B", 5),)

    def test_short_table_when_few_vertices(self):
        cv = CentralityVector("degree", {"A": 1})
        assert len(rank_table(cv, 30).rows) == 1

    def test_matches_full_sort_oracle(self):
        rng = Random(77)
        scores = {f"A{i:02d}": rng.random() for i in range(50)}
        cv = CentralityVector("pagerank", scores)
        table = rank_table(cv, 50)
        expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(r[1], r[2]) for r in table.rows] == expected
        assert [r[0] for r in table.rows] == list(range(1, 51))

    def test_top_n_beyond_sys_maxsize_gives_every_row(self):
        cv = CentralityVector("degree", {"A": 3, "B": 5, "C": 5})
        assert rank_table(cv, sys.maxsize + 1) == rank_table(cv, 3)
        assert len(rank_table(cv, 10**20).rows) == 3

    def test_invalid_top_n(self):
        with pytest.raises(DataError):
            rank_table(CentralityVector("degree", {"A": 1}), 0)

    def test_ordinal_ranks_match_table(self):
        rng = Random(78)
        scores = {f"A{i:02d}": rng.randint(0, 5) for i in range(20)}
        ranks = ordinal_ranks(scores)
        table = rank_table(CentralityVector("degree", scores), len(scores))
        assert ranks == {author: rank for rank, author, _ in table.rows}


class TestRelabelingInvariance:
    def test_measures_commute_with_relabeling(self):
        g = random_graph(Random(55), min_n=6, max_n=10)
        mapping = {v: f"Z{v}" for v in g.vertices()}
        relabeled = from_edges(
            [(mapping[a], mapping[b], w) for a, b, w in g.edges()],
            vertices=[mapping[v] for v in g.vertices()],
        )
        for measure in (degree_centrality, closeness_centrality, betweenness_centrality):
            original = measure(g).scores
            renamed = measure(relabeled).scores
            for v in g.vertices():
                assert renamed[mapping[v]] == pytest.approx(original[v], abs=1e-12)


class TestDisjointUnion:
    def test_union_scores_equal_per_component_scores(self):
        union = random_coauthor_graph(Random(77), (90, 40, 12, 2, 1))
        groups = connected_components(union)
        names = union.vertices()
        for measure in (closeness_centrality, betweenness_centrality):
            scores = measure(union).scores
            for group in groups:
                alone = measure(union._induced(group)).scores
                assert alone == {names[v]: scores[names[v]] for v in group}  # exact


class TestBetweennessMemory:
    @staticmethod
    def traced_peak(g: CoauthGraph) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            betweenness_centrality(g)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_memory_grows_linearly(self):
        small = random_coauthor_graph(Random(5), (100,))
        large = random_coauthor_graph(Random(5), (400,))
        # 4x the vertices: linear memory gives ~4x, quadratic ~16x
        assert self.traced_peak(large) / self.traced_peak(small) < 8

    def test_held_rows_stay_within_the_budget(self, monkeypatch):
        """Closed-twin pairs {j, j + k} interleave over the whole index
        range, so at its middle every pair's row would be held at once."""
        g = interleaved_twins(192)
        a, rows = _numeric.csr_view(g), 32
        assert len(_numeric.plan(a, rows).derived) < len(_numeric.plan(a).derived)  # the cap binds
        monkeypatch.setattr(_numeric, "HELD_BYTES", 0)
        none_held, expected = self.traced_peak(g), betweenness_centrality(g).scores
        monkeypatch.setattr(_numeric, "HELD_BYTES", rows * 8 * len(g))
        assert self.traced_peak(g) - none_held < 1.25 * _numeric.HELD_BYTES
        assert betweenness_centrality(g).scores == expected


def python_closeness(g: CoauthGraph) -> dict[str, float]:
    """Per-source Python loop over _bfs, summed in index order."""
    names, adj = g._names, g._adj
    return {
        v: sum(1.0 / d for d in _bfs(adj, s)[1] if d > 0) for s, v in enumerate(names)
    }


def python_betweenness(g: CoauthGraph) -> dict[str, float]:
    """Exact-integer Brandes loop per source, reduced in source order."""
    names, adj = g._names, g._adj
    totals = [0.0] * len(names)
    for s in range(len(names)):
        for v, d in enumerate(_numeric._source_dependencies(adj, s)):
            totals[v] += d
    return {v: t / 2.0 for v, t in zip(names, totals)}


def python_mean_distance(g: CoauthGraph) -> float:
    lcc = largest_component(g)[0]
    names, adj = lcc._names, lcc._adj
    n = len(names)
    total = sum(sum(_bfs(adj, s)[1]) for s in range(n))
    return (total // 2) / (n * (n - 1) // 2)


def python_pagerank(g: CoauthGraph, damping: float = 0.85, tol: float = 1e-12) -> dict[str, float]:
    """Power iteration over dicts, neighbours and sums in vertex order."""
    adj = adjacency(g)
    vertices = list(adj)
    n = len(vertices)
    dangling = [v for v in vertices if not adj[v]]
    rank = {v: 1.0 / n for v in vertices}
    while True:
        dangling_share = sum(rank[v] for v in dangling) / n
        nxt = {}
        for v in vertices:
            acc = 0.0
            for u in adj[v]:
                acc += rank[u] / len(adj[u])
            nxt[v] = (1.0 - damping) / n + damping * (acc + dangling_share)
        residual = sum(abs(nxt[v] - rank[v]) for v in vertices)
        rank = nxt
        if residual < tol:
            return rank


def diamond_chain(k: int) -> CoauthGraph:
    """k diamonds in series: 2**k geodesics between the two ends."""
    edges = []
    for i in range(k):
        hub, nxt = f"D{i:03d}", f"D{i + 1:03d}"
        edges += [(hub, hub + "a"), (hub, hub + "b"), (hub + "a", nxt), (hub + "b", nxt)]
    return from_edges(edges)


def spanning_graph(rng: Random, names: list[str], groups: list[list[int]]) -> CoauthGraph:
    """One connected component per group of name indices: a random tree
    plus a chord per three vertices, so some pairs have several geodesics."""
    edges = []
    for group in groups:
        members = [names[i] for i in group]
        rng.shuffle(members)
        edges += [(v, rng.choice(members[:j])) for j, v in enumerate(members) if j]
        edges += [tuple(rng.sample(members, 2)) for _ in range(len(members) // 3)]
    return from_edges(edges, vertices=names)


def interleaved_twins(k: int) -> CoauthGraph:
    """A coauthorship-like graph on k slots, each blown up into a pair of
    closed twins named V{j} and V{j + k}, so the pairs interleave."""
    base = random_coauthor_graph(Random(k), (k,))
    slot = {v: j for j, v in enumerate(base.vertices())}
    names = [f"V{i:04d}" for i in range(2 * k)]
    edges = [(names[j], names[j + k]) for j in range(k)]
    for a, b, _ in base.edges():
        edges += [(names[x], names[y]) for x in (slot[a], slot[a] + k)
                  for y in (slot[b], slot[b] + k)]
    return from_edges(edges)


# Pendant groups {a, b, m, z} (pendants before and after their anchor m)
# and {c, d}, closed twins {x, y}, a K2 component and an isolated vertex.
GROUPS = from_edges(
    [("a", "m"), ("b", "m"), ("z", "m"), ("m", "x"), ("m", "y"), ("x", "y"),
     ("c", "x"), ("c", "y"), ("c", "d"), ("k1", "k2")],
    vertices=["w"],
)


def fallback_chain() -> CoauthGraph:
    """diamond_chain(70) whose end groups' representatives see 2**53 or
    more geodesics: closed twins D000a, D000b; D000 with pendant D000p; and
    D070 with pendants A (before it) and Z."""
    edges = [(a, b) for a, b, _ in diamond_chain(70).edges()]
    return from_edges(edges + [("D000a", "D000b"), ("D000", "D000p"), ("A", "D070"), ("Z", "D070")])


def derivation_graphs() -> list[CoauthGraph]:
    """Graphs built to derive sources: GROUPS; a path with closed-twin
    classes of 3 and 2 members and a pendant group, planted vertices named
    before and after the ones they copy; and fallback_chain."""
    twins = planted(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                    [("twin", 2), ("twin", 6), ("twin", 4), ("pendant", 0), ("pendant", 0)],
                    [10, 20, 30, 40, 50, 60, 5, 35, 99, 1, 70])
    return [GROUPS, twins, fallback_chain()]


def word_boundary_graphs() -> list[CoauthGraph]:
    """Graphs around the sweep's 64-source words: a component and a pair
    that span indices 63 and 64 with isolated vertices beside them, and a
    graph whose second word of sources is all isolated vertices."""
    names = [f"V{i:03d}" for i in range(130)]
    straddling = spanning_graph(
        Random(3300),
        names,
        [[*range(62), 63, *range(66, 90)], [62, 64], [*range(90, 127), 129]],
    )  # 65, 127 and 128 are isolated
    isolated_word = spanning_graph(Random(3301), names, [list(range(64)), list(range(128, 130))])
    return [straddling, isolated_word]


def bit_identity_graphs() -> list[CoauthGraph]:
    """41 seeded graphs of 2-500 vertices, connected and disconnected, the
    graphs around the sweep's 64-source words (connected ones of 63, 64,
    65, 128 and 129 vertices, and word_boundary_graphs), derivation_graphs,
    and the degenerate shapes: no vertex, one vertex, no edge, one edge."""
    graphs = []
    for seed in range(40):
        rng = Random(3000 + seed)
        if seed % 2:
            graphs.append(random_graph(rng, min_n=2, max_n=40))
        else:
            parts = rng.randint(1, 4)
            graphs.append(
                random_coauthor_graph(rng, tuple(rng.randint(1, 500 // parts) for _ in range(parts)))
            )
    graphs.append(random_coauthor_graph(Random(3100), (500,)))
    graphs += [random_coauthor_graph(Random(3200 + n), (n,)) for n in (63, 64, 65, 128, 129)]
    graphs += word_boundary_graphs()
    graphs += derivation_graphs()
    graphs += [
        CoauthGraph({}),
        CoauthGraph({"a": {}}),
        from_edges([], vertices=["a", "b", "c"]),
        from_edges([("a", "b")]),
    ]
    return graphs


def deep_pendant_path() -> CoauthGraph:
    """The path P000-P127 with a pendant P000p on P000. Every searched row
    stops at level 127, the deepest an int8 holds, and the pendants P000p
    and P127, derived from P000 and P126, reach level 128."""
    names = [f"P{i:03d}" for i in range(128)]
    return from_edges([*zip(names, names[1:]), ("P000", "P000p")])


class TestBlockSweepBitIdentity:
    """The block-vectorized sweep equals the per-source Python loops exactly."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return bit_identity_graphs()

    def test_closeness(self, graphs):
        for g in graphs:
            assert closeness_centrality(g).scores == python_closeness(g)

    def test_betweenness(self, graphs):
        for g in graphs:
            assert betweenness_centrality(g).scores == python_betweenness(g)

    def test_mean_distance(self, graphs):
        for g in graphs:
            if len(g) and len(largest_component(g)[0]) >= 2:
                assert mean_distance(g) == python_mean_distance(g)

    def test_pagerank(self, graphs):
        for g in graphs:
            if len(g):
                assert pagerank(g).scores == python_pagerank(g)

    def test_derived_rows_one_level_past_int8(self):
        g = deep_pendant_path()
        a = _numeric.csr_view(g)
        p = _numeric.plan(a)
        searched, deepest = set(p.searched.tolist()), {}
        for sources, dist in _numeric.distance_rows(a, p):
            kind = int(sources[0]) in searched  # a block is searched or derived
            deepest[kind] = max(deepest.get(kind, 0), int(dist.max()))
        assert deepest == {True: 127, False: 128}
        assert closeness_centrality(g).scores == python_closeness(g)
        assert mean_distance(g) == python_mean_distance(g)

    def test_path_counts_beyond_float_precision_use_exact_loop(self, monkeypatch):
        g = diamond_chain(70)
        expected = python_betweenness(g)
        calls = []
        exact = _numeric._source_dependencies

        def counted(adj, s):
            calls.append(s)
            return exact(adj, s)

        monkeypatch.setattr(_numeric, "_source_dependencies", counted)
        assert betweenness_centrality(g).scores == expected
        # only sources near an end see 2**53 or more geodesics to some vertex
        assert 0 < len(calls) < len(g)


class TestDerivedSources:
    """Closed twins and pendants take their rows from a searched source."""

    @staticmethod
    def derivations(g: CoauthGraph, held_rows: int | None = None) -> tuple[list, list]:
        p = _numeric.plan(_numeric.csr_view(g), held_rows)
        names = g.vertices()
        derived = [(names[t], names[s], names[u] if u >= 0 else None, c)
                   for t, s, u, c in zip(p.derived, p.rep, p.anchor, p.shift)]
        return [names[s] for s in p.searched], derived

    def test_plan_searches_each_group_from_its_first_member(self):
        searched, derived = self.derivations(GROUPS)
        assert searched == ["a", "c", "k1", "k2", "w", "x"]
        # (source, representative, anchor, distance offset)
        assert derived == [("b", "a", "m", 0), ("d", "c", "c", 1), ("m", "a", "m", -1),
                           ("y", "x", None, 0), ("z", "a", "m", 0)]

    @staticmethod
    def twin_classes(g: CoauthGraph) -> set[frozenset[str]]:
        """The vertices of degree >= 2 grouped by their representative in
        the uncapped plan; a class of two or more is led by its first member."""
        p = _numeric.plan(_numeric.csr_view(g))
        rep = dict(zip(p.derived.tolist(), p.rep.tolist()))
        classes: dict[int, list[int]] = {}
        for v, row in enumerate(g._adj):
            if len(row) >= 2:
                classes.setdefault(rep.get(v, v), []).append(v)
        for s, members in classes.items():
            assert len(members) == 1 or s == members[0]
        names = g.vertices()
        return {frozenset(names[v] for v in members) for members in classes.values()}

    def test_plan_finds_exactly_the_closed_twin_classes(self):
        for g in derivation_graphs():
            assert self.twin_classes(g) == closed_twin_classes(g)

    @settings(max_examples=150, deadline=None)
    @given(planted_graphs())
    def test_plan_finds_exactly_the_closed_twin_classes_of_planted_graphs(self, g):
        assert self.twin_classes(g) == closed_twin_classes(g)

    def test_held_rows_take_groups_by_first_member(self):
        # {a, b, m, z} is live over the whole range: one held row leaves
        # no room for {c, d} or {x, y}; two hold {c, d} until d, then {x, y}
        searched, derived = self.derivations(GROUPS, held_rows=1)
        assert searched == ["a", "c", "d", "k1", "k2", "w", "x", "y"]
        assert [t for t, *_ in derived] == ["b", "m", "z"]
        assert self.derivations(GROUPS, held_rows=2) == self.derivations(GROUPS)

    def test_fallback_representative_hands_its_exact_row_to_its_group(self, monkeypatch):
        g = fallback_chain()
        expected = python_betweenness(g)
        calls = []
        exact = _numeric._source_dependencies

        def counted(adj, s):
            calls.append(g.vertices()[s])
            return exact(adj, s)

        monkeypatch.setattr(_numeric, "_source_dependencies", counted)
        assert betweenness_centrality(g).scores == expected
        assert {"A", "D000", "D000a"} <= set(calls)
        assert not {"D000b", "D000p", "D070", "Z"} & set(calls)

    @settings(max_examples=150, deadline=None)
    @given(planted_graphs())
    def test_planted_graphs_match_python_loops(self, g):
        assert closeness_centrality(g).scores == python_closeness(g)
        assert betweenness_centrality(g).scores == python_betweenness(g)
        if len(largest_component(g)[0]) >= 2:
            assert mean_distance(g) == python_mean_distance(g)


class TestSweepScaling:
    @staticmethod
    def best_time(fn, g: CoauthGraph) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn(g)
            best = min(best, time.perf_counter() - start)
        return best

    @staticmethod
    def path(n: int) -> CoauthGraph:
        return from_edges([(f"P{i:04d}", f"P{i + 1:04d}") for i in range(n - 1)])

    @pytest.mark.parametrize(
        "measure", [closeness_centrality, betweenness_centrality, mean_distance]
    )
    def test_path_time_grows_at_most_quadratically(self, measure):
        short, long_ = self.path(150), self.path(600)
        # 4x the vertices: quadratic work gives 16x, cubic 64x
        assert self.best_time(measure, long_) < 32 * self.best_time(measure, short)

    @pytest.mark.paper_scale
    def test_long_path_time_grows_at_most_quadratically(self):
        """A sweep level that touches every vertex, not just the frontier's
        rows, is cubic; on paths this long it shows."""
        short, long_ = self.path(600), self.path(2400)
        assert self.best_time(mean_distance, long_) < 32 * self.best_time(mean_distance, short)

    def test_build_and_components_time_grows_linearly(self):
        def mapping(n: int) -> dict[str, dict[str, int]]:
            """A path through every fourth vertex; the others are isolated."""
            names = [f"V{i:05d}" for i in range(n)]
            adj: dict[str, dict[str, int]] = {v: {} for v in names}
            for a, b in zip(names[::4], names[4::4]):
                adj[a][b] = adj[b][a] = 1
            return adj

        def records(n: int) -> list[BiblioRecord]:
            """One single-author paper per author, plus a chain of two-author
            papers through every fourth author."""
            names = [f"V{i:05d}" for i in range(n)]
            teams = [(v,) for v in names] + list(zip(names[::4], names[4::4]))
            return [BiblioRecord(f"R{i}", team, 2000, "Article", 0, "J")
                    for i, team in enumerate(teams)]

        def build_and_label(build, data) -> None:
            g = build(data)
            connected_components(g)
            largest_component(g)

        for build, inputs in ((CoauthGraph, mapping), (build_graph, records)):
            step = partial(build_and_label, build)
            small, large = inputs(3000), inputs(12000)
            # 4x the vertices: linear work gives 4x, work per vertex or per
            # component that walks all n vertices gives 16x
            assert self.best_time(step, large) < 8 * self.best_time(step, small), build.__name__


class TestExports:
    def test_vector_csv_quotes_author_keys(self):
        cv = CentralityVector("degree", {"MEHO, LI": 2, "YANG, K": 1})
        text = render_vector_csv(cv)
        assert text.splitlines()[0] == "author,measure,score"
        assert '"MEHO, LI",degree,2' in text

    def test_rank_csv_layout(self):
        cv = CentralityVector("pagerank", {"A": 0.25, "B": 0.75})
        text = render_rank_csv(rank_table(cv, 2))
        assert text == "rank,author,score\n1,B,0.75\n2,A,0.25\n"

    def test_seventeen_significant_digits(self):
        cv = CentralityVector("pagerank", {"A": 1 / 3})
        assert "0.33333333333333331" in render_vector_csv(cv)
