from __future__ import annotations

from itertools import combinations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coauthnet import (
    BiblioRecord,
    CoauthGraph,
    DataError,
    build_graph,
    clustering_coefficient,
    connected_components,
    largest_component,
    mean_distance,
    shortest_path_lengths,
    summary_stats,
)
from coauthnet.graph import render_edge_list, render_isolated_vertices
from oracles import (
    clustering_oracle,
    floyd_warshall,
    label_propagation_components,
    mean_distance_oracle,
    pair_cooccurrence,
    random_graph,
    random_records,
)


def paper(rid: str, *authors: str, year: int = 2000) -> BiblioRecord:
    return BiblioRecord(rid, tuple(authors), year, "Article", 0, "J")


def path_graph(n: int) -> CoauthGraph:
    verts = [f"P{i:02d}" for i in range(n)]
    return CoauthGraph.from_edges(zip(verts, verts[1:]))


def complete_graph(n: int) -> CoauthGraph:
    verts = [f"K{i:02d}" for i in range(n)]
    return CoauthGraph.from_edges(combinations(verts, 2))


class TestBuildGraph:
    def test_three_author_paper_is_triangle(self):
        g = build_graph([paper("R1", "A", "B", "C")])
        assert sorted(g.edges()) == [("A", "B", 1), ("A", "C", 1), ("B", "C", 1)]

    def test_repeat_collaboration_accumulates_weight(self):
        g = build_graph([paper("R1", "A", "B"), paper("R2", "A", "B")])
        assert list(g.edges()) == [("A", "B", 2)]

    def test_single_author_paper_adds_isolated_vertex(self):
        g = build_graph([paper("R1", "A")])
        assert g.vertices() == ["A"] and g.edge_count() == 0

    def test_weights_match_pair_counting_oracle(self):
        records = random_records(Random(17), n_records=10, n_authors=8)
        g = build_graph(records)
        expected = pair_cooccurrence(records)
        assert {(a, b): w for a, b, w in g.edges()} == expected

    def test_weight_sum_is_sum_of_pair_counts(self):
        records = random_records(Random(9), n_records=25)
        g = build_graph(records)
        k_choose_2 = sum(
            len(set(r.authors)) * (len(set(r.authors)) - 1) // 2 for r in records
        )
        assert sum(w for _, _, w in g.edges()) == k_choose_2

    def test_degree_sum_is_twice_edge_count(self):
        g = build_graph(random_records(Random(2), n_records=20))
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_count()

    @given(st.randoms(use_true_random=False))
    def test_record_order_does_not_matter(self, rng):
        records = random_records(Random(31), n_records=15)
        shuffled = records[:]
        rng.shuffle(shuffled)
        a, b = build_graph(records), build_graph(shuffled)
        assert a.vertices() == b.vertices()
        assert list(a.edges()) == list(b.edges())

    def test_self_loop_rejected(self):
        with pytest.raises(DataError):
            CoauthGraph.from_edges([("A", "A")])

    @pytest.mark.parametrize(
        "mapping",
        [
            {"a": {"b": 1}},  # neighbour that is not a vertex
            {"a": {"b": 1}, "b": {}},  # one-way arc to a larger key
            {"a": {}, "b": {"a": 1}},  # one-way arc to a smaller key
            {"a": {"b": 1, "c": 1}, "b": {"a": 1}, "c": {}},  # one of several
            {"a": {"b": 1}, "b": {"a": 2}},  # weight depends on direction
            {"a": {"b": 0}, "b": {"a": 0}},
            {"a": {"b": -1}, "b": {"a": -1}},
        ],
    )
    def test_malformed_mapping_rejected(self, mapping):
        with pytest.raises(DataError):
            CoauthGraph(mapping)

    @pytest.mark.parametrize("weight", [0, -2])
    def test_non_positive_edge_weight_rejected(self, weight):
        with pytest.raises(DataError):
            CoauthGraph.from_edges([("a", "b", weight)])

    def test_induced_unknown_vertex_rejected(self):
        with pytest.raises(DataError):
            path_graph(3).induced({"nope"})


class TestConnectedComponents:
    def test_two_disjoint_edges(self):
        g = CoauthGraph.from_edges([("A", "B"), ("C", "D")])
        parts = connected_components(g)
        assert sorted(parts.sizes.values()) == [2, 2]

    def test_empty_graph(self):
        parts = connected_components(CoauthGraph({}))
        assert parts.assignment == {} and parts.sizes == {}

    def test_ids_ordered_by_size_then_min_key(self):
        g = CoauthGraph.from_edges([("A", "B"), ("C", "D"), ("E", "F"), ("E", "G")])
        parts = connected_components(g)
        assert parts.sizes[0] == 3  # E-F-G is largest
        assert parts.assignment["E"] == 0
        # ties between {A,B} and {C,D} broken by smallest member key
        assert parts.assignment["A"] == 1 and parts.assignment["C"] == 2

    def test_matches_label_propagation_oracle(self):
        for seed in range(20):
            g = random_graph(Random(seed), min_n=5, max_n=30)
            parts = connected_components(g)
            labels = label_propagation_components(g)
            for u in g.vertices():
                for v in g.vertices():
                    assert (labels[u] == labels[v]) == (
                        parts.assignment[u] == parts.assignment[v]
                    )

    def test_partition_sizes_sum_to_vertex_count(self):
        g = random_graph(Random(4), max_n=20)
        parts = connected_components(g)
        assert sum(parts.sizes.values()) == len(g)


class TestLargestComponent:
    def test_connected_graph_is_whole(self):
        g = path_graph(5)
        sub, ratio = largest_component(g)
        assert ratio == 1.0 and sub.vertices() == g.vertices()

    def test_triangle_plus_isolates(self):
        g = CoauthGraph.from_edges(
            [("A", "B"), ("B", "C"), ("A", "C")],
            vertices=[f"I{i}" for i in range(7)],
        )
        sub, ratio = largest_component(g)
        assert len(sub) == 3 and ratio == pytest.approx(0.3)

    def test_size_agrees_with_partition(self):
        g = random_graph(Random(8), max_n=25)
        sub, _ = largest_component(g)
        assert len(sub) == connected_components(g).sizes[0]

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            largest_component(CoauthGraph({}))


class TestShortestPaths:
    def test_path_distances(self):
        g = CoauthGraph.from_edges([("a", "b"), ("b", "c")])
        assert shortest_path_lengths(g, "a") == {"a": 0, "b": 1, "c": 2}

    def test_unreachable_vertices_absent(self):
        g = CoauthGraph.from_edges([("a", "b"), ("c", "d")])
        assert set(shortest_path_lengths(g, "a")) == {"a", "b"}

    def test_unknown_source_rejected(self):
        with pytest.raises(DataError):
            shortest_path_lengths(path_graph(3), "nope")

    def test_matches_floyd_warshall_rows(self):
        for seed in range(15):
            g = random_graph(Random(100 + seed), max_n=12)
            fw = floyd_warshall(g)
            for v in g.vertices():
                bfs = shortest_path_lengths(g, v)
                for u in g.vertices():
                    if u in bfs:
                        assert bfs[u] == fw[v][u]
                    else:
                        assert fw[v][u] == float("inf")


class TestMeanDistance:
    def test_complete_graph_is_one(self):
        assert mean_distance(complete_graph(4)) == 1.0

    def test_path_three(self):
        assert mean_distance(path_graph(3)) == pytest.approx(4 / 3)

    def test_path_closed_form(self):
        for n in range(2, 9):
            assert mean_distance(path_graph(n)) == pytest.approx((n + 1) / 3)

    def test_matches_floyd_warshall_mean(self):
        checked = 0
        for seed in range(15):
            g = random_graph(Random(200 + seed), min_n=4, max_n=12)
            if connected_components(g).sizes[0] < 2:
                continue
            assert mean_distance(g) == pytest.approx(mean_distance_oracle(g), abs=1e-12)
            checked += 1
        assert checked >= 10

    def test_single_vertex_component_rejected(self):
        with pytest.raises(DataError):
            mean_distance(CoauthGraph({"A": {}}))


class TestClusteringCoefficient:
    def test_triangle(self):
        g = CoauthGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert clustering_coefficient(g) == 1.0

    def test_path_is_zero(self):
        assert clustering_coefficient(path_graph(3)) == 0.0

    def test_complete_graphs_are_one(self):
        for n in range(3, 7):
            assert clustering_coefficient(complete_graph(n)) == 1.0

    def test_no_eligible_vertex_gives_zero(self):
        assert clustering_coefficient(CoauthGraph.from_edges([("a", "b")])) == 0.0

    def test_matches_triangle_counting_oracle(self):
        for seed in range(20):
            g = random_graph(Random(300 + seed), min_n=4, max_n=15)
            assert clustering_coefficient(g) == pytest.approx(
                clustering_oracle(g), abs=1e-12
            )


class TestSummaryStats:
    def test_one_two_author_paper(self):
        records = [paper("R1", "A", "B")]
        stats = summary_stats(build_graph(records))
        assert stats.papers == 1 and stats.authors == 2
        assert stats.papers_per_author == 1.0
        assert stats.authors_per_paper == 2.0
        assert stats.avg_collaborators == 1.0
        assert stats.largest_component_ratio == 1.0
        assert stats.mean_distance == 1.0

    def test_mixed_small_corpus(self):
        records = [paper("R1", "A", "B"), paper("R2", "A")]
        stats = summary_stats(build_graph(records))
        assert stats.authors_per_paper == 1.5
        assert stats.papers_per_author == 1.5
        assert stats.avg_collaborators == 1.0

    def test_zero_papers_rejected(self):
        with pytest.raises(DataError):
            summary_stats(CoauthGraph({}))

    def test_matches_independent_tally(self):
        records = random_records(Random(13), n_records=20, n_authors=10)
        g = build_graph(records)
        stats = summary_stats(g)
        incidences = sum(len(set(r.authors)) for r in records)
        authors = len({a for r in records for a in r.authors})
        assert stats.papers == 20
        assert stats.authors == authors
        assert stats.papers_per_author == pytest.approx(incidences / authors)
        assert stats.authors_per_paper == pytest.approx(incidences / 20)
        degrees = [len({b for s in records if v in s.authors for b in s.authors} - {v}) for v in sorted({a for r in records for a in r.authors})]
        assert stats.avg_collaborators == pytest.approx(sum(degrees) / authors)
        assert stats.mean_distance == pytest.approx(mean_distance_oracle(g), abs=1e-12)
        assert stats.clustering_coefficient == pytest.approx(clustering_oracle(g), abs=1e-12)


class TestExports:
    def test_edge_list_sorted_and_stable(self):
        records = random_records(Random(21), n_records=15)
        g = build_graph(records)
        text = render_edge_list(g)
        assert text == render_edge_list(build_graph(records))
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            a, b, w = line.split("\t")
            assert a < b and int(w) >= 1

    def test_isolated_vertices_listed(self):
        g = build_graph([paper("R1", "A", "B"), paper("R2", "Z")])
        assert render_isolated_vertices(g) == "Z\n"
