from __future__ import annotations

import time
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
    summary_stats,
)
from coauthnet import graph as graph_module
from coauthnet.graph import _bfs, render_edge_list, render_isolated_vertices
from oracles import (
    adjacency,
    clustering_oracle,
    floyd_warshall,
    from_edges,
    label_propagation_components,
    mean_distance_oracle,
    pair_cooccurrence,
    positions,
    random_coauthor_graph,
    random_graph,
    random_records,
    stored_form,
)


def paper(rid: str, *authors: str, year: int = 2000) -> BiblioRecord:
    return BiblioRecord(rid, tuple(authors), year, "Article", 0, "J")


def path_graph(n: int) -> CoauthGraph:
    verts = [f"P{i:02d}" for i in range(n)]
    return from_edges(zip(verts, verts[1:]))


def complete_graph(n: int) -> CoauthGraph:
    verts = [f"K{i:02d}" for i in range(n)]
    return from_edges(combinations(verts, 2))


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
        assert sum(map(len, adjacency(g).values())) == 2 * g.edge_count()

    @given(st.randoms(use_true_random=False))
    def test_record_order_does_not_matter(self, rng):
        records = random_records(Random(31), n_records=15)
        shuffled = records[:]
        rng.shuffle(shuffled)
        a, b = build_graph(records), build_graph(shuffled)
        assert a.vertices() == b.vertices()
        assert list(a.edges()) == list(b.edges())

    @pytest.mark.parametrize("seed", range(7))
    def test_stored_form_equals_constructor_on_pair_counts(self, seed):
        rng = Random(500 + seed)
        # the last input numbers its authors past the small-int cache, and
        # about one in ten of its pairs recurs in another record
        n_records, n_authors = (rng.randint(1, 60), rng.randint(1, 20)) if seed < 6 else (4000, 300)
        records = random_records(rng, n_records=n_records, n_authors=n_authors)
        records += [paper("RDUP", "AUTH00, X", "DUP, Y", "AUTH00, X"), paper("RSOLO", "SOLO, Z")]
        mapping: dict[str, dict[str, int]] = {v: {} for r in records for v in r.authors}
        for (a, b), w in pair_cooccurrence(records).items():
            mapping[a][b] = mapping[b][a] = w
        expected = CoauthGraph(mapping, paper_count=len(records),
                               authorship_count=sum(len(set(r.authors)) for r in records))
        assert stored_form(build_graph(records)) == stored_form(expected)

    def test_each_index_is_one_int_object(self):
        g = random_coauthor_graph(Random(5), (300, 40, 1))  # indices past the small-int cache
        built = build_graph([paper(f"R{k}", a, b) for k, (a, b, _) in enumerate(g.edges())])
        for graph in (g, built, largest_component(g)[0]):
            first: dict[int, int] = {}
            assert all(first.setdefault(j, j) is j for row in graph._adj for j in row)

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="edge 'A'-'A'"):
            from_edges([("A", "A")])

    @pytest.mark.parametrize(
        "mapping, match",
        [
            ({"a": {"b": 1}}, "neighbour 'b' of 'a'"),  # neighbour that is not a vertex
            ({"a": {"b": 1}, "b": {}}, "edge 'a'-'b'"),  # one-way arc to a larger key
            ({"a": {}, "b": {"a": 1}}, "edge 'b'-'a'"),  # one-way arc to a smaller key
            ({"a": {"b": 1, "c": 1}, "b": {"a": 1}, "c": {}}, "edge 'a'-'c'"),  # one of several
            ({"a": {"b": 1}, "b": {"a": 2}}, "edge 'a'-'b'"),  # weight depends on direction
            ({"a": {"b": 0}, "b": {"a": 0}}, "edge 'a'-'b'"),
            ({"a": {"b": -1}, "b": {"a": -1}}, "edge 'a'-'b'"),
        ],
        ids=[f"mapping{i}" for i in range(7)],
    )
    def test_malformed_mapping_rejected(self, mapping, match):
        with pytest.raises(DataError, match=match):
            CoauthGraph(mapping)

    @pytest.mark.parametrize("weight", [0, -2])
    def test_non_positive_edge_weight_rejected(self, weight):
        with pytest.raises(DataError, match="edge 'a'-'b'"):
            from_edges([("a", "b", weight)])


class TestTeamBound:
    def test_bound_counts_distinct_authors(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_TEAM_SIZE", 3)
        assert build_graph([paper("R1", "A", "B", "C", "A")]).edge_count() == 3
        with pytest.raises(DataError, match="record 'R2' has 4 distinct authors, more than the 3"):
            build_graph([paper("R1", "A", "B"), paper("R2", "A", "B", "C", "D")])

    def test_large_teams_rejected_before_any_pair_in_like_time(self, monkeypatch):
        """A record of k authors has k(k-1)/2 pairs; the bound is checked
        before any record's pairs are counted, so 20,000 authors are turned
        away about as fast as 2,000."""
        def no_pairs(*args):
            raise AssertionError("a pair was counted")

        monkeypatch.setattr(graph_module, "combinations", no_pairs)
        small = [paper(f"S{i}", f"X{i}", f"X{i + 1}") for i in range(5000)]

        def reject(k: int) -> float:
            records = small + [paper("BIG", *(f"A{i:05d}" for i in range(k)))]
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(DataError, match=f"record 'BIG' has {k} distinct authors"):
                    build_graph(records)
                best = min(best, time.perf_counter() - start)
            return best

        assert reject(20000) < 4 * reject(2000)


class TestConnectedComponents:
    def test_two_disjoint_edges(self):
        g = from_edges([("A", "B"), ("C", "D")])
        assert connected_components(g) == [[0, 1], [2, 3]]

    def test_empty_graph(self):
        assert connected_components(CoauthGraph({})) == []

    def test_ids_ordered_by_size_then_min_key(self):
        g = from_edges([("A", "B"), ("C", "D"), ("E", "F"), ("E", "G")])
        names = g.vertices()
        groups = [[names[v] for v in group] for group in connected_components(g)]
        assert groups[0] == ["E", "F", "G"]  # E-F-G is largest
        # ties between {A,B} and {C,D} broken by smallest member key
        assert groups[1:] == [["A", "B"], ["C", "D"]]

    def test_matches_label_propagation_oracle(self):
        graphs = [random_graph(Random(seed), min_n=5, max_n=30) for seed in range(20)]
        # many isolated vertices and small components, interleaved in key order
        graphs.append(random_coauthor_graph(Random(20), (6, 3, 3, 2, 2, 2) + (1,) * 15))
        for g in graphs:
            groups = connected_components(g)
            names = g.vertices()
            labels = label_propagation_components(g)
            component = {names[v]: cid for cid, group in enumerate(groups) for v in group}
            for u in names:
                for v in names:
                    assert (labels[u] == labels[v]) == (component[u] == component[v])
            assert all(group == sorted(group) for group in groups)
            # groups go by size, then by smallest member key, the oracle's label
            order = [(-len(group), labels[names[group[0]]]) for group in groups]
            assert order == sorted(order)

    def test_partition_sizes_sum_to_vertex_count(self):
        g = random_graph(Random(4), max_n=20)
        groups = connected_components(g)
        assert sum(map(len, groups)) == len(g)
        assert sorted(v for group in groups for v in group) == list(range(len(g)))


class TestLargestComponent:
    def test_connected_graph_is_whole(self):
        g = path_graph(5)
        sub, ratio = largest_component(g)
        assert ratio == 1.0 and sub.vertices() == g.vertices()

    def test_triangle_plus_isolates(self):
        g = from_edges(
            [("A", "B"), ("B", "C"), ("A", "C")],
            vertices=[f"I{i}" for i in range(7)],
        )
        sub, ratio = largest_component(g)
        assert len(sub) == 3 and ratio == pytest.approx(0.3)

    def test_size_agrees_with_partition(self):
        g = random_graph(Random(8), max_n=25)
        sub, _ = largest_component(g)
        assert len(sub) == len(connected_components(g)[0])

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            largest_component(CoauthGraph({}))


def bfs_distances(g: CoauthGraph, source: str) -> dict[str, int]:
    """Hop distances from source by graph._bfs; unreachable vertices are absent."""
    order, dist = _bfs(g._adj, positions(g, [source])[0])
    return {g._names[v]: dist[v] for v in order}


class TestShortestPaths:
    def test_path_distances(self):
        g = from_edges([("a", "b"), ("b", "c")])
        assert bfs_distances(g, "a") == {"a": 0, "b": 1, "c": 2}

    def test_unreachable_vertices_absent(self):
        g = from_edges([("a", "b"), ("c", "d")])
        assert set(bfs_distances(g, "a")) == {"a", "b"}

    def test_matches_floyd_warshall_rows(self):
        for seed in range(15):
            g = random_graph(Random(100 + seed), max_n=12)
            fw = floyd_warshall(g)
            for v in g.vertices():
                bfs = bfs_distances(g, v)
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
            if len(connected_components(g)[0]) < 2:
                continue
            assert mean_distance(g) == pytest.approx(mean_distance_oracle(g), abs=1e-12)
            checked += 1
        assert checked >= 10

    def test_single_vertex_component_rejected(self):
        with pytest.raises(DataError):
            mean_distance(CoauthGraph({"A": {}}))


class TestClusteringCoefficient:
    def test_triangle(self):
        g = from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert clustering_coefficient(g) == 1.0

    def test_path_is_zero(self):
        assert clustering_coefficient(path_graph(3)) == 0.0

    def test_complete_graphs_are_one(self):
        for n in range(3, 7):
            assert clustering_coefficient(complete_graph(n)) == 1.0

    def test_no_eligible_vertex_gives_zero(self):
        assert clustering_coefficient(from_edges([("a", "b")])) == 0.0

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

    def test_no_vertex_pair_gives_zero_distance(self):
        g = build_graph([paper("R1", "A"), paper("R2", "B"), paper("R3", "A")])
        stats = summary_stats(g)
        assert (stats.authors, stats.largest_component_ratio, stats.mean_distance) == (2, 0.5, 0.0)

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
