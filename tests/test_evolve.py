from __future__ import annotations

import io
import logging
from random import Random

import pytest

from coauthnet import (
    BiblioRecord,
    ConfigError,
    DataError,
    ParseError,
    build_graph,
    cumulative_slices,
    growth_series,
    largest_component,
    lis_growth_series,
    mean_distance,
    slice_report,
)
from coauthnet.evolve import parse_growth_csv, render_growth_csv, render_slice_csv
from oracles import adjacency, random_records


def paper(rid: str, year: int, *authors: str) -> BiblioRecord:
    return BiblioRecord(rid, tuple(authors), year, "Article", 0, "J")


class TestCumulativeSlices:
    def test_four_nested_slices(self):
        records = random_records(Random(1), n_records=50, years=(1988, 2007))
        slices = cumulative_slices(records, 1988, [1992, 1997, 2002, 2007])
        assert [(s.start_year, s.end_year) for s in slices] == [
            (1988, 1992),
            (1988, 1997),
            (1988, 2002),
            (1988, 2007),
        ]
        for earlier, later in zip(slices, slices[1:]):
            assert earlier.graph.paper_count <= later.graph.paper_count
            assert set(earlier.graph.vertices()) <= set(later.graph.vertices())
            later_adj = adjacency(later.graph)
            for a, b, w in earlier.graph.edges():
                assert later_adj[a].get(b, 0) >= w

    def test_single_boundary_equal_to_start(self):
        records = [paper("R1", 1990, "A"), paper("R2", 1991, "B")]
        (ts,) = cumulative_slices(records, 1990, [1990])
        assert ts.graph.paper_count == 1

    def test_counts_match_year_filter_oracle(self):
        records = random_records(Random(6), n_records=60, years=(1990, 2005))
        boundaries = [1995, 2000, 2005]
        slices = cumulative_slices(records, 1990, boundaries)
        for ts, boundary in zip(slices, boundaries):
            expected = sum(1 for r in records if 1990 <= r.year <= boundary)
            assert ts.graph.paper_count == expected

    def test_final_slice_equals_whole_corpus_graph(self):
        records = random_records(Random(10), n_records=40, years=(1988, 2000))
        slices = cumulative_slices(records, 1988, [1995, 2000])
        whole = build_graph(records)
        final = slices[-1].graph
        assert final.vertices() == whole.vertices()
        assert list(final.edges()) == list(whole.edges())

    def test_out_of_range_records_warned(self, caplog):
        records = [paper("R1", 1980, "A"), paper("R2", 1995, "B")]
        with caplog.at_level(logging.WARNING):
            slices = cumulative_slices(records, 1990, [1995])
        assert slices[0].graph.paper_count == 1
        assert "excluded 1 record(s)" in caplog.text

    def test_bad_boundaries_rejected(self):
        records = [paper("R1", 1990, "A")]
        with pytest.raises(ConfigError):
            cumulative_slices(records, 1990, [])
        with pytest.raises(ConfigError):
            cumulative_slices(records, 1990, [1995, 1995])
        with pytest.raises(ConfigError):
            cumulative_slices(records, 1990, [1985])


class TestSliceReport:
    def test_one_two_author_paper(self):
        (ts,) = cumulative_slices([paper("R1", 1990, "A", "B")], 1990, [1990])
        rep = slice_report(ts)
        assert rep.authors == 2 and rep.papers == 1
        assert rep.mean_collaborators == 1.0
        assert rep.largest_ratio == 1.0
        assert rep.largest_avg_distance == 1.0

    def test_two_disjoint_papers(self):
        records = [paper("R1", 1990, "A", "B"), paper("R2", 1990, "C", "D")]
        (ts,) = cumulative_slices(records, 1990, [1990])
        assert slice_report(ts).largest_ratio == 0.5

    def test_no_collaboration_slice_reports_zero_distance(self):
        (ts,) = cumulative_slices([paper("R1", 1990, "A")], 1990, [1990])
        rep = slice_report(ts)
        assert rep.largest_size == 1 and rep.largest_avg_distance == 0.0

    def test_fields_match_graph_core_composition(self):
        records = random_records(Random(30), n_records=30, years=(1988, 1999))
        (ts,) = cumulative_slices(records, 1988, [1999])
        rep = slice_report(ts)
        g = ts.graph
        largest, ratio = largest_component(g)
        assert rep.authors == len(g)
        assert rep.papers == len(records)
        assert rep.mean_collaborators == pytest.approx(
            sum(map(len, adjacency(g).values())) / len(g)
        )
        assert rep.largest_size == len(largest)
        assert rep.largest_ratio == pytest.approx(ratio)
        if len(largest) >= 2:
            assert rep.largest_avg_distance == pytest.approx(mean_distance(largest))

    def test_empty_slice_rejected(self):
        records = [paper("R1", 1990, "A")]
        (ts,) = cumulative_slices(records, 1991, [1991])
        with pytest.raises(DataError):
            slice_report(ts)


class TestGrowthSeries:
    def test_bundled_series_final_row(self):
        rows = lis_growth_series()
        assert rows[0] == (1988, 392, 545)
        assert rows[-1] == (2007, 10344, 10579)
        assert len(rows) == 20

    def test_no_records_gives_zeros(self):
        rows = growth_series([], 1990, 1992)
        assert rows == [(1990, 0, 0), (1991, 0, 0), (1992, 0, 0)]

    def test_matches_recount_oracle(self):
        records = random_records(Random(44), n_records=50, years=(1990, 1999))
        rows = growth_series(records, 1990, 1999)
        for year, papers, authors in rows:
            assert papers == sum(1 for r in records if r.year <= year)
            assert authors == len({a for r in records if r.year <= year for a in r.authors})

    def test_monotone_and_final_totals(self):
        records = random_records(Random(45), n_records=35, years=(1991, 1998))
        rows = growth_series(records, 1991, 1998)
        for (y1, p1, a1), (y2, p2, a2) in zip(rows, rows[1:]):
            assert y2 == y1 + 1 and p2 >= p1 and a2 >= a1
        assert rows[-1][1] == len(records)
        assert rows[-1][2] == len({a for r in records for a in r.authors})

    def test_author_first_appearance_counted_once(self):
        records = [paper("R1", 1990, "A"), paper("R2", 1992, "A", "B")]
        rows = growth_series(records, 1990, 1992)
        assert rows == [(1990, 1, 1), (1991, 1, 1), (1992, 2, 2)]

    def test_bad_year_range_rejected(self):
        with pytest.raises(DataError):
            growth_series([], 2000, 1990)


class TestSerialization:
    def test_growth_csv_round_trip(self):
        rows = lis_growth_series()
        assert parse_growth_csv(render_growth_csv(rows)) == rows

    def test_growth_csv_skips_blank_rows(self):
        text = "year,papers,authors\n1990,1,2\n\n,, \n1991,3,4\n"
        assert parse_growth_csv(text) == [(1990, 1, 2), (1991, 3, 4)]

    def test_growth_csv_drops_a_leading_byte_order_mark(self):
        text = "year,papers,authors\n1990,1,2\n1991,3,4\n"
        assert parse_growth_csv(io.StringIO("\ufeff" + text)) == parse_growth_csv(io.StringIO(text))

    @pytest.mark.parametrize("text, message", [
        ("", "header must be year,papers,authors"),
        ("year,papers\n1990,1\n", "header must be year,papers,authors"),
        ("year,papers,authors\n1990,1\n", "line 2: expected 3 columns"),
        ("year,papers,authors\n1990,1,2\n1991,3,many\n", "line 3: non-integer value"),
        ("year,papers,authors\n1990,1,2\n1989,3,4\n", "line 3: year 1989 does not follow 1990"),
        ("year,papers,authors\n1990,1,2\n\n1990,3,4\n", "line 4: year 1990 does not follow 1990"),
        ("year,papers,authors\n1990,1,2\n1991,3,4\n1995,5,6\n",
         "line 4: year 1995 does not follow 1991"),
    ], ids=["empty", "bad header", "short row", "non-integer", "out of order", "repeated", "gap"])
    def test_growth_csv_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_growth_csv(text)

    def test_slice_csv_header(self):
        records = [paper("R1", 1990, "A", "B")]
        (ts,) = cumulative_slices(records, 1990, [1990])
        text = render_slice_csv([slice_report(ts)])
        assert text.splitlines()[0] == (
            "start,end,authors,papers,mean_collaborators,"
            "largest_size,largest_ratio,largest_avg_distance"
        )
        assert text.splitlines()[1] == "1990,1990,2,1,1,2,1,1"
