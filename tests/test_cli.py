from __future__ import annotations

import csv
import hashlib
import json
import logging
from pathlib import Path

import pytest
from hypothesis import given

from coauthnet import (
    AuthorMergeMap,
    DataError,
    apply_merge_map,
    build_graph,
    degree_distribution,
    filter_documents,
    growth_series,
    largest_component,
    normalize_records,
    parse_records,
)
from coauthnet.cli import _largest_degree_rows, _write_atomic, main
from oracles import (
    clustering_oracle,
    from_edges,
    mean_distance_oracle,
    planted_graphs,
    power_fit_oracle,
    spearman_rho_oracle,
)

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture_corpus.tsv")
MERGE_MAP = str(DATA / "merge_map.csv")
GOLDEN = DATA / "golden"
SERIES = str(Path(__file__).resolve().parents[1] / "src" / "coauthnet" / "data"
             / "lis_growth_1988_2007.csv")

PATH_CORPUS = "UT\tAU\tPY\tDT\tTC\tSO\nW1\tAAA, A; BBB, B\t1990\tArticle\t5\tJ\nW2\tBBB, B; CCC, C\t1991\tArticle\t3\tJ\n"
SOLO_CORPUS = (  # no record has two authors, so no component has a vertex pair
    "UT\tAU\tPY\tDT\tTC\tSO\n"
    "W1\tAAA, A\t1990\tArticle\t5\tJ\n"
    "W2\tBBB, B\t1991\tArticle\t3\tJ\n"
    "W3\tAAA, A\t1992\tArticle\t1\tJ\n"
)
STAR_CORPUS = (
    "UT\tAU\tPY\tDT\tTC\tSO\n"
    "W1\tCORE, C; LEAF, A\t1990\tArticle\t5\tJ\n"
    "W2\tCORE, C; LEAF, B\t1991\tArticle\t4\tJ\n"
    "W3\tCORE, C; LEAF, D\t1992\tArticle\t3\tJ\n"
)


def run(*args: str) -> int:
    return main(list(args))


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_matches_golden(outdir: Path, golden_subdir: str) -> None:
    golden = GOLDEN / golden_subdir
    for gfile in sorted(golden.iterdir()):
        produced = outdir / gfile.name
        assert produced.read_bytes() == gfile.read_bytes(), f"{gfile.name} differs"


def load_fixture_records():
    records = parse_records(Path(FIXTURE).read_text(encoding="utf-8"))
    kept = normalize_records(filter_documents(records, {"Article", "Review"}))
    merge = AuthorMergeMap.from_csv(Path(MERGE_MAP).read_text(encoding="utf-8"))
    return apply_merge_map(kept, merge)


class TestStatsCommand:
    def test_golden_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert run("stats", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out)) == 0
        assert_matches_golden(out, "stats")
        assert (out / "run.json").is_file()

    def test_golden_values_match_oracles(self):
        records = load_fixture_records()
        g = build_graph(records)
        (row,) = read_rows(GOLDEN / "stats" / "summary.csv")
        assert int(row["papers"]) == len(records)
        assert int(row["authors"]) == len(g)
        incidences = sum(len(set(r.authors)) for r in records)
        assert float(row["papers_per_author"]) == pytest.approx(incidences / len(g))
        assert float(row["authors_per_paper"]) == pytest.approx(incidences / len(records))
        assert float(row["mean_distance"]) == pytest.approx(
            mean_distance_oracle(g), abs=1e-12
        )
        assert float(row["clustering_coefficient"]) == pytest.approx(
            clustering_oracle(g), abs=1e-12
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        args = ("stats", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                "--output-dir", str(out))
        assert run(*args) == 0
        snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
        assert run(*args) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == snapshot

    def test_empty_after_filter_exits_2(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            code = run("stats", "--input", FIXTURE, "--doc-types", "Patent",
                       "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "no records after filtering" in caplog.text

    def test_oversized_team_exits_2_naming_record(self, tmp_path, caplog):
        team = "; ".join(f"AUTHOR{i:04d}, X" for i in range(1001))
        corpus = tmp_path / "big.tsv"
        corpus.write_text(PATH_CORPUS + f"W3\t{team}\t1992\tArticle\t1\tJ\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            code = run("stats", "--input", str(corpus), "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "record 'W3' has 1001 distinct authors" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [".", ","])
    def test_author_without_content_exits_2_naming_record(self, tmp_path, caplog, name):
        corpus = tmp_path / "nameless.tsv"
        corpus.write_text(PATH_CORPUS + f"W3\tCCC, C; {name}\t1992\tArticle\t1\tJ\n"
                          f"W4\t{name}\t1993\tArticle\t1\tJ\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            code = run("stats", "--input", str(corpus), "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"record 'W3': author name {name!r} has no usable content" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_no_vertex_pair_reports_zero_distance(self, tmp_path):
        corpus = tmp_path / "solo.tsv"
        corpus.write_text(SOLO_CORPUS, encoding="utf-8")
        out = tmp_path / "out"
        assert run("stats", "--input", str(corpus), "--output-dir", str(out)) == 0
        (row,) = read_rows(out / "summary.csv")
        assert (row["papers"], row["authors"]) == ("3", "2")
        assert float(row["largest_component_ratio"]) == 0.5
        assert float(row["mean_distance"]) == 0.0
        assert (out / "edges.tsv").read_text(encoding="utf-8") == ""

    def test_input_file_not_mutated(self, tmp_path):
        before = hashlib.sha256(Path(FIXTURE).read_bytes()).hexdigest()
        run("stats", "--input", FIXTURE, "--output-dir", str(tmp_path / "out"))
        assert hashlib.sha256(Path(FIXTURE).read_bytes()).hexdigest() == before


class TestCentralityCommand:
    def test_path_corpus_trivial_values(self, tmp_path):
        corpus = tmp_path / "path.tsv"
        corpus.write_text(PATH_CORPUS, encoding="utf-8")
        out = tmp_path / "out"
        assert run("centrality", "--input", str(corpus), "--output-dir", str(out)) == 0
        closeness = {r["author"]: float(r["score"]) for r in read_rows(out / "closeness.csv")}
        assert closeness == {"AAA, A": 1.5, "BBB, B": 2.0, "CCC, C": 1.5}
        betweenness = {r["author"]: float(r["score"]) for r in read_rows(out / "betweenness.csv")}
        assert betweenness == {"AAA, A": 0.0, "BBB, B": 1.0, "CCC, C": 0.0}

    def test_star_corpus_pagerank_derived_values(self, tmp_path):
        corpus = tmp_path / "star.tsv"
        corpus.write_text(STAR_CORPUS, encoding="utf-8")
        out = tmp_path / "out"
        assert run("centrality", "--input", str(corpus), "--output-dir", str(out),
                   "--damping", "0.85") == 0
        scores = {r["author"]: float(r["score"]) for r in read_rows(out / "pagerank.csv")}
        center = 0.133125 / 0.2775
        assert scores["CORE, C"] == pytest.approx(center, abs=1e-6)
        for leaf in ("LEAF, A", "LEAF, B", "LEAF, D"):
            assert scores[leaf] == pytest.approx(0.0375 + 0.85 / 3 * center, abs=1e-6)

    def test_golden_bytes_and_rank_order(self, tmp_path):
        out = tmp_path / "out"
        assert run("centrality", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out), "--top-n", "10") == 0
        assert_matches_golden(out, "centrality")
        for measure in ("degree", "closeness", "betweenness", "pagerank"):
            scores = {r["author"]: float(r["score"]) for r in read_rows(out / f"{measure}.csv")}
            rows = read_rows(out / f"top_{measure}.csv")
            expected = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[: len(rows)]
            assert [(r["author"], float(r["score"])) for r in rows] == [
                (a, float(f"{s:.17g}")) for a, s in expected
            ]
            assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))

    def test_whole_graph_flag_covers_all_authors(self, tmp_path):
        out = tmp_path / "out"
        assert run("centrality", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out), "--whole-graph") == 0
        records = load_fixture_records()
        assert len(read_rows(out / "degree.csv")) == len(build_graph(records))

    def test_histogram_bins_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run("centrality", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out), "--histogram-bins", "5") == 0
        for measure in ("degree", "closeness", "betweenness", "pagerank"):
            rows = read_rows(out / f"hist_{measure}.csv")
            assert sum(int(r["count"]) for r in rows) == 20  # largest component size

    def test_top_n_beyond_sys_maxsize_ranks_every_author(self, tmp_path):
        huge, lcc = tmp_path / "huge", tmp_path / "lcc"
        assert run("centrality", "--input", FIXTURE, "--top-n", "99999999999999999999",
                   "--output-dir", str(huge)) == 0
        # 21 authors: the largest component without the merge map
        assert run("centrality", "--input", FIXTURE, "--top-n", "21",
                   "--output-dir", str(lcc)) == 0
        for measure in ("degree", "closeness", "betweenness", "pagerank"):
            name = f"top_{measure}.csv"
            assert (huge / name).read_bytes() == (lcc / name).read_bytes()
            assert len(read_rows(huge / name)) == len(read_rows(huge / f"{measure}.csv")) == 21

    def test_convergence_failure_exits_3(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            code = run("centrality", "--input", FIXTURE, "--output-dir",
                       str(tmp_path / "out"), "--max-iter", "1", "--tol", "1e-15")
        assert code == 3
        assert "did not converge" in caplog.text
        assert not (tmp_path / "out").exists()


class TestEvolveCommand:
    def test_golden_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert run("evolve", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out), "--start-year", "1988",
                   "--slices", "1992,1997,2002,2007") == 0
        assert_matches_golden(out, "evolve")

    def test_golden_growth_matches_library(self):
        records = load_fixture_records()
        rows = read_rows(GOLDEN / "evolve" / "growth.csv")
        expected = growth_series(records, 1988, 2007)
        assert [(int(r["year"]), int(r["papers"]), int(r["authors"])) for r in rows] == expected

    def test_single_year_corpus_single_slice(self, tmp_path):
        corpus = tmp_path / "one.tsv"
        corpus.write_text(
            "UT\tAU\tPY\tDT\tTC\tSO\nW1\tAAA, A; BBB, B\t1999\tArticle\t5\tJ\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("evolve", "--input", str(corpus), "--output-dir", str(out),
                   "--slices", "1999") == 0
        rows = read_rows(out / "slices.csv")
        assert len(rows) == 1
        assert rows[0]["start"] == "1999" and rows[0]["end"] == "1999"

    def test_missing_slices_is_config_error(self, tmp_path):
        assert run("evolve", "--input", FIXTURE,
                   "--output-dir", str(tmp_path / "out")) == 1


class TestCorrelateCommand:
    def test_golden_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert run("correlate", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out)) == 0
        assert_matches_golden(out, "correlate")

    def test_counts_past_float_range_write_the_goldens(self, tmp_path):
        # every TC times 10**400: each author's total keeps its order, and both
        # rank statistics read only order, so the three files keep their bytes
        lines = Path(FIXTURE).read_text(encoding="utf-8").splitlines()
        tc = lines[0].split("\t").index("TC")
        scaled = [lines[0]]
        for line in lines[1:]:
            cells = line.split("\t")
            cells[tc] = str(int(cells[tc]) * 10**400)
            scaled.append("\t".join(cells))
        corpus = tmp_path / "huge.tsv"
        corpus.write_text("\n".join(scaled) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("correlate", "--input", str(corpus), "--merge-map", MERGE_MAP,
                   "--output-dir", str(out)) == 0
        assert_matches_golden(out, "correlate")

    def test_golden_matrix_matches_pairwise_oracle(self):
        from coauthnet import (
            author_citations,
            betweenness_centrality,
            closeness_centrality,
            degree_centrality,
            pagerank,
        )

        records = load_fixture_records()
        g, _ = largest_component(build_graph(records))
        citations = author_citations(records)
        vertices = g.vertices()
        series = {
            "citations": [float(citations.get(v, 0)) for v in vertices],
            "closeness": [closeness_centrality(g).scores[v] for v in vertices],
            "betweenness": [betweenness_centrality(g).scores[v] for v in vertices],
            "degree": [float(degree_centrality(g).scores[v]) for v in vertices],
            "pagerank": [pagerank(g).scores[v] for v in vertices],
        }
        rows = read_rows(GOLDEN / "correlate" / "correlation.csv")
        for row in rows:
            a = row["series"]
            for b in series:
                expected = 1.0 if a == b else spearman_rho_oracle(series[a], series[b])
                assert float(row[b]) == pytest.approx(expected, abs=1e-12)

    def test_monotone_citations_give_perfect_rho(self, tmp_path):
        # citations = strictly increasing transform of degree: rho must be 1
        corpus = tmp_path / "mono.tsv"
        lines = ["UT\tAU\tPY\tDT\tTC\tSO"]
        # K4 minus an edge: degrees 3,3,2,2 within one component
        teams = [("A1", "A2"), ("A1", "A3"), ("A1", "A4"), ("A2", "A3"), ("A2", "A4")]
        for i, (a, b) in enumerate(teams):
            lines.append(f"W{i}\t{a}, X; {b}, X\t1990\tArticle\t0\tJ")
        # one extra single-author paper per author sets TC = 10 * degree
        degrees = {"A1": 3, "A2": 3, "A3": 2, "A4": 2}
        for j, (author, deg) in enumerate(sorted(degrees.items())):
            lines.append(f"S{j}\t{author}, X\t1991\tArticle\t{10 * deg}\tJ")
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("correlate", "--input", str(corpus), "--output-dir", str(out)) == 0
        rows = {r["series"]: r for r in read_rows(out / "correlation.csv")}
        assert float(rows["citations"]["degree"]) == 1.0

    def test_two_author_component_exits_2(self, tmp_path, caplog):
        corpus = tmp_path / "tiny.tsv"
        corpus.write_text(
            "UT\tAU\tPY\tDT\tTC\tSO\nW1\tAAA, A; BBB, B\t1990\tArticle\t5\tJ\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.ERROR):
            code = run("correlate", "--input", str(corpus),
                       "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "spearman needs n >= 3" in caplog.text


    def test_zero_rank_variance_exits_2_and_writes_nothing(self, tmp_path, caplog):
        # the largest component is a 4-clique from one paper: its authors
        # share their citations and their score under every measure
        corpus = tmp_path / "clique.tsv"
        corpus.write_text(
            "UT\tAU\tPY\tDT\tTC\tSO\n"
            "W1\tAAA, A; BBB, B; CCC, C; DDD, D\t1990\tArticle\t5\tJ\n"
            "W2\tEEE, E\t1991\tArticle\t3\tJ\n"
            "W3\tFFF, F\t1992\tArticle\t1\tJ\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR):
            code = run("correlate", "--input", str(corpus), "--output-dir", str(out))
        assert code == 2
        assert ("pair (citations, closeness): correlation undefined: "
                "a series has zero rank variance") in caplog.text
        assert not out.exists()


class TestFitCommand:
    def test_golden_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out)) == 0
        assert_matches_golden(out, "fit")

    def test_golden_fits_match_oracle(self):
        records = load_fixture_records()
        rows = {r["series"]: r for r in read_rows(GOLDEN / "fit" / "fits.csv")}
        growth = growth_series(records, 1988, 2007)
        for name, column in (("papers", 1), ("authors", 2)):
            points = [(t, row[column]) for t, row in enumerate(growth, start=1)]
            coef, expo, r2 = power_fit_oracle(points)
            assert float(rows[name]["coefficient"]) == pytest.approx(coef, rel=1e-9)
            assert float(rows[name]["exponent"]) == pytest.approx(expo, rel=1e-9)
            assert float(rows[name]["r_squared"]) == pytest.approx(r2, abs=1e-9)
        assert "degree_distribution" in rows

    def test_bundled_series_reproduces_published_fits(self, tmp_path):
        from importlib import resources

        series_path = resources.files("coauthnet") / "data" / "lis_growth_1988_2007.csv"
        out = tmp_path / "out"
        assert run("fit", "--series", str(series_path), "--output-dir", str(out)) == 0
        rows = {r["series"]: r for r in read_rows(out / "fits.csv")}
        assert float(rows["papers"]["coefficient"]) == pytest.approx(363.95, rel=0.05)
        assert float(rows["papers"]["exponent"]) == pytest.approx(1.08, abs=0.02)
        assert float(rows["papers"]["r_squared"]) >= 0.995
        assert float(rows["authors"]["coefficient"]) == pytest.approx(492.00, rel=0.05)
        assert float(rows["authors"]["exponent"]) == pytest.approx(0.98, abs=0.02)
        assert float(rows["authors"]["r_squared"]) >= 0.99
        assert "degree_distribution" not in rows  # series mode has no corpus
        assert {p.name for p in out.iterdir()} == {"fits.csv", "run.json"}
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert (manifest["input_path"], manifest["series_path"]) == (None, str(series_path))

    def test_exact_power_growth_corpus_gives_r2_one(self, tmp_path):
        # cumulative papers and authors both equal t^2: year t adds 2t-1
        # papers and 2t-1 first-time authors (one clique paper for degree
        # variety, the rest single-author)
        lines = ["UT\tAU\tPY\tDT\tTC\tSO"]
        counter = 0
        first_author = None

        def new_author() -> str:
            nonlocal counter, first_author
            name = f"NEW{counter:03d}, X"
            counter += 1
            if first_author is None:
                first_author = name
            return name

        rid = 0

        def emit(team: list[str], year: int) -> None:
            nonlocal rid
            lines.append(f"W{rid:03d}\t{'; '.join(team)}\t{year}\tArticle\t1\tJ")
            rid += 1

        for t in range(1, 7):
            year = 1989 + t
            if t == 1:
                emit([new_author()], year)
                continue
            emit([new_author() for _ in range(t + 1)], year)  # clique, degree t
            for _ in range(2 * t - 1 - (t + 1)):
                emit([new_author()], year)
            for _ in range(t):  # repeat papers by a veteran, no new author
                emit([first_author], year)
        corpus = tmp_path / "square.tsv"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("fit", "--input", str(corpus), "--output-dir", str(out),
                   "--whole-graph") == 0
        rows = {r["series"]: r for r in read_rows(out / "fits.csv")}
        for name in ("papers", "authors"):
            assert float(rows[name]["coefficient"]) == pytest.approx(1.0, abs=1e-9)
            assert float(rows[name]["exponent"]) == pytest.approx(2.0, abs=1e-9)
            assert float(rows[name]["r_squared"]) == pytest.approx(1.0, abs=1e-12)


def degree_rows_or_error(rows_of, g):
    try:
        return rows_of(g)
    except DataError as exc:
        return str(exc)


def copied_largest_degree_rows(g):
    return degree_distribution(largest_component(g)[0])


class TestFitLargestDegrees:
    """fit reads the largest component's degrees off the whole graph's rows;
    they equal the degree distribution of the induced copy."""

    def test_fixture(self):
        g = build_graph(load_fixture_records())
        assert len(largest_component(g)[0]) < len(g)  # the fixture has several components
        assert _largest_degree_rows(g) == copied_largest_degree_rows(g)

    def test_size_tie_takes_the_smallest_key(self):
        # a pair with the smallest key, then a path and a triangle of 3; the triangle wins
        g = from_edges([("A", "B"), ("P", "Q"), ("Q", "R"), ("K", "L"), ("L", "M"), ("K", "M")])
        assert _largest_degree_rows(g) == copied_largest_degree_rows(g) == [(2, 1.0)]

    @given(planted_graphs())
    def test_planted_graphs(self, g):
        assert (degree_rows_or_error(_largest_degree_rows, g)
                == degree_rows_or_error(copied_largest_degree_rows, g))

    def test_restriction_is_logged_once(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO):
            assert run("fit", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                       "--output-dir", str(tmp_path / "o")) == 0
        g = build_graph(load_fixture_records())
        lcc, ratio = largest_component(g)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("restricted to largest component")]
        assert lines == [f"restricted to largest component: {len(lcc)} of {len(g)} "
                         f"author(s) ({100.0 * ratio:.2f}%)"]

    def test_single_author_corpus_exits_2(self, tmp_path, caplog):
        corpus = tmp_path / "solo.tsv"
        corpus.write_text(SOLO_CORPUS, encoding="utf-8")
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("fit", "--input", str(corpus), "--output-dir", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["degree_distribution: every vertex is isolated"]
        assert not out.exists()


class TestCliPlumbing:
    def test_unknown_flag_exits_1(self, tmp_path):
        for flag in (["--bogus"], ["--workers", "2"]):  # --workers was removed
            assert run("stats", "--input", FIXTURE, "--output-dir",
                       str(tmp_path / "o"), *flag) == 1

    def test_missing_input_file_exits_1(self, tmp_path):
        assert run("stats", "--input", str(tmp_path / "nope.tsv"),
                   "--output-dir", str(tmp_path / "o")) == 1

    def test_bad_damping_exits_1(self, tmp_path):
        assert run("centrality", "--input", FIXTURE, "--output-dir",
                   str(tmp_path / "o"), "--damping", "1.5") == 1

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("UT\tAU\tPY\tDT\tTC\tSO\nW1\tA, X\tnineteen\tArticle\t1\tJ\n",
                       encoding="utf-8")
        assert run("stats", "--input", str(bad),
                   "--output-dir", str(tmp_path / "o")) == 2

    def test_manifest_records_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        run("evolve", "--input", FIXTURE, "--merge-map", MERGE_MAP,
            "--output-dir", str(out), "--slices", "1997,2007")
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "evolve"
        assert manifest["slice_boundaries"] == [1997, 2007]
        assert manifest["start_year"] == 1988  # resolved from the corpus
        assert manifest["doc_types"] == ["Article", "Review"]

    @pytest.mark.parametrize("command, flag, what, code, bom", [
        ("stats", "--input", "input file", 2, b""),
        ("stats", "--merge-map", "merge map", 1, b""),
        ("fit", "--series", "series file", 2, b""),
        ("stats", "--input", "input file", 2, b"\xef\xbb\xbf"),
    ], ids=["input", "merge-map", "series", "input with BOM"])
    def test_non_utf8_file_names_file_and_offset(self, tmp_path, caplog, command, flag, what,
                                                 code, bom):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(bom + b"UT\tAU\n\xff")
        # fit --series reads no corpus; with flag == "--input" the second --input wins
        corpus = () if flag == "--series" else ("--input", FIXTURE)
        with caplog.at_level(logging.ERROR):
            assert run(command, *corpus, flag, str(bad),
                       "--output-dir", str(tmp_path / "o")) == code
        # the offset counts from the file's first byte, a BOM included
        assert f"{what} {bad}: not valid UTF-8 at byte offset {6 + len(bom)}" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_merge_map_with_bom_applies_its_first_pair(self, tmp_path):
        corpus, merge_map = tmp_path / "path.tsv", tmp_path / "merge.csv"
        corpus.write_text(PATH_CORPUS, encoding="utf-8")
        merge_map.write_text('\ufeff"AAA, A","CCC, C"\n', encoding="utf-8")
        out = tmp_path / "o"
        assert run("stats", "--input", str(corpus), "--merge-map", str(merge_map),
                   "--output-dir", str(out)) == 0
        assert (out / "edges.tsv").read_text(encoding="utf-8") == "BBB, B\tCCC, C\t2\n"

    def test_series_with_bom_fits_as_without(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text("\ufeff" + Path(SERIES).read_text(encoding="utf-8"), encoding="utf-8")
        assert run("fit", "--series", str(series), "--output-dir", str(tmp_path / "bom")) == 0
        assert run("fit", "--series", SERIES, "--output-dir", str(tmp_path / "plain")) == 0
        assert ((tmp_path / "bom" / "fits.csv").read_bytes()
                == (tmp_path / "plain" / "fits.csv").read_bytes())

    def test_series_with_a_year_out_of_sequence_exits_2_naming_line(self, tmp_path, caplog):
        series = tmp_path / "series.csv"
        series.write_text("year,papers,authors\n1988,10,12\n1995,20,25\n1990,30,33\n",
                          encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            assert run("fit", "--series", str(series), "--output-dir", str(tmp_path / "o")) == 2
        assert "growth series line 3: year 1995 does not follow 1988" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_merge_map_name_without_content_exits_1_naming_line(self, tmp_path, caplog):
        merge_map = tmp_path / "merge.csv"
        merge_map.write_text('# variants\n"Meho, L","Meho, LI"\n". ,","Yang, K"\n',
                             encoding="utf-8")
        with caplog.at_level(logging.ERROR):
            assert run("stats", "--input", FIXTURE, "--merge-map", str(merge_map),
                       "--output-dir", str(tmp_path / "o")) == 1
        assert "merge map line 3: author name '. ,' has no usable content" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (("centrality", "--input", FIXTURE, "--tol", "nan"), "--tol must be positive, got nan"),
        (("centrality", "--input", FIXTURE, "--tol", "inf"), "--tol must be finite, got inf"),
        (("centrality", "--input", FIXTURE, "--max-iter", "0"), "--max-iter must be >= 1, got 0"),
        (("centrality", "--input", FIXTURE, "--top-n", "0"), "--top-n must be >= 1, got 0"),
        (("centrality", "--input", FIXTURE, "--histogram-bins", "0"),
         "--histogram-bins must be >= 1, got 0"),
        (("centrality", "--input", FIXTURE, "--histogram-bins", "10001"),
         "--histogram-bins must be <= 10000, got 10001"),
        (("stats", "--input", FIXTURE, "--doc-types", ","),
         "--doc-types must name at least one document type"),
        (("stats",), "--input is required for this command"),
        (("evolve", "--input", FIXTURE, "--slices", "1997,2oo7"),
         "argument --slices: expected comma-separated integers, got '1997,2oo7'"),
        (("evolve", "--input", FIXTURE, "--start-year=-400000", "--slices", "1995,2007"),
         "--start-year must lie in [1900, 2100], got -400000"),
        (("evolve", "--input", FIXTURE, "--start-year", "1899", "--slices", "1995,2007"),
         "--start-year must lie in [1900, 2100], got 1899"),
        (("fit", "--input", FIXTURE, "--start-year=-20000"),
         "--start-year must lie in [1900, 2100], got -20000"),
        (("fit", "--input", FIXTURE, "--start-year", "2101"),
         "--start-year must lie in [1900, 2100], got 2101"),
        (("evolve", "--input", FIXTURE, "--slices", "2007,1997"),
         "--slices must be strictly increasing, got 2007,1997"),
        (("evolve", "--input", FIXTURE, "--slices", "1997,1997"),
         "--slices must be strictly increasing, got 1997,1997"),
        (("evolve", "--input", FIXTURE), "--slices is required for evolve"),
        (("evolve", "--input", FIXTURE, "--slices", "1899,2007"),
         "--slices boundary 1899 must lie in [1900, 2100]"),
        (("evolve", "--input", FIXTURE, "--slices", "1991,99999999999999999999"),
         "--slices boundary 99999999999999999999 must lie in [1900, 2100]"),
        (("correlate", "--input", FIXTURE, "--output-dir", FIXTURE),
         f"--output-dir {FIXTURE}: {FIXTURE} is not a directory"),
        (("stats", "--input", FIXTURE, "--output-dir", f"{FIXTURE}/sub/dir"),
         f"--output-dir {FIXTURE}/sub/dir: {FIXTURE} is not a directory"),
        (("stats", "--input", str(DATA)), f"input file {DATA} is not a file"),
    ], ids=["--tol nan", "--tol inf", "--max-iter 0", "--top-n 0", "--histogram-bins 0",
            "--histogram-bins 10001", "--doc-types ,", "no --input", "--slices 1997,2oo7",
            "evolve --start-year -400000", "evolve --start-year 1899",
            "fit --start-year -20000", "fit --start-year 2101", "--slices 2007,1997",
            "--slices 1997,1997", "no --slices", "--slices 1899,2007",
            "--slices 1991,99999999999999999999", "--output-dir a file",
            "--output-dir under a file", "--input a directory"])
    def test_bad_value_exits_1_before_loading_corpus(self, tmp_path, caplog, argv, message):
        out = tmp_path / "o"
        command, *flags = argv  # a later --output-dir in flags overrides out
        with caplog.at_level(logging.INFO):
            assert run(command, "--output-dir", str(out), *flags) == 1
        assert message in caplog.text
        assert "parsed" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("argv, allowed", [
        (("fit", "--start-year", "1900"), "[1988, 2005]"),
        (("fit", "--start-year", "2007"), "[1988, 2005]"),
        (("evolve", "--start-year", "2100", "--slices", "2100"), "[1900, 2007]"),
        (("evolve", "--start-year", "2008", "--slices", "2008"), "[1900, 2007]"),
    ], ids=" ".join)
    def test_start_year_outside_corpus_exits_1(self, tmp_path, caplog, argv, allowed):
        command, *flags = argv
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run(command, "--input", FIXTURE, *flags, "--output-dir", str(out)) == 1
        assert (f"--start-year must lie in {allowed} for {command} on a corpus of years "
                f"1988-2007, got {flags[1]}") in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flags, boundary, start", [
        (("--slices", "1980,2007"), 1980, 1988),
        (("--start-year", "1995", "--slices", "1992,2007"), 1992, 1995),
    ], ids=["corpus start", "--start-year"])
    def test_slice_before_start_year_exits_1(self, tmp_path, caplog, flags, boundary, start):
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("evolve", "--input", FIXTURE, *flags, "--output-dir", str(out)) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"--slices boundary {boundary} is before the start year {start}"]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [(), ("--start-year", "1990")], ids=["no flag", "--start-year"])
    def test_fit_on_fewer_than_3_years_exits_2(self, tmp_path, caplog, flags):
        corpus = tmp_path / "two_years.tsv"
        corpus.write_text(PATH_CORPUS, encoding="utf-8")
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("fit", "--input", str(corpus), *flags, "--output-dir", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["fit needs a corpus of at least 3 years to fit growth, got years 1990-1991"]
        assert not out.exists()

    def test_empty_slice_exits_2_naming_its_years(self, tmp_path, caplog):
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("evolve", "--input", FIXTURE, "--start-year", "1900",
                       "--slices", "1901,2007", "--output-dir", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["slice_report: slice 1900-1901 is empty"]
        assert not out.exists()

    def test_fit_on_a_one_edge_largest_component_exits_2_naming_the_series(self, tmp_path,
                                                                          caplog):
        corpus = tmp_path / "one_edge.tsv"
        corpus.write_text("UT\tAU\tPY\tDT\tTC\tSO\n"
                          "W1\tAAA, A; BBB, B\t1990\tArticle\t5\tJ\n"
                          "W2\tCCC, C\t1991\tArticle\t3\tJ\n"
                          "W3\tDDD, D\t1992\tArticle\t1\tJ\n", encoding="utf-8")
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("fit", "--input", str(corpus), "--output-dir", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["degree_distribution: power_fit needs >= 3 points, got 1"]
        assert not out.exists()

    def test_series_with_a_zero_count_exits_2_naming_the_series(self, tmp_path, caplog):
        series = tmp_path / "series.csv"
        series.write_text("year,papers,authors\n1988,1,1\n1989,2,2\n1990,3,0\n",
                          encoding="utf-8")
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("fit", "--series", str(series), "--output-dir", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["authors: power_fit needs positive coordinates, got (3, 0)"]
        assert not out.exists()

    def test_start_year_before_corpus_still_slices(self, tmp_path):
        out = tmp_path / "o"
        assert run("evolve", "--input", FIXTURE, "--start-year", "1900", "--slices", "1995,2007",
                   "--output-dir", str(out)) == 0
        assert read_rows(out / "growth.csv")[0] == {"year": "1900", "papers": "0", "authors": "0"}

    @pytest.mark.parametrize("flags", [
        ("--input", FIXTURE),
        ("--merge-map", MERGE_MAP),
        ("--doc-types", "Article"),
        ("--start-year", "2000"),
        ("--whole-graph",),
        ("--input", FIXTURE, "--start-year", "2000"),
    ], ids=["--input", "--merge-map", "--doc-types", "--start-year", "--whole-graph",
            "--input --start-year"])
    def test_series_with_corpus_flag_exits_1_before_reading(self, tmp_path, caplog, flags):
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("fit", "--series", SERIES, *flags, "--output-dir", str(out)) == 1
        clash = ", ".join(flag for flag in flags if flag.startswith("--"))
        assert f"--series cannot be combined with {clash}" in caplog.text
        assert "parsed" not in caplog.text
        assert not out.exists()

    def test_empty_series_path_is_still_a_series_run(self, tmp_path, caplog):
        out = tmp_path / "o"
        with caplog.at_level(logging.INFO):
            assert run("fit", "--series", "", "--input", FIXTURE, "--output-dir", str(out)) == 1
            assert run("fit", "--series", "", "--output-dir", str(out)) == 1
        assert "--series cannot be combined with --input" in caplog.text
        assert "series file not found" in caplog.text
        assert "parsed" not in caplog.text
        assert not out.exists()

    def test_failed_write_leaves_no_tmp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(target, "a,b\n\ud800\n")  # a lone surrogate has no UTF-8 form
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("stats", "--whole-graph"),
        ("stats", "--damping", "0.5"),
        ("evolve", "--slices", "1997", "--top-n", "3"),
        ("fit", "--damping", "0.5"),
        ("correlate", "--top-n", "3"),
        ("correlate", "--histogram-bins", "3"),
    ], ids=" ".join)
    def test_flag_of_another_command_exits_1(self, tmp_path, argv):
        command, *flags = argv
        out = tmp_path / "o"
        assert run(command, "--input", FIXTURE, "--output-dir", str(out), *flags) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, recorded", [
        ("fit", ["--whole-graph"], {"restrict_to_largest": False}),
        ("correlate", ["--whole-graph"], {"restrict_to_largest": False}),
        ("fit", ["--start-year", "1990"], {"start_year": 1990, "restrict_to_largest": True}),
    ], ids=["fit --whole-graph", "correlate --whole-graph", "fit --start-year 1990"])
    def test_accepted_flag_reaches_manifest(self, tmp_path, command, flags, recorded):
        out = tmp_path / "o"
        assert run(command, "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out), *flags) == 0
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert {key: manifest[key] for key in recorded} == recorded

    def test_centrality_non_default_flags_and_file_set(self, tmp_path):
        out = tmp_path / "o"
        assert run("centrality", "--input", FIXTURE, "--merge-map", MERGE_MAP,
                   "--output-dir", str(out), "--whole-graph", "--damping", "0.9",
                   "--top-n", "5", "--histogram-bins", "4") == 0
        manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert manifest["restrict_to_largest"] is False
        assert (manifest["damping"], manifest["top_n"], manifest["histogram_bins"]) == (0.9, 5, 4)
        measures = ("degree", "closeness", "betweenness", "pagerank")
        expected = {f"{prefix}{m}.csv" for m in measures for prefix in ("", "top_", "hist_")}
        assert {p.name for p in out.iterdir()} == expected | {"run.json"}
        assert len(read_rows(out / "top_degree.csv")) == 5
