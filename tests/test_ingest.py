from __future__ import annotations

import io
import logging
import pickle
import time
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coauthnet import (
    AuthorMergeMap,
    BiblioRecord,
    ConfigError,
    DataError,
    ParseError,
    apply_merge_map,
    author_citations,
    filter_documents,
    normalize_author,
    normalize_records,
    parse_records,
)
from oracles import (
    citation_scan,
    random_records,
    reference_merge,
    reference_normalize,
    reference_normalize_author,
    serialize_records,
)

HEADER = "UT\tAU\tPY\tDT\tTC\tSO"


def make_record(**kwargs) -> BiblioRecord:
    base = dict(
        record_id="R1",
        authors=("SALTON, G",),
        year=1990,
        doc_type="Article",
        times_cited=0,
        source="IPM",
    )
    base.update(kwargs)
    return BiblioRecord(**base)


class TestParseRecords:
    def test_single_row(self):
        text = HEADER + "\nW001\tSALTON, G; BUCKLEY, C\t1990\tArticle\t906\tIPM\n"
        records = parse_records(text)
        assert len(records) == 1
        rec = records[0]
        assert rec.record_id == "W001"
        assert rec.authors == ("SALTON, G", "BUCKLEY, C")
        assert rec.year == 1990
        assert rec.doc_type == "Article"
        assert rec.times_cited == 906
        assert rec.source == "IPM"

    def test_header_only_gives_empty_list(self):
        assert parse_records(HEADER + "\n") == []

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="input is empty"):
            parse_records("")

    def test_empty_record_id_reports_line(self):
        text = HEADER + "\nW1\tA, X\t1990\tArticle\t1\tJ\n \tB, Y\t1991\tArticle\t2\tJ\n"
        with pytest.raises(ParseError, match="line 3: empty record id"):
            parse_records(text)

    def test_reads_an_open_file(self, tmp_path):
        text = HEADER + "\nW1\tA, X; B, Y\t1990\tArticle\t1\tJ\n"
        path = tmp_path / "corpus.tsv"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            assert parse_records(fh) == parse_records(text)

    def test_parser_does_not_filter_doc_types(self):
        text = "\n".join(
            [
                HEADER,
                "W1\tA, X\t1990\tArticle\t1\tJ",
                "W2\tB, Y\t1991\tEditorial\t2\tJ",
                "W3\tC, Z\t1992\tReview\t3\tJ",
            ]
        )
        assert len(parse_records(text)) == 3

    def test_column_order_is_free(self):
        text = "SO\tTC\tDT\tPY\tAU\tUT\nIPM\t5\tArticle\t1999\tA, X\tW9\n"
        (rec,) = parse_records(text)
        assert rec.record_id == "W9" and rec.source == "IPM" and rec.times_cited == 5

    def test_crlf_and_bom(self):
        text = "﻿" + HEADER + "\r\nW1\tA, X\t1990\tArticle\t1\tJ\r\n"
        assert len(parse_records(text)) == 1
        assert parse_records(io.StringIO(text)) == parse_records(io.StringIO(text[1:]))
        with pytest.raises(ParseError, match="input is empty"):
            parse_records(io.StringIO("\ufeff"))

    def test_missing_column_named(self):
        with pytest.raises(ParseError, match="TC"):
            parse_records("UT\tAU\tPY\tDT\tSO\nW1\tA\t1990\tArticle\tJ\n")

    def test_non_integer_year_reports_line(self):
        text = HEADER + "\nW1\tA, X\tnineteen\tArticle\t1\tJ\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_records(text)

    def test_non_integer_citations_reports_line(self):
        text = HEADER + "\nW1\tA, X\t1990\tArticle\t1\tJ\nW2\tB, Y\t1991\tArticle\tmany\tJ\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_records(text)

    def test_year_out_of_range(self):
        text = HEADER + "\nW1\tA, X\t1776\tArticle\t1\tJ\n"
        with pytest.raises(ParseError, match="1776"):
            parse_records(text)

    def test_negative_citations(self):
        text = HEADER + "\nW1\tA, X\t1990\tArticle\t-3\tJ\n"
        with pytest.raises(ParseError, match="negative"):
            parse_records(text)

    @pytest.mark.parametrize("row, message", [
        ("W1\tA, X\t1776\tArticle\tmany\tJ", "line 2: year 1776 outside"),
        ("W1\tA, X\tnineteen\tArticle\t-3\tJ", "line 2: non-integer PY value 'nineteen'"),
    ], ids=["year-range-before-TC", "PY-before-negative-TC"])
    def test_row_with_two_faults_reports_the_year(self, row, message):
        with pytest.raises(ParseError, match=message):
            parse_records(f"{HEADER}\n{row}\n")

    def test_integer_fields_keep_surrounding_whitespace_out_of_messages(self):
        assert parse_records(HEADER + "\nW1\tA, X\t 1990 \tArticle\t 4\tJ\n")[0].year == 1990
        with pytest.raises(ParseError, match="line 2: non-integer TC value '4 x'$"):
            parse_records(HEADER + "\nW1\tA, X\t1990\tArticle\t 4 x \tJ\n")

    def test_duplicate_record_id(self):
        text = "\n".join(
            [HEADER, "W1\tA, X\t1990\tArticle\t1\tJ", "W1\tB, Y\t1991\tArticle\t2\tJ"]
        )
        with pytest.raises(ParseError, match="duplicate record id"):
            parse_records(text)

    def test_field_count_mismatch(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_records(HEADER + "\nW1\tA, X\t1990\tArticle\t1\n")

    def test_anonymous_rows_skipped_with_warning(self, caplog):
        text = "\n".join(
            [HEADER, "W1\t\t1990\tArticle\t1\tJ", "W2\tA, X\t1990\tArticle\t1\tJ"]
        )
        with caplog.at_level(logging.WARNING):
            records = parse_records(text)
        assert [r.record_id for r in records] == ["W2"]
        assert "no parseable authors" in caplog.text

    def test_round_trip_identity(self):
        records = random_records(Random(7), n_records=25, doc_types=("Article", "Review"))
        assert parse_records(serialize_records(records)) == records


class TestFilterDocuments:
    def test_definition(self):
        records = [
            make_record(record_id=f"R{i}", doc_type=dt)
            for i, dt in enumerate(["Article", "Review", "Editorial", "Article"])
        ]
        kept = filter_documents(records, {"Article", "Review"})
        assert [r.doc_type for r in kept] == ["Article", "Review", "Article"]

    def test_no_match_gives_empty(self):
        records = [make_record(doc_type="Editorial")]
        assert filter_documents(records, {"Article"}) == []

    def test_case_insensitive(self):
        # oracle: lowercase both sides and compare
        records = [make_record(doc_type="article"), make_record(record_id="R2", doc_type="ARTICLE")]
        kept = filter_documents(records, {"Article"})
        assert len(kept) == 2
        for rec in records:
            assert (rec in kept) == (rec.doc_type.lower() in {"article"})

    def test_empty_allowed_set_rejected(self):
        with pytest.raises(ConfigError):
            filter_documents([make_record()], set())

    def test_idempotent_and_commutes_with_merge(self):
        rng = Random(11)
        records = normalize_records(
            random_records(rng, n_records=40, doc_types=("Article", "Review", "Editorial"))
        )
        merge = AuthorMergeMap.from_pairs([("AUTH00, X", "AUTH01, X")])
        allowed = {"Article", "Review"}
        once = filter_documents(records, allowed)
        assert filter_documents(once, allowed) == once
        assert apply_merge_map(filter_documents(records, allowed), merge) == filter_documents(
            apply_merge_map(records, merge), allowed
        )


class TestNormalizeAuthor:
    def test_strips_periods(self):
        assert normalize_author("Meho, L.") == "MEHO, L"

    def test_idempotent_on_canonical_form(self):
        assert normalize_author("MEHO, LI") == "MEHO, LI"

    def test_whitespace_and_multi_initials(self):
        assert normalize_author("  van  Raan,  A.F.J. ") == "VAN RAAN, AFJ"

    def test_no_comma_splits_on_last_token(self):
        assert normalize_author("Salton G") == "SALTON, G"

    def test_single_token_is_surname(self):
        assert normalize_author("Aristotle") == "ARISTOTLE,"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            normalize_author("   ")

    def test_punctuation_only_rejected(self):
        with pytest.raises(DataError):
            normalize_author(" . . ")

    @given(st.text(alphabet=st.characters(codec="ascii"), min_size=1, max_size=40))
    def test_idempotence(self, raw):
        try:
            once = normalize_author(raw)
        except DataError:
            return
        assert normalize_author(once) == once
        assert once.count(",") == 1

    @given(st.text(alphabet=st.sampled_from("aB., \t\n\r\x0b\x1c\x85\xa0\u2003\u3000;"
                                            "\u00df\u0130"), max_size=16))
    def test_equals_regex_form(self, raw):
        try:
            expected = reference_normalize_author(raw)
        except DataError:
            with pytest.raises(DataError):
                normalize_author(raw)
            return
        assert normalize_author(raw) == expected


class TestMergeMap:
    def test_variant_replaced(self):
        records = [make_record(authors=("MEHO, L",))]
        merge = AuthorMergeMap.from_pairs([("MEHO, L", "MEHO, LI")])
        assert apply_merge_map(records, merge)[0].authors == ("MEHO, LI",)

    def test_empty_map_is_identity(self):
        records = normalize_records(random_records(Random(3)))
        assert apply_merge_map(records, AuthorMergeMap({})) == records

    def test_merged_duplicates_collapse(self):
        records = [make_record(authors=("MEHO, L", "MEHO, LI"))]
        merge = AuthorMergeMap.from_pairs([("MEHO, L", "MEHO, LI")])
        assert apply_merge_map(records, merge)[0].authors == ("MEHO, LI",)

    def test_chains_resolved_at_load(self):
        merge = AuthorMergeMap.from_pairs([("A, X", "B, X"), ("B, X", "C, X")])
        assert merge.resolve("A, X") == "C, X"
        assert merge.resolve(merge.resolve("A, X")) == merge.resolve("A, X")

    def test_cycle_rejected(self):
        with pytest.raises(ConfigError, match="cycle"):
            AuthorMergeMap.from_pairs([("A, X", "B, X"), ("B, X", "A, X")])

    def test_self_mapping_rejected(self):
        with pytest.raises(ConfigError, match="cycle"):
            AuthorMergeMap.from_pairs([("A, X", "A, X")])

    def test_conflicting_targets_rejected(self):
        with pytest.raises(ConfigError, match="conflicting"):
            AuthorMergeMap.from_pairs([("A, X", "B, X"), ("A, X", "C, X")])

    def test_csv_with_comments_and_quoting(self):
        text = '# comment line\n\n"Meho, L.","Meho, LI"\n"Yang, K","Yang, KW"\n'
        merge = AuthorMergeMap.from_csv(text)
        assert merge.resolve("MEHO, L") == "MEHO, LI"
        assert merge.resolve("YANG, K") == "YANG, KW"
        assert len(merge) == 2

    def test_pair_without_content_is_config_error_naming_pair(self):
        with pytest.raises(ConfigError, match=r"merge map pair \('\. ,', 'Yang, K'\): "
                                              r"author name '\. ,' has no usable content"):
            AuthorMergeMap.from_pairs([(". ,", "Yang, K")])

    def test_csv_wrong_column_count(self):
        with pytest.raises(ConfigError, match="line 1"):
            AuthorMergeMap.from_csv('"A, X","B, X","C, X"\n')

    def test_csv_drops_a_leading_byte_order_mark(self):
        for text in ('Meho L,Meho LI\n', '"Meho, L","Meho, LI"\n'):
            expected = AuthorMergeMap.from_csv(io.StringIO(text))
            assert AuthorMergeMap.from_csv(io.StringIO("\ufeff" + text)) == expected
            assert expected.entries == {"MEHO, L": "MEHO, LI"}


class TestMergeMapScaling:
    @staticmethod
    def best_time(pairs: list[tuple[str, str]]) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            AuthorMergeMap.from_pairs(pairs)
            best = min(best, time.perf_counter() - start)
        return best

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_chain_time_grows_linearly(self, order):
        def chain(links: int) -> list[tuple[str, str]]:
            pairs = [(f"A{i:05d}, X", f"A{i + 1:05d}, X") for i in range(links)]
            return pairs if order == "forward" else pairs[::-1]

        # 4x the links: linear work gives 4x, a walk of the whole chain
        # from every variant 16x, with a list for its visited set 64x
        assert self.best_time(chain(800)) < 8 * self.best_time(chain(200))


# Persons by canonical key, and raw spellings that normalize onto each key.
PERSONS = ("MEHO, LI", "YANG, K", "SALTON, G", "BUCKLEY, C", "DING, Y", "WHITE, HD")
SPELLINGS = (
    lambda k: k,
    lambda k: k.lower(),
    lambda k: k.replace(", ", ",  ") + " ",
    lambda k: k.title() + ".",
    lambda k: k.replace(",", ""),
)


def team_strategy():
    member = st.tuples(st.integers(0, len(PERSONS) - 1), st.integers(0, len(SPELLINGS) - 1))
    return st.lists(member, min_size=1, max_size=5)


def ingest_records(teams: list[list[tuple[int, int]]]) -> list[BiblioRecord]:
    return [
        make_record(record_id=f"R{i}", authors=tuple(SPELLINGS[s](PERSONS[p]) for p, s in team))
        for i, team in enumerate(teams)
    ]


class TestIngestEquivalence:
    """normalize_records and apply_merge_map equal the per-authorship,
    replace-everything oracles, and leave their inputs as they were."""

    @staticmethod
    def check(records: list[BiblioRecord], merge: AuthorMergeMap) -> list[BiblioRecord]:
        given = [replace(r) for r in records]
        normalized = normalize_records(records)
        normalized_given = [replace(r) for r in normalized]
        merged = apply_merge_map(normalized, merge)
        assert records == given and normalized == normalized_given
        assert normalized == reference_normalize(records)
        assert merged == reference_merge(normalized, merge)
        return merged

    def test_fixture(self):
        data = Path(__file__).parent / "data"
        records = filter_documents(
            parse_records((data / "fixture_corpus.tsv").read_text(encoding="utf-8")),
            {"Article", "Review"},
        )
        merge = AuthorMergeMap.from_csv((data / "merge_map.csv").read_text(encoding="utf-8"))
        merged = self.check(records, merge)
        assert merged != normalize_records(records)  # the fixture's map fires

    def test_repeats_canonical_chains_and_collapse(self):
        records = ingest_records([
            [(0, 1), (1, 0)],  # MEHO spelled in lower case, YANG already canonical
            [(0, 3), (2, 2)],  # MEHO again, in another record and spelling
            [(2, 0), (3, 4)],  # SALTON maps to BUCKLEY, which maps to DING
            [(3, 0), (2, 1), (4, 0)],  # all three collapse onto DING
            [(5, 0)],  # a single canonical author, untouched
        ])
        merge = AuthorMergeMap.from_pairs([(PERSONS[2], PERSONS[3]), (PERSONS[3], PERSONS[4])])
        merged = self.check(records, merge)
        assert [r.authors for r in merged] == [
            ("MEHO, LI", "YANG, K"), ("MEHO, LI", "DING, Y"), ("DING, Y",), ("DING, Y",),
            ("WHITE, HD",),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        teams=st.lists(team_strategy(), max_size=8),
        links=st.dictionaries(st.integers(0, len(PERSONS) - 2), st.integers(1, len(PERSONS) - 1)),
    )
    def test_generated(self, teams, links):
        # a variant maps only to a later person, so chains end and never cycle
        pairs = [(PERSONS[i], PERSONS[j]) for i, j in links.items() if j > i]
        self.check(ingest_records(teams), AuthorMergeMap.from_pairs(pairs))

    def test_name_without_content_names_its_first_record(self):
        records = [make_record(record_id="W1", authors=("MEHO, L",)),
                   make_record(record_id="W2", authors=("YANG, K", ".")),
                   make_record(record_id="W3", authors=(".",))]
        with pytest.raises(DataError, match=r"^record 'W2': author name '\.' has no usable "):
            normalize_records(records)

    def test_unchanged_records_are_shared(self):
        records = normalize_records(ingest_records([[(0, 0)], [(1, 0), (2, 0)]]))
        merged = apply_merge_map(records, AuthorMergeMap.from_pairs([(PERSONS[2], PERSONS[3])]))
        assert merged[0] is records[0]
        assert merged[1] is not records[1] and merged[1].authors == ("YANG, K", "BUCKLEY, C")


class TestAuthorCitations:
    def test_sums_across_papers(self):
        records = [
            make_record(record_id="R1", times_cited=906),
            make_record(record_id="R2", times_cited=328),
        ]
        assert author_citations(records) == {"SALTON, G": 1234}

    def test_author_without_papers_absent(self):
        assert "NOBODY, X" not in author_citations([make_record()])

    def test_matches_exhaustive_scan(self):
        records = normalize_records(random_records(Random(23), n_records=5))
        assert author_citations(records) == dict(sorted(citation_scan(records).items()))

    def test_multi_author_counting_inequality(self):
        records = normalize_records(random_records(Random(5), n_records=30))
        total_by_author = sum(author_citations(records).values())
        total_by_record = sum(r.times_cited for r in records)
        assert total_by_author >= total_by_record
        single_only = all(len(r.authors) == 1 for r in records)
        assert (total_by_author == total_by_record) == single_only


class TestRecordConstructor:
    """``BiblioRecord.__init__`` fills the slots itself instead of the frozen
    dataclass's generated ``__init__``; its records behave as before."""

    FIELDS = ("W1", ("SALTON, G", "BUCKLEY, C"), 1988, "Article", 906, "IPM")

    def test_positional_equals_and_hashes_like_the_keyword_form(self):
        built = BiblioRecord(*self.FIELDS)
        keyword = make_record(record_id="W1", authors=("SALTON, G", "BUCKLEY, C"), year=1988,
                              times_cited=906)
        assert built == keyword and hash(built) == hash(keyword)
        assert repr(built) == repr(keyword) == (
            "BiblioRecord(record_id='W1', authors=('SALTON, G', 'BUCKLEY, C'), year=1988, "
            "doc_type='Article', times_cited=906, source='IPM')")

    def test_stays_frozen(self):
        built = BiblioRecord(*self.FIELDS)
        with pytest.raises(FrozenInstanceError):
            built.year = 1989
        assert built.year == 1988

    def test_pickle_round_trip_and_replace(self):
        built = BiblioRecord(*self.FIELDS)
        assert pickle.loads(pickle.dumps(built)) == built
        assert replace(built, year=1989) == BiblioRecord(*self.FIELDS[:2], 1989, *self.FIELDS[3:])

    def test_fields_are_required(self):
        with pytest.raises(TypeError):
            BiblioRecord(*self.FIELDS[:5])
