"""Seeded synthetic bibliography corpora shaped like the bundled LIS series.

Per-year counts of kept papers and first-time authors are the bundled
cumulative growth series times a scale factor, so a ``fit`` on a generated
corpus reproduces the bundled exponents. Team sizes are heavy-tailed;
returning coauthors are picked by preferential attachment (an urn holding
one ticket per authored paper) plus triadic closure (a coauthor of someone
already on the team).

Every multi-author paper has at least one returning author, and a fixed
share of each year's new authors write one single-authored paper and never
return. The largest component is then every author except those one-off
authors (about 70%), so its size, and with it the cost of the all-pairs
kernels, hardly moves from seed to seed: benchmark runs on different seeds
measure the same amount of work.

Raw names come in spelling variants that all normalize to one canonical
``"SURNAME, INITIALS"`` key, and some authors also publish under a planted
variant key that the emitted merge map folds back. About one record in ten
has a document type other than Article/Review, and citation counts are
heavy-tailed.

The generator knows the canonical author list of every kept record, and
writes it next to the corpus as ``truth.json`` together with the canonical
edge list ``truth_edges.tsv``; the oracle works from those alone. The same
``(scale, seed)`` always gives byte-identical files.
"""

from __future__ import annotations

import csv
import json
import random
import string
from collections import Counter
from itertools import combinations
from pathlib import Path

# Share of kept papers with each team size; sizes 8..20 share the tail
# with weight proportional to k**-2.5.
_HEAD = {1: 0.45, 2: 0.30, 3: 0.14, 4: 0.06, 5: 0.025, 6: 0.012, 7: 0.006}
_TAIL = {k: k**-2.5 for k in range(8, 21)}
TEAM_SIZE_SHARE = {
    **_HEAD,
    **{k: w * (1.0 - sum(_HEAD.values())) / sum(_TAIL.values()) for k, w in _TAIL.items()},
}

ONE_OFF_SHARE = 0.3  # new authors whose only paper is single-authored
TRIADIC_CLOSURE = 0.35  # chance a returning coauthor comes from a teammate's coauthors
UNIFORM_PICK = 0.15  # chance a returning author is drawn uniformly, not by attachment
VARIANT_AUTHOR_SHARE = 0.04  # authors who also publish under a planted variant key
VARIANT_USE = 0.3  # share of such an author's bylines that use the variant
OTHER_DOC_SHARE = 0.1  # records outside Article/Review, dropped by the default filter
REVIEW_SHARE = 0.08  # kept records typed Review rather than Article
OTHER_DOC_TYPES = ("Editorial Material", "Letter", "Book Review", "Note", "Correction")
JOURNALS = ("J AM SOC INF SCI TEC", "SCIENTOMETRICS", "INFORM PROCESS MANAG",
            "J DOC", "J INF SCI", "LIBR INFORM SCI RES", "COLL RES LIBR")

_CONSONANTS = "BCDFGHKLMNPRSTVZ"
_VOWELS = "AEIOU"


def read_growth_series(path: Path) -> list[tuple[int, int, int]]:
    """Cumulative (year, papers, authors) rows of the bundled series."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [(int(y), int(p), int(a)) for y, p, a in rows[1:] if y.strip()]


def _per_year(series, scale: float) -> list[tuple[int, int, int]]:
    """(year, new kept papers, new authors) from the scaled cumulative series."""
    out = []
    prev_p = prev_a = 0
    for year, papers, authors in series:
        cum_p, cum_a = round(papers * scale), round(authors * scale)
        out.append((year, cum_p - prev_p, cum_a - prev_a))
        prev_p, prev_a = cum_p, cum_a
    return out


def _team_sizes(rng: random.Random, n: int) -> list[int]:
    """n team sizes whose histogram is the largest-remainder rounding of
    TEAM_SIZE_SHARE, shuffled; the author-slot total is thus seed-independent."""
    exact = {k: share * n for k, share in TEAM_SIZE_SHARE.items()}
    counts = {k: int(x) for k, x in exact.items()}
    rest = n - sum(counts.values())
    for k in sorted(exact, key=lambda k: (counts[k] - exact[k], k))[:rest]:
        counts[k] += 1
    sizes = [k for k, c in sorted(counts.items()) for _ in range(c)]
    rng.shuffle(sizes)
    return sizes


def _citations(rng: random.Random, year: int, last_year: int) -> int:
    """Heavy-tailed (Pareto, shape 1.2) citation count growing with age."""
    age = last_year - year + 1
    return int(((1.0 - rng.random()) ** (-1 / 1.2) - 1.0) * (1.0 + age / 4.0))


class _Names:
    """Unique canonical keys, their raw spellings, and planted variant keys."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()  # canonical and variant keys alike
        self.parts: dict[str, tuple[str, str]] = {}  # key -> (surname, initials)
        self.variant_of: dict[str, str] = {}  # canonical key -> variant key

    def new(self) -> str:
        rng = self.rng
        while True:
            surname = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.choice((2, 3, 3, 4)))
            ) + rng.choice(("N", "R", "S", "K", ""))
            initials = "".join(rng.choice(string.ascii_uppercase)
                               for _ in range(rng.choice((1, 2, 2))))
            key = f"{surname}, {initials}"
            if key not in self.taken:
                break
        self.taken.add(key)
        self.parts[key] = (surname, initials)
        if len(initials) == 2 and rng.random() < VARIANT_AUTHOR_SHARE:
            variant = f"{surname}, {initials[0]}"
            if variant not in self.taken:
                self.taken.add(variant)
                self.parts[variant] = (surname, initials[0])
                self.variant_of[key] = variant
        return key

    def raw(self, key: str) -> str:
        """One raw byline spelling of key, sometimes under its variant key."""
        rng = self.rng
        variant = self.variant_of.get(key)
        if variant is not None and rng.random() < VARIANT_USE:
            key = variant
        surname, initials = self.parts[key]
        form = rng.randrange(6)
        if form == 0:
            return f"{surname.title()}, {initials}"
        if form == 1:
            return f"{surname}, {'.'.join(initials)}."
        if form == 2:
            return f"{surname.title()},  {initials.lower()}"
        if form == 3:
            return f"{surname.title()} {initials}"
        if form == 4:
            return f"{surname.lower()}, {initials}"
        return f"{surname}, {initials}"


def generate(scale: float, seed: int, series) -> dict:
    """Build one corpus in memory: raw rows, merge-map pairs and ground truth."""
    rng = random.Random(f"coauthnet-perfbench:{seed}:{scale!r}")
    names = _Names(rng)
    last_year = series[-1][0]
    urn: list[str] = []  # one ticket per authored kept paper
    pool: list[str] = []  # every author who may return (one-offs never do)
    coauthors: dict[str, list[str]] = {}
    rows: list[tuple[str, str, int, str, int, str]] = []
    truth: list[tuple[int, list[str], int]] = []

    def returning(team: list[str]) -> str | None:
        members = set(team)
        if len(members) >= len(pool):
            return None
        if team and rng.random() < TRIADIC_CLOSURE:
            friends = coauthors[rng.choice(team)]
            if friends:
                pick = rng.choice(friends)
                if pick not in members:
                    return pick
        while True:
            pick = rng.choice(pool) if not urn or rng.random() < UNIFORM_PICK else rng.choice(urn)
            if pick not in members:
                return pick

    def add_row(year: int, team: list[str], doc_type: str, tc: int) -> None:
        byline = "; ".join(names.raw(a) for a in team)
        rows.append((f"WOS:{len(rows) + 1:09d}", byline, year, doc_type, tc,
                     rng.choice(JOURNALS)))

    for year, n_papers, n_new in _per_year(series, scale):
        sizes = _team_sizes(rng, n_papers)
        one_offs = min(round(ONE_OFF_SHARE * n_new), sizes.count(1))
        # Apart from the one-offs' papers, the first slot of every paper goes
        # to a returning author, so every author in the pool joins one
        # component; the other new authors fill later ("free") slots.
        free_left = sum(sizes) - len(sizes)
        new_left = n_new - one_offs
        for size in sizes:
            team: list[str] = []
            if size == 1 and one_offs:
                one_offs -= 1
                team.append(names.new())  # never returns: an isolated vertex
                size = 0
            for slot in range(size):
                if slot == 0:
                    pick = returning(team)
                else:
                    pick = None
                    if not (new_left and rng.random() * free_left < new_left):
                        pick = returning(team)
                    free_left -= 1
                if pick is None:
                    pick = names.new()
                    pool.append(pick)
                    coauthors[pick] = []
                    new_left = max(0, new_left - 1)
                team.append(pick)
            for a, b in combinations(team, 2):
                coauthors[a].append(b)
                coauthors[b].append(a)
            urn.extend(a for a in team if a in coauthors)
            tc = _citations(rng, year, last_year)
            doc_type = "Review" if rng.random() < REVIEW_SHARE else "Article"
            add_row(year, team, doc_type, tc)
            truth.append((year, team, tc))
        for _ in range(round(n_papers * OTHER_DOC_SHARE / (1.0 - OTHER_DOC_SHARE))):
            team = []
            for _ in range(rng.choice((1, 1, 2, 3))):
                pick = returning(team)
                if pick is not None:
                    team.append(pick)
            add_row(year, team, rng.choice(OTHER_DOC_TYPES), _citations(rng, year, last_year))

    merge_pairs = [
        (f"{names.parts[v][0].title()}, {names.parts[v][1]}",
         f"{names.parts[c][0].title()}, {names.parts[c][1]}")
        for c, v in sorted(names.variant_of.items())
    ]
    return {"rows": rows, "merge_pairs": merge_pairs, "truth": truth}


def truth_edges(truth) -> list[tuple[str, str, int]]:
    """Canonical weighted edge list (a < b, sorted) of the kept records."""
    weights: Counter[tuple[str, str]] = Counter()
    for _, team, _ in truth:
        for a, b in combinations(sorted(team), 2):
            weights[a, b] += 1
    return [(a, b, w) for (a, b), w in sorted(weights.items())]


def write_corpus(outdir: Path, scale: float, seed: int, series_path: Path) -> dict[str, Path]:
    """Generate and write corpus.tsv, merge_map.csv, truth.json and
    truth_edges.tsv into outdir; returns their paths by role."""
    corpus = generate(scale, seed, read_growth_series(series_path))
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": outdir / "corpus.tsv",
        "merge_map": outdir / "merge_map.csv",
        "truth": outdir / "truth.json",
        "edges": outdir / "truth_edges.tsv",
    }
    lines = ["UT\tAU\tPY\tDT\tTC\tSO"]
    lines.extend("\t".join(map(str, row)) for row in corpus["rows"])
    paths["corpus"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["merge_map"].write_text(
        "# planted variant keys folded onto their canonical author\n"
        + "".join(f'"{v}","{c}"\n' for v, c in corpus["merge_pairs"]),
        encoding="utf-8",
    )
    paths["truth"].write_text(
        json.dumps({"scale": scale, "seed": seed, "records": corpus["truth"]},
                   separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    paths["edges"].write_text(
        "".join(f"{a}\t{b}\t{w}\n" for a, b, w in truth_edges(corpus["truth"])),
        encoding="utf-8",
    )
    return paths
