"""Output checks for one CLI run against the oracle's expected results.

A run fails on a non-zero exit, a missing output file, output that
disagrees with the oracle beyond the tolerances in ``spec.json``, or (see
``odd_digests``) output bytes that differ from the rest of its set.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

OUTPUT_FILES = {
    "correlate": ("correlation.csv", "correlation_sig.csv", "ranking_profile.csv", "run.json"),
    "evolve": ("growth.csv", "slices.csv", "run.json"),
    "fit": ("fits.csv", "run.json"),
    "centrality": tuple(
        f"{prefix}{m}.csv"
        for m in ("degree", "closeness", "betweenness", "pagerank")
        for prefix in ("", "top_")
    ) + ("run.json",),
}

# series whose values are integers, so rank ties are exact in both implementations
INTEGER_SERIES = {"citations", "degree"}
PROFILE_COLUMNS = ("pagerank", "closeness", "betweenness", "degree", "citations")
FIT_SERIES = ("papers", "authors", "degree_distribution")
SLICE_INTS = ("start", "end", "authors", "papers", "largest_size")
SLICE_FLOATS = {
    "mean_collaborators": "ratio_rel",
    "largest_ratio": "ratio_rel",
    "largest_avg_distance": "distance_rel",
}


def digest(outdir: Path) -> str:
    """SHA-256 over the names and bytes of every file in outdir."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def odd_digests(digests: list[str]) -> list[bool]:
    """True for each run whose digest differs from the set's most common one."""
    if not digests:
        return []
    common = Counter(digests).most_common(1)[0][0]
    return [d != common for d in digests]


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= max(abs_, rel * max(abs(got), abs(want)))


def _check_correlate(outdir: Path, exp: dict, tol: dict) -> list[str]:
    problems = []
    labels = exp["labels"]
    for name, key in (("correlation.csv", "rho"), ("correlation_sig.csv", "p")):
        rows = _rows(outdir / name)
        if rows[0] != ["series", *labels] or [r[0] for r in rows[1:]] != labels:
            problems.append(f"{name}: labels {rows[0][1:]} != {labels}")
            continue
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row[1:]):
                want = exp[key][i][j]
                if key == "rho":
                    exact = {labels[i], labels[j]} <= INTEGER_SERIES
                    if not abs(float(cell) - want) <= tol["rho_exact_abs" if exact else "rho_abs"]:
                        problems.append(f"{name}: rho({labels[i]},{labels[j]})={cell}, oracle {want!r}")
                elif i == j:
                    if cell != "1":
                        problems.append(f"{name}: diagonal flag {cell}")
                elif not tol["p_band"][0] <= want <= tol["p_band"][1] and int(cell) != int(want < 0.01):
                    problems.append(f"{name}: flag({labels[i]},{labels[j]})={cell}, oracle p={want!r}")
    rows = _rows(outdir / "ranking_profile.csv")
    if rows[0] != ["author", *(f"{c}_rank" for c in PROFILE_COLUMNS)]:
        return problems + [f"ranking_profile.csv: header {rows[0]}"]
    body = rows[1:]
    authors = [r[0] for r in body]
    if len(body) != exp["n"] or set(authors) != set(exp["ranks"]["degree"]):
        return problems + [f"ranking_profile.csv: {len(body)} rows, oracle LCC {exp['n']}"]
    ranks = {c: {r[0]: int(r[k]) for r in body} for k, c in enumerate(PROFILE_COLUMNS, start=1)}
    for column, by_author in ranks.items():
        if sorted(by_author.values()) != list(range(1, len(body) + 1)):
            problems.append(f"ranking_profile.csv: {column} ranks are not 1..{len(body)}")
    if [ranks["pagerank"][a] for a in authors] != list(range(1, len(body) + 1)):
        problems.append("ranking_profile.csv: rows not in pagerank-rank order")
    for column in ("degree", "citations"):
        wrong = sum(ranks[column][a] != exp["ranks"][column][a] for a in authors)
        if wrong:
            problems.append(f"ranking_profile.csv: {wrong} {column} rank(s) differ from the oracle")
    for column, scores in exp["scores"].items():
        ordered = sorted(authors, key=ranks[column].__getitem__)
        for a, b in zip(ordered, ordered[1:]):
            if scores[b] > scores[a] and not _close(scores[b], scores[a], tol["score_rel"], tol["score_abs"]):
                problems.append(f"ranking_profile.csv: {column} ranks {a} above {b} against the oracle")
                break
    return problems


def _check_evolve(outdir: Path, exp: dict, tol: dict) -> list[str]:
    problems = []
    rows = _rows(outdir / "growth.csv")
    got = [[int(x) for x in r] for r in rows[1:]]
    if rows[0] != ["year", "papers", "authors"] or got != exp["growth"]:
        problems.append("growth.csv differs from the oracle's growth table")
    rows = _rows(outdir / "slices.csv")
    header, body = rows[0], rows[1:]
    if len(body) != len(exp["slices"]):
        return problems + [f"slices.csv: {len(body)} slices, oracle {len(exp['slices'])}"]
    for row, want in zip(body, exp["slices"]):
        cells = dict(zip(header, row))
        for key in SLICE_INTS:
            if int(cells[key]) != want[key]:
                problems.append(f"slices.csv: {key}={cells[key]} for end {want['end']}, oracle {want[key]}")
        for key, tol_key in SLICE_FLOATS.items():
            if not _close(float(cells[key]), want[key], tol[tol_key]):
                problems.append(f"slices.csv: {key}={cells[key]} for end {want['end']}, oracle {want[key]!r}")
    return problems


def _check_fit(outdir: Path, exp: dict, tol: dict) -> list[str]:
    problems = []
    rows = _rows(outdir / "fits.csv")
    if rows[0] != ["series", "coefficient", "exponent", "r_squared", "n"]:
        return [f"fits.csv: header {rows[0]}"]
    if [r[0] for r in rows[1:]] != list(FIT_SERIES):
        return [f"fits.csv: series {[r[0] for r in rows[1:]]} != {list(FIT_SERIES)}"]
    for name, coefficient, exponent, r_squared, n in rows[1:]:
        want = exp["fits"][name]
        ok = (
            _close(float(coefficient), want["coefficient"], tol["fit_rel"])
            and _close(float(exponent), want["exponent"], tol["fit_rel"])
            and abs(float(r_squared) - want["r_squared"]) <= tol["r_squared_abs"]
            and int(n) == want["n"]
        )
        if not ok:
            problems.append(f"fits.csv: {name} row {[coefficient, exponent, r_squared, n]}, oracle {want}")
    return problems


def _check_centrality(outdir: Path, exp: dict, tol: dict) -> list[str]:
    problems = []
    for measure, want in exp["scores"].items():
        rows = _rows(outdir / f"{measure}.csv")
        got = {author: float(score) for author, _, score in rows[1:]}
        if rows[0] != ["author", "measure", "score"] or set(got) != set(want):
            problems.append(f"{measure}.csv: header or vertex set differs from the oracle")
            continue
        bad = [a for a in got if not _close(got[a], want[a], tol["score_rel"], tol["score_abs"])]
        if bad:
            problems.append(f"{measure}.csv: {len(bad)} score(s) off, e.g. {bad[0]}={got[bad[0]]!r} vs {want[bad[0]]!r}")
    return problems


CHECKERS = {
    "correlate": _check_correlate,
    "evolve": _check_evolve,
    "fit": _check_fit,
    "centrality": _check_centrality,
}


def check_run(command: str, exit_code: int, outdir: Path, expected: dict, tol: dict) -> list[str]:
    """Problems found with one run's exit code and output files; [] if none."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    missing = [f for f in OUTPUT_FILES[command] if not (outdir / f).is_file()]
    if missing:
        return problems + ["missing " + ", ".join(missing)]
    try:
        manifest = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        if manifest.get("command") != command:
            problems.append(f"run.json: command {manifest.get('command')!r}")
        problems.extend(CHECKERS[command](outdir, expected, tol))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
