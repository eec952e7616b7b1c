"""Property tier: generated corpus and merge-map texts through ``cli.main``.

Every run ends in exit 0, 1, 2 or 3, a nonzero exit with a logged error and
never with an uncaught exception, and a run that exits 0 writes the same
bytes when it is run again. The texts mix valid rows with byte-order marks,
CR-only and CRLF line ends, NULs, quotes, rows short or long by a field,
duplicate and empty record ids, bad years and citation counts, and
punctuation-only names; a small name pool repeats names across records.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from coauthnet.cli import main
from coauthnet.ingest import REQUIRED_COLUMNS

NAMES = (
    "Meho, L.I.", "meho  li", "MEHO, LI", "Yang, K", "yang k", "Salton G", "Buckley, C.",
    "White, H. D.", 'O"Brien, Q', "Ding\x00, Y", "Cronin",
)
COMMANDS = {
    "stats": [],
    "centrality": ["--histogram-bins", "3"],
    "evolve": ["--slices", "1995,2005"],
    "correlate": [],
    "fit": [],
}
# a row carries at most one of these; any other draw leaves it valid
DEFECTS = ("short", "long", "no-id", "dup-id", "year", "old-year", "tc", "neg-tc", "nul", "quote",
           "punct")


@st.composite
def corpus_texts(draw) -> str:
    columns = list(REQUIRED_COLUMNS) + draw(st.sampled_from([[], ["XX"]]))
    columns = draw(st.permutations(columns))
    if draw(st.integers(0, 19)) == 0:
        columns = columns[1:]  # a required column is missing
    lines = ["\t".join(columns)]
    for i in range(draw(st.integers(0, 10))):
        team = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
        row = {
            "UT": f"W{i}",
            "AU": "; ".join(team),
            "PY": str(draw(st.integers(1988, 2007))),
            "DT": draw(st.sampled_from(["Article", "Review", "review", "Editorial"])),
            "TC": str(draw(st.integers(0, 40))),
            "SO": "J INF SCI",
            "XX": "",
        }
        kind = draw(st.sampled_from((None,) * 8 * len(DEFECTS) + DEFECTS))
        if kind == "no-id":
            row["UT"] = " "
        elif kind == "dup-id":
            row["UT"] = "W0"
        elif kind == "year":
            row["PY"] = "19x0"
        elif kind == "old-year":
            row["PY"] = "1899"
        elif kind == "tc":
            row["TC"] = "3.5"
        elif kind == "neg-tc":
            row["TC"] = "-1"
        elif kind == "nul":
            row["SO"] = "J\x00"
        elif kind == "quote":
            row["AU"] = '"' + row["AU"]
        elif kind == "punct":
            row["AU"] += "; . ,"
        cells = [row.get(c, "") for c in columns]
        if kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append("extra")
        lines.append("\t".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from([eol, ""]))


@st.composite
def merge_map_texts(draw) -> str | None:
    if draw(st.booleans()):
        return None
    lines = []
    # variants spell MEHO or YANG, and targets are other authors
    pair = st.tuples(st.sampled_from(NAMES[:5]), st.sampled_from(NAMES[5:]))
    for variant, canonical in draw(st.lists(pair, max_size=4)):
        form = draw(st.integers(0, 9))
        if form == 0:
            lines.append(f"{variant},{canonical}")  # unquoted: commas split the names
        elif form == 1:
            lines.append("# a comment\n")
        else:
            lines.append('"{}","{}"'.format(variant.replace('"', '""'),
                                           canonical.replace('"', '""')))
    return "\n".join(lines) + "\n"


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    errors = _Errors()
    logger = logging.getLogger("coauthnet")
    logger.addHandler(errors)
    try:
        return main(argv), errors.messages
    finally:
        logger.removeHandler(errors)


@settings(max_examples=60, deadline=None)
@given(
    corpus=corpus_texts(),
    merge_map=merge_map_texts(),
    command=st.sampled_from(sorted(COMMANDS)),
)
def test_generated_inputs_exit_cleanly_and_rerun_identically(corpus, merge_map, command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.tsv").write_bytes(corpus.encode("utf-8"))
        out = root / "out"
        argv = [command, "--input", str(root / "corpus.tsv"), "--output-dir", str(out),
                *COMMANDS[command]]
        if merge_map is not None:
            (root / "merge_map.csv").write_bytes(merge_map.encode("utf-8"))
            argv += ["--merge-map", str(root / "merge_map.csv")]
        code, errors = run_main(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        if code:
            assert errors and all(errors)
            return
        assert not errors
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        shutil.rmtree(out)
        assert run_main(argv) == (0, [])
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first
