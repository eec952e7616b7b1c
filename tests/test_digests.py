"""Output digests of all five commands on seeded paper-shaped corpora.

The goldens cover only the 36-record fixture. Here each command runs on a
corpus from ``perfbench/corpus.py``, tier 1 also runs ``centrality`` and
``correlate`` with ``--whole-graph``, and the SHA-256 of every file written
must equal the one committed in ``tests/data/digests.json``. ``run.json`` is
hashed without ``output_dir``; the run works in the corpus directory with
relative paths, so no other field names a temporary path. A digest changes
only under the rule that governs a golden: CHANGES.md says which digest
changed and why.

The ``paper_scale`` tier (scale 1.0, about 56 s on 2 vCPUs) is deselected
by default; run it with ``pytest -m paper_scale``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from coauthnet.cli import main

ROOT = Path(__file__).resolve().parents[1]
SERIES = ROOT / "src" / "coauthnet" / "data" / "lis_growth_1988_2007.csv"
DIGESTS = json.loads((Path(__file__).parent / "data" / "digests.json").read_text(encoding="utf-8"))
COMMANDS = {
    "stats": ("stats",),
    "centrality": ("centrality",),
    "evolve": ("evolve", "--start-year", "1988", "--slices", "1992,1997,2002,2007"),
    "correlate": ("correlate",),
    "fit": ("fit",),
}
# Tier 1 only: no golden covers whole-graph scores, and the paper-scale tier
# keeps its run time.
WHOLE_GRAPH = {
    "centrality-whole-graph": ("centrality", "--whole-graph"),
    "correlate-whole-graph": ("correlate", "--whole-graph"),
}


def write_corpus(workdir: Path, scale: float, seed: int) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    corpus.write_corpus(workdir, scale, seed, SERIES)


def output_digests(workdir: Path, commands: dict[str, tuple[str, ...]]) -> dict[str, str]:
    """Run each command on workdir's corpus into the output directory it is
    keyed by; SHA-256 of each output file, keyed by ``directory/file name``."""
    digests = {}
    for out, (command, *extra) in commands.items():
        argv = [command, "--input", "corpus.tsv", "--merge-map", "merge_map.csv",
                "--output-dir", out, *extra]
        assert main(argv) == 0, out
        for path in sorted((workdir / out).iterdir()):
            data = path.read_bytes()
            if path.name == "run.json":
                manifest = json.loads(data)
                del manifest["output_dir"]
                data = json.dumps(manifest, sort_keys=True, indent=2).encode()
            digests[f"{out}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize(
    "tier", ["tier1", pytest.param("paper_scale", marks=pytest.mark.paper_scale)]
)
def test_output_digests_unchanged(tier, tmp_path, monkeypatch):
    expected = DIGESTS[tier]
    write_corpus(tmp_path, expected["scale"], expected["seed"])
    monkeypatch.chdir(tmp_path)
    commands = COMMANDS | WHOLE_GRAPH if tier == "tier1" else COMMANDS
    assert output_digests(tmp_path, commands) == expected["digests"]
