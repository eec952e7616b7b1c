"""Output digests of all five commands on seeded paper-shaped corpora.

The goldens cover only the 36-record fixture. Here each command runs on a
corpus from ``perfbench/corpus.py``, and the SHA-256 of every file it writes
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
    "stats": (),
    "centrality": (),
    "evolve": ("--start-year", "1988", "--slices", "1992,1997,2002,2007"),
    "correlate": (),
    "fit": (),
}


def write_corpus(workdir: Path, scale: float, seed: int) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    corpus.write_corpus(workdir, scale, seed, SERIES)


def output_digests(workdir: Path) -> dict[str, str]:
    """Run every command on workdir's corpus; SHA-256 of each output file,
    keyed by ``command/file name``."""
    digests = {}
    for command, extra in COMMANDS.items():
        argv = [command, "--input", "corpus.tsv", "--merge-map", "merge_map.csv",
                "--output-dir", command, *extra]
        assert main(argv) == 0, command
        for path in sorted((workdir / command).iterdir()):
            data = path.read_bytes()
            if path.name == "run.json":
                manifest = json.loads(data)
                del manifest["output_dir"]
                data = json.dumps(manifest, sort_keys=True, indent=2).encode()
            digests[f"{command}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize(
    "tier", ["tier1", pytest.param("paper_scale", marks=pytest.mark.paper_scale)]
)
def test_output_digests_unchanged(tier, tmp_path, monkeypatch):
    expected = DIGESTS[tier]
    write_corpus(tmp_path, expected["scale"], expected["seed"])
    monkeypatch.chdir(tmp_path)
    assert output_digests(tmp_path) == expected["digests"]
