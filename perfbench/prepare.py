"""Generate one workload's corpus and its expected outputs.

    python3 perfbench/prepare.py --workdir DIR --command CMD --scale S --seed N [-- ARGS...]

Writes corpus.tsv, merge_map.csv, truth.json and truth_edges.tsv into DIR and
prints the path of the expected-output JSON. The oracle result is cached in
DIR under a key made of the ground truth, the oracle code and the command
line, so it is computed once per (workload, seed). The runner starts this as
its own process: the oracle's memory then never counts toward the peak RSS
that the runner reads for the CLI processes it spawns afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SERIES = ROOT / "src" / "coauthnet" / "data" / "lis_growth_1988_2007.csv"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402


def prepare(workdir: Path, command: str, scale: float, seed: int, args: list[str]) -> Path:
    paths = corpus.write_corpus(workdir, scale, seed, SERIES)
    truth_bytes = paths["truth"].read_bytes()
    key = hashlib.sha256(
        truth_bytes
        + (HERE / "oracle.py").read_bytes()
        + json.dumps([command, args]).encode()
    ).hexdigest()[:16]
    expected = workdir / f"expected-{seed}-{key}.json"
    if not expected.is_file():
        import oracle

        records = json.loads(truth_bytes)["records"]
        result = oracle.expect(command, records, args)
        tmp = expected.with_suffix(".tmp")
        tmp.write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(expected)
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--command", required=True)
    parser.add_argument("--scale", required=True, type=float)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    extra = ns.args[1:] if ns.args[:1] == ["--"] else ns.args
    print(prepare(ns.workdir, ns.command, ns.scale, ns.seed, extra))
    return 0


if __name__ == "__main__":
    sys.exit(main())
