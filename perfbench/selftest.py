"""Self-tests of the benchmark's generator, checker and tracer.

    python3 perfbench/selftest.py

Uses small corpora and the coauthnet tree in ``src/`` next to this
directory; working files go to ``.perfbench/selftest/``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench" / "selftest"
SERIES = SRC / "coauthnet" / "data" / "lis_growth_1988_2007.csv"
SMALL = 0.05

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import check  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _cli(command: str, workdir: Path, outdir: Path, *extra: str) -> int:
    shutil.rmtree(outdir, ignore_errors=True)
    argv = run.cli_argv({"command": command, "args": list(extra)}, workdir, outdir)
    return subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True).returncode


def _prepared(name: str, command: str, args: list[str], seed: int = 3) -> tuple[Path, dict]:
    workdir = WORK / name
    expected = prepare.prepare(workdir, command, SMALL, seed, args)
    return workdir, json.loads(expected.read_text(encoding="utf-8"))


def _flip_digit(path: Path, row: int, col: int) -> None:
    """Change the first significant digit of one CSV cell."""
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    cell = rows[row][col]
    pos = next(i for i, ch in enumerate(cell) if ch in "123456789")
    rows[row][col] = cell[:pos] + ("1" if cell[pos] == "9" else str(int(cell[pos]) + 1)) + cell[pos + 1:]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        files = {}
        for label, seed in (("a", 7), ("b", 7), ("c", 8)):
            paths = corpus.write_corpus(WORK / f"seed-{label}", SMALL, seed, SERIES)
            files[label] = {role: p.read_bytes() for role, p in paths.items()}
        self.assertEqual(files["a"], files["b"])
        self.assertNotEqual(files["a"]["corpus"], files["c"]["corpus"])

    def test_raw_names_normalize_and_merge_to_the_ground_truth(self):
        from coauthnet import AuthorMergeMap, apply_merge_map, filter_documents, normalize_records, parse_records

        paths = corpus.write_corpus(WORK / "names", 0.2, 5, SERIES)
        records = parse_records(paths["corpus"].read_text(encoding="utf-8"))
        kept = normalize_records(filter_documents(records, ("Article", "Review")))
        merged = apply_merge_map(kept, AuthorMergeMap.from_csv(paths["merge_map"].read_text(encoding="utf-8")))
        truth = json.loads(paths["truth"].read_text(encoding="utf-8"))["records"]
        self.assertEqual([list(r.authors) for r in merged], [team for _, team, _ in truth])
        self.assertGreater(sum(r.authors != m.authors for r, m in zip(kept, merged)), 0)
        self.assertAlmostEqual(1 - len(kept) / len(records), 0.1, delta=0.01)

    def test_fit_reproduces_bundled_growth_exponents(self):
        truth = corpus.generate(1.0, 11, corpus.read_growth_series(SERIES))["truth"]
        fits = oracle.expect_fit(truth)["fits"]
        self.assertAlmostEqual(fits["papers"]["exponent"], 1.08, delta=0.03)
        self.assertAlmostEqual(fits["authors"]["exponent"], 0.98, delta=0.03)


class CheckerTest(unittest.TestCase):
    tol = SPEC["tolerances"]

    def test_flipped_digit_in_betweenness_fails(self):
        workdir, expected = _prepared("centrality", "centrality", [])
        out = workdir / "out"
        self.assertEqual(_cli("centrality", workdir, out), 0)
        self.assertEqual(check.check_run("centrality", 0, out, expected, self.tol), [])
        rows = list(csv.reader(io.StringIO((out / "betweenness.csv").read_text(encoding="utf-8"))))
        row = next(i for i, r in enumerate(rows[1:], start=1) if float(r[2]) > 0)
        _flip_digit(out / "betweenness.csv", row, 2)
        self.assertTrue(check.check_run("centrality", 0, out, expected, self.tol))

    def test_flipped_digit_in_correlation_fails(self):
        workdir, expected = _prepared("correlate", "correlate", [])
        out = workdir / "out"
        self.assertEqual(_cli("correlate", workdir, out), 0)
        self.assertEqual(check.check_run("correlate", 0, out, expected, self.tol), [])
        before = check.digest(out)
        _flip_digit(out / "correlation.csv", 1, 2)
        self.assertTrue(check.check_run("correlate", 0, out, expected, self.tol))
        self.assertEqual(check.odd_digests([before, check.digest(out), before]), [False, True, False])

    def test_missing_slices_csv_fails(self):
        args = SPEC["workloads"]["evolve-slices"]["args"]
        workdir, expected = _prepared("evolve", "evolve", args)
        out = workdir / "out"
        self.assertEqual(_cli("evolve", workdir, out, *args), 0)
        self.assertEqual(check.check_run("evolve", 0, out, expected, self.tol), [])
        (out / "slices.csv").unlink()
        self.assertTrue(check.check_run("evolve", 0, out, expected, self.tol))

    def test_nonzero_exit_fails(self):
        workdir, expected = _prepared("fit", "fit", [])
        out = workdir / "out"
        self.assertEqual(_cli("fit", workdir, out), 0)
        self.assertEqual(check.check_run("fit", 0, out, expected, self.tol), [])
        self.assertTrue(check.check_run("fit", 3, out, expected, self.tol))
        code = _cli("fit", workdir, out, "--doc-types", "Editorial")
        self.assertNotEqual(code, 0)
        self.assertTrue(check.check_run("fit", code, out, expected, self.tol))


class TracedTest(unittest.TestCase):
    def test_span_tree_covers_every_layer(self):
        seen = set()
        for name, wl in SPEC["workloads"].items():
            workdir, expected = _prepared(f"traced-{name}", wl["command"], wl["args"])
            out, mem = workdir / "traced-out", workdir / "traced-mem"
            for d in (out, mem):
                shutil.rmtree(d, ignore_errors=True)
                d.mkdir(parents=True)
            trace_path = workdir / "trace.json"
            argv = [sys.executable, str(HERE / "traced.py"), "--out", str(trace_path),
                    "--memory-outdir", str(mem), "--", *run.cli_argv(wl, workdir, out)[3:]]
            done = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, text=True)
            self.assertEqual(done.returncode, 0, done.stderr)
            doc = json.loads(trace_path.read_text(encoding="utf-8"))
            self.assertEqual(doc["missing"], [])
            layers = {span[1].split(".")[0] for span in doc["spans"]}
            wanted = {layer for layer, info in SPEC["layers"].items() if name in info["workloads"]}
            self.assertLessEqual(wanted, layers, name)
            seen |= layers
            metrics = traced.layer_metrics(doc)
            self.assertGreater(metrics["trace.total_s"], 0.0)
            for d in (out, mem):
                self.assertEqual(check.check_run(wl["command"], 0, d, expected, SPEC["tolerances"]), [])
        self.assertLessEqual(set(SPEC["layers"]), seen)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_matches_spec(self):
        path = ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        bench = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(SPEC["workloads"]))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.per_layer_units(SPEC))


if __name__ == "__main__":
    unittest.main(verbosity=2)
