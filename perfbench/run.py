"""Benchmark of the coauthnet CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere; the program under test is the ``src/`` tree next to this
directory, run in fresh interpreters with ``PYTHONPATH`` set to it. The
workloads, corpus sizes, tolerances and the layer map are in ``spec.json``.

``--trace 0`` repeats, closed loop and one at a time until ``--seconds`` have
passed (at least ``min_reps`` times): one fresh ``import coauthnet.cli`` and
one CLI command. It reports medians of wall_s, cpu_s and peak_rss_mb (the
child's own user+sys time and max RSS from ``os.wait4``) and setup_s (the
import). Every run's outputs are checked against the oracle and against the
other runs' bytes; ``failed`` counts the runs that fail.

``--trace 1`` first makes one traced in-process run (``traced.py``) and then
the same untraced loop, and reports the per-layer metrics, the traced total
and its overhead against the untraced median ``wall_s - setup_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Working files go to
``.perfbench/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_LIMIT_S = 150.0

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import traced  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_EXTRA = {"trace.total_s": "s", "trace.untraced_s": "s", "trace.overhead_frac": "fraction"}


def per_layer_units(spec: dict) -> dict[str, str]:
    units = {}
    for layer in spec["layers"].values():
        for name in layer["metrics"]:
            if name.endswith("_per_s"):
                units[name] = "1/s"
            elif name.endswith("_s"):
                units[name] = "s"
            elif name.endswith("_mb"):
                units[name] = "MB"
            elif name.endswith("bytes_out"):
                units[name] = "bytes"
            else:
                units[name] = "count"
    units.update(TRACE_EXTRA)
    return units


def spawn(argv: list[str], stderr_path: Path) -> tuple[int, float, float, float]:
    """Run argv to completion in ROOT; (exit code, wall s, cpu s, max RSS MB).

    CPU time and max RSS are the child's own, from os.wait4 on its pid.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def time_import(import_argv: list[str], errlog: Path) -> float:
    exit_code, wall, _, _ = spawn(import_argv, errlog)
    if exit_code != 0:
        raise RuntimeError(f"`import coauthnet.cli` exited {exit_code}; see {errlog}")
    return wall


def prepare(name: str, wl: dict, seed: int) -> tuple[Path, dict]:
    """Generate the corpus and load (computing once) the expected outputs."""
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "prepare.py"), "--workdir", str(workdir),
            "--command", wl["command"], "--scale", repr(wl["scale"]), "--seed", str(seed),
            "--", *wl["args"]]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    if done.returncode != 0:
        raise RuntimeError(f"prepare failed for {name}:\n{done.stderr}")
    expected = Path(done.stdout.strip().splitlines()[-1])
    return workdir, json.loads(expected.read_text(encoding="utf-8"))


def cli_argv(wl: dict, workdir: Path, outdir: Path) -> list[str]:
    rel = lambda p: str(p.relative_to(ROOT))  # noqa: E731
    return [sys.executable, "-m", "coauthnet.cli", wl["command"],
            "--input", rel(workdir / "corpus.tsv"),
            "--merge-map", rel(workdir / "merge_map.csv"),
            "--output-dir", rel(outdir), *wl["args"]]


def measure(wl: dict, workdir: Path, expected: dict, spec: dict, seconds: float) -> dict:
    """The untraced closed loop; medians and per-run verdicts."""
    tol = spec["tolerances"]
    outdir = workdir / "out"
    argv = cli_argv(wl, workdir, outdir)
    import_argv = [sys.executable, "-c", "import coauthnet.cli"]
    errlog = workdir / "stderr.log"
    # warm-up: byte-compile src/ and load the corpus into the page cache
    spawn(import_argv, errlog)
    runs = []
    verdicts: dict[tuple[int, str], list[str]] = {}
    start = time.perf_counter()
    deadline = start + seconds
    setups = []
    while True:
        t0 = time.perf_counter()
        setups.append(time_import(import_argv, errlog))
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        exit_code, wall, cpu, rss = spawn(argv, errlog)
        digest = check.digest(outdir)
        key = (exit_code, digest)
        if key not in verdicts:
            verdicts[key] = check.check_run(wl["command"], exit_code, outdir, expected, tol)
        runs.append({"wall": wall, "cpu": cpu, "rss": rss, "digest": digest,
                     "problems": list(verdicts[key]), "cycle": time.perf_counter() - t0})
        cycle = statistics.median(r["cycle"] for r in runs)
        if len(runs) >= spec["run"]["min_reps"] and time.perf_counter() + cycle > deadline:
            break
    while len(setups) < spec["run"]["min_setups"]:
        setups.append(time_import(import_argv, errlog))
    for run, odd in zip(runs, check.odd_digests([r["digest"] for r in runs])):
        if odd:
            run["problems"].append("output bytes differ from the other runs of this set")
    failed = [r for r in runs if r["problems"]]
    for r in failed[:3]:
        print("FAILED: " + "; ".join(r["problems"][:5]), file=sys.stderr)
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    return {
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {"wall_s": med("wall"), "cpu_s": med("cpu"),
                    "peak_rss_mb": med("rss"), "setup_s": statistics.median(setups)},
        "walls": sorted(r["wall"] for r in runs),
    }


def trace_run(wl: dict, workdir: Path, expected: dict, spec: dict) -> tuple[dict, list[str]]:
    """One traced in-process run; its per-layer metrics and output problems."""
    outdir, memdir = workdir / "traced-out", workdir / "traced-mem"
    for d in (outdir, memdir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
    trace_path = workdir / "trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "traced.py"), "--out", str(trace_path),
            "--memory-outdir", str(memdir.relative_to(ROOT)), "--",
            *cli_argv(wl, workdir, outdir)[3:]]
    exit_code, _, _, _ = spawn(argv, workdir / "traced-stderr.log")
    if not trace_path.is_file():
        return {}, [f"traced run exited {exit_code} without a trace"]
    doc = json.loads(trace_path.read_text(encoding="utf-8"))
    problems = [
        f"{d.name}: {p}"
        for d in (outdir, memdir)
        for p in check.check_run(wl["command"], exit_code, d, expected, spec["tolerances"])
    ]
    if doc["missing"]:
        print("traced functions missing: " + ", ".join(doc["missing"]), file=sys.stderr)
    metrics = traced.layer_metrics(doc)
    metrics["cli.bytes_out"] = sum(p.stat().st_size for p in outdir.iterdir())
    return metrics, problems


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    wl = spec["workloads"][name]
    workdir, expected = prepare(name, wl, seed)
    if not trace:
        result = measure(wl, workdir, expected, spec, seconds)
        values = result["metrics"]
        units = END_TO_END
    else:
        layer, problems = trace_run(wl, workdir, expected, spec)
        result = measure(wl, workdir, expected, spec, seconds)
        untraced = result["metrics"]["wall_s"] - result["metrics"]["setup_s"]
        units = per_layer_units(spec)
        values = {key: float(layer.get(key, 0.0)) for key in units}
        values["trace.untraced_s"] = untraced
        values["trace.overhead_frac"] = values["trace.total_s"] / untraced - 1.0
        result["attempted"] += 1
        result["failed"] += bool(problems)
        for p in problems[:5]:
            print(f"FAILED traced run: {p}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "walls": result["walls"],
    }


def summary_line(name: str, res: dict) -> str:
    m = res["metrics"]
    cells = [f"{k}={m[k]['value']:.4f} {m[k]['unit']}" for k in END_TO_END if k in m]
    frac = res["failed"] / res["attempted"]
    walls = ", ".join(f"{w:.3f}" for w in res["walls"])
    return (f"{name:14s} " + "  ".join(cells)
            + f"  failed_frac={frac:.3f} ({res['failed']}/{res['attempted']} runs; wall s: {walls})")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="coauthnet CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "coauthnet" / "cli.py").is_file():
        print(f"error: no coauthnet source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(spec["workloads"]) if ns.workload == "all" else [ns.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, spec, ns.seed, ns.seconds, bool(ns.trace))
        print(summary_line(name, results[name]), file=sys.stdout if len(names) > 1 else sys.stderr)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"runner max RSS {own_rss:.1f} MB", file=sys.stderr)
    if len(names) == 1:
        out = dict(results[names[0]])
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    out.pop("walls", None)
    print(json.dumps(out, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
