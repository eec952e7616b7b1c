"""Which numeric modules the package and each command load, and on how many
threads a command runs once they are loaded.

Every check runs in a fresh interpreter, so modules imported by other tests
do not count, and compares module names and thread counts only, never
timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_digests import DIGESTS, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture_corpus.tsv")
MERGE_MAP = str(DATA / "merge_map.csv")


def json_after(code: str, probe: str, **env_changes: str | None) -> object:
    """The JSON value that expression probe has after running code in a fresh
    interpreter, its environment changed by env_changes (None unsets)."""
    env = dict(os.environ)
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    program = f"{code}\nimport json, os, sys\nprint(json.dumps({probe}))"
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def numeric_modules_after(code: str) -> set[str]:
    """Names of the numpy/scipy modules loaded after running code."""
    return set(json_after(
        code, "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))"))


def command_code(tmp_path: Path, *argv: str, corpus: str = FIXTURE,
                 merge_map: str = MERGE_MAP) -> str:
    args = [*argv, "--input", corpus, "--merge-map", merge_map, "--output-dir", str(tmp_path)]
    return f"from coauthnet.cli import main\nassert main({args!r}) == 0"


def after_command(tmp_path: Path, *argv: str, **paths: str) -> set[str]:
    return numeric_modules_after(command_code(tmp_path, *argv, **paths))


@pytest.mark.parametrize("module", ["coauthnet", "coauthnet.cli"])
def test_import_loads_no_numeric_module(module):
    assert numeric_modules_after(f"import {module}") == set()


def test_fit_loads_no_numeric_module(tmp_path):
    assert after_command(tmp_path, "fit") == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("stats",),
        ("evolve", "--start-year", "1988", "--slices", "1992,1997,2002,2007"),
        ("centrality",),
    ],
)
def test_graph_commands_load_numpy_and_no_scipy(tmp_path, argv):
    loaded = after_command(tmp_path, *argv)
    assert "numpy" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_correlate_takes_the_t_tail_from_scipy_special(tmp_path):
    loaded = after_command(tmp_path, "correlate")
    assert {"numpy", "scipy.special"} <= loaded
    assert not {m for m in loaded if m.startswith(("scipy.sparse", "scipy.stats"))}


def test_correlate_on_clearly_significant_pairs_loads_no_scipy(tmp_path):
    """On the tier-1 digest corpus every pair is clearly significant, so the
    closed-form tail bound settles every flag and scipy never loads."""
    tier = DIGESTS["tier1"]
    write_corpus(tmp_path, tier["scale"], tier["seed"])
    loaded = after_command(tmp_path / "out", "correlate", corpus=str(tmp_path / "corpus.tsv"),
                           merge_map=str(tmp_path / "merge_map.csv"))
    assert "numpy" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


BLAS_THREADS = "OPENBLAS_NUM_THREADS"
THREADS = "[line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')]"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads /proc/self/status")
def test_correlate_runs_on_one_thread(tmp_path):
    """correlate loads numpy, whose OpenBLAS would start a worker thread per
    CPU that no command uses; with the variable unset, main sets it to 1 while
    it runs and unsets it again on return."""
    code = command_code(tmp_path, "correlate")
    probe = f"['numpy' in sys.modules, os.environ.get({BLAS_THREADS!r}), {THREADS}]"
    assert json_after(code, probe, **{BLAS_THREADS: None}) == [True, None, ["1"]]


def test_preset_blas_thread_count_is_kept(tmp_path):
    code = command_code(tmp_path, "correlate")
    assert json_after(code, f"os.environ.get({BLAS_THREADS!r})", **{BLAS_THREADS: "2"}) == "2"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, exit_code", [
    (["fit"], 0),
    (["fit", "--start-year", "1800"], 1),
], ids=["success", "config-error"])
def test_collector_state_is_kept(tmp_path, enabled, argv, exit_code):
    """main pauses the cyclic garbage collector while a command runs and hands
    it back as it found it, whether the command succeeds or exits 1."""
    args = [*argv, "--input", FIXTURE, "--output-dir", str(tmp_path)]
    code = (f"import gc\ngc.{'enable' if enabled else 'disable'}()\n"
            "import coauthnet.cli as cli\nseen, fit = [], cli.cmd_fit\n"
            "cli.cmd_fit = lambda cfg: seen.append(gc.isenabled()) or fit(cfg)\n"
            f"assert cli.main({args!r}) == {exit_code}")
    paused = [False] if exit_code == 0 else []
    assert json_after(code, "[seen, gc.isenabled()]") == [paused, enabled]
