"""The package's public surface: each export written once, the README's
library example runs on it, and the benchmark finds every name it wraps
and sees each of them run in some command.

``perfbench/traced.py`` is loaded from its path, as ``test_digests`` loads
``perfbench/corpus.py``; it imports only the standard library at load time.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import re
import shutil
import sys
from collections import Counter
from pathlib import Path

import coauthnet
import coauthnet.cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
FIXTURE = Path(__file__).parent / "data" / "fixture_corpus.tsv"
MERGE_MAP = Path(__file__).parent / "data" / "merge_map.csv"
MODULES = ("ingest", "graph", "centrality", "evolve", "stats", "errors")


def library_example() -> str:
    """The ``python`` block under the README's ``## Library`` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def coauthnet_imports(source: str) -> list[str]:
    """Names imported by ``from coauthnet import ...`` anywhere in source."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "coauthnet"
            for alias in node.names]


def span_of() -> dict[str, dict[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_traced", PERFBENCH / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.SPAN_OF


def test_all_is_the_modules_all_concatenated_without_duplicates():
    names = coauthnet.__all__
    assert names == [n for m in MODULES for n in importlib.import_module(f"coauthnet.{m}").__all__]
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(coauthnet, name) is not None


def test_readme_example_imports_only_exported_names():
    imported = coauthnet_imports(library_example())
    assert imported
    assert set(imported) <= set(coauthnet.__all__)


def test_readme_example_runs(tmp_path, monkeypatch):
    shutil.copy(FIXTURE, tmp_path / "corpus.tsv")
    monkeypatch.chdir(tmp_path)
    namespace: dict[str, object] = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert namespace["top"].rows
    assert 0.0 < namespace["ratio"] <= 1.0


def test_every_traced_name_exists_and_is_exported():
    spans = span_of()
    assert spans
    for modname, names in spans.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
            assert name in coauthnet.__all__, name
    assert isinstance(coauthnet.ingest.AuthorMergeMap.__dict__.get("from_csv"), classmethod)


def counting(fn, key: str, calls: Counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_traced_name_runs_in_some_command(tmp_path, monkeypatch):
    """A traced name that no command calls gives a span that reads 0 on working code.

    Each ``SPAN_OF`` function is swapped for a counter in every coauthnet
    namespace that refers to it, as ``traced.Patch`` swaps in its spans.
    """
    calls: Counter = Counter()
    wrappers = {}
    for modname, names in span_of().items():
        module = importlib.import_module(modname)
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, counting(fn, f"{modname}.{name}", calls))
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == "coauthnet" or modname.startswith("coauthnet.")):
            for attr, value in list(vars(module).items()):
                fn, counted = wrappers.get(id(value), (None, None))
                if fn is value:
                    monkeypatch.setattr(module, attr, counted)
    commands = [["stats"], ["centrality"], ["evolve", "--slices", "1992,1997,2002,2007"],
                ["correlate"], ["fit"], ["fit", "--whole-graph"]]
    for i, argv in enumerate(commands):
        out = tmp_path / str(i)
        assert coauthnet.cli.main([*argv, "--input", str(FIXTURE), "--merge-map", str(MERGE_MAP),
                                   "--output-dir", str(out)]) == 0
    never = [f"{modname}.{name}" for modname, names in span_of().items() for name in names
             if not calls[f"{modname}.{name}"]]
    assert never == []


def test_benchmark_selftest_imports_only_exported_names():
    imported = coauthnet_imports((PERFBENCH / "selftest.py").read_text(encoding="utf-8"))
    assert imported
    assert set(imported) <= set(coauthnet.__all__)
