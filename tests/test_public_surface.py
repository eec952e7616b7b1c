"""The package's public surface: each export written once, the README's
library example runs on it, and the benchmark finds every name it wraps.

``perfbench/traced.py`` is loaded from its path, as ``test_digests`` loads
``perfbench/corpus.py``; it imports only the standard library at load time.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import shutil
from pathlib import Path

import coauthnet

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
FIXTURE = Path(__file__).parent / "data" / "fixture_corpus.tsv"
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


def test_benchmark_selftest_imports_only_exported_names():
    imported = coauthnet_imports((PERFBENCH / "selftest.py").read_text(encoding="utf-8"))
    assert imported
    assert set(imported) <= set(coauthnet.__all__)
