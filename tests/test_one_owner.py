"""Each decision of the numeric kernels, of the line reader and of the argument
bounds lives in one module.

How a kernel reads a graph (``csr_view``) and the exact per-source loop that
the dependency kernel reproduces and falls back to (``_source_dependencies``)
belong to ``_numeric``: its entries take the graph itself, so no other package
module names either. A leading byte order mark is dropped in one place,
``ingest._lines``, which every parser reads its input through. Each bound on
an argument is checked by one function in the module that uses the argument;
the CLI and the library call the same one, so a bad argument raises
ConfigError naming it, whoever passes it."""

from __future__ import annotations

import ast
import inspect
import math
from pathlib import Path

import pytest

from coauthnet import (
    BiblioRecord,
    CentralityVector,
    CoauthGraph,
    ConfigError,
    cumulative_slices,
    filter_documents,
    histogram,
    ingest,
    pagerank,
    rank_table,
)
from coauthnet.stats import MAX_HISTOGRAM_BINS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coauthnet"
MODULES = sorted(PACKAGE.glob("*.py"))
NUMERIC_NAMES = ("csr_view", "_source_dependencies")


def referenced(source: str, names: tuple[str, ...]) -> list[str]:
    """One entry per reference the source makes to any of the names: a use, an
    attribute, an import or a function definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name)
        elif isinstance(node, ast.FunctionDef):
            found.append(node.name)
    return [name for name in found if name in names]


def test_guard_sees_every_kind_of_reference():
    source = ("from ._numeric import csr_view\nimport coauthnet._numeric as m\n"
              "def f(g):\n    return m._source_dependencies(g._adj, 0), csr_view(g)\n")
    assert sorted(referenced(source, NUMERIC_NAMES)) == [
        "_source_dependencies", "csr_view", "csr_view"]


def test_only_numeric_reads_a_graph_as_csr_and_owns_the_exact_loop():
    assert referenced((PACKAGE / "_numeric.py").read_text(encoding="utf-8"), NUMERIC_NAMES)
    others = {path.name: referenced(path.read_text(encoding="utf-8"), NUMERIC_NAMES)
              for path in MODULES if path.name != "_numeric.py"}
    assert {name: found for name, found in others.items() if found} == {}


# a byte order mark as written in source: the character itself or its escape
BOM_SPELLINGS = ("\ufeff", "\\ufeff")


def test_only_the_line_reader_drops_a_byte_order_mark():
    counts = {path.name: sum(path.read_text(encoding="utf-8").count(spelling)
                             for spelling in BOM_SPELLINGS) for path in MODULES}
    assert {name: count for name, count in counts.items() if count} == {"ingest.py": 1}
    assert any(spelling in inspect.getsource(ingest._lines) for spelling in BOM_SPELLINGS)


# one message stem per bound; ">= 1" serves every count argument
BOUND_STEMS = ("must lie in (0, 1)", "must be positive", "must be finite", "must be <= ",
               "strictly increasing", ">= 1", "is required for evolve",
               "before the start year", "at least one document type")


def raise_sites(source: str, stem: str) -> int:
    """How many raise statements carry the stem in a string literal of their
    exception, f-string parts included; docstrings and comments do not count."""
    return sum(any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                   and stem in part.value for part in ast.walk(node.exc))
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise) and node.exc)


def test_raise_site_counter_reads_only_raised_literals():
    source = ('def f(n):\n    """n must be positive."""\n    # must be positive\n'
              '    if n < 0:\n        raise ValueError(f"{n} must be positive, got {n}")\n'
              '    raise ValueError("n must be positive")\n')
    assert raise_sites(source, "must be positive") == 2
    assert raise_sites(source, "must be finite") == 0


def test_each_bound_is_raised_from_one_site():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    counts = {stem: sum(raise_sites(source, stem) for source in sources) for stem in BOUND_STEMS}
    assert counts == dict.fromkeys(BOUND_STEMS, 1)


GRAPH = CoauthGraph({"a": {"b": 1}, "b": {"a": 1}})
RECORDS = [BiblioRecord("R1", ("A",), 1990, "Article", 0, "J")]


@pytest.mark.parametrize("call, name", [
    (lambda: pagerank(GRAPH, damping=1.0), "damping"),
    (lambda: pagerank(GRAPH, tol=0.0), "tol"),
    (lambda: pagerank(GRAPH, tol=math.nan), "tol"),
    (lambda: pagerank(GRAPH, tol=math.inf), "tol"),
    (lambda: pagerank(GRAPH, max_iter=0), "max_iter"),
    (lambda: rank_table(CentralityVector("degree", {"a": 1}), 0), "top_n"),
    (lambda: histogram([1.0], bins=0), "bins"),
    (lambda: histogram([1.0], bins=MAX_HISTOGRAM_BINS + 1), "bins"),
    (lambda: histogram([], bins=0), "bins"),
    (lambda: cumulative_slices(RECORDS, 1990, []), "boundaries"),
    (lambda: cumulative_slices(RECORDS, 1990, [1995, 1995]), "boundaries"),
    (lambda: cumulative_slices(RECORDS, 1990, [1985, 1995]), "boundaries"),
    (lambda: filter_documents(RECORDS, set()), "allowed"),
], ids=["damping 1", "tol 0", "tol nan", "tol inf", "max_iter 0", "top_n 0", "bins 0",
        "bins too many", "bins 0 on empty input", "no boundaries", "repeated boundary",
        "boundary before start", "no document type"])
def test_library_raises_config_error_naming_the_argument(call, name):
    with pytest.raises(ConfigError) as excinfo:
        call()
    assert str(excinfo.value).startswith(f"{name} ")
