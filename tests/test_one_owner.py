"""Each decision of the numeric kernels and of the line reader lives in one module.

How a kernel reads a graph (``csr_view``) and the exact per-source loop that
the dependency kernel reproduces and falls back to (``_source_dependencies``)
belong to ``_numeric``: its entries take the graph itself, so no other package
module names either. A leading byte order mark is dropped in one place,
``ingest._lines``, which every parser reads its input through."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from coauthnet import ingest

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
