"""The one number format: ``_csvtext.csv_text`` prints every float cell,
and no other module decides how a number is written."""

from __future__ import annotations

import ast
import math
from pathlib import Path

from coauthnet._csvtext import csv_text

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coauthnet"


def test_floats_print_at_seventeen_significant_digits():
    text = csv_text(["x"], [[0.1], [1.0], [1 / 3], [-1e-7]])
    assert text == "x\n0.10000000000000001\n1\n0.33333333333333331\n-9.9999999999999995e-08\n"


def test_nan_and_inf_print_as_before():
    assert csv_text(["a", "b", "c"], [[math.nan, math.inf, -math.inf]]) == "a,b,c\nnan,inf,-inf\n"


def test_non_float_cells_pass_through():
    text = csv_text(["i", "s", "big"], [(3, "MEHO, LI", 10**17 + 1)])
    assert text == 'i,s,big\n3,"MEHO, LI",100000000000000001\n'


def test_number_format_lives_in_csvtext_alone():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if ".17g" in text] == ["_csvtext.py"]
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "_csvtext":
                assert [alias.name for alias in node.names] == ["csv_text"], name
