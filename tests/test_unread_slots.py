"""Every private slot of a package class is read somewhere in the package.

A slot that code only assigns is state every instance carries and nothing
uses; this guard catches one left behind by a refactor. A private slot is an
underscore-prefixed name in a class's ``__slots__``; it counts as read where
an attribute of that name is loaded, on any object, in any package module."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coauthnet"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_slots(tree: ast.AST) -> list[str]:
    """``Class.slot`` for each underscore-prefixed name in a ``__slots__``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                found += [f"{cls.name}.{name}" for name in ast.literal_eval(node.value)
                          if name.startswith("_")]
    return found


def unread_slots(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [slot for tree in trees for slot in private_slots(tree)
            if slot.partition(".")[2] not in read]


def test_guard_sees_a_slot_only_assigned():
    source = ("class A:\n    __slots__ = ('_kept', '_dropped', 'public')\n"
              "    def __init__(self):\n        self._kept, self._dropped = 1, 2\n"
              "def f(a):\n    return a._kept\n")
    assert unread_slots([source]) == ["A._dropped"]


def test_every_private_slot_is_read():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert any(private_slots(ast.parse(source)) for source in sources)  # the guard sees slots
    assert unread_slots(sources) == []
