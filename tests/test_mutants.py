"""The six operators of ``scripts/mutants.py`` on one planted source: each yields a mutant
that parses and differs, and none touches a docstring, ``__all__`` or ``TYPE_CHECKING``."""

import ast
import importlib.util
import pathlib

PLANTED = b'''\
"""Module docstring: 1 < 2 and 3."""
from typing import TYPE_CHECKING

__all__ = ["f" if 1 < 2 else "g"]
if TYPE_CHECKING:
    LIMIT = 1 < 2 or 3


def f(a, b=2):
    """Function docstring: return 1 < 2."""
    total = a + 1
    while a < b and b:
        return total
    return a
'''
PROTECTED = {1, 4, 5, 6, 10}  # the docstrings, __all__ and the TYPE_CHECKING block


def test_every_operator_yields_a_parsing_mutant_off_the_protected_lines():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    found = tool.mutants("planted.py", PLANTED)
    assert {m.operator for m in found} == set(tool.OPERATORS)
    for mutant in found:
        source = mutant.apply(PLANTED)
        ast.parse(source)
        assert source != PLANTED and not PROTECTED & set(range(mutant.line, mutant.end_line + 1))
        assert source.splitlines()[:mutant.line - 1] == PLANTED.splitlines()[:mutant.line - 1]
