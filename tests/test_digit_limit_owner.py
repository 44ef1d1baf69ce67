"""One owner of the int-to-str digit limit: only cli.py reads or sets it.

The limit is process-wide.  cli.run serializes its calls on one lock and lifts
the limit only inside them, so a library module that lifted it itself would
race with every concurrent CLI call.  Walks the syntax tree of each src/opnkit
module and names every reference to the limit's two functions: as a name, an
attribute, an imported name or a string (as getattr would take it).
"""

import ast
from pathlib import Path

import pytest

import opnkit

_MODULES = sorted(Path(opnkit.__file__).parent.glob("*.py"))
_LIMIT_FUNCTIONS = {"set_int_max_str_digits", "get_int_max_str_digits"}


def limit_references(source: str) -> list[str]:
    """'line: name' for each reference to a digit-limit function in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in _LIMIT_FUNCTIONS:
            found.append(f"{node.lineno}: {name}")
    return found


def test_cli_is_walked_and_owns_the_limit():
    cli = next(m for m in _MODULES if m.name == "cli.py")
    assert limit_references(cli.read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", [m for m in _MODULES if m.name != "cli.py"], ids=lambda m: m.name)
def test_no_other_module_touches_the_limit(module):
    assert limit_references(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source,expected",
    [
        ("sys.set_int_max_str_digits(0)", ["1: set_int_max_str_digits"]),
        ("x = 1\nlimit = sys.get_int_max_str_digits()", ["2: get_int_max_str_digits"]),
        ("from sys import set_int_max_str_digits", ["1: set_int_max_str_digits"]),
        ("f = getattr(sys, 'get_int_max_str_digits')", ["1: get_int_max_str_digits"]),
        ("x = sys.maxsize; y = str(10**5000)", []),
    ],
)
def test_each_reference_form_is_named(source, expected):
    assert limit_references(source) == expected
