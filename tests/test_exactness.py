"""No floating point in the library: every verdict opnkit states is exact.

Walks the syntax tree of each src/opnkit module and names every true division,
float literal, use of the name float and call path to a float function.  isqrt,
integer division and Fraction pass.
"""

import ast
from pathlib import Path

import pytest

import opnkit

_MODULES = sorted(Path(opnkit.__file__).parent.glob("*.py"))
_FLOAT_ATTRIBUTES = {"sqrt", "log", "log2", "exp", "floor", "ceil", "divide", "true_divide"}


def float_uses(source: str) -> list[str]:
    """'line: what' for each float-producing node of one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
        elif isinstance(node, ast.Attribute) and node.attr in _FLOAT_ATTRIBUTES:
            found.append(f"{node.lineno}: attribute {node.attr}")
    return found


def test_every_module_is_walked():
    assert {"arith.py", "cli.py", "congruences.py", "identities.py", "sieve.py"} <= {m.name for m in _MODULES}


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.name)
def test_no_floating_point(module):
    assert float_uses(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source,expected",
    [
        ("x = a / b", ["1: true division"]),
        ("x /= 2", ["1: true division"]),
        ("x = 0.5", ["1: float literal 0.5"]),
        ("x = 1e3", ["1: float literal 1000.0"]),
        ("x = float(n)", ["1: name float"]),
        ("x = np.sqrt(h)", ["1: attribute sqrt"]),
        ("y = 1\nx = math.log2(n)", ["2: attribute log2"]),
        ("x = np.true_divide(a, b)", ["1: attribute true_divide"]),
        ("x = a // b; y = isqrt(n); z = Fraction(1, 3); w = a % b", []),
    ],
)
def test_each_float_form_is_named(source, expected):
    assert float_uses(source) == expected
