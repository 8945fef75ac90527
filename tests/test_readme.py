"""The README's "Library quick tour" runs and gives the values its comments promise."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_source() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_values():
    tree = ast.parse(tour_source())
    namespace: dict = {}
    values = []
    for statement in tree.body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README", "exec"), namespace)
    assert values == [3.0, (1.0, 1.0, 1.0), 0.0, True]
    assert [type(v) for v in values] == [float, tuple, float, bool]
