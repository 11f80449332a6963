"""The README's orientation example, run as written."""

import ast
import os
import re
from fractions import Fraction

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_orientation_example_gives_the_values_its_comments_state():
    with open(README, encoding="utf-8") as handle:
        (block,) = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.S | re.M)
    lines = block.splitlines()
    namespace = {}
    values, comments = [], []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
            comments.append(lines[statement.lineno - 1].partition("#")[2].strip())
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert values[:2] == [61, 8]
    assert str(values[2]) == "0 mod 4"
    assert values[3] == (1, 5, 21)
    assert repr(values[4]) == "Fraction(87, 1)" and values[4] == Fraction(87)
    assert len(values) == 5
    for value, comment in zip(values, comments):
        assert comment.startswith(repr(value) if isinstance(value, Fraction) else str(value)), comment
