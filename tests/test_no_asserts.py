"""The library holds no assert statements.

python -O strips asserts, so an invariant that guards termination or output
must be a check that raises.
"""

import ast
from pathlib import Path

import polytx

SRC = Path(polytx.__file__).parent


def test_library_has_no_asserts():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
