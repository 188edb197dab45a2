import ast
from pathlib import Path

import tilefold


def test_no_assert_in_package():
    # invariants must raise real exceptions, which `python -O` keeps
    found = []
    for path in sorted(Path(tilefold.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)
