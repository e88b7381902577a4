"""Source-level rules for the package itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ramspect"


def test_no_assert_guards_in_package():
    # python -O strips assert statements, so an invariant that guards a
    # result must raise a RamspectError instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert SRC.joinpath("__init__.py").exists()
    assert not found, found
