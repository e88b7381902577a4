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


PARAM_CLASSES = ("ConstructionParams", "ExposureParams", "AuditParams")


def test_every_param_field_is_read():
    # a parameter field that only __post_init__ validates changes nothing
    # but header bytes, so every field must be read somewhere else
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    declared = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in PARAM_CLASSES:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        declared[f"{node.name}.{stmt.target.id}"] = stmt.target.id
    assert {key.split(".")[0] for key in declared} == set(PARAM_CLASSES)
    skip = {id(node) for tree in trees for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skip}
    unread = sorted(key for key, name in declared.items() if name not in read)
    assert not unread, unread
