"""Import hygiene of the miniproof package, checked with the stdlib ``ast``
module: no module imports a name it never uses, and none imports a
``_private`` name from another miniproof module."""

import ast
from pathlib import Path

import miniproof

PACKAGE = Path(miniproof.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, imported name, import node) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def _from_miniproof(node: ast.AST) -> bool:
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "miniproof"
    )


def _offenders(check) -> list[str]:
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.extend(f"{path.relative_to(PACKAGE)}: {name}" for name in check(tree))
    return out


def test_every_imported_name_is_used():
    def unused(tree):
        used = _used_names(tree)
        return [bound for bound, _, _ in _imports(tree) if bound not in used]

    assert _offenders(unused) == []


def test_no_private_name_is_imported_from_another_miniproof_module():
    def private(tree):
        return [
            name
            for _, name, node in _imports(tree)
            if _from_miniproof(node) and name.startswith("_")
        ]

    assert _offenders(private) == []
