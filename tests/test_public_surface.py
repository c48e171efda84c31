"""Every public function, class, method and field of the package has a caller in it.

A name counts as used when some module of ``tlqr`` other than the package
``__init__`` (which only re-exports) refers to it outside its own
definition: a function or class by name or as a module attribute, a method
as an attribute, an annotated class field as an attribute read. The match
is by name, not by type, so a method or field is covered by any attribute
of the same name.
"""
import ast
from pathlib import Path

import tlqr

SOURCES = sorted(p for p in Path(tlqr.__file__).parent.glob("*.py") if p.name != "__init__.py")

# Public names kept without a caller in the package, each with its reason.
ALLOWED = {
    "simulate.rollout": "oracle of rollout_states",
    "dynamics.LinearSystem": "test model",
    "simulate.Rollout.noises": "oracle output that tests compare",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, kind) of every public top-level definition.

    kind is "name" for a function or class, "method" or "field" for a
    public method or annotated field of a public class.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name, "name"
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, "method"
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and _public(item.target.id)
                ):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id, "field"


def unreferenced_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = [node for node in nodes if isinstance(node, ast.Attribute)]
    used = {
        "name": names | {node.attr for node in attributes},
        "method": {node.attr for node in attributes},
        "field": {node.attr for node in attributes if isinstance(node.ctx, ast.Load)},
    }
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name, kind in _definitions(module, tree)
        if name not in used[kind]
    ]


def test_every_public_name_has_a_caller():
    unreferenced = unreferenced_names()
    missing = [name for name in unreferenced if name not in ALLOWED]
    assert missing == [], f"public names with no caller in the package: {missing}"
    stale = sorted(set(ALLOWED) - set(unreferenced))
    assert stale == [], f"allowlisted names that now have a caller or are gone: {stale}"
