"""Every public function, class and method of the package has a caller in it.

A name counts as used when some module of ``tlqr`` other than the package
``__init__`` (which only re-exports) refers to it outside its own
definition: a function or class by name or as a module attribute, a method
as an attribute. The match is by name, not by type, so a method is covered
by any attribute of the same name.
"""
import ast
from pathlib import Path

import tlqr

SOURCES = sorted(p for p in Path(tlqr.__file__).parent.glob("*.py") if p.name != "__init__.py")

# Public names kept without a caller in the package, each with its reason.
ALLOWED = {
    "simulate.rollout": "oracle of rollout_states",
    "dynamics.LinearSystem": "test model",
    "simulate.decay_rate_ratio": "acceptance criteria 6-8 use it",
    "simulate.SweepResult.epsilons": "acceptance criteria 6-8 use it",
    "simulate.SweepResult.closed": "acceptance criteria 6-8 use it",
    "_stats.spearman": "acceptance criteria 6-8 use it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, is_method) of every public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def unreferenced_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name, is_method in _definitions(module, tree)
        if name not in attributes and (is_method or name not in names)
    ]


def test_every_public_name_has_a_caller():
    unreferenced = unreferenced_names()
    missing = [name for name in unreferenced if name not in ALLOWED]
    assert missing == [], f"public names with no caller in the package: {missing}"
    stale = sorted(set(ALLOWED) - set(unreferenced))
    assert stale == [], f"allowlisted names that now have a caller or are gone: {stale}"
