"""Every function, public class, method and field of the package has a caller in it.

A name counts as used when some module of ``tlqr`` (the package
``__init__``, which holds only ``__version__``, aside) refers to it outside
its own definition: a top-level function (public or private) or a public
class by name or as a module attribute, a method as an attribute, an
annotated class field as an attribute read. A class whose instances the package passes to
``dataclasses.asdict`` or ``vars`` has every field read; the instance's class comes
from an annotation of its name, or from the return annotation of the call
that assigned it. The match is by name, not by type, so a method or field
is covered by any attribute of the same name.

With no plant base class in the package, ``test_plant_interface`` keeps the
tests' linear plant honest: it has every attribute that the modules taking
a plant read off it, as the car does.
"""
import ast
from collections import defaultdict
from pathlib import Path

import tlqr.dynamics
from conftest import LinearSystem

SOURCES = sorted(p for p in Path(tlqr.__file__).parent.glob("*.py") if p.name != "__init__.py")
# The modules that take a plant as ``model`` (in config and experiments that
# name is a ModelConfig).
PLANT_USERS = ("large_deviations", "lqr", "planner", "simulate")


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, kind, class name) of every checked definition.

    kind is "name" for a top-level function or a public class, "method" or
    "field" for a public method or annotated field of a public class, whose
    name is the last entry (None for the others).
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) or (
            isinstance(node, ast.ClassDef) and _public(node.name)
        ):
            yield f"{module}.{node.name}", node.name, "name", None
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, "method", node.name
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and _public(item.target.id)
                ):
                    qualified = f"{module}.{node.name}.{item.target.id}"
                    yield qualified, item.target.id, "field", node.name


def _last_name(node: ast.expr) -> str | None:
    """The identifier an expression ends in: ``b`` for ``a.b`` and ``f(x).b``, ``a`` for ``a``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _annotation_names(node: ast.expr | None) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def _bindings(target: ast.expr, annotation: ast.expr | None):
    """(name, annotation) pairs of an assignment; a tuple target unpacks a tuple[...] one."""
    if isinstance(target, ast.Name):
        yield target.id, annotation
    elif (
        isinstance(target, ast.Tuple)
        and isinstance(annotation, ast.Subscript)
        and isinstance(annotation.slice, ast.Tuple)
        and len(target.elts) == len(annotation.slice.elts)
    ):
        for item, item_annotation in zip(target.elts, annotation.slice.elts):
            yield from _bindings(item, item_annotation)


def serialized_classes(nodes: list[ast.AST]) -> set[str]:
    """Names of the classes whose instances reach ``asdict`` or ``vars``, as the docstring says."""
    annotated = defaultdict(set)
    returns = {}
    for node in nodes:
        if isinstance(node, ast.AnnAssign):
            annotated[_last_name(node.target)] |= _annotation_names(node.annotation)
        elif isinstance(node, ast.arg):
            annotated[node.arg] |= _annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            returns[node.name] = node.returns
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            annotation = returns.get(_last_name(node.value.func))
            for target in node.targets:
                for name, item_annotation in _bindings(target, annotation):
                    annotated[name] |= _annotation_names(item_annotation)
    return {
        cls
        for node in nodes
        if isinstance(node, ast.Call) and _last_name(node.func) in ("asdict", "vars")
        for cls in annotated[_last_name(node.args[0])]
    }


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
    serialized = serialized_classes(nodes)
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name, kind, cls in _definitions(module, tree)
        if name not in used[kind] and not (kind == "field" and cls in serialized)
    ]


def test_every_public_name_has_a_caller():
    unreferenced = unreferenced_names()
    assert unreferenced == [], f"public names with no caller in the package: {unreferenced}"


def test_plant_interface():
    """Both plants have every attribute the plant users read off ``model`` or ``<x>.model``."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES if p.stem in PLANT_USERS]
    used = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _last_name(node.value) == "model"
    }
    # An empty set (the plant renamed away from ``model``) would pass vacuously.
    assert {
        "clamp_rows",
        "control_bounds",
        "costates",
        "open_loop_rollout",
        "rollout_nominal",
        "step_rows",
        "transition_jacobians",
        "validate_control",
    } <= used
    for plant in (tlqr.dynamics.KinematicCar(), LinearSystem(a=[[1.0]], b=[[1.0]])):
        missing = sorted(name for name in used if not hasattr(plant, name))
        assert missing == [], f"{type(plant).__name__} lacks {missing}"
