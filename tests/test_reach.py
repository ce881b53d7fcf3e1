"""Every exported name reaches the product: each name in a module's
__all__, and each public method or property of a class there, is read by
some code of the package other than its definition and its __all__ entry,
unless it is one of the outside entry points below; each of those names
an exported name or public member."""
import ast
from pathlib import Path

import rorrlab

PACKAGE = Path(rorrlab.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}

# Names that code outside the package (the benchmark, CI and the benchmark's
# tests) calls, so they need no reader inside it. Test-only names do not belong here.
OUTSIDE_ENTRY_POINTS = {
    # The benchmark's calls (perfbench/workloads.py).
    ("distinguish", "advantage"),
    ("qsim", "amplified_solver"),
    ("qsim", "run_rorrelation_circuit"),
    ("rorrelation", "classify"),
    ("rorrelation", "phi"),
    ("rorrelation", "save_instances"),
    ("rorrelation", "load_instances"),
    # CI's comparison of two manifests.
    ("verify", "strip_timing"),
    # perfbench/tests compares it with the benchmark's oracle.
    ("dtree", "DecisionTree.truth_table"),
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs a module's code reads: its own names bare,
    names imported with `from .m import name` bare, and `m.name` for a
    module imported with `from . import m`. Imports, definitions and the
    strings of __all__ are not reads."""
    imported, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(imported.get(node.id, (module, node.id)))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add((node.value.id, node.attr))
    return reads


def test_every_exported_name_is_read_inside_the_package():
    read = set().union(*(_reads(module, tree) for module, tree in MODULES.items()))
    unread = {(module, name) for module, tree in MODULES.items()
              for name in _exports(tree)} - read
    assert sorted(unread - OUTSIDE_ENTRY_POINTS) == []


def _public_members(tree: ast.Module, classes: list[str]) -> set[tuple[str, str]]:
    """(class, member) for each public method or property of the named classes."""
    return {(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Every attribute name a module's code reads, on any object: a member
    counts as read when any code reads an attribute of its name."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_member_of_an_exported_class_is_read_inside_the_package():
    read = set().union(*(_attribute_reads(tree) for tree in MODULES.values()))
    unread = {(module, f"{cls}.{name}") for module, tree in MODULES.items()
              for cls, name in _public_members(tree, _exports(tree)) if name not in read}
    assert sorted(unread - OUTSIDE_ENTRY_POINTS) == []


def test_every_outside_entry_point_is_exported():
    # A stale entry, naming something deleted, would hide nothing and mislead.
    names = {(module, name) for module, tree in MODULES.items() for name in _exports(tree)}
    members = {(module, f"{cls}.{name}") for module, tree in MODULES.items()
               for cls, name in _public_members(tree, _exports(tree))}
    assert sorted(OUTSIDE_ENTRY_POINTS - names - members) == []
