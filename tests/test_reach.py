"""Every exported name reaches the product: each name in a module's
__all__ is read by some code of the package other than its definition
and its __all__ entry, unless it is one of the outside entry points below."""
import ast
from pathlib import Path

import rorrlab

PACKAGE = Path(rorrlab.__file__).parent

# Names that callers outside the package call, so they need no reader inside it.
OUTSIDE_ENTRY_POINTS = {
    # The benchmark's calls (perfbench/workloads.py).
    ("distinguish", "advantage"),
    ("qsim", "amplified_solver"),
    ("qsim", "run_rorrelation_circuit"),
    ("rorrelation", "classify"),
    ("rorrelation", "phi"),
    # CI's comparison of two manifests.
    ("verify", "strip_timing"),
    # File-format halves the tests use; the package uses the other half.
    ("boolfn", "spectrum_from_json"),
    ("boolfn", "write_truth_table_bytes"),
    ("boolfn", "write_truth_table_csv"),
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
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    read = set().union(*(_reads(module, tree) for module, tree in modules.items()))
    unread = {(module, name) for module, tree in modules.items()
              for name in _exports(tree)} - read
    assert sorted(unread - OUTSIDE_ENTRY_POINTS) == []
