"""Guard against regrowth of unreached code: every top-level function,
class and assigned name of the package must be named by code outside
``tests/`` — in the
package itself, ``examples/``, ``bench.py``, ``perfbench/`` or
``__ray_entry__.py``. Code that only tests call is deleted together with
its tests; the few test oracles and fakes kept on purpose are listed in
ALLOWED with their reason.

"Named by code" counts identifiers, attribute names, imported names and
words of string literals (the lazy exports dispatch on strings), but not
docstrings or comments, and not the definition's own body."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "epichypersketch_jl_ray"

ALLOWED = {
    ("__init__.py", "__getattr__"): "module hook: Python calls it for the lazy exports",
    ("sources/reference_fixtures.py", "make_ordinary_dict"): "reference test fixture",
    ("sources/reference_fixtures.py", "make_conv_dict"): "reference test fixture",
    ("sources/reference_fixtures.py", "brute_force_subset_counts"): "brute-force oracle for the motif tests",
    ("sources/reference_fixtures.py", "brute_force_conv_counts"): "brute-force oracle for the motif tests",
}


def _non_test_files() -> list[Path]:
    return (
        sorted(PACKAGE.rglob("*.py"))
        + sorted((ROOT / "examples").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
        + [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    )


def _names(tree: ast.AST) -> Counter:
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            out.update(w for w in node.value.replace(".", " ").split() if w.isidentifier())
    return out


def _top_level_defs(path: Path, tree: ast.Module):
    """(module path, name, defining node) of every top-level def, class and
    assignment target."""
    rel = path.relative_to(PACKAGE).as_posix()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield rel, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield rel, name.id, node


def test_every_package_definition_is_reached_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in _non_test_files()}
    names = Counter()
    for tree in trees.values():
        names.update(_names(tree))
    defs = [
        (rel, name, node)
        for path in sorted(PACKAGE.rglob("*.py"))
        for rel, name, node in _top_level_defs(path, trees[path])
    ]
    unreached = [
        f"{rel}:{name}"
        for rel, name, node in defs
        if names[name] - _names(node)[name] <= 0 and (rel, name) not in ALLOWED
    ]
    assert not unreached, f"named only in tests (delete them, or allowlist with a reason): {unreached}"
    stale = set(ALLOWED) - {(rel, name) for rel, name, _node in defs}
    assert not stale, f"allowlisted but no longer defined: {stale}"
