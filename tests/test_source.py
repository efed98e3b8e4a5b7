"""The source tree itself: every definition in src is used."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench names these three only as strings, in its tracer's span table;
# they go with the benchmark change that stops tracing them
STRING_ONLY = {"resample_polyline", "match_instances", "cell_visibility"}


def parsed(folder):
    """{path: module tree} of the .py files directly under ROOT/folder."""
    paths = sorted(glob.glob(os.path.join(ROOT, folder, "*.py")))
    trees = {}
    for path in paths:
        with open(path) as f:
            trees[os.path.relpath(path, ROOT)] = ast.parse(f.read(), path)
    return trees


def test_every_definition_in_src_is_referenced_by_name():
    src = parsed("src/bevlab")
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in list(src.values()) + list(parsed("perfbench").values())
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    defined = []  # (path, name): top-level functions and classes, and their methods
    for path, tree in src.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, node.name))
            if isinstance(node, ast.ClassDef):
                # dunder methods run by protocol, never by name
                defined += [(path, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
    assert STRING_ONLY <= {name for _, name in defined}, "a listed name is gone; unlist it"
    dead = [f"{path}: {name}" for path, name in defined
            if name.rsplit(".", 1)[-1] not in used | STRING_ONLY]
    assert not dead, "defined but referenced nowhere in src or perfbench:\n" + "\n".join(dead)
