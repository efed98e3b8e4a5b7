"""The source tree itself: every definition in src is used, each model is
constructed in one RunConfig builder, no parameter repeats a config
default, every other default is one some caller overrides, src runs on
numpy alone, and every name the benchmark's tracer wraps exists."""

import ast
import glob
import importlib
import os
import subprocess
import sys

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


def test_models_are_constructed_only_in_run_config_builders():
    # one construction site per role, so no path can build a model of
    # another size than the config says
    roles = {"TeacherEncoder": "teacher", "StudentEncoder": "student",
             "MapDecoder": "decoder", "MixAdapter": "adapter"}
    builders = {}  # id of a call node inside a RunConfig builder -> builder name
    calls = []  # (path, line, class, enclosing builder or None)
    for path, tree in parsed("src/bevlab").items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                builders.update((id(call), m.name) for m in node.body
                                if isinstance(m, ast.FunctionDef) and m.name in roles.values()
                                for call in ast.walk(m))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name in roles:
                calls.append((path, node.lineno, name, builders.get(id(node))))
    stray = [f"{path}:{line} {name}" for path, line, name, builder in calls
             if builder != roles[name]]
    assert not stray, "a model built outside its RunConfig builder:\n" + "\n".join(stray)
    assert sorted(name for _, _, name, _ in calls) == sorted(roles)


def test_no_src_parameter_shadows_a_config_default():
    # each setting has one default, its row in config.DEFAULTS; a parameter
    # named like a field may default to None at most. The check goes by
    # name, so it cannot catch a field held under another name, such as
    # the camera height that default_rig takes as ``height``.
    from bevlab.config import DEFAULTS
    fields = {name for name, _, _, _ in DEFAULTS}
    found = []
    for path, tree in parsed("src/bevlab").items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{path}:{node.lineno} {a.arg}={ast.unparse(d)}" for a, d in pairs
                      if a.arg in fields and not (isinstance(d, ast.Constant) and d.value is None)]
    assert not found, "a second default for a config field:\n" + "\n".join(found)


# defaulted parameters no src or perfbench call sets, each kept for a reason
UNSET_DEFAULTS = {
    "EvalConfig.thresholds": "grid-cell thresholds will set it (ROADMAP item 2)",
    "Crew.pace": "tests pass in a fake Pace",
    "conv_sites.stride": "mirrors conv2d's geometry, which conv2d checks against",
    "resample_polyline.step": "perfbench's tracer wraps it (ROADMAP item 10)",
    "chamfer_distance.step": "perfbench's tracer wraps it (ROADMAP item 10)",
    "standard_grid.rows": "RunConfig.grid calls it out of mapeval.ROIS, unseen by a name scan",
    "standard_grid.cols": "RunConfig.grid calls it out of mapeval.ROIS, unseen by a name scan",
    "extended_grid.rows": "RunConfig.grid calls it out of mapeval.ROIS, unseen by a name scan",
    "extended_grid.cols": "RunConfig.grid calls it out of mapeval.ROIS, unseen by a name scan",
    "main.argv": "tests run the CLI in process with argv",
}


def unset_defaults():
    """``<function>.<param>`` of every defaulted parameter of a public src
    function or method that no call in src or perfbench sets by keyword,
    by position or through ``*``/``**``. Calls match by name, constructors
    by class name; a method's call binds its first parameter."""
    defs = []  # (called name, qualified name, function node, bound parameters)
    for tree in parsed("src/bevlab").values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name, node, 0))
            if isinstance(node, ast.ClassDef):
                defs += [(node.name, node.name, m, 1) if m.name == "__init__"
                         else (m.name, f"{node.name}.{m.name}", m, 1)
                         for m in node.body if isinstance(m, ast.FunctionDef)]
    calls = {}  # called name -> [(positional count or inf, keyword names or None for **)]
    for tree in list(parsed("src/bevlab").values()) + list(parsed("perfbench").values()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                n_pos = (float("inf") if any(isinstance(x, ast.Starred) for x in node.args)
                         else len(node.args))
                kws = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((n_pos, None if None in kws else kws))
    unset = []
    for called, qual, fn, bound in defs:
        if called.startswith("_") or qual.startswith("_"):
            continue
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args][bound:]
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for param in defaulted:
            index = positional.index(param) if param in positional else float("inf")
            if not any(kws is None or param in kws or n_pos > index
                       for n_pos, kws in calls.get(called, ())):
                unset.append(f"{qual}.{param}")
    return unset


def test_every_default_is_set_by_some_call_or_kept_for_a_reason():
    # a default no caller overrides is a constant in disguise, and a branch
    # that only tests reach
    unset = unset_defaults()
    assert sorted(set(unset) - set(UNSET_DEFAULTS)) == [], \
        "defaulted parameters no src or perfbench call sets"
    assert sorted(set(UNSET_DEFAULTS) - set(unset)) == [], "a listed default is set now; unlist it"


def test_src_never_imports_scipy():
    # scipy is the tests' oracle only; its import cost the lab ~40 MB per process
    found = []
    for path, tree in parsed("src/bevlab").items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path}:{node.lineno} {n}" for n in names
                      if n == "scipy" or n.startswith("scipy.")]
    assert not found, "src imports scipy:\n" + "\n".join(found)


def test_importing_the_cli_loads_no_scipy_module():
    code = ("import bevlab.cli, sys; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [], f"import bevlab.cli loaded {out.strip()}"


def tracer_targets():
    """(module, attr) of every name perfbench/tracer.py wraps: the
    arguments of each ``replace`` call, with the names a for loop unpacks
    bound to each row of the literal table it walks (SPANS is one)."""
    tree = parsed("perfbench")["perfbench/tracer.py"]
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                tables[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:  # not a literal
                pass
    targets = set()

    def literal_rows(loop):
        if isinstance(loop.iter, ast.Name):
            return tables.get(loop.iter.id)
        try:
            return ast.literal_eval(loop.iter)
        except ValueError:
            return None

    def visit(node, env):
        rows = literal_rows(node) if isinstance(node, ast.For) else None
        if rows is not None:
            unpack = isinstance(node.target, ast.Tuple)
            names = [t.id for t in node.target.elts] if unpack else [node.target.id]
            for row in rows:
                for child in node.body:
                    visit(child, {**env, **dict(zip(names, row if unpack else (row,)))})
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace"):
            targets.add(tuple(env[a.id] if isinstance(a, ast.Name) else ast.literal_eval(a)
                              for a in node.args[:2]))
        for child in ast.iter_child_nodes(node):
            visit(child, env)

    visit(tree, {})
    return tables, targets


def test_every_name_perfbench_traces_resolves_in_bevlab():
    # the tracer records a name it cannot find as missing instead of
    # failing, so a rename would silently drop a per-layer metric
    tables, targets = tracer_targets()
    assert {(m, a) for m, a, _ in tables["SPANS"]} <= targets
    assert {("scenegen", "load_dataset"), ("encoders", "batch_stream"),
            ("supervision", "batch_stream"), ("tensors", "adamw_step"),
            ("tensors", "custom_op"), ("encoders", "custom_op")} <= targets
    for module in tables["MODULES"]:  # the tracer rebinds names in each
        importlib.import_module("bevlab." + module)
    missing = []
    for module, attr in sorted(targets):
        owner = importlib.import_module("bevlab." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"bevlab.{module}.{attr}")
    assert not missing, "perfbench/tracer.py wraps names bevlab lacks: " + ", ".join(missing)
