"""The package holds no code that only the tests call."""

import ast
import builtins
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _names_in(node):
    """Loaded names, attributes, imported names, and "module.name" strings
    used as an index (the bench tracer calls its originals that way)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, (ast.Attribute, ast.alias)):
            yield n.attr if isinstance(n, ast.Attribute) else n.name
        elif isinstance(n, ast.Subscript) and isinstance(getattr(n.slice, "value", None), str):
            yield n.slice.value.rpartition(".")[2]


def _defined(node):
    """The names a top-level def, class or assignment binds ([] for others)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reached():
    """The top-level names of src/cijt modules, and those reached from
    scripts/, bench/ or a module's top-level code through the definitions
    that reach them: one that only an unreached definition names is not.
    Also the names cijt/__init__ binds, per statement."""
    reached, definitions = set(), {}
    for pattern in ("scripts/*.py", "bench/*.py", "src/cijt/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            if path.endswith("__init__.py"):
                init = [_defined(node) for node in tree.body]
            elif pattern.startswith("src"):
                for node in tree.body:
                    for name in _defined(node):
                        definitions.setdefault(name, []).append(node)
                    reached.update(() if _defined(node) else _names_in(node))
            else:
                reached.update(_names_in(tree))
    todo = list(reached)
    while todo:
        for node in definitions.get(todo.pop(), ()):
            todo += set(_names_in(node)) - reached
            reached.update(todo)
    return definitions, reached, init


def test_every_public_name_has_a_caller():
    """Every public top-level name of src/cijt is reached from scripts/,
    bench/ or a module's top-level code.  cijt/__init__ holds its docstring
    and __version__, and re-exports nothing."""
    definitions, reached, init = _reached()
    assert sorted(n for n in definitions if n not in reached and not n.startswith("_")) == []
    assert init == [[], ["__version__"]]


def test_every_private_name_has_a_caller():
    """The same walk for private names: a helper folded into its caller but
    left defined is reached from nowhere."""
    definitions, reached, _ = _reached()
    assert sorted(n for n in definitions if n not in reached and n.startswith("_")) == []


def test_every_import_is_used():
    """Every top-level import of a src/cijt module binds a name the module
    loads; a __future__ import binds none."""
    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src/cijt/*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in loaded:
                        unused.append("%s: %s" % (os.path.basename(path), name))
    assert unused == []


def _annotation_names(tree):
    """The names read by every annotation of a module, of arguments, returns
    and annotated assignments; a string in one (such as -> "Exact") is parsed
    as the expression it stands for."""
    todo = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.arg, ast.AnnAssign)):
            todo.append(n.annotation)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.append(n.returns)
    todo = [a for a in todo if a is not None]
    while todo:
        for n in ast.walk(todo.pop()):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                todo.append(ast.parse(n.value, mode="eval").body)
            elif isinstance(n, ast.Name):
                yield n.id


def test_every_annotation_name_is_bound():
    """Every name an annotation of a src/cijt module reads is imported,
    defined at its top level, or a builtin.  No code evaluates annotations
    (every module has from __future__ import annotations), so a name whose
    import went would otherwise pass unnoticed."""
    unbound = set()
    for name, tree in _module_trees():
        bound = set(dir(builtins))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
            else:
                bound.update(_defined(node))
        unbound.update("%s: %s" % (name, n) for n in _annotation_names(tree) if n not in bound)
    assert sorted(unbound) == []


MODULE_CAP = 20314  # bytes: compiling the largest module sets a cijt process's peak memory


def test_modules_stay_under_the_size_cap():
    """With no bytecode cache, compiling the largest module sets a cijt
    process's peak memory, so no module grows past the cap (see README)."""
    sizes = {os.path.basename(p): os.path.getsize(p) for p in glob.glob(os.path.join(ROOT, "src/cijt/*.py"))}
    assert len(sizes) > 5 and {name: n for name, n in sizes.items() if n > MODULE_CAP} == {}


def _module_trees(*skipped):
    """(file name, AST) of each src/cijt module but the skipped ones."""
    for path in sorted(glob.glob(os.path.join(ROOT, "src/cijt/*.py"))):
        name = os.path.basename(path)
        if name not in skipped:
            with open(path) as fh:
                yield name, ast.parse(fh.read())


def test_block_kinds_stay_in_normal_forms():
    """Every other module reads a block's eigen-angle, never its class: none
    imports N1, D, R or N2."""
    bad = ["%s imports %s" % (name, a.name)
           for name, tree in _module_trees("normal_forms.py", "__init__.py")
           for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
           for a in node.names if a.name in ("N1", "D", "R", "N2")]
    assert bad == []


def test_block_angles_are_read_in_iteration_only():
    """Outside normal_forms and iteration no module reads a block's .angle
    or .minus, or a .monodromy.blocks: PathClass.spectral holds each block
    angle as integers, and every other module reads that table."""
    bad = ["%s:%d reads .%s" % (name, node.lineno, node.attr)
           for name, tree in _module_trees("normal_forms.py", "iteration.py")
           for node in ast.walk(tree) if isinstance(node, ast.Attribute)
           if node.attr in ("angle", "minus") or node.attr == "blocks"
           and isinstance(node.value, ast.Attribute) and node.value.attr == "monodromy"]
    assert bad == []


KERNEL = ("_edges", "_locate", "_next_hit", "_returns", "_return_time",
          "_PathData", "_try_path", "_least_residual")


def test_search_kernel_lives_in_search_only():
    """The fixed-point search kernel has one owner: no module but _search
    defines or imports a name of it, except that engine imports the three
    that drive a search."""
    found = []
    for name, tree in _module_trees("_search.py"):
        for node in tree.body:
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else _defined(node)
            found += ["%s: %s" % (name, n) for n in names if n in KERNEL]
    assert sorted(found) == ["engine.py: _PathData", "engine.py: _least_residual", "engine.py: _try_path"]
