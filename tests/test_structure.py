"""Source-level rules that hold for every module of the package."""

import ast
import importlib.util
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "normforge"
TESTS = pathlib.Path(__file__).resolve().parent


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _imported_modules(tree):
    """Names that some import statement in the tree binds to a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), "normforge")
            names.update(alias.asname or alias.name for alias in node.names
                         if _is_module(f"{base}.{alias.name}"))
    return names


def _assigned_attributes(tree):
    """(line, base name, attribute) for every assignment to name.attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    yield sub.lineno, sub.value.id, sub.attr


def test_no_module_assigns_to_an_imported_module():
    # module globals are constants: no module may set a knob on another one
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = _imported_modules(tree)
        offenders += [f"{path.name}:{line}: {base}.{attr}"
                      for line, base, attr in _assigned_attributes(tree) if base in modules]
    assert offenders == []


def _definitions(tree):
    """(line, qualified name, name) of every function, method and class."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child.lineno, prefix + child.name, child.name
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def _docstrings(tree):
    """The docstring nodes: the first statement of a module, class or
    function, when it is a string."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def _mentioned_names(tree):
    """Identifiers a tree reads: names, attributes and words inside strings
    other than docstrings.  Imports and definitions bind names without
    reading them, and prose mentions nothing, so they do not count."""
    docstrings = set(_docstrings(tree))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_definition_is_used():
    # a function, method or class that nothing names is dead code
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    mentioned = set().union(*map(_mentioned_names, trees.values()))
    unused = [f"{path.name}:{line}: {qualname}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for line, qualname, name in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__")) and name not in mentioned]
    assert unused == []
