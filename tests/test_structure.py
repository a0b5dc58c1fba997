"""Source-level rules that hold for every module of the package."""

import ast
import importlib.util
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "normforge"


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
