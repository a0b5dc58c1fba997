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


COLLECTOR_STATE = {"disable", "freeze", "set_threshold"}


def test_no_module_sets_collector_state():
    # gc.disable, gc.freeze and gc.set_threshold change the collector for the
    # whole process: a mutable global knob like any other
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        gc_names = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names
                    if alias.name == "gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                offenders += [f"{path.name}:{node.lineno}: gc.{alias.name}"
                              for alias in node.names
                              if alias.name in COLLECTOR_STATE or alias.name == "*"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in gc_names and node.attr in COLLECTOR_STATE):
                offenders.append(f"{path.name}:{node.lineno}: gc.{node.attr}")
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
    """(names, attributes) a tree reads.  Names are identifiers, attributes
    of an imported module (module.name) and words inside strings other than
    docstrings; attributes are those of any other object.  Imports and
    definitions bind names without reading them, and prose mentions nothing,
    so they do not count."""
    docstrings = set(_docstrings(tree))
    modules = _imported_modules(tree)
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            on_module = isinstance(node.value, ast.Name) and node.value.id in modules
            (names if on_module else attributes).add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names, attributes


def test_every_definition_is_used():
    # a function, method or class that nothing names is dead code; a
    # module-level function is not used by an attribute of the same name
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    mentions = [_mentioned_names(tree) for tree in trees.values()]
    names = set().union(*(n for n, _ in mentions))
    attributes = set().union(*(a for _, a in mentions))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for line, qualname, name in _definitions(tree):
            used = name in names or (qualname not in functions and name in attributes)
            if not (used or name.startswith("__") and name.endswith("__")):
                unused.append(f"{path.name}:{line}: {qualname}")
    assert unused == []


def _calls(tree):
    """(function name, positional count or None, keyword names) of every call;
    the count is None when *args is passed, and a **kwargs passes every name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, None if starred else len(node.args), keywords


def test_every_option_is_set():
    # a parameter with a default that no call passes has one value in use:
    # it is a constant, not an option
    sources = (sorted(PACKAGE.parent.rglob("*.py")) + sorted(TESTS.glob("*.py"))
               + sorted((PACKAGE.parent.parent / "perfbench").rglob("*.py")))
    assert len(sources) > 30
    passed = {}  # function name -> (positions passed, keywords passed)
    for path in sources:
        for name, count, keywords in _calls(ast.parse(path.read_text(), filename=str(path))):
            positions, names = passed.setdefault(name, (set(), set()))
            positions.add(float("inf") if count is None else count)
            names.update(keywords)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            positions, names = passed.get(node.name, (set(), set()))
            args = node.args.posonlyargs + node.args.args
            most = max(positions, default=0)
            options = [(i, a.arg) for i, a in enumerate(args)][len(args) - len(node.args.defaults):]
            options += [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                        if d is not None]
            unset += [f"{path.name}:{node.lineno}: {node.name}({arg}=)" for i, arg in options
                      if arg not in names and None not in names
                      and (i is None or most <= i)]
    assert unset == []


def _enclosing(tree, match):
    """Qualified names of the functions holding a node that `match` accepts
    ("" at module level)."""
    def walk(node, qualname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = prefix + child.name
                yield from walk(child, inner if not isinstance(child, ast.ClassDef) else qualname,
                                inner + ".")
            else:
                if match(child):
                    yield qualname
                yield from walk(child, qualname, prefix)

    return set(walk(tree, "", ""))


def _enclosing_functions(tree, name):
    """Qualified names of the functions that read `name` as a name or an
    attribute ("" at module level)."""
    return _enclosing(tree, lambda node: (isinstance(node, ast.Name) and node.id == name)
                      or (isinstance(node, ast.Attribute) and node.attr == name))


def test_field_elements_have_one_stored_form():
    # an element is an integer vector over one denominator; its Fraction
    # coordinates are derived, and clearing runs only on input from rationals
    from normforge.numberfield import FieldElement

    assert "coords" not in FieldElement.__slots__
    assert {"num", "den"} <= set(FieldElement.__slots__)
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers |= {f"{path.name}:{qualname}" for qualname in _enclosing_functions(tree, "_cleared")}
    assert readers == {"numberfield.py:NumberField.element", "polyq.py:UniPoly.__init__"}


INTEGER_METHODS = ("__add__", "__sub__", "__mul__", "divmod", "derivative", "monic",
                   "primitive_int", "int_coeffs")


def test_univariate_polynomials_have_one_stored_form():
    # a polynomial is an integer vector over one denominator; its Fraction
    # coefficients are derived, and its arithmetic runs on the integers
    from normforge.polyq import UniPoly

    assert "coeffs" not in UniPoly.__slots__
    assert {"num", "den"} <= set(UniPoly.__slots__)
    tree = ast.parse((PACKAGE / "polyq.py").read_text(), filename="polyq.py")
    readers = _enclosing_functions(tree, "Fraction")
    assert readers & {f"UniPoly.{name}" for name in INTEGER_METHODS} == set()


def test_only_valuation_reads_the_infinite_valuation():
    # valuation returns INF for zero, so no caller repeats that zero case
    readers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers |= {f"{path.name}:{qualname}" for qualname in _enclosing_functions(tree, "INF")}
    assert readers == {"numberfield.py:", "numberfield.py:valuation"}



DICT_WRITES = {"update", "pop", "popitem", "setdefault", "clear"}


def _writes_tracked(node):
    """A call of LocalPrime.track, or a write to a `.tracked` dict."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        return func.attr == "track" or (func.attr in DICT_WRITES
                                        and isinstance(func.value, ast.Attribute)
                                        and func.value.attr == "tracked")
    return (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "tracked")


def test_only_tracked_node_fills_a_local_prime():
    # split siblings are one shared LocalPrime, so a node is never changed
    # once it has children: only LocalPrime itself and the start node of a
    # chain write tracked data
    writers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writers |= {f"{path.name}:{qualname}" for qualname in _enclosing(tree, _writes_tracked)}
    outside = {w for w in writers if not w.startswith("local.py:LocalPrime.")}
    assert outside == {"radical.py:tracked_node"}


LOCAL_DATA = ("valuation", "residue_map", "padic_unit", "uniformizer", "power_test_in_extension")


def _local_data_readers(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    return set().union(*(_enclosing_functions(tree, name) for name in LOCAL_DATA))


def test_the_start_node_is_the_one_source_of_local_data():
    # every local hypothesis at a prime reads the start node of the prime;
    # only tracked_node computes a valuation or a residue in the chain
    assert _local_data_readers("radical.py") == {"tracked_node"}
    assert _local_data_readers("normeq.py") & {"analyze", "_prime_verdict"} == set()


def test_one_sieve_loop_factors_by_degree():
    # monic and non-monic inputs share the one degree sieve of the
    # irreducibility certificate; no second loop runs distinct_degree
    tree = ast.parse((PACKAGE / "zfactor.py").read_text(), filename="zfactor.py")
    assert _enclosing_functions(tree, "distinct_degree") == {"is_irreducible_over_q"}


def test_trager_runs_on_integers():
    # N_s is interpolated by exact integer differences and a shift is taken
    # on the sieve's certificate, so kpoly names no Fraction and no Yun
    source = (PACKAGE / "kpoly.py").read_text()
    for name in ("Fraction", "factor_over_q", "yun_squarefree"):
        assert not re.search(rf"\b{name}\b", source), name
    tree = ast.parse((PACKAGE / "zfactor.py").read_text(), filename="zfactor.py")
    assert _enclosing_functions(tree, "squarefree_by_sieve") == {"factor_over_q"}


INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "factorial"}


def test_the_only_float_is_the_infinite_valuation():
    # verdicts are exact: numberfield.INF, the valuation of zero, is the one
    # float in the package; no float literal, float() or float-valued math
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    or isinstance(node, ast.Name) and node.id == "float"
                    or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math" and node.attr not in INTEGER_MATH):
                found.append(f"{path.name}: {lines[node.lineno - 1].strip()}")
    assert found == ['numberfield.py: INF = float("inf")']
