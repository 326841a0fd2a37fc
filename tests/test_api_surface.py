"""No test-only code in src/: every public top-level function and class of
the package is named by the package's code outside its own definition, or
by the Python code of tools/ or perfbench/, and every parameter default of
a public function is overridden by some call there. A name or a parameter
only tests reach belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spoofkit"
SCRIPTS = sorted((ROOT / "tools").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def names_used(tree, skip=None) -> set:
    """Every identifier `tree` reads, as a name, an attribute or an import,
    leaving out the subtree `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside = set().union(*(names_used(parse(path)) for path in SCRIPTS))
    used = {path: names_used(tree) for path, tree in modules.items()}
    unused = []
    for path, tree in modules.items():
        elsewhere = outside.union(*(names for p, names in used.items() if p != path))
        for node in public_definitions(tree):
            if node.name not in elsewhere | names_used(tree, skip=node):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def passes(call, name, position) -> bool:
    """Whether `call` gives the parameter `name`, at `position` among the
    positional parameters (None if keyword-only), a value of its own."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_parameter_default_is_overridden_by_a_caller_outside_the_tests():
    """A call matches a function by name alone, as `f(...)` or `x.f(...)`;
    a method's positions leave out `self`."""
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")) + SCRIPTS:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        functions = [(node, 0) for node in public_definitions(tree)
                     if isinstance(node, ast.FunctionDef)]
        for cls in public_definitions(tree):
            if isinstance(cls, ast.ClassDef):
                functions += [(node, 1) for node in public_definitions(cls)
                              if isinstance(node, ast.FunctionDef)]
        for fn, first in functions:
            a = fn.args
            params = a.posonlyargs + a.args
            defaulted = [(p.arg, i - first) for i, p in enumerate(params)
                         if i >= len(params) - len(a.defaults)]
            defaulted += [(p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults)
                          if default is not None]
            for name, position in defaulted:
                if not any(passes(call, name, position) for call in calls.get(fn.name, [])):
                    unpassed.append(f"{path.stem}.{fn.name}({name})")
    assert unpassed == []


def test_a_parameter_is_passed_by_keyword_position_or_unpacking():
    call = ast.parse("f(1, b=2)").body[0].value
    assert passes(call, "a", 0) and passes(call, "b", 1)
    assert not passes(call, "c", 2) and not passes(call, "d", None)
    unpacked = ast.parse("f(*xs, **kw)").body[0].value
    assert passes(unpacked, "c", 2) and passes(unpacked, "d", None)


def test_a_name_read_only_inside_its_own_definition_is_unused():
    recursive = "def f(n):\n    return f(n - 1)\n"
    alone = ast.parse(recursive)
    assert "f" not in names_used(alone, skip=alone.body[0])
    called = ast.parse(recursive + "x = f(3)\n")
    assert "f" in names_used(called, skip=called.body[0])


def test_every_exception_class_has_a_caller_that_tells_it_apart():
    """A class in errors.py earns its place only if some code in src/ names it
    in an `except` clause or as the class argument of an `isinstance` call;
    otherwise it exits the same way as its base and is folded into it."""
    told_apart = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                told_apart |= names_used(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                told_apart |= names_used(node.args[1])
    classes = [node.name for node in parse(PACKAGE / "errors.py").body
               if isinstance(node, ast.ClassDef)]
    assert classes and [name for name in classes if name not in told_apart] == []
