"""No test-only code in src/: every public top-level function and class of
the package is named by the package's code outside its own definition, or
in some file of tools/ or perfbench/ (perfbench's README lists the functions
its per-layer metrics trace). A name only tests reach belongs in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spoofkit"


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
    outside = set()
    for folder in ("tools", "perfbench"):
        for path in (ROOT / folder).iterdir():
            if path.is_file():
                outside |= set(re.findall(r"\w+", path.read_text(errors="replace")))
    used = {path: names_used(tree) for path, tree in modules.items()}
    unused = []
    for path, tree in modules.items():
        elsewhere = outside.union(*(names for p, names in used.items() if p != path))
        for node in public_definitions(tree):
            if node.name not in elsewhere | names_used(tree, skip=node):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


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
